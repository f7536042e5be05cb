"""Tests for the report structures, suite runner, and command line."""

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hochheat import chains, circle, cli, spectral, suite
from hochheat.chains import TensorChain, bar_bprime, hochschild_b
from hochheat.chern import chern_density
from hochheat.cli import main
from hochheat.forms import hkr_symbol
from hochheat.report import FAIL, CheckResult, VerificationReport
from hochheat.spectral import CONVENTION_TAG, cache_path, harmonic_supertrace, load_spectrum
from hochheat.suite import SuiteConfig, run_suite
from oracles import report_from_json


def _strip_volatile(report: VerificationReport):
    return [
        (c.id, c.claim, c.computed, c.target, c.tolerance, c.verdict)
        for c in report.checks
    ]


def test_report_json_round_trip():
    report = run_suite(["cycles"], SuiteConfig(max_weyl=2))
    again = report_from_json(report.to_json())
    assert again == report


def test_report_checks_sorted_and_unique():
    report = run_suite(["localization", "chern"])
    ids = [c.id for c in report.checks]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_report_rejects_bad_verdict_and_duplicate_ids():
    good = CheckResult("a", "c", "1", "1", "exact", "pass", 0.0)
    with pytest.raises(ValueError):
        CheckResult("a", "c", "1", "1", "exact", "maybe", 0.0)
    with pytest.raises(ValueError):
        VerificationReport.build("0", [good, good])


def test_suite_is_deterministic_modulo_timing():
    cfg = SuiteConfig(seed=3, samples=10)
    a = run_suite(["tsygan", "shuffle"], cfg)
    b = run_suite(["tsygan", "shuffle"], cfg)
    assert _strip_volatile(a) == _strip_volatile(b)


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown check families"):
        run_suite(["cycles", "nonsense"])


def test_text_rendering_contains_summary():
    report = run_suite(["shuffle"])
    text = report.to_text()
    assert "shuffle.leibniz" in text
    assert "0 failed" in text


def test_cli_single_family_exit_zero(capsys):
    assert main(["cycles", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "cycles.boundary.omega4" in out
    assert "cycles.boundary.omega6" not in out


def test_cli_alias_verify_cycles(capsys):
    assert main(["verify-cycles", "--n", "1"]) == 0
    assert "cycles.boundary.omega2" in capsys.readouterr().out


def test_cli_json_format(capsys):
    assert main(["--format", "json", "shuffle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"]
    assert all(c["verdict"] == "pass" for c in payload["checks"])


def test_cli_invalid_flag_values(capsys):
    assert main(["cycles", "--n", "0"]) == 2
    assert "--n" in capsys.readouterr().err
    for flag in ("--product", "--levels"):  # removed with the product family
        with pytest.raises(SystemExit) as exc:
            main(["chern-integrals", flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert main(["mckean-singer", "--t-min", "2.0", "--t-max", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "t-max" in err


def test_module_entry_point_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "hochheat", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hochheat")


def test_mckean_singer_stays_flat_at_large_times(capsys):
    # the kernel eigenvalues are exactly 0, so their rounding cannot tilt the
    # supertrace as e^(-t lam) decays: at (3, 12) it used to reach 1.6e-8 at t = 1e6
    assert main(["--format", "json", "mckean-singer", "--k", "3", "--trunc", "12",
                 "--t-max", "1e6"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["verdict"] == "pass"


@pytest.mark.parametrize("command", ["cycles", "symbol"])
def test_cli_bounds_the_cost_of_n(command, capsys):
    assert main([command, "--n", "5"]) == 2
    assert "--n must be between 1 and 4" in capsys.readouterr().err


def test_cli_bump_and_grid_parsing(capsys):
    code = main(["localization", "--bump", "0.3,0.15,2", "--t-grid", "0.01:0.1:6"])
    assert code == 0
    with pytest.raises(SystemExit):
        main(["localization", "--bump", "bad"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["localization", "--bump", "a,0.2,2"])
    assert exc.value.code == 2 and "--bump could not parse" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["localization", "--t-grid", "1:2"])
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--l1", "0.5", "--bump", "0.2,0.1,2"],
                                  ["--l1", "0.6", "--l2", "0.7"],
                                  ["--l1", "0.6", "--l2", "0.7", "--t-grid", "0.02:0.1:5"]])
def test_long_time_gap_holds_on_short_circles(argv, capsys):
    # short times are in units of Lmin^2, so the 1e-10 target at s = 0.01 holds on
    # short circles too; a grid from s = 0.02, where the image tail is 7.5e-6 of the
    # free-line trace, fails it
    late = "--t-grid" in argv
    code = main(["--format", "json", "localization", *argv])
    verdicts = {c["id"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert verdicts["localization.long-time.gap"] == "pass"
    assert verdicts["localization.short-time.smallt"] == ("fail" if late else "pass")
    assert code == (1 if late else 0)


@pytest.mark.parametrize("argv", [["--l1", "0.003", "--l2", "0.003", "--bump", "0,0.001,2"],
                                  ["--l1", "1000", "--l2", "1000"]], ids=["short", "long"])
def test_poisson_check_holds_on_very_short_and_very_long_circles(argv, capsys):
    # its times are in units of each circumference squared; at fixed absolute times
    # the theta series of these circles needs more terms than it may sum
    code = main(["--format", "json", "localization", *argv])
    verdicts = {c["id"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 0
    assert verdicts["localization.poisson"] == "pass"


def test_removed_quadrature_method_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chern-integrals", "--method", "gauss-legendre"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_cli_spectrum_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    assert main(["spectrum", "--k", "1", "--trunc", "8"]) == 0
    capsys.readouterr()
    path = cache_path(str(tmp_path), 1, 8)
    assert os.path.exists(path)
    # second run hits the cache and says so
    assert main(["spectrum", "--k", "1", "--trunc", "8"]) == 0
    assert "(cached)" in capsys.readouterr().out
    # --no-cache bypasses reading and writing
    os.remove(path)
    assert main(["spectrum", "--k", "1", "--trunc", "8", "--no-cache"]) == 0
    capsys.readouterr()
    assert not os.path.exists(path)


def test_cli_all_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path / "cache"))
    target = tmp_path / "report.json"
    assert main(["all", "--report", str(target)]) == 0
    capsys.readouterr()
    report = report_from_json(target.read_text())
    assert report.all_passed()
    families = {c.id.split(".")[0] for c in report.checks}
    assert families == {
        "cycles", "shuffle", "symbol", "tsygan", "spectrum",
        "mckean-singer", "harmonic", "chern", "localization",
    }


def test_cli_unwritable_report_path_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("the suite ran although the report cannot be written")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert main(["all", "--report", str(tmp_path / "no-such-dir" / "r.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert main(["all", "--report", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_exit_nonzero_on_failure(monkeypatch, capsys):
    # force a failing check by breaking a target inside a copied family
    from hochheat import suite as suite_mod
    from hochheat.report import CheckResult

    def bad_family(cfg):
        return [CheckResult("zzz.forced", "forced failure", "1", "0", "exact", "fail", 0.0)]

    monkeypatch.setitem(suite_mod.FAMILIES, "cycles", bad_family)
    assert main(["cycles"]) == 1
    assert "fail" in capsys.readouterr().out


def _summary_with(**fields):
    """The text of a valid cache file for (k, trunc) = (1, 8), with some fields replaced."""
    return json.dumps({**spectral.spectrum_summary(spectral.build_model(1, 8)), **fields})


def _cache_file(content):
    """A cache directory whose file for (1, 8) holds `content`; it is rewritten on a miss."""
    def make(tmp_path):
        with open(cache_path(str(tmp_path), 1, 8), "w", encoding="utf-8") as fh:
            fh.write(content() if callable(content) else content)
        return str(tmp_path), True
    return make


def _directory_at_the_file(tmp_path):
    os.mkdir(cache_path(str(tmp_path), 1, 8))
    return str(tmp_path), False


def _cache_dir_under_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return str(tmp_path / "file" / "sub"), False


@pytest.mark.parametrize(
    "make",
    [_cache_file("{not json"), _cache_file("[1, 2]"),
     _cache_file(json.dumps({"k": 1, "trunc": 8, "tag": CONVENTION_TAG})),
     _cache_file("[" * 100000),
     _cache_file(lambda: _summary_with(eigs1="x")),
     _cache_file(lambda: _summary_with(eigs0=[[0.0]])),
     _cache_file(lambda: _summary_with(dim_harmonic0=2.0)),
     _cache_file(lambda: _summary_with(dim_harmonic1=False)),
     _directory_at_the_file, _cache_dir_under_a_file],
    ids=["not-json", "not-an-object", "missing-fields", "nested-too-deeply", "eigs1-not-a-list",
         "short-cluster", "float-count", "bool-count", "directory-at-the-file",
         "cache-dir-under-a-file"],
)
def test_cli_broken_cache_file_is_a_miss(tmp_path, capsys, monkeypatch, make):
    # an unreadable file or a field of the wrong type or shape is a miss; an
    # unwritable cache leaves the result uncached; neither is an error
    cache_dir, writable = make(tmp_path)
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", cache_dir)
    assert main(["spectrum", "--k", "1", "--trunc", "8"]) == 0
    out, err = capsys.readouterr()
    assert "(cached)" not in out and err == ""
    stored = load_spectrum(cache_dir, 1, 8)
    assert stored["dim_harmonic0"] == 2 if writable else stored is None


def _wrap_sign_flipped_b(c):
    """hochschild_b with the sign of the wrap-around term flipped: b' - (b - b')."""
    return 2 * bar_bprime(c) + (-1) * hochschild_b(c)


def _chain(n, pairs, den):
    """The chain sum(num * word) / den over (word of keys, num) pairs, in canonical form."""
    acc = {}
    for word, num in pairs:
        acc[word] = acc.get(word, 0) + num
    nums = {w: k for w, k in acc.items() if k}
    g = math.gcd(den, *nums.values())
    return TensorChain(n, {w: k // g for w, k in nums.items()}, den // g)


def _symbol_dropping_last_slot(c):
    return hkr_symbol(_chain(c.n, [(w[:-1], k) for w, k in c.nums.items()], c.den))


def _unsigned_tau(c):
    return _chain(c.n, [(w[-1:] + w[:-1], k) for w, k in c.nums.items()], c.den)


def _unsigned_norm(c):
    return _chain(c.n, [(w[j:] + w[:j], k) for w, k in c.nums.items() for j in range(len(w))],
                  c.den)


def _unsigned_shuffles(p, q, shuffles=chains._shuffles):
    return [(order, 0) for order, _ in shuffles(p, q)]


def _degree_one_eigh(perturb):
    """np.linalg.eigh with `perturb` applied to the eigenvalues of every second call.

    `build_model` solves the degree-0 and then the degree-1 block of each
    charge, so the perturbed calls are exactly the degree-1 solves.
    """
    real_eigh, calls = np.linalg.eigh, itertools.count()

    def eigh(a):
        lam, vecs = real_eigh(a)
        return (perturb(lam) if next(calls) % 2 else lam), vecs
    return eigh


def _scaled_spectral_diagonal(t, length, real=circle.heat_diagonal_spectral):
    return real(t, length) * (1 + 1e-12)


def _halved_image_tail(t, length):
    """The image-sum kernel diagonal with its tail over n != 0 halved."""
    return ((1.0 + circle._theta_tail(length * length / (4.0 * t)) / 2)
            / math.sqrt(4.0 * math.pi * t))


def _doubled_dbar_star(a, b, n_trunc, k, dbar_star=spectral._dbar_star):
    """dbar* with its first coefficient doubled."""
    return {key: 2 * c if key[0] == a - 1 else c
            for key, c in dbar_star(a, b, n_trunc, k).items()}


@pytest.mark.parametrize(
    "owner, name, mutant, argv, check_id",
    [
        (suite, "hochschild_b", _wrap_sign_flipped_b, ["cycles", "--n", "1"],
         "cycles.boundary.omega2"),
        (suite, "bar_bprime", lambda c: (-1) * bar_bprime(c), ["tsygan", "--samples", "5"],
         "tsygan.intertwine"),
        (suite, "harmonic_supertrace", lambda *a: harmonic_supertrace(*a) + 1.0,
         ["harmonic", "--k", "0"], "harmonic.identity.k0"),
        (suite, "poisson_deviation", lambda t, length: 1.0, ["localization"],
         "localization.poisson"),
        (suite, "hkr_symbol", _symbol_dropping_last_slot, ["symbol", "--n", "1"],
         "symbol.volume.n1"),
        (suite, "cyclic_tau", _unsigned_tau, ["tsygan", "--samples", "5"], "tsygan.intertwine"),
        (suite, "norm_n", _unsigned_norm, ["tsygan", "--samples", "5"], "tsygan.norm"),
        (chains, "_shuffles", _unsigned_shuffles, ["shuffle"], "shuffle.leibniz"),
        (np.linalg, "eigh", _degree_one_eigh(lambda lam: lam * (1 + 1e-9)), ["mckean-singer"],
         "mckean-singer.flat.k1"),
        (spectral, "_dbar_star", _doubled_dbar_star, ["spectrum", "--no-cache"],
         "spectrum.susy.pairing"),
        (spectral, "_dbar_star", _doubled_dbar_star, ["mckean-singer"], "mckean-singer.flat.k1"),
        (suite, "chern_density", lambda m: lambda x, y: chern_density(m)(x, y) * (1 + 1e-6),
         ["chern-integrals"], "chern.degree.o1"),
        (circle, "heat_diagonal_spectral", _scaled_spectral_diagonal, ["localization"],
         "localization.short-time.bound"),
        # the top degree-1 cluster, 120 at (k, N) = (1, 10), moves by 1e-3
        (np.linalg, "eigh", _degree_one_eigh(lambda lam: np.where(lam > 100, lam + 1e-3, lam)),
         ["spectrum", "--no-cache"], "spectrum.susy.pairing"),
        (circle, "heat_diagonal_images", _halved_image_tail, ["localization"],
         "localization.long-time.gap"),
        (suite, "harmonic_supertrace", lambda *a: harmonic_supertrace(*a) + 1.0,
         ["chern-integrals"], "chern.todd-vs-harmonic"),
    ],
    ids=["boundary", "failures", "tolerance", "localization", "symbol-slot", "tau-sign",
         "norm-sign", "shuffle-sign", "eigenvalue-offset", "dbar-star-susy", "dbar-star-flat",
         "todd-scale", "spectral-diagonal-scale", "susy-top-cluster", "halved-image-tail",
         "section-count"],
)
def test_each_check_shape_can_fail(monkeypatch, capsys, owner, name, mutant, argv, check_id):
    monkeypatch.setattr(owner, name, mutant)
    assert main(["--format", "json", *argv]) == 1
    verdicts = {c["id"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert verdicts[check_id] == "fail"


def test_setup_work_is_timed(monkeypatch):
    real_build = suite.build_model

    def slow_build(*args, **kwargs):
        time.sleep(0.05)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(suite, "build_model", slow_build)
    report = run_suite(["harmonic"], SuiteConfig(harmonic_ks=(0,)))
    # the model is built before the first check of the family, the identity supertrace
    first = next(c for c in report.checks if c.id == "harmonic.identity.k0")
    assert first.runtime_ms >= 50


@pytest.mark.parametrize("command, families", [
    (alias, row[0]) for name, row in cli.COMMANDS.items() for alias in (name, *row[1])])
def test_table_without_flags_gives_the_default_config(command, families):
    assert cli._selection(cli._build_parser().parse_args([command])) == (families, SuiteConfig())


def test_table_flags_set_every_config_field_and_nothing_else():
    fields = {field for row in cli.COMMANDS.values() for _, field, _ in row[3]}
    assert fields == set(SuiteConfig.__dataclass_fields__)
    families, cfg = cli._selection(cli._build_parser().parse_args(
        ["localization", "--l1", "2", "--bump", "0.3,0.15,2"]))
    assert families == ["localization"]
    assert cfg == SuiteConfig(length_a=2.0, bump=(0.3, 0.15, 2))


@pytest.mark.parametrize(
    "field, value, flag, argv",
    [
        ("samples", 0, "--samples", ["tsygan", "--samples", "0"]),
        ("samples", 10_001, "--samples", ["tsygan", "--samples", "10001"]),
        ("max_weyl", 0, "--n", ["symbol", "--n", "0"]),
        ("harmonic_ks", (), "--k", None),
        ("points", 10_001, "--points", ["mckean-singer", "--points", "10001"]),
        ("t_min", math.nan, "--t-min", ["mckean-singer", "--t-min", "nan"]),
        ("t_max", math.inf, "--t-max", ["mckean-singer", "--t-max", "inf"]),
        ("harmonic_ks", (39,), "--k", ["harmonic", "--k", "39"]),
        ("short_times", (0.01, math.inf), "--t-grid", ["localization", "--t-grid", "1e-300:1e300:3"]),
        ("short_times", (), "--t-grid", None),
        ("harmonic_ks", (-1,), "--k", ["harmonic", "--k", "-1"]),
    ],
)
def test_config_and_command_line_refuse_the_same_values(field, value, flag, argv, capsys):
    with pytest.raises(ValueError, match=flag):
        SuiteConfig(**{field: value})
    if argv is not None:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err


def test_failures_with_no_samples_is_a_fail():
    rec = suite._Recorder()
    rec.failures("x.empty", "an identity on no samples", lambda _: True, [])
    assert rec.results[0].verdict == FAIL


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--k", "0", "--trunc", "40", "--no-cache"],
        ["harmonic", "--k", "40"],
        ["mckean-singer", "--k", "10", "--trunc", "12"],
        ["localization", "--bump", "nan,0.2,2"],
        ["localization", "--l2", "1e200"],
        ["spectrum", "--trunc", "30000", "--no-cache"],
        ["harmonic", "--k", "30000"],
    ],
    ids=["spectrum", "harmonic", "mckean-singer", "nan-bump", "overflowing-length",
         "oversized-trunc", "oversized-k"],
)
def test_refused_model_or_geometry_exits_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("text", ["0.01:inf:5", "nan:0.1:5", "0.01:0.1:10001"])
def test_grid_flag_refuses_non_finite_ends_and_huge_counts(text):
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid(text)


def test_kernel_forms_check_can_fail(monkeypatch, capsys):
    # zero the smallest eigenvalue of each degree-1 block; degree 0 keeps its kernel
    def zeroed(lam):
        lam[0] = 0.0
        return lam

    monkeypatch.setattr(np.linalg, "eigh", _degree_one_eigh(zeroed))
    assert main(["--format", "json", "spectrum", "--no-cache"]) == 1
    verdicts = {c["id"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert verdicts["spectrum.kernel.forms"] == "fail"
    assert verdicts["spectrum.kernel.sections"] == "pass"
