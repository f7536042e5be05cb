"""Tests for the report structures, suite runner, and command line."""

import dataclasses
import errno
import gc
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from hochheat import chains, circle, cli, forms, spectral, suite
from hochheat.chains import TensorChain, bar_bprime, hochschild_b
from hochheat.chern import QuadratureResult, chern_density
from hochheat.cli import main
from hochheat.forms import hkr_symbol
from hochheat.report import FAIL, PASS, CheckResult, VerificationReport
from hochheat.spectral import cache_path, harmonic_supertrace, load_spectrum
from hochheat.suite import SuiteConfig, run_suite
from hochheat.weyl import mono_product, unit
from oracles import dbar_chi_without_its_second_term, doubled_dbar_star, report_from_json


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
    cfg = SuiteConfig(seed=3)
    a = run_suite(["tsygan", "shuffle"], cfg)
    b = run_suite(["tsygan", "shuffle"], cfg)
    assert _strip_volatile(a) == _strip_volatile(b)


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown check families"):
        run_suite(["cycles", "nonsense"])


def test_a_repeated_family_is_rejected_before_any_work(monkeypatch):
    monkeypatch.setattr(suite, "build_model", lambda k, trunc: pytest.fail("a model was built"))
    with pytest.raises(ValueError, match="check family 'harmonic' is selected more than once"):
        run_suite(["harmonic", "cycles", "harmonic"])


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


def _module_env(**extra):
    """The environment for `python -m hochheat` in a subprocess: this package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_readme_command_lines_parse():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("hochheat ")]
    assert len(lines) >= 9
    for argv in lines:  # a line that does not parse exits 2, its error on stderr
        cli._build_parser().parse_args(argv[1:])


def test_module_entry_point_runs_the_command_line():
    proc = subprocess.run([sys.executable, "-m", "hochheat", "--help"], env=_module_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hochheat")


def test_a_closed_stdout_keeps_the_report_and_prints_no_traceback(tmp_path):
    # `hochheat all --report r.json | head -1` once left r.json empty behind a BrokenPipeError
    env = _module_env(HOCHHEAT_CACHE_DIR=str(tmp_path / "cache"))
    report = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hochheat", "all", "--report", str(report)],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(report_from_json(report.read_text()).checks) == 37


def test_mckean_singer_stays_flat_at_large_times():
    # the kernel eigenvalues are exactly 0, so their rounding cannot tilt the
    # supertrace as e^(-t lam) decays: at (3, 12) it used to reach 1.6e-8 at t = 1e6
    # the suite reads limit_supertrace of the identity, the benchmark heat_supertrace
    model, grid = spectral.build_model(3, 12), np.linspace(0.2, 1e6, 20)
    series, _ = spectral.limit_supertrace(model, unit(1), grid)
    for t, s in zip(grid, series):
        assert abs(spectral.heat_supertrace(model, float(t)) - 4) <= 1e-10
        assert abs(s - 4) <= 1e-10


@pytest.mark.parametrize("command", ["cycles", "symbol"])
def test_cli_bounds_the_cost_of_n(command, capsys):
    assert main([command, "--n", "5"]) == 2
    assert "--n must be between 1 and 4" in capsys.readouterr().err


def test_removed_quadrature_method_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chern-integrals", "--method", "gauss-legendre"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["localization", "--l1", "1"], ["localization", "--l2", "1.7"],
    ["localization", "--bump", "0.35,0.2,2"], ["localization", "--t-grid", "0.01:0.1:10"],
    ["tsygan", "--samples", "5"], ["mckean-singer", "--t-min", "0.5"],
    ["mckean-singer", "--t-max", "1e6"], ["mckean-singer", "--points", "7"],
])
def test_removed_geometry_flags_are_refused(argv, capsys):
    # the circle lane runs one fixed geometry, suite.LENGTHS, BUMP and SHORT_TIMES, the
    # random identities draw suite.SAMPLES samples and mckean-singer reads one heat grid
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_cli_spectrum_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    assert main(["spectrum", "--k", "1", "--trunc", "8"]) == 0
    capsys.readouterr()
    path = cache_path(str(tmp_path), 1, 8)
    with open(path, encoding="utf-8") as fh:  # the text that the rows of broken files vary
        assert fh.read() == _summary_with()
    # second run hits the cache and says so
    assert main(["spectrum", "--k", "1", "--trunc", "8"]) == 0
    assert "(cached)" in capsys.readouterr().out
    # the flag that skipped the cache is gone
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--k", "1", "--trunc", "8", "--no-cache"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-cache" in capsys.readouterr().err


def _spectrum_checks(capsys):
    """(id, computed without its " (cached)" note, verdict) of each check of `spectrum`, and
    whether any check said "(cached)"."""
    assert main(["--format", "json", "spectrum"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    rows = [(c["id"], c["computed"].removesuffix(" (cached)"), c["verdict"]) for c in checks]
    return rows, any(c["computed"].endswith(" (cached)") for c in checks)


def test_a_forged_cache_file_is_a_miss_and_is_rewritten(tmp_path, capsys, monkeypatch):
    # a (1, 10) file whose every eigenvalue is 2.0, at the right counts and in the right
    # layout, once passed all three spectrum checks as "(cached)"
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    path = cache_path(str(tmp_path), 1, 10)
    cold, cached = _spectrum_checks(capsys)
    assert not cached
    with open(path, "rb") as fh:
        record = fh.read()
    warm, cached = _spectrum_checks(capsys)
    assert cached and warm == cold
    summary = json.loads(record)
    summary.update(eigs0=[2.0] * len(summary["eigs0"]), eigs1=[2.0] * len(summary["eigs1"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
    forged, cached = _spectrum_checks(capsys)
    assert not cached and forged == cold
    pairing = {i: c for i, c, _ in forged}["spectrum.susy.pairing"]
    assert pairing == ("4.263256414560601e-14 "
                       "(max deviation over 130 section and 130 form eigenvalues)")
    with open(path, "rb") as fh:
        assert fh.read() == record


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


def test_cli_empty_report_path_exits_2_before_the_run(capsys, monkeypatch):
    # an empty path once ran the suite, wrote no report and exited 0
    def no_run(*args):
        raise AssertionError("the suite ran although the report cannot be written")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert main(["all", "--report", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot write the report to '': No such file or directory\n"


class _FullSink(io.StringIO):
    """A report file on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("where", ["write", "close"])
def test_cli_report_that_cannot_be_written_exits_2(where, capsys, monkeypatch):
    # a full disk once raised OSError out of the report's write, a traceback and exit 1
    if where == "write":
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullSink(), raising=False)
    elif not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    # a short report stays in the file's buffer until close flushes it to /dev/full
    monkeypatch.setattr(cli, "run_suite", lambda names, cfg: run_suite(["shuffle"], cfg))
    assert main(["all", "--report", "/dev/full"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot write the report to '/dev/full': No space left on device\n"


def test_cli_exit_nonzero_on_failure(monkeypatch, capsys):
    # force a failing check by breaking a target inside a copied family
    from hochheat import suite as suite_mod
    from hochheat.report import CheckResult

    def bad_family(cfg, omegas):
        return [CheckResult("zzz.forced", "forced failure", "1", "0", "exact", "fail", 0.0)]

    monkeypatch.setitem(suite_mod.FAMILIES, "cycles", bad_family)
    assert main(["cycles"]) == 1
    assert "fail" in capsys.readouterr().out


def _summary_with(**fields):
    """The text of the cache file for (k, trunc) = (1, 8), in its own layout, with some
    fields replaced: a file that differs from the record in those fields alone.

    A callable replacement maps the valid value of its field to the new one.
    """
    summary = spectral.spectrum_summary(spectral.build_model(1, 8))
    return json.dumps({**summary, **{f: v(summary[f]) if callable(v) else v
                                     for f, v in fields.items()}}, indent=2, sort_keys=True)


def _clusters(first):
    """The old file shape: (value, multiplicity) clusters l (l + 2), 2 l + 2, l = first..8."""
    return [[l * (l + 2.0), 2 * l + 2] for l in range(first, 9)]


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
     _cache_file(json.dumps({"k": 1, "trunc": 8, "tag": "fs-unit-volume:v1"})),
     _cache_file("[" * 100000),
     _cache_file(lambda: _summary_with(eigs1="x")),
     _cache_file(lambda: _summary_with(eigs0=lambda e: [3, *e[1:]])),
     _cache_file(lambda: _summary_with(dim_harmonic0=2.0)),
     _cache_file(lambda: _summary_with(dim_harmonic1=False)),
     _cache_file(lambda: _summary_with(eigs0=_clusters(0), eigs1=_clusters(1))),
     _cache_file(lambda: _summary_with(eigs0=lambda e: [0.0, *e])),
     _cache_file(lambda: _summary_with(eigs1=lambda e: [-e[0], *e[1:]])),
     _cache_file(lambda: _summary_with(eigs0=[2.0], eigs1=[2.0])),
     _cache_file(lambda: _summary_with(eigs1=lambda e: e[:-1])),
     _cache_file(lambda: _summary_with(eigs0=lambda e: [*e, e[-1], e[-1], e[-1]],
                                       dim_harmonic0=-1)),
     _cache_file(lambda: _summary_with(eigs0=lambda e: e[::-1])),
     _cache_file(lambda: _summary_with(eigs1=lambda e: [e[-1], *e[1:-1], e[0]])),
     _cache_file(lambda: _summary_with() + "\n"),
     _cache_file(lambda: _summary_with() + " " * 100000),
     _directory_at_the_file, _cache_dir_under_a_file],
    ids=["not-json", "not-an-object", "missing-fields", "nested-too-deeply", "eigs1-not-a-list",
         "int-eigenvalue", "float-dimension", "bool-dimension", "cluster-shaped",
         "zero-eigenvalue", "negative-eigenvalue", "one-eigenvalue-each", "form-short-by-one",
         "negative-dimension", "descending", "forms-out-of-order", "trailing-newline",
         "oversized", "directory-at-the-file", "cache-dir-under-a-file"],
)
def test_cli_broken_cache_file_is_a_miss(tmp_path, capsys, monkeypatch, make):
    # an unreadable file or any bytes but the model's record is a miss; an
    # unwritable cache leaves the result uncached; neither is an error.  The
    # float-dimension and bool-dimension rows parse equal to the record (2.0 == 2,
    # False == 0), so the comparison is on bytes
    cache_dir, writable = make(tmp_path)
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", cache_dir)
    assert main(["spectrum", "--k", "1", "--trunc", "8"]) == 0
    out, err = capsys.readouterr()
    assert "(cached)" not in out and err == ""
    stored = load_spectrum(cache_dir, spectral.build_model(1, 8))
    assert stored["dim_harmonic0"] == 2 if writable else stored is None


def _wrap_sign_flipped_b(c):
    """hochschild_b with the sign of the wrap-around term flipped: b' - (b - b')."""
    return 2 * bar_bprime(c) + (-1) * hochschild_b(c)


def _array_wrap_sign_flipped(c, wrap, boundary=chains._array_boundary):
    """The array boundary with the sign of the wrap-around face flipped: b' - (b - b')."""
    bprime = boundary(c, False)
    return 2 * bprime + (-1) * boundary(c, True) if wrap else bprime


def _ranks_shifted(c1, c2, *args, shuffle=chains._array_shuffle):
    """The array shuffle with every key id of the key arrays it seeds moved up by one."""
    out = shuffle(c1, c2, *args)
    if out is not None:
        keys, groups = out._key_arrays
        out.__dict__["_key_arrays"] = (keys, {length: ((ids + 1) % len(keys), nums)
                                              for length, (ids, nums) in groups.items()})
    return out


def _parity_dropped(odd, alternation=forms._alternation):
    """The array symbol's test for repeated one-forms, with every parity flip dropped."""
    distinct, parity = alternation(odd)
    return distinct, np.zeros_like(parity)


def _chain(n, pairs, den):
    """The chain sum(num * word) / den over (word of keys, num) pairs, in canonical form."""
    acc = {}
    for word, num in pairs:
        acc[word] = acc.get(word, 0) + num
    nums = {w: k for w, k in acc.items() if k}
    g = math.gcd(den, *nums.values())
    return TensorChain(n, {w: k // g for w, k in nums.items()}, den // g)


def _normalize_slot_one_only(c):
    """normalize that looks for the unit, the packed key 0, in slot 1 only."""
    return _chain(c.n, [(w, k) for w, k in c.nums.items() if w[1:2] != (0,)], c.den)


def _symbol_dropping_last_slot(c):
    return hkr_symbol(_chain(c.n, [(w[:-1], k) for w, k in c.nums.items()], c.den))


def _unsigned_tau(c):
    return _chain(c.n, [(w[-1:] + w[:-1], k) for w, k in c.nums.items()], c.den)


def _unsigned_norm(c):
    return _chain(c.n, [(w[j:] + w[:j], k) for w, k in c.nums.items() for j in range(len(w))],
                  c.den)


def _unsigned_shuffles(p, q, shuffles=chains._shuffles):
    return [(order, 0) for order, _ in shuffles(p, q)]


def _first_position_shuffles(p, q, shuffles=chains._shuffles):
    """Each interleaving signed by the parity of the first interior's first position."""
    return [(order, order.index(0) % 2 if p else 0) for order, _ in shuffles(p, q)]


def _degree_one_stiffness(perturb, stiffness=spectral._stiffness):
    """`spectral._stiffness` with `perturb` applied to the spectrum of every degree-1 block.

    `build_model` assembles all degree-0 blocks in one call and then all
    degree-1 blocks in the next, so the perturbed calls are exactly every
    second one; each of their blocks becomes V diag(perturb(lam)) V^T for
    the eigenpairs (lam, V) of the block.
    """
    calls = itertools.count()

    def perturbed(*args):
        blocks = stiffness(*args)
        if next(calls) % 2 == 0:
            return blocks
        return [(vecs * perturb(lam)) @ vecs.T for lam, vecs in map(np.linalg.eigh, blocks)]
    return perturbed


def _scaled_spectral_diagonal(t, length, real=circle.heat_diagonal_spectral):
    return real(t, length) * (1 + 1e-12)


def _halved_image_tail(t, length):
    """The image-sum kernel diagonal with its tail over n != 0 halved."""
    return ((1.0 + circle._theta_tail(length * length / (4.0 * t)) / 2)
            / math.sqrt(4.0 * math.pi * t))


def _unsigned_bprime(c):
    """bar_bprime with every face sign +."""
    return _chain(c.n, [(w[:i] + (key,) + w[i + 2:], k * m) for w, k in c.nums.items()
                        for i in range(len(w) - 1)
                        for key, m in mono_product(w[i], w[i + 1], c.n)], c.den)


def _face_one_of_three_slots_flipped(c, wrap, boundary=chains._boundary):
    """The chain boundary with the sign of face 1, a0 (x) a1 a2, of each 3-slot word flipped."""
    face_one = _chain(c.n, [((w[0], key), 2 * k * m) for w, k in c.nums.items() if len(w) == 3
                            for key, m in mono_product(w[1], w[2], c.n)], c.den)
    return boundary(c, wrap) + face_one


def _negated_tau(c, tau=chains.cyclic_tau):
    """cyclic_tau with the opposite sign: the bicomplex arrow 1 - tau becomes 1 + tau."""
    return (-1) * tau(c)


def _unsigned_image_coefficients(*args, image=spectral._image_coefficients):
    """Every image coefficient taken positive: on 1 and z d/dz, the Leibniz sign of
    d/dz acting on the weight (1+|z|^2)^(-power) is dropped."""
    return [(shift, r, abs(coeff)) for shift, r, coeff in image(*args)]


def _half_period_image_tail(t, length, tail=circle._image_tail):
    """The image tail of a circle half as long: images at every half period."""
    return tail(t, length / 2)


def _zero_lowest(lam):
    lam[0] = 0.0
    return lam


def _degree_one_counted_plus(model, op, columns, terms=spectral._supertrace_terms):
    """`spectral._supertrace_terms` with the degree-1 diagonals counted + like degree 0."""
    lam0, diag0 = terms(model, op, [columns[0], {}])
    lam1, diag1 = terms(model, op, [{}, columns[1]])
    return np.concatenate([lam0, lam1]), np.concatenate([diag0, -diag1])


#: row id -> (owner, name, mutant, argv, check_id): with owner.name replaced by
#: the mutant, the command exits 1 and the check fails
CAN_FAIL = {
    "boundary": (suite, "hochschild_b", _wrap_sign_flipped_b, ["cycles", "--n", "1"],
                 "cycles.boundary.omega2"),
    "failures": (suite, "bar_bprime", lambda c: (-1) * bar_bprime(c), ["tsygan"],
                 "tsygan.intertwine"),
    "tolerance": (suite, "harmonic_supertrace", lambda *a: harmonic_supertrace(*a) + 1.0,
                  ["harmonic", "--k", "0"], "harmonic.identity.k0"),
    "localization": (suite, "poisson_deviation", lambda t, length: 1.0, ["localization"],
                     "localization.poisson"),
    "symbol-slot": (suite, "hkr_symbol", _symbol_dropping_last_slot, ["symbol", "--n", "1"],
                    "symbol.volume.n1"),
    "tau-sign": (suite, "cyclic_tau", _unsigned_tau, ["tsygan"], "tsygan.intertwine"),
    "norm-sign": (suite, "norm_n", _unsigned_norm, ["tsygan"], "tsygan.norm"),
    "shuffle-sign": (chains, "_shuffles", _unsigned_shuffles, ["shuffle"], "shuffle.leibniz"),
    "shuffle-first-position": (chains, "_shuffles", _first_position_shuffles, ["shuffle"],
                               "shuffle.multiplicative.2x2"),
    "eigenvalue-offset": (spectral, "_stiffness",
                          _degree_one_stiffness(lambda lam: lam * (1 + 1e-9)), ["mckean-singer"],
                          "mckean-singer.flat.k1"),
    "dbar-star-susy": (spectral, "_incidence", doubled_dbar_star, ["spectrum"],
                       "spectrum.susy.pairing"),
    "dbar-star-flat": (spectral, "_incidence", doubled_dbar_star, ["mckean-singer"],
                       "mckean-singer.flat.k1"),
    # the flat supertrace is the one check that reads a degree-1 operator diagonal
    "degree-one-sign": (spectral, "_supertrace_terms", _degree_one_counted_plus,
                        ["mckean-singer"], "mckean-singer.flat.k1"),
    "todd-scale": (suite, "chern_density",
                   lambda m: lambda x, y: chern_density(m)(x, y) * (1 + 1e-6),
                   ["chern-integrals"], "chern.degree.o1"),
    "spectral-diagonal-scale": (circle, "heat_diagonal_spectral", _scaled_spectral_diagonal,
                                ["localization"], "localization.short-time.bound"),
    # the top degree-1 level, 120 at (k, N) = (1, 10), moves by 1e-3
    "susy-top-cluster": (spectral, "_stiffness",
                         _degree_one_stiffness(lambda lam: np.where(lam > 100, lam + 1e-3, lam)),
                         ["spectrum"], "spectrum.susy.pairing"),
    "halved-image-tail": (circle, "heat_diagonal_images", _halved_image_tail, ["localization"],
                          "localization.long-time.gap"),
    "section-count": (suite, "harmonic_supertrace", lambda *a: harmonic_supertrace(*a) + 1.0,
                      ["chern-integrals"], "chern.todd-vs-harmonic"),
    "b-squared": (suite, "hochschild_b", _wrap_sign_flipped_b, ["tsygan"], "tsygan.b.squared"),
    "normalize-slot-one": (suite, "normalize", _normalize_slot_one_only, ["cycles", "--n", "2"],
                           "cycles.normalized.omega4"),
    # b'(c) is shared by the four checks that read it, so the mutant reaches both factors
    "bprime-squared": (suite, "bar_bprime", _unsigned_bprime, ["tsygan"],
                       "tsygan.bprime.squared"),
    "differential-squared": (chains, "cyclic_tau", _negated_tau, ["tsygan"],
                             "tsygan.differential.squared"),
    # one sign of the dict loop's 3-slot branch: the faces of 2- to 4-slot words are unrolled
    "three-slot-face-sign": (chains, "_boundary", _face_one_of_three_slots_flipped, ["tsygan"],
                             "tsygan.b.squared"),
    "shuffle-first-position-2x4": (chains, "_shuffles", _first_position_shuffles, ["shuffle"],
                                   "shuffle.multiplicative.2x4"),
    "sections-kernel": (spectral, "_incidence", dbar_chi_without_its_second_term,
                        ["spectrum"], "spectrum.kernel.sections"),
    "forms-kernel": (spectral, "_stiffness", _degree_one_stiffness(_zero_lowest),
                     ["spectrum"], "spectrum.kernel.forms"),
    "euler-sign": (spectral, "_image_coefficients", _unsigned_image_coefficients,
                   ["harmonic", "--k", "1"], "harmonic.euler.k1"),
    "half-period-tail": (circle, "_image_tail", _half_period_image_tail, ["localization"],
                         "localization.short-time.smallt"),
    # omega_6 is the one boundary of the suite large enough for the array kernel
    "array-boundary-wrap-sign": (chains, "_array_boundary", _array_wrap_sign_flipped,
                                 ["cycles", "--n", "3"], "cycles.boundary.omega6"),
    "array-symbol-parity": (forms, "_alternation", _parity_dropped, ["symbol", "--n", "3"],
                            "symbol.volume.n3"),
    # omega_6 is built by the array shuffle, and its boundary reads the key arrays seeded there
    "array-shuffle-ranks": (chains, "_array_shuffle", _ranks_shifted, ["cycles", "--n", "3"],
                            "cycles.boundary.omega6"),
}


@pytest.mark.parametrize("owner, name, mutant, argv, check_id", list(CAN_FAIL.values()),
                         ids=list(CAN_FAIL))
def test_each_check_shape_can_fail(monkeypatch, capsys, owner, name, mutant, argv, check_id):
    if argv[0] == "spectrum":  # warm the cache with the unmutated model's record
        assert main(argv) == 0 and "(cached)" not in capsys.readouterr().out
    monkeypatch.setattr(owner, name, mutant)
    assert main(["--format", "json", *argv]) == 1
    verdicts = {c["id"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert verdicts[check_id] == "fail"


#: every check of `hochheat all --seed 0`: id -> (verdict, computed), the computed
#: text pinned for the checks of tolerance `exact` whose text holds no float
ALL_SEED_0 = {
    "chern.degree.o1": ("pass", None),
    "chern.todd-vs-harmonic": ("pass", None),
    **{f"cycles.boundary.omega{2 * n}": ("pass", "0 residual terms") for n in (1, 2, 3)},
    **{f"cycles.normalized.omega{2 * n}": ("pass", "equal") for n in (1, 2, 3)},
    **{f"harmonic.{name}.k{k}": ("pass", None) for name in ("euler", "identity")
       for k in range(5)},
    "localization.long-time.gap": ("pass", None),  # exact, but its text is a float
    "localization.poisson": ("pass", None),
    "localization.short-time.bound": ("pass", None),
    "localization.short-time.smallt": ("pass", None),
    "mckean-singer.flat.k1": ("pass", None),
    "shuffle.leibniz": ("pass", "0 failures in 20 samples"),
    "shuffle.multiplicative.2x2": ("pass", "equal"),
    "shuffle.multiplicative.2x4": ("pass", "equal"),
    "spectrum.kernel.forms": ("pass", "0"),
    "spectrum.kernel.sections": ("pass", "2"),
    "spectrum.susy.pairing": ("pass", None),
    **{f"symbol.volume.n{n}": ("pass", "volume form, coefficient 1") for n in (1, 2, 3)},
    **{f"tsygan.{name}": ("pass", "0 failures in 40 samples")
       for name in ("b.squared", "bprime.squared", "intertwine", "norm")},
    "tsygan.differential.squared": ("pass", "0 failures in 20 samples"),
}


def test_all_seed_0_gives_the_pinned_report(tmp_path, monkeypatch):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))  # a cold cache: no "(cached)" note
    checks = run_suite(None, SuiteConfig(seed=0)).checks
    assert len(ALL_SEED_0) == 37
    assert {c.id: c.verdict for c in checks} == {i: v for i, (v, _) in ALL_SEED_0.items()}
    assert {c.id: c.computed for c in checks
            if c.tolerance == "exact" and c.id != "localization.long-time.gap"} == {
        i: text for i, (_, text) in ALL_SEED_0.items() if text is not None}


#: a number that starts a printed value: an int as `str`, a float as `repr` writes it
_NUMBER = re.compile(r"-?(?:inf|nan|\d+(?:\.\d+)?(?:e[-+]\d+)?)(?=\s|$)")


def _verdict_from_text(check):
    """The verdict that a check's printed `computed`, `target` and `tolerance` decide alone.

    A target after "<= " is an upper bound; a tolerance is "exact" or a number. When
    the computed and target texts start with numbers, these compare by the relation, and
    the target's unit must start the computed text's tail; otherwise the texts compare
    whole.
    """
    at_most = check.target.startswith("<= ")
    target = check.target[3:] if at_most else check.target
    value, goal = _NUMBER.match(check.computed), _NUMBER.match(target)
    if value is None or goal is None:
        return PASS if check.computed == target else FAIL
    v, t = float(value.group()), float(goal.group())
    tol = 0.0 if check.tolerance == "exact" else float(check.tolerance)
    ok = v <= t + tol if at_most else v == t if check.tolerance == "exact" else abs(v - t) <= tol
    same_unit = check.computed[value.end():].startswith(target[goal.end():])
    return PASS if ok and same_unit else FAIL


@pytest.mark.parametrize("row", [None, *CAN_FAIL], ids=["all-seed-0", *CAN_FAIL])
def test_every_verdict_reads_from_its_printed_strings(monkeypatch, capsys, tmp_path, row):
    # `all --seed 0` twice, cold then warm, and each CAN_FAIL mutant, so both verdicts appear
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    if row is None:
        runs = [["all", "--seed", "0"]] * 2
    else:
        owner, name, mutant, argv, _ = CAN_FAIL[row]
        monkeypatch.setattr(owner, name, mutant)
        runs = [argv]
    for argv in runs:
        main(["--format", "json", *argv])
        checks = report_from_json(capsys.readouterr().out).checks
        assert [(c.id, _verdict_from_text(c)) for c in checks] == [(c.id, c.verdict) for c in checks]
        assert (FAIL in {c.verdict for c in checks}) == (row is not None)


@pytest.mark.parametrize("value, target, tol, at_most, verdict", [
    (2, 2, None, False, PASS),
    (3, 2, None, False, FAIL),
    (math.nan, 2, None, False, FAIL),
    (1.000000001, 1, 1e-8, False, PASS),
    (0.99999998, 1, 1e-8, False, FAIL),
    (math.nan, 1, 1e-8, False, FAIL),
    (-3e-16, 0, None, True, PASS),
    (1e-16, 0, None, True, FAIL),
    (2e-11, 0, 1e-10, True, PASS),
    (-5.0, 0, 1e-10, True, PASS),
    (2e-10, 0, 1e-10, True, FAIL),
    (math.nan, 0, 1e-10, True, FAIL),
    (math.nan, 0, None, True, FAIL),
])
def test_each_relation_of_the_recorder(value, target, tol, at_most, verdict):
    rec = suite._Recorder()
    rec.check("x.relation", "a relation", value, target, tol, at_most=at_most, note=" (x)")
    (check,) = rec.results
    assert check.verdict == verdict
    assert _verdict_from_text(check) == verdict
    assert check.tolerance == ("exact" if tol is None else repr(tol))
    assert check.target.startswith("<= ") == at_most and check.computed.endswith(" (x)")


def test_the_recorder_prints_a_chain_by_its_comparison():
    rec = suite._Recorder()
    zero, two = TensorChain(1, {}, 1), 2 * chains.omega_cycle(1)
    rec.check("x.same", "a chain equals itself", two, 2 * chains.omega_cycle(1))
    rec.check("x.other", "two chains differ", zero, two)
    assert [(c.computed, c.target, c.tolerance, c.verdict) for c in rec.results] == [
        ("equal", "equal", "exact", PASS), ("mismatch", "equal", "exact", FAIL)]


def test_a_quadrature_that_does_not_converge_fails_and_says_so(monkeypatch):
    monkeypatch.setattr(suite, "integrate_chart",
                        lambda density: QuadratureResult(1.0, 1e-3, False, 5))
    checks = {c.id: c for c in run_suite(["chern"]).checks}
    assert [c.verdict for c in checks.values()] == [FAIL, FAIL]
    assert checks["chern.degree.o1"].computed == (
        "nan (error estimate 1.0e-03, not converged: 1.0 at level 5)")
    assert checks["chern.todd-vs-harmonic"].computed == "nan sections by quadrature"


def _nan_third_time(real):
    """limit_supertrace whose series reads NaN at its third time."""
    def mutant(*args):
        series, last = real(*args)
        return [*series[:2], math.nan, *series[3:]], last
    return mutant


def _nan_third_call(real):
    """The function, NaN on its third call."""
    calls = []

    def mutant(*args):
        calls.append(args)
        return math.nan if len(calls) == 3 else real(*args)
    return mutant


@pytest.mark.parametrize("name, nan_third, family, check_id", [
    ("limit_supertrace", _nan_third_time, "mckean-singer", "mckean-singer.flat.k1"),
    ("poisson_deviation", _nan_third_call, "localization", "localization.poisson"),
], ids=["limit_supertrace-mckean-singer-mckean-singer.flat.k1",
        "poisson_deviation-localization-localization.poisson"])
def test_a_nan_amid_a_maximum_fails_its_check(monkeypatch, name, nan_third, family, check_id):
    # Python's max keeps a NaN only when it comes first; this one comes third
    monkeypatch.setattr(suite, name, nan_third(getattr(suite, name)))
    check = next(c for c in run_suite([family]).checks if c.id == check_id)
    assert check.verdict == FAIL and check.computed.startswith("nan ")


def test_spectra_of_unequal_counts_print_an_infinite_deviation(monkeypatch):
    # a summary whose form spectrum lacks the top eigenvalue: the common prefix agrees
    summary = {"dim_harmonic0": 2, "dim_harmonic1": 0, "eigs0": [2.0, 6.0, 6.0],
               "eigs1": [2.0, 6.0]}
    monkeypatch.setattr(suite, "spectrum_summary", lambda model: summary)
    pairing = next(c for c in run_suite(["spectrum"]).checks if c.id == "spectrum.susy.pairing")
    assert pairing.verdict == FAIL and _verdict_from_text(pairing) == FAIL
    assert pairing.computed == "inf (max deviation over 3 section and 2 form eigenvalues)"


def _shape(check_id):
    """A check id without the numeric suffix of its last part: harmonic.euler.k3 -> harmonic.euler.k."""
    return re.sub(r"(?<=\.)([a-z]+)[0-9]+$", r"\1", check_id)


def test_every_check_shape_has_a_failing_row():
    rows = {_shape(check_id) for *_, check_id in CAN_FAIL.values()}
    assert sorted({_shape(i) for i in ALL_SEED_0} - rows) == []
    assert _shape("shuffle.multiplicative.2x4") != _shape("shuffle.multiplicative.2x2")


def test_one_run_builds_each_omega_once(monkeypatch):
    calls, real = [], suite.omega_cycle

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(suite, "omega_cycle", counting)
    assert run_suite(["cycles", "shuffle", "symbol"]).all_passed()
    assert sorted(calls) == [1, 2, 3]


def test_the_omega_memo_dies_with_its_run(monkeypatch):
    assert run_suite(["cycles"], SuiteConfig(max_weyl=1)).all_passed()
    real = suite.omega_cycle
    monkeypatch.setattr(suite, "omega_cycle", lambda n: 2 * real(n))
    verdicts = {c.id: c.verdict for c in run_suite(["cycles"], SuiteConfig(max_weyl=1)).checks}
    assert verdicts["cycles.normalized.omega2"] == "fail"


def test_one_cold_run_builds_each_model_once(tmp_path, monkeypatch):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))  # empty: `spectrum` builds (1, 10)
    calls, real = [], suite.build_model

    def counting(k, trunc):
        calls.append((k, trunc))
        return real(k, trunc)

    monkeypatch.setattr(suite, "build_model", counting)
    assert run_suite(None, SuiteConfig(seed=0)).all_passed()
    # `spectrum` and `mckean-singer` share (1, 10); `chern`, run first, and `harmonic` (0, 8)
    assert calls == [(1, 10), (0, 8), (1, 8), (2, 8), (3, 8), (4, 8)]
    # the memo dies with its run: the next run builds its model again
    calls.clear()
    assert run_suite(["mckean-singer"]).all_passed()
    assert calls == [(1, 10)]


def test_the_model_memo_keeps_one_model(monkeypatch):
    # when a model is built, every model built before it is gone
    refs, alive, real = [], [], suite.build_model

    def tracking(k, trunc):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        model = real(k, trunc)
        refs.append(weakref.ref(model))
        return model

    monkeypatch.setattr(suite, "build_model", tracking)
    assert run_suite(["harmonic"], SuiteConfig(harmonic_ks=(0, 1, 2, 3, 4, 5))).all_passed()
    assert alive == [0] * 6


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
    assert fields == {f.name for f in dataclasses.fields(SuiteConfig)}
    families, cfg = cli._selection(cli._build_parser().parse_args(
        ["mckean-singer", "--k", "2", "--trunc", "7"]))
    assert families == ["mckean-singer"]
    assert cfg == SuiteConfig(k=2, trunc=7)


def test_the_heat_grid_and_the_sample_count_are_constants():
    names = [f.name for f in dataclasses.fields(SuiteConfig)]
    assert names == ["seed", "max_weyl", "k", "trunc", "harmonic_ks"]
    cfg = SuiteConfig()
    assert (cfg.t_min, cfg.t_max, cfg.points) == (0.2, 5.0, 20)
    assert suite.SAMPLES == 40


@pytest.mark.parametrize(
    "field, value, flag, argv",
    [
        # a float or a bool for an integer setting, which no flag can pass
        ("max_weyl", 2.5, "--n", None),
        ("k", 1.5, "--k", None),
        ("max_weyl", 0, "--n", ["symbol", "--n", "0"]),
        ("harmonic_ks", (), "--k", None),
        ("trunc", 10.0, "--trunc", None),
        ("seed", True, "--seed", None),
        ("harmonic_ks", (0, 1.0), "--k", None),
        ("harmonic_ks", (39,), "--k", ["harmonic", "--k", "39"]),
        ("k", -1, "--k", ["spectrum", "--k", "-1"]),
        ("trunc", 41, "--trunc", ["spectrum", "--trunc", "41"]),
        ("harmonic_ks", (-1,), "--k", ["harmonic", "--k", "-1"]),
        ("k", 9, "--trunc", ["mckean-singer", "--k", "9"]),  # at the default trunc, 10
        ("k", False, "--k", None),
        ("trunc", 10.5, "--trunc", None),
        ("seed", 0.0, "--seed", None),
        # a repeated degree would build its models and run its checks twice, then clash
        # in the report's check ids; the command line passes one --k only
        ("harmonic_ks", (0, 0), "--k", None),
        # random.Random seeds with |seed|: -7 would silently rerun seed 7
        ("seed", -7, "--seed", ["tsygan", "--seed", "-7"]),
        # an int is no tuple, and a list would leave the frozen config unhashable
        ("harmonic_ks", 5, "--k", None),
        ("harmonic_ks", [0, 1], "--k", None),
    ],
)
def test_config_and_command_line_refuse_the_same_values(field, value, flag, argv, capsys):
    with pytest.raises(ValueError, match=flag):
        SuiteConfig(**{field: value})
    if argv is not None:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("ks, named", [((5, -1), -1), ((39, 40), 39), ((-3, 40), -3)])
def test_an_out_of_range_degree_is_named(ks, named):
    # the first degree out of range, not the largest in size, which may be a valid one
    with pytest.raises(ValueError, match=f"--k must be between 0 and 38, got {named}$"):
        SuiteConfig(harmonic_ks=ks)


def test_failures_with_no_samples_is_a_fail():
    rec = suite._Recorder()
    rec.failures("x.empty", "an identity on no samples", lambda _: True, [])
    assert rec.results[0].verdict == FAIL


@pytest.mark.parametrize(
    "argv",
    [
        ["harmonic", "--k", "40"],
        ["spectrum", "--trunc", "30000"],
        ["harmonic", "--k", "30000"],
    ],
    ids=["harmonic", "oversized-trunc", "oversized-k"],
)
def test_refused_model_or_geometry_exits_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--k", "0", "--trunc", "40"],
        ["spectrum", "--k", "3", "--trunc", "14"],
        ["mckean-singer", "--k", "10", "--trunc", "12"],
        ["harmonic", "--k", "13"],
    ],
    ids=["spectrum", "spectrum-k3", "mckean-singer", "harmonic-k13"],
)
def test_models_whose_float_gram_condition_exceeds_1e16_pass(argv, capsys, tmp_path, monkeypatch):
    # the exact certificate decides which rows are usable, not the float condition number
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    assert main(["--format", "json", *argv]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(c["verdict"] == "pass" for c in checks)


@pytest.mark.large
def test_every_harmonic_degree_passes():
    ks = range(spectral.MAX_TRUNC - 1)  # every degree that --k accepts
    report = run_suite(["harmonic"], SuiteConfig(harmonic_ks=tuple(ks)))
    assert {f"harmonic.identity.k{k}" for k in ks} <= {c.id for c in report.checks}
    assert report.all_passed()


def test_kernel_forms_check_can_fail(monkeypatch, capsys):
    # zero the smallest eigenvalue of each degree-1 block; degree 0 keeps its kernel
    monkeypatch.setattr(spectral, "_stiffness", _degree_one_stiffness(_zero_lowest))
    assert main(["--format", "json", "spectrum"]) == 1
    verdicts = {c["id"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert verdicts["spectrum.kernel.forms"] == "fail"
    assert verdicts["spectrum.kernel.sections"] == "pass"
