"""Tests for the report structures, suite runner, and command line."""

import json
import os
import time

import pytest

from hochheat import suite
from hochheat.chains import bar_bprime, hochschild_b
from hochheat.cli import main
from hochheat.report import CheckResult, VerificationReport
from hochheat.spectral import CONVENTION_TAG, cache_path, harmonic_supertrace, load_spectrum
from hochheat.suite import SuiteConfig, run_suite


def _strip_volatile(report: VerificationReport):
    return [
        (c.id, c.claim, c.computed, c.target, c.tolerance, c.verdict)
        for c in report.checks
    ]


def test_report_json_round_trip():
    report = run_suite(["cycles"], SuiteConfig(max_weyl=2))
    again = VerificationReport.from_json(report.to_json())
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
    assert main(["chern-integrals", "--product", "9"]) == 2
    assert "--product" in capsys.readouterr().err
    assert main(["mckean-singer", "--t-min", "2.0", "--t-max", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "t-max" in err


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
    with pytest.raises(SystemExit):
        main(["localization", "--t-grid", "1:2"])
    capsys.readouterr()


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
    report = VerificationReport.from_json(target.read_text())
    assert report.all_passed()
    families = {c.id.split(".")[0] for c in report.checks}
    assert families == {
        "cycles", "shuffle", "symbol", "tsygan", "spectrum",
        "mckean-singer", "harmonic", "chern", "product", "localization",
    }


def test_cli_exit_nonzero_on_failure(monkeypatch, capsys):
    # force a failing check by breaking a target inside a copied family
    from hochheat import suite as suite_mod
    from hochheat.report import CheckResult

    def bad_family(cfg):
        return [CheckResult("zzz.forced", "forced failure", "1", "0", "exact", "fail", 0.0)]

    monkeypatch.setitem(suite_mod.FAMILIES, "cycles", bad_family)
    assert main(["cycles"]) == 1
    assert "fail" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content",
    ["{not json", "[1, 2]", json.dumps({"k": 1, "trunc": 8, "tag": CONVENTION_TAG})],
    ids=["not-json", "not-an-object", "missing-fields"],
)
def test_cli_broken_cache_file_is_a_miss(tmp_path, capsys, monkeypatch, content):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    path = cache_path(str(tmp_path), 1, 8)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    assert main(["spectrum", "--k", "1", "--trunc", "8"]) == 0
    assert "(cached)" not in capsys.readouterr().out
    assert load_spectrum(str(tmp_path), 1, 8)["dim_harmonic0"] == 2


def _wrap_sign_flipped_b(c):
    """hochschild_b with the sign of the wrap-around term flipped: b' - (b - b')."""
    return 2 * bar_bprime(c) + (-1) * hochschild_b(c)


@pytest.mark.parametrize(
    "name, mutant, argv, check_id",
    [
        ("hochschild_b", _wrap_sign_flipped_b, ["cycles", "--n", "1"], "cycles.boundary.omega2"),
        ("bar_bprime", lambda c: (-1) * bar_bprime(c), ["tsygan", "--samples", "5"],
         "tsygan.intertwine"),
        ("harmonic_supertrace", lambda *a: harmonic_supertrace(*a) + 1.0,
         ["harmonic", "--k", "0"], "harmonic.identity.k0"),
        ("poisson_deviation", lambda t, length: 1.0, ["localization"], "localization.poisson"),
    ],
    ids=["boundary", "failures", "tolerance", "localization"],
)
def test_each_check_shape_can_fail(monkeypatch, capsys, name, mutant, argv, check_id):
    monkeypatch.setattr(suite, name, mutant)
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
