"""Acceptance criteria for the package, one test per criterion.

Running `pytest -v tests/test_acceptance.py` emits one pass/fail line per
criterion; each test additionally writes a summary line with the measured
values to the original stdout so it survives output capture.
"""

import json
import random
import sys

import numpy as np

from hochheat.chains import (
    bar_bprime,
    cyclic_tau,
    hochschild_b,
    norm_n,
    normalize,
    normalized_omega_formula,
    omega_cycle,
    shuffle_product,
    tsygan_d,
)
from hochheat.chern import chern_density, integrate_chart
from hochheat.circle import BumpFunction, TwoCircles, compare_localization, long_time_rows, poisson_deviation
from hochheat.cli import main
from hochheat.forms import hkr_symbol, volume_form
from hochheat.randomgen import random_chain, random_column_vector
from hochheat.spectral import build_model, harmonic_supertrace, heat_supertrace, limit_supertrace
from hochheat.weyl import d_var, mul, unit, z_var
from oracles import integrate_product, integrate_todd_p1, todd_density


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}", file=sys.__stdout__, flush=True)


def test_criterion_01_fundamental_chains_are_cycles():
    residuals = {n: len(hochschild_b(omega_cycle(n)).terms) for n in (1, 2, 3)}
    ok = all(r == 0 for r in residuals.values())
    _report(1, ok, f"boundary term counts {residuals} (exact, target all 0)")
    assert ok


def test_criterion_02_shuffle_multiplicativity():
    sq = shuffle_product(omega_cycle(1), omega_cycle(1)) == omega_cycle(2)
    cube = shuffle_product(omega_cycle(1), omega_cycle(2)) == omega_cycle(3)
    ok = sq and cube
    _report(2, ok, f"2x2 equal: {sq}, 2x4 equal: {cube} (exact)")
    assert ok


def test_criterion_03_normalized_cycles_are_permutation_sums():
    results = {n: normalize(omega_cycle(n)) == normalized_omega_formula(n) for n in (1, 2, 3)}
    ok = all(results.values())
    _report(3, ok, f"alternating-sum identity {results} (exact)")
    assert ok


def test_criterion_04_symbol_has_unit_volume_coefficient():
    results = {n: hkr_symbol(omega_cycle(n)) == volume_form(n) for n in (1, 2, 3)}
    ok = all(results.values())
    _report(4, ok, f"symbol equals volume form {results} (exact, coefficient 1)")
    assert ok


def test_criterion_05_operator_identities_on_random_chains():
    rng = random.Random(2024)
    chains = [random_chain(rng, rng.randrange(1, 3), rng.randrange(0, 4)) for _ in range(100)]
    fails = {"b2": 0, "bprime2": 0, "intertwine": 0, "norm": 0}
    for c in chains:
        if not hochschild_b(hochschild_b(c)).is_zero():
            fails["b2"] += 1
        if not bar_bprime(bar_bprime(c)).is_zero():
            fails["bprime2"] += 1
        bp = bar_bprime(c)
        if hochschild_b(c + (-1) * cyclic_tau(c)) != bp + (-1) * cyclic_tau(bp):
            fails["intertwine"] += 1
        if bar_bprime(norm_n(c)) != norm_n(hochschild_b(c)):
            fails["norm"] += 1
    fails["leibniz"] = 0
    for _ in range(100):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        x, y = random_chain(rng, 1, p), random_chain(rng, 1, q)
        sign = -1 if p % 2 else 1
        if hochschild_b(shuffle_product(x, y)) != (
            shuffle_product(hochschild_b(x), y) + sign * shuffle_product(x, hochschild_b(y))
        ):
            fails["leibniz"] += 1
    fails["d2"] = 0
    for _ in range(100):
        vec = random_column_vector(rng, rng.randrange(1, 3))
        if not tsygan_d(tsygan_d(vec)).is_zero():
            fails["d2"] += 1
    ok = all(v == 0 for v in fails.values())
    _report(5, ok, f"failure counts over 100 samples each: {fails} (exact)")
    assert ok


def test_criterion_06_heat_supertrace_flat_at_index():
    grid = np.linspace(0.2, 5.0, 20)
    devs = {}
    for k in range(5):
        model = build_model(k, 12)
        devs[k] = max(abs(heat_supertrace(model, float(t)) - (k + 1)) for t in grid)
    worst = max(devs.values())
    ok = worst <= 1e-3
    _report(6, ok, f"max |supertrace - (k+1)| per k: { {k: f'{v:.2e}' for k, v in devs.items()} }, tolerance 1e-3")
    assert ok


def test_criterion_07_harmonic_supertraces():
    euler = mul(z_var(1, 1), d_var(1, 1))
    dev_id, dev_euler = {}, {}
    for k in range(5):
        model = build_model(k, 8)
        dev_id[k] = abs(harmonic_supertrace(model, unit(1)) - (k + 1))
        dev_euler[k] = abs(harmonic_supertrace(model, euler) - k * (k + 1) / 2)
    ok = max(dev_id.values()) <= 1e-8 and max(dev_euler.values()) <= 1e-6
    _report(
        7,
        ok,
        f"identity dev {max(dev_id.values()):.2e} (tol 1e-8), "
        f"euler dev {max(dev_euler.values()):.2e} (tol 1e-6)",
    )
    assert ok


def test_criterion_08_limit_supertrace_matches_harmonic():
    euler = mul(z_var(1, 1), d_var(1, 1))
    grid = [0.5, 1.0, 2.0, 5.0, 10.0]
    devs = {}
    for k in (0, 1, 2):
        model = build_model(k, 10)
        for name, op in (("identity", unit(1)), ("euler", euler)):
            _, terminal = limit_supertrace(model, op, grid)
            devs[(k, name)] = abs(terminal - harmonic_supertrace(model, op))
    worst = max(devs.values())
    ok = worst <= 1e-6
    _report(8, ok, f"max |limit(t=10) - harmonic| = {worst:.2e} over k=0..2, tolerance 1e-6")
    assert ok


def test_criterion_09_curvature_and_todd_integrals():
    c1 = integrate_chart(chern_density(1))
    td = integrate_todd_p1()
    triple = integrate_product([todd_density()] * 3)
    ok = (
        c1.converged and abs(c1.value - 1.0) <= 1e-8
        and td.converged and abs(td.value - 1.0) <= 1e-8
        and triple.converged and abs(triple.value - 1.0) <= 1e-6
    )
    _report(
        9,
        ok,
        f"O(1) integral {c1.value:.12f} (tol 1e-8), Todd {td.value:.12f} (tol 1e-8), "
        f"triple product {triple.value:.12f} (tol 1e-6)",
    )
    assert ok


def test_criterion_10_quadrature_matches_spectral_count():
    td = integrate_todd_p1()
    counted = harmonic_supertrace(build_model(0, 12), unit(1))
    dev = abs(td.value - counted)
    ok = dev <= 1e-6
    _report(10, ok, f"quadrature {td.value:.12f} vs spectral {counted:.12f}, dev {dev:.2e}, tol 1e-6")
    assert ok


def test_criterion_11_circle_localization():
    circles = TwoCircles(1.0, 1.7)
    bump = BumpFunction(0.35, 0.2, 2)
    poisson = max(
        poisson_deviation(t, length) for t in (0.01, 0.1, 1.0, 5.0) for length in (1.0, 1.7)
    )
    short_grid = [0.01 * 10 ** (i / 9) for i in range(10)]
    rows = compare_localization(circles, bump, short_grid)
    excess = max(r.delta - r.bound for r in rows)
    small_ratio = rows[0].bound / rows[0].free_trace
    lrows = long_time_rows(1.0, bump, [1.0, 2.0, 4.0, 7.0, 10.0])
    lexcess = max(r.deviation - r.bound for r in lrows)
    lshort = max(r.floor - r.deviation for r in lrows)
    ok = (
        poisson <= 1e-12
        and excess <= 1e-14
        and small_ratio <= 1e-10
        and lexcess <= 0.0
        and lshort <= 0.0
    )
    _report(
        11,
        ok,
        f"poisson {poisson:.2e} (tol 1e-12), short-time excess {excess:.2e} (tol 1e-14), "
        f"bound/free at t=0.01 {small_ratio:.2e} (tol 1e-10), long-time excess {lexcess:.2e} "
        f"over the bound and {lshort:.2e} under the floor",
    )
    assert ok


#: every check `hochheat all` runs, sorted: a change that drops, renames or adds
#: a check updates this list on purpose
SUITE_CHECK_IDS = [
    "chern.degree.o1", "chern.todd-vs-harmonic", "cycles.boundary.omega2",
    "cycles.boundary.omega4", "cycles.boundary.omega6", "cycles.normalized.omega2",
    "cycles.normalized.omega4", "cycles.normalized.omega6", "harmonic.euler.k0",
    "harmonic.euler.k1", "harmonic.euler.k2", "harmonic.euler.k3", "harmonic.euler.k4",
    "harmonic.identity.k0", "harmonic.identity.k1", "harmonic.identity.k2", "harmonic.identity.k3",
    "harmonic.identity.k4", "localization.long-time.gap", "localization.poisson",
    "localization.short-time.bound", "localization.short-time.smallt", "mckean-singer.flat.k1",
    "shuffle.leibniz", "shuffle.multiplicative.2x2",
    "shuffle.multiplicative.2x4", "spectrum.kernel.forms", "spectrum.kernel.sections",
    "spectrum.susy.pairing", "symbol.volume.n1", "symbol.volume.n2", "symbol.volume.n3",
    "tsygan.b.squared", "tsygan.bprime.squared", "tsygan.differential.squared",
    "tsygan.intertwine", "tsygan.norm",
]


def test_command_line_suite_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOCHHEAT_CACHE_DIR", str(tmp_path))
    code = main(["--format", "json", "all"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    ids = sorted(c["id"] for c in checks)
    failed = [c["id"] for c in checks if c["verdict"] != "pass"]
    ok = code == 0 and ids == SUITE_CHECK_IDS and not failed
    _report(12, ok, f"`hochheat all` exit code {code}, {len(ids)} checks, failed {failed}")
    assert ids == SUITE_CHECK_IDS
    assert code == 0 and not failed
