"""Tests of the benchmark itself: its gate can fail, tracing leaves no trace.

Run with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import hochheat
from hochheat import chains, cli, report, suite, weyl  # noqa: F401  (cli loads every module)

import run
import speed
import tracing
import workloads
from workloads import ExactRandom, SpectralSweep, SuiteAll

HERE = os.path.dirname(os.path.abspath(__file__))


def _wrap_sign_flipped_b(c):
    """hochschild_b with the sign of the wrap-around term flipped."""
    out = []
    for coeff, word in c.terms:
        k = len(word) - 1
        if k == 0:
            continue
        for i in range(k):
            sign = -1 if i % 2 else 1
            out.append((coeff * sign, word[:i] + (weyl.mul(word[i], word[i + 1]),) + word[i + 2:]))
        wrap_sign = 1 if k % 2 else -1
        out.append((coeff * wrap_sign, (weyl.mul(word[k], word[0]),) + word[1:k]))
    return chains.TensorChain.from_terms(c.n, out)


def _bindings():
    """Every object the tracer may replace, by where it is bound."""
    found = {}
    for name in tracing.MODULES:
        mod = getattr(hochheat, name)
        for attr, obj in vars(mod).items():
            if callable(obj):
                found[(name, attr)] = obj
    for cls in (chains.TensorChain, report.VerificationReport):
        for attr, obj in vars(cls).items():
            found[(cls.__name__, attr)] = obj
    for family, fn in suite.FAMILIES.items():
        found[("FAMILIES", family)] = fn
    for attr in ("eigh", "eigvalsh"):
        found[("numpy.linalg", attr)] = getattr(np.linalg, attr)
    return found


def _last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


def test_perturbed_boundary_makes_exact_random_fail(monkeypatch):
    workload = ExactRandom(hochheat, seed=3, work_dir=HERE, scale=0.25)
    inputs = workload.prepare(0)
    assert workload.run(inputs).failed == 0
    monkeypatch.setattr(chains, "hochschild_b", _wrap_sign_flipped_b)
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(["--workload", "exact-random", "--seed", "3", "--seconds", "1"])
    result = _last_json_line(out.getvalue())
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0
    assert "fail_ratio" in out.getvalue()


def test_untraced_run_calls_the_original_functions():
    before = _bindings()
    workload = ExactRandom(hochheat, seed=1, work_dir=HERE, scale=0.1)
    inputs = workload.prepare(0)
    tracer = tracing.Tracer(hochheat)
    with tracer:
        assert chains.hochschild_b is not before[("chains", "hochschild_b")]
        workload.run(inputs)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        workload.run(inputs)
    finally:
        sys.setprofile(None)
    assert chains.hochschild_b.__code__ in called
    assert weyl.mul.__code__ in called
    assert not [c for c in called if c.co_filename == tracing.__file__]


def test_traced_self_times_add_up_to_the_pass():
    workload = SpectralSweep(hochheat, seed=0, work_dir=HERE)
    workload.MODELS = ((0, 4), (2, 5))
    tracer = tracing.Tracer(hochheat)
    with tracer:
        passes, outcome = run.measure(workload, 0.01, speed.Clock(), tracer)
    assert outcome.failed == 0
    m = tracer.run_metrics(0, passes[0].wall)
    layers = sum(m[f"layer.{name}.self_s"] for name in tracing.MODULES)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], abs=1e-9)
    assert 0 <= m["trace.unattributed_s"] < m["trace.wall_s"]
    assert m["spectral.build_model.calls"] == 2
    assert m["spectral.build_model.distinct_keys"] == 2
    assert m["spectral.eigh.calls"] > 0
    assert m["spectral.max_gram_cond_log10"] > 0
    assert set(m) >= {name for name, _ in tracing.LAYER_METRICS} - {
        "trace.untraced_wall_s", "trace.overhead_s"}


def test_same_seed_gives_the_same_inputs():
    first = ExactRandom(hochheat, seed=5, work_dir=HERE, scale=0.1).prepare(2)
    again = ExactRandom(hochheat, seed=5, work_dir=HERE, scale=0.1).prepare(2)
    other = ExactRandom(hochheat, seed=6, work_dir=HERE, scale=0.1).prepare(2)
    assert first == again
    assert first != other


def test_suite_all_keeps_to_its_own_cache(monkeypatch, tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv(suite.DEFAULT_CACHE_ENV, raising=False)
    workload = SuiteAll(hochheat, seed=0, work_dir=str(tmp_path / "work"))
    try:
        workload.setup()
        assert os.listdir(workload.cache_dir)
        outcome = workload.run(workload.prepare(0))
    finally:
        workload.close()
    assert outcome.failed == 0
    assert outcome.cache_hits == 3
    assert not (home / ".cache").exists()
    assert not os.path.exists(workload.cache_dir)
    assert suite.DEFAULT_CACHE_ENV not in os.environ


def test_clock_takes_its_kernel_runs_off_the_interval():
    clock = speed.Clock()

    def busy():
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass

    _, interval = clock.time(busy)
    inner = sum(w for w, _ in clock.samples[-interval.inner_samples - clock.RUNS:-clock.RUNS])
    assert interval.inner_samples >= 2
    assert interval.wall + inner == pytest.approx(1.2, abs=0.02)
    assert interval.wall < 1.2 - interval.inner_samples * 0.5 * min(w for w, _ in clock.samples)
    assert interval.wall_s(0.0) == interval.wall
    assert interval.wall_s(1.0) == pytest.approx(interval.wall * speed.NOMINAL_S / interval.ref_wall)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_accuracy_margin_is_the_smallest_and_floors_exact_hits():
    assert workloads.accuracy_margin([]) is None
    assert workloads.accuracy_margin([("a", 1e-8, 1e-14), ("b", 1e-8, 0.0)]) == pytest.approx(6.0)
    assert workloads.accuracy_margin([("b", 1e-8, 0.0)]) == pytest.approx(52 * np.log10(2) - 8)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert set(run.PROGRAM_MODULES) == set(tracing.MODULES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-random", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no hochheat sources" in proc.stderr
