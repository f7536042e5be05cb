"""Per-layer tracing for the benchmark: wrapped public functions and spans.

`Tracer.install` replaces every public function of every `hochheat` module,
at every module that binds it, with a wrapper that records a span; it also
wraps a few class entry points, the suite's family table and the numpy
eigensolvers that `hochheat.spectral` calls.  `Tracer.uninstall` puts every
original object back.  Nothing is wrapped unless a traced run asks for it,
so an untraced run calls the original function objects.

A span is (name, start, end, parent, run id).  Spans stay in compact arrays
in memory and are written out once, at the end, by `Tracer.dump`.  A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans in one pass add up to the time covered by the
outermost spans; the rest of the pass is unattributed.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

MODULES = ("weyl", "chains", "forms", "spectral", "chern", "circle", "randomgen",
           "report", "suite", "cli")

CHAIN_OPS = ("hochschild_b", "bar_bprime", "cyclic_tau", "norm_n", "tsygan_d",
             "shuffle_product", "omega_cycle", "normalize", "normalized_omega_formula",
             "chain_to_json", "chain_from_json")
FAMILY_NAMES = ("cycles", "shuffle", "symbol", "tsygan", "spectrum", "mckean-singer",
                "harmonic", "chern", "product", "localization")
#: layer metrics reported for every workload (0 where a layer is idle)
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("weyl.mul.calls", "count"),
    ("weyl.mul.self_s", "s"),
    ("weyl.mul.terms_out", "count"),
    ("weyl.parse_element.self_s", "s"),
    ("weyl.format_element.self_s", "s"),
    ("chains.from_terms.calls", "count"),
    ("chains.from_terms.self_s", "s"),
    ("chains.from_terms.words_in", "count"),
    ("chains.from_terms.words_kept", "count"),
    ("chains.from_terms.keep_ratio", "ratio"),
    *((f"chains.{op}.self_s", "s") for op in CHAIN_OPS),
    ("forms.hkr_symbol.self_s", "s"),
    ("forms.wedge.calls", "count"),
    ("forms.wedge.self_s", "s"),
    ("forms.exterior_d.self_s", "s"),
    ("spectral.build_model.calls", "count"),
    ("spectral.build_model.distinct_keys", "count"),
    ("spectral.build_model.self_s", "s"),
    ("spectral.pair_weighted.calls", "count"),
    ("spectral.pair_weighted.self_s", "s"),
    ("spectral.mono_integral.calls", "count"),
    ("spectral.mono_integral.self_s", "s"),
    ("spectral.eigh.calls", "count"),
    ("spectral.eigh.self_s", "s"),
    ("spectral.heat_supertrace.self_s", "s"),
    ("spectral.harmonic_supertrace.self_s", "s"),
    ("spectral.limit_supertrace.self_s", "s"),
    ("spectral.load_spectrum.calls", "count"),
    ("spectral.load_spectrum.hits", "count"),
    ("spectral.load_spectrum.self_s", "s"),
    ("spectral.store_spectrum.self_s", "s"),
    ("spectral.max_gram_cond_log10", "dec"),
    ("chern.integrate_chart.calls", "count"),
    ("chern.integrate_chart.self_s", "s"),
    ("chern.integrate_chart.levels_used", "count"),
    ("chern.integrate_product.self_s", "s"),
    ("circle.compare_localization.self_s", "s"),
    ("circle.long_time_rows.self_s", "s"),
    ("circle.poisson_deviation.calls", "count"),
    *((f"suite.family.{name}.s", "s") for name in FAMILY_NAMES),
    ("suite.untimed_s", "s"),
    ("suite.checks", "count"),
    ("report.build.self_s", "s"),
    ("report.to_json.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"layer.{name}.self_s", "s") for name in MODULES),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _expanded_words(raw) -> int:
    """Words a chain canonicalization expands its input into (multilinear)."""
    total = 0
    for _, word in raw:
        total += math.prod(len(el.terms) for el in word)
    return total


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self, package) -> None:
        self._package = package
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._stack = [-1]
        self._run_id = [0]
        self._counters: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._keys: Dict[int, set] = defaultdict(set)
        #: (module, class or dict, attribute or key, original object)
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        nid = self._name_id(name)
        span_name, start, end, parent, run = (
            self._span_name, self._start, self._end, self._parent, self._run)
        stack, run_id, counters = self._stack, self._run_id, self._counters
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(counters[run_id[0]], args)
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            run.append(run_id[0])
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if after is not None:
                after(self, counters[run_id[0]], args, result)
            return result

        return traced

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_item(self, table: dict, key: str, replacement) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = replacement

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {m: getattr(self._package, m) for m in MODULES}
        bindings: Dict[int, List[Tuple[object, str]]] = defaultdict(list)
        for mod in mods.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    bindings[id(obj)].append((mod, attr))
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(obj, name, *HOOKS.get(name, (None, None)))
                for owner, bound in bindings[id(obj)]:
                    self._patch_attr(owner, bound, wrapper)
        chains, report, suite = mods["chains"], mods["report"], mods["suite"]
        for cls, attr, name in (
            (chains.TensorChain, "from_terms", "chains.from_terms"),
            (report.VerificationReport, "build", "report.build"),
            (report.VerificationReport, "to_json", "report.to_json"),
            (report.VerificationReport, "to_text", "report.to_text"),
        ):
            descriptor = cls.__dict__[attr]
            fn = descriptor.__func__ if isinstance(descriptor, staticmethod) else descriptor
            wrapper = self._wrap(fn, name, *HOOKS.get(name, (None, None)))
            if isinstance(descriptor, staticmethod):
                wrapper = staticmethod(wrapper)
            self._patch_attr(cls, attr, wrapper)
        for family, fn in list(suite.FAMILIES.items()):
            name = f"suite.family.{family}"
            self._patch_item(suite.FAMILIES, family,
                             self._wrap(fn, name, None, _family_after))
        for attr in ("eigh", "eigvalsh"):
            self._patch_attr(np.linalg, attr, self._wrap(getattr(np.linalg, attr), "spectral.eigh"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- runs and metrics ---------------------------------------------------

    def begin_run(self, run_id: int) -> None:
        self._run_id[0] = run_id

    def run_metrics(self, run_id: int, wall_s: float, scale: float = 1.0) -> Dict[str, float]:
        """Layer metrics of one traced pass that took `wall_s` seconds.

        Every time is multiplied by `scale`, the pass's speed correction.
        """
        runs = np.frombuffer(self._run, dtype=np.int32)
        sel = np.nonzero(runs == run_id)[0]
        names = np.frombuffer(self._span_name, dtype=np.int32)[sel]
        dur = (np.frombuffer(self._end, dtype=np.float64)[sel]
               - np.frombuffer(self._start, dtype=np.float64)[sel])
        parents = np.frombuffer(self._parent, dtype=np.int32)[sel]
        # parents of spans in a run are spans of the same run (or -1)
        local = np.full(len(self._start), -1, dtype=np.int64)
        local[sel] = np.arange(len(sel))
        child_sum = np.zeros(len(sel))
        has_parent = parents >= 0
        np.add.at(child_sum, local[parents[has_parent]], dur[has_parent])
        self_time = dur - child_sum
        n_names = len(self._names)
        calls = np.bincount(names, minlength=n_names)
        self_by_name = np.bincount(names, weights=self_time, minlength=n_names)
        total_by_name = np.bincount(names, weights=dur, minlength=n_names)
        by_name = {nm: (int(calls[i]), float(self_by_name[i]), float(total_by_name[i]))
                   for i, nm in enumerate(self._names)}

        def get(name: str) -> Tuple[int, float, float]:
            return by_name.get(name, (0, 0.0, 0.0))

        c = self._counters[run_id]
        out: Dict[str, float] = {}
        for metric, _unit in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = get(base)[0]
            elif field == "self_s":
                out[metric] = get(base)[1]
        for family in FAMILY_NAMES:
            out[f"suite.family.{family}.s"] = get(f"suite.family.{family}")[2]
        family_total = sum(out[f"suite.family.{f}.s"] for f in FAMILY_NAMES)
        out["suite.untimed_s"] = family_total - c["suite.check_ms"] / 1000.0
        out["suite.checks"] = c["suite.checks"]
        out["weyl.mul.terms_out"] = c["weyl.mul.terms_out"]
        words_in = c["chains.from_terms.words_in"]
        out["chains.from_terms.words_in"] = words_in
        out["chains.from_terms.words_kept"] = c["chains.from_terms.words_kept"]
        out["chains.from_terms.keep_ratio"] = (
            c["chains.from_terms.words_kept"] / words_in if words_in else 0.0)
        out["spectral.build_model.distinct_keys"] = len(self._keys[run_id])
        out["spectral.load_spectrum.hits"] = c["spectral.load_spectrum.hits"]
        cond = c["spectral.max_gram_cond"]
        out["spectral.max_gram_cond_log10"] = math.log10(cond) if cond > 0 else 0.0
        out["chern.integrate_chart.levels_used"] = c["chern.integrate_chart.levels_used"]
        layer_self: Dict[str, float] = defaultdict(float)
        for nm, (_calls, self_s, _total) in by_name.items():
            layer_self[nm.split(".", 1)[0]] += self_s
        for layer in MODULES:
            out[f"layer.{layer}.self_s"] = layer_self[layer]
        covered = float(dur[~has_parent].sum())
        out["trace.spans"] = len(sel)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - covered
        for metric, unit in LAYER_METRICS:
            if unit == "s" and metric in out:
                out[metric] *= scale
        return out

    def dump(self, path: str) -> None:
        """Write every recorded span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            run=np.frombuffer(self._run, dtype=np.int32),
        )


# -- counters taken at layer boundaries ---------------------------------------


def _count_words_in(counters, args):
    n, raw = args
    raw = list(raw)
    counters["chains.from_terms.words_in"] += _expanded_words(raw)
    return (n, raw)


def _mul_after(tracer, c, args, result):
    c["weyl.mul.terms_out"] += len(result.terms)


def _from_terms_after(tracer, c, args, result):
    c["chains.from_terms.words_kept"] += len(result.terms)


def _build_after(tracer, c, args, result):
    tracer._keys[tracer._run_id[0]].add((result.k, result.trunc))
    c["spectral.max_gram_cond"] = max(
        c["spectral.max_gram_cond"], float(result.basis_meta["max_gram_condition"]))


def _load_after(tracer, c, args, result):
    c["spectral.load_spectrum.hits"] += result is not None


def _chart_after(tracer, c, args, result):
    c["chern.integrate_chart.levels_used"] += result.levels_used


def _family_after(tracer, c, args, result):
    c["suite.checks"] += len(result)
    c["suite.check_ms"] += sum(r.runtime_ms for r in result)


#: span name -> (hook on the arguments before the call, hook on the result)
HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "weyl.mul": (None, _mul_after),
    "chains.from_terms": (_count_words_in, _from_terms_after),
    "spectral.build_model": (None, _build_after),
    "spectral.load_spectrum": (None, _load_after),
    "chern.integrate_chart": (None, _chart_after),
}
