"""Instrumentation of linecluster from outside: the scan gate and the span tracer.

Nothing under ``src/`` is changed. ``Instrument`` finds every public function
defined in a layer module and every module attribute bound to one (including
the aliases made by ``from .hypergraph import scan``), and rebinds those
attributes to wrappers, so nested calls made through module globals get
their own spans with the caller as parent.

* The scan gate is always on: each ``hypergraph.scan`` call records the
  sha256 of its input and of the int32 W it returned, for the reference
  check that runs after the loop.
* The tracer is on in traced rounds only: each wrapped call records a span
  ``[key, start, end, parent, overhead]`` in memory; ``overhead`` is the
  tracer's own work inside the span (counts, digests), which is excluded
  from self time. tracemalloc is not used here: it slows the numpy scan by
  up to half, so the scan's peak memory is measured by a separate call.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import time

import numpy as np

import workloads

# Package module -> layer. The kernel modules are not wrapped: their time is
# self time of hypergraph.scan. tls is part of the threshold layer.
LAYERS = {
    "model": "model", "io": "io", "hypergraph": "hypergraph", "spectral": "spectral",
    "threshold": "threshold", "tls": "threshold", "recovery": "recovery",
    "metrics": "metrics", "mle": "mle", "montecarlo": "montecarlo", "bounds": "bounds",
    "sweep": "sweep", "cli": "cli",
}
SCAN = ("hypergraph", "scan")


def input_key(points, t: float) -> str:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    return hashlib.sha256(pts.tobytes() + float(t).hex().encode()).hexdigest()[:24]


class Instrument:
    """Rebinds linecluster's public functions to gate and span wrappers."""

    def __init__(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "linecluster" or name.startswith("linecluster."))]
        self.keys = {}  # original function -> (layer, name)
        for mod in modules:
            layer = LAYERS.get(mod.__name__.rpartition(".")[2])
            if layer is None:
                continue
            for name, obj in vars(mod).items():
                public = not name.startswith("_")
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self.keys[obj] = (layer, name)
        self.bindings = [(mod, name, obj) for mod in modules for name, obj in list(vars(mod).items())
                         if inspect.isfunction(obj) and obj in self.keys]
        self.scan_inputs: dict[str, tuple[np.ndarray, float]] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new operation's records."""
        self.scans: list[tuple[str, str]] = []  # (input key, W digest) per scan call
        self.counters: list[dict] = []  # per scan or Monte-Carlo call
        self.spans: list[list] = []
        self.stack: list[int] = []

    def apply(self, traced: bool) -> None:
        """Bind the gate (always) and span wrappers (when ``traced``)."""
        wrappers = {}
        for orig, key in self.keys.items():
            if traced:
                wrappers[orig] = self._span_wrapper(orig, key)
            elif key == SCAN:
                wrappers[orig] = self._gate_wrapper(orig)
        for mod, name, orig in self.bindings:
            setattr(mod, name, wrappers.get(orig, orig))

    def restore(self) -> None:
        for mod, name, orig in self.bindings:
            setattr(mod, name, orig)

    def _record_scan(self, args, kwargs, result) -> None:
        points = args[0] if args else kwargs["points"]
        t = args[1] if len(args) > 1 else kwargs["t"]
        key = input_key(points, t)
        if key not in self.scan_inputs:
            self.scan_inputs[key] = (np.array(points, dtype=np.float64), float(t))
        self.scans.append((key, workloads.counts_digest(result[0].counts)))

    def _gate_wrapper(self, orig):
        def gated(*args, **kwargs):
            result = orig(*args, **kwargs)
            self._record_scan(args, kwargs, result)
            return result

        return gated

    def _span_wrapper(self, orig, key):
        is_scan = key == SCAN

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [key, 0.0, 0.0, parent, 0.0]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                done = span[2] = time.perf_counter()
                self.stack.pop()
            if is_scan:
                counts = result[0].counts
                n = counts.shape[0]
                self.counters.append({
                    "triples": math.comb(n, 3),
                    "accepted": int(counts.sum(dtype=np.int64)) // 6,
                    "pairs": n * (n - 1),
                    "nonzero": int(np.count_nonzero(counts)),
                })
                self._record_scan(args, kwargs, result)
            elif key[0] == "montecarlo":
                parts = result if isinstance(result, tuple) else (result,)
                samples = sum(getattr(r, "n", 0) for r in parts)
                if samples:
                    self.counters.append({"mc_samples": samples})
            span[2] = time.perf_counter()
            span[4] = span[2] - done
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus its children's durations minus its tracer overhead."""
    own = [end - start - overhead for _, start, end, _, overhead in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def op_metrics(spans: list[list], stats: list[dict], gate: dict) -> dict[str, float]:
    """Per-layer figures of one traced operation (before per-round averaging)."""
    own = self_times(spans)
    by_key: dict[tuple[str, str], float] = {}
    inclusive: dict[tuple[str, str], float] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in set(LAYERS.values())}
    for (key, start, end, _, _), s in zip(spans, own):
        by_key[key] = by_key.get(key, 0.0) + s
        inclusive[key] = inclusive.get(key, 0.0) + (end - start)
        layer_self[key[0]] += s
    scans = [s for s in stats if "triples" in s]
    io_other = sum(v for (layer, name), v in by_key.items()
                   if layer == "io" and not name.startswith("read_") and name != "write_similarity_csv")
    m = {
        "hypergraph.scan_s": by_key.get(SCAN, 0.0),
        "hypergraph.scan_calls": float(len(scans)),
        "hypergraph.triples": float(sum(s["triples"] for s in scans)),
        "hypergraph.accepted": float(sum(s["accepted"] for s in scans)),
        "hypergraph.pairs": float(sum(s["pairs"] for s in scans)),
        "hypergraph.nonzero": float(sum(s["nonzero"] for s in scans)),
        "spectral.eigen_s": by_key.get(("spectral", "top2_eigen"), 0.0),
        "spectral.kmeans_s": by_key.get(("spectral", "kmeans2_rows"), 0.0),
        "threshold.select_s": inclusive.get(("threshold", "select_threshold"), 0.0),
        "threshold.autocluster_self_s": by_key.get(("threshold", "autocluster"), 0.0),
        "io.read_points_s": by_key.get(("io", "read_points_csv"), 0.0),
        "io.write_similarity_s": by_key.get(("io", "write_similarity_csv"), 0.0),
        "io.similarity_bytes": float(gate.get("similarity_bytes", 0)),
        "io.write_other_s": io_other,
        "model.sample_s": layer_self["model"],
        "recovery.fit_s": layer_self["recovery"],
        "metrics.report_s": layer_self["metrics"],
        "sweep.self_s": layer_self["sweep"],
        "sweep.trials": float(gate.get("trials", 0)),
        "mle.recover_s": inclusive.get(("mle", "mle_recover"), 0.0),
        "mle.perr_s": inclusive.get(("mle", "perr_exact"), 0.0),
        "montecarlo.mc_s": layer_self["montecarlo"],
        "montecarlo.samples": float(sum(s.get("mc_samples", 0) for s in stats)),
        "bounds.closed_form_s": layer_self["bounds"],
        "cli.self_s": layer_self["cli"],
    }
    m.update({f"layer.{layer}.self_s": v for layer, v in layer_self.items()})
    return m


def mean_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-operation means over ``ops``; ratios are taken over their sums."""
    k = len(ops)
    total = {name: sum(op[name] for op in ops) for name in ops[0]}
    out = {name: v / k for name, v in total.items()}
    triples = total["hypergraph.triples"]
    out["hypergraph.triples_per_s"] = triples / total["hypergraph.scan_s"] if triples else 0.0
    out["hypergraph.accepted_frac"] = total["hypergraph.accepted"] / triples if triples else 0.0
    pairs = total["hypergraph.pairs"]
    out["hypergraph.w_density"] = total["hypergraph.nonzero"] / pairs if pairs else 0.0
    return out

