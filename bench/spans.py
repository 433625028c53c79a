"""Span tracing of calls into the uemb package, installed from outside it.

A traced pass replaces the public names the runners and workloads call
with wrappers that record one span per call: name, start, end, parent and
a few attributes computed from argument shapes.  Spans are kept in memory
and written out when the benchmark ends; nothing under ``src/`` changes.
Self time is a span's duration minus the durations of its child spans
(calls are strictly nested, because every workload runs in one thread).
Spans are timed on the workloads' clock, CPU seconds of the process, so
they compare with the end-to-end times.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys

import numpy as np

from uemb import embedder, maps, randproj, theory
from uemb.expcli import config, runners
from workloads import clock

# theory.g calls below this projected distance scale * d count as the
# small-d regime, where the analytic series needs the most harmonics.
SMALL_D_SCALE = 1e-3

# A timed name reports p50 and a tail percentile from this many calls up.
MIN_CALLS_FOR_PERCENTILES = 20


class Tracer:
    """In-memory span log of one traced run."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, attrs or None]
        self._stack = []

    def wrap(self, name, fn, attrs=None, after=None):
        """Wrapper recording a span per call of fn.

        ``attrs(args, kwargs, result)`` adds attributes to the span;
        ``after(args, kwargs, result)`` runs once the span has ended, as
        a sibling of it (the GEMM reference uses this).
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of benchmark code (e.g. one config run)."""
        rec = [name, clock(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = clock()
            self._stack.pop()

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
            for n, s, e, p, a in self.spans
        ]


# ---------------------------------------------------------------------------
# Attributes computed from array shapes ("computed" counts)


def _embed_attrs(args, kwargs, out):
    op, X = args[0], args[1]
    n = int(np.shape(X)[0])
    M, N = op.M, op.N
    return {
        "rows": n,
        "flops": 2 * n * M * N,
        "bytes": 8 * (n * N + M * N + n * M),
    }


def _map_attrs(args, kwargs, out):
    return {"kind": args[0].kind, "elems": int(np.size(args[1]))}


def _projection_attrs(args, kwargs, out):
    return {"elems": int(out.size)}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _g_attrs(args, kwargs, out):
    model, d = args[0], args[1]
    return {"small_d": bool(model.spec.scale * d < SMALL_D_SCALE)}


def _curve_attrs(args, kwargs, out):
    return {"points": int(np.size(args[1]))}


def _retrieval_attrs(args, kwargs, out):
    cfg = args[0]
    L = cfg["clusters"]
    db = L * (cfg["points_per_cluster"] - 1)
    cmp = L * db * sum(cfg["rate_list"]) * len(cfg["delta_list"]) * cfg["reps"]
    return {"hamming_cmp": cmp}


def _gemm_ref(tracer):
    """The benchmark's own X @ A.T on embed_batch's inputs, as a span."""

    def run(args, kwargs, out):
        op = args[0]
        X = np.asarray(args[1], dtype=np.float64)
        with tracer.span("embedder.gemm_ref"):
            X @ op.A.T

    return run


# ---------------------------------------------------------------------------
# Installing and removing the wrappers


def _targets(tracer):
    """(owner, attribute, span name, attrs, after) for every traced name."""
    D = theory.DistanceMapModel
    P = maps.PeriodicMap
    return [
        (randproj, "sample_projection", "randproj.sample_projection", _projection_attrs, None),
        (randproj.RandomState, "gaussian", "randproj.gaussian", None, None),
        (embedder, "build_operator", "embedder.build_operator", None, None),
        (embedder, "build_universal_operator", "embedder.build_universal_operator", None, None),
        (embedder, "embed_batch", "embedder.embed_batch", _embed_attrs, _gemm_ref(tracer)),
        (embedder, "embedding_distance", "embedder.embedding_distance", None, None),
        (embedder, "save_embeddings", "embedder.save_embeddings", _file_bytes, None),
        (embedder, "load_embeddings", "embedder.load_embeddings", _file_bytes, None),
        (P, "__call__", "maps.call", _map_attrs, None),
        (P, "power_coeffs", "maps.power_coeffs", None, None),
        (D, "__init__", "theory.model_init", None, None),
        (D, "g", "theory.g", _g_attrs, None),
        (D, "kernel", "theory.kernel", None, None),
        (D, "curve", "theory.curve", _curve_attrs, None),
        (D, "invert", "theory.invert", None, None),
        (theory, "universal_binary_map", "theory.universal_binary_map", None, None),
        (config, "parse_config", "expcli.parse_config", None, None),
        (config, "emit_csv", "expcli.emit_csv", _file_bytes, None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Replace the traced names everywhere they are bound; restore on exit.

    Module-level functions are re-bound in every ``uemb`` module that
    imported them by name, so ``runners.embed_batch`` is traced too.
    """
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for owner, attr, name, attrs, after in _targets(tracer):
            orig = owner.__dict__[attr]
            new = tracer.wrap(name, orig, attrs, after)
            if isinstance(owner, type):
                rebind(owner, attr, new)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "uemb" and mod is not None:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            rebind(mod, key, new)
        d0 = theory.DistanceMapModel.__dict__["D0"]
        rebind(theory.DistanceMapModel, "D0",
               property(tracer.wrap("theory.D0", d0.fget)))
        originals = dict(runners.RUNNERS)
        for kind, fn in originals.items():
            attrs = _retrieval_attrs if kind == "retrieval" else None
            runners.RUNNERS[kind] = tracer.wrap("expcli." + fn.__name__, fn, attrs)
        undo.append((runners.RUNNERS, None, originals))
        yield tracer
    finally:
        for owner, attr, val in reversed(undo):
            if attr is None:
                owner.update(val)
            else:
                setattr(owner, attr, val)


# ---------------------------------------------------------------------------
# Per-layer metrics from a span log


def _percentiles(durations):
    """(p50_ms, tail_ms, tail_pct) or None below MIN_CALLS_FOR_PERCENTILES.

    The tail is the highest percentile with at least 10 samples beyond it:
    the 11th-largest duration, at percentile 100 (n - 10) / n.
    """
    n = len(durations)
    if n < MIN_CALLS_FOR_PERCENTILES:
        return None
    ms = np.sort(np.asarray(durations)) * 1e3
    return float(np.median(ms)), float(ms[n - 11]), 100.0 * (n - 10) / n


def summarize(spans):
    """(per-name totals of span records, number of traced passes).

    Each entry has s, calls and self_s: the sums over the spans under a
    root ``pass`` span, divided by the number of such roots, so they do
    not grow with the length of the run; ``durations`` (for percentiles)
    and ``spans`` (indices) of those spans; and ``setup_s``, the total
    under the root ``setup`` span, which runs once.

    The benchmark's GEMM reference runs inside the span that called
    embed_batch, so its time is taken out of every enclosing span's
    duration (and so out of their totals and self times).
    """
    n_spans = len(spans)
    ref = [0.0] * n_spans     # gemm_ref time inside each span
    for i in range(n_spans - 1, -1, -1):
        n, s, e, p, a = spans[i]
        if p >= 0:
            ref[p] += e - s if n == "embedder.gemm_ref" else ref[i]
    dur = [e - s - r for (n, s, e, p, a), r in zip(spans, ref)]
    child_time = [0.0] * n_spans
    root = [""] * n_spans
    for i, (n, s, e, p, a) in enumerate(spans):
        root[i] = root[p] if p >= 0 else n
        if p >= 0 and n != "embedder.gemm_ref":
            child_time[p] += dur[i]
    passes = max(1, sum(1 for n, s, e, p, a in spans if p < 0 and n == "pass"))
    by_name = {}
    for i, (n, s, e, p, a) in enumerate(spans):
        entry = by_name.setdefault(n, _empty())
        if root[i] == "setup":
            entry["setup_s"] += dur[i]
        elif root[i] == "pass":
            entry["s"] += dur[i] / passes
            entry["calls"] += 1.0 / passes
            entry["self_s"] += (dur[i] - child_time[i]) / passes
            entry["durations"].append(dur[i])
            entry["spans"].append(i)
    return by_name, passes


def _empty():
    return {"s": 0.0, "calls": 0.0, "self_s": 0.0, "setup_s": 0.0,
            "durations": [], "spans": []}


def layer_metrics(spans, cfg_names):
    """The per-layer metric table (name -> (value, unit)) of a traced run.

    Totals (seconds, calls, counts and bytes) are per traced pass, with
    units ending in /pass; rates, ns_per_elem and percentiles are per call.
    The one set-up metric, randproj.sample_projection.setup_s, is the
    operator sampling of the set-up, which runs once.
    """
    by, passes = summarize(spans)
    out = {}

    def get(name):
        return by.get(name, _empty())

    def attr_sum(name, key, where=lambda i: True):
        return sum(spans[i][4][key] for i in get(name)["spans"]
                   if spans[i][4] and where(i)) / passes

    def time_sum(name, where):
        # no span summed this way ever holds the GEMM reference
        return sum(spans[i][2] - spans[i][1] for i in get(name)["spans"]
                   if where(i)) / passes

    def timed(metric, name, with_self=False, pct=False):
        e = get(name)
        out[metric + ".s"] = (e["s"], "s/pass")
        out[metric + ".calls"] = (e["calls"], "count/pass")
        if with_self:
            out[metric + ".self_s"] = (e["self_s"], "s/pass")
        if pct:
            p = _percentiles(e["durations"])
            out[metric + ".p50_ms"] = (p[0] if p else 0.0, "ms")
            out[metric + ".tail_ms"] = (p[1] if p else 0.0, "ms")
            out[metric + ".tail_pct"] = (p[2] if p else 0.0, "%")

    def rate(total, seconds, scale=1.0):
        return total / seconds / scale if seconds > 0 else 0.0

    # randproj: operator sampling runs in set-up (embed) or in passes (repro)
    timed("randproj.sample_projection", "randproj.sample_projection")
    sp = get("randproj.sample_projection")
    out["randproj.sample_projection.setup_s"] = (sp["setup_s"], "s")
    elems = sum(a["elems"] for n, s, e, p, a in spans if n == "randproj.sample_projection")
    out["randproj.sample_projection.melems_per_s"] = (
        rate(elems, sp["s"] * passes + sp["setup_s"], 1e6), "Melem/s")
    out["randproj.gaussian.s"] = (get("randproj.gaussian")["s"], "s/pass")

    # maps: totals over top-level map calls (a quantized map's inner call
    # is part of its own time)
    def top(i):
        p = spans[i][3]
        return p < 0 or spans[p][0] != "maps.call"

    out["maps.call.s"] = (time_sum("maps.call", top), "s/pass")
    out["maps.call.elems"] = (attr_sum("maps.call", "elems", top), "count/pass")
    for kind in ("square", "multibit", "mixture", "quantized"):
        def top_of_kind(i, kind=kind):
            return top(i) and spans[i][4]["kind"] == kind

        n = attr_sum("maps.call", "elems", top_of_kind)
        out["maps.%s.ns_per_elem" % kind] = (
            rate(time_sum("maps.call", top_of_kind) * 1e9, n) if n else 0.0, "ns")
    timed("maps.power_coeffs", "maps.power_coeffs")

    # embedder
    timed("embedder.embed_batch", "embedder.embed_batch", with_self=True, pct=True)
    out["embedder.embed_batch.rows"] = (attr_sum("embedder.embed_batch", "rows"), "count/pass")
    out["embedder.embed_batch.gflops_computed"] = (
        rate(attr_sum("embedder.embed_batch", "flops"),
             get("embedder.embed_batch")["s"], 1e9), "GFLOP/s")
    out["embedder.embed_batch.bytes_computed"] = (
        attr_sum("embedder.embed_batch", "bytes"), "B/pass")
    out["embedder.gemm_ref.s"] = (get("embedder.gemm_ref")["s"], "s/pass")
    timed("embedder.embedding_distance", "embedder.embedding_distance", pct=True)
    for io in ("save_embeddings", "load_embeddings"):
        name = "embedder." + io
        out[name + ".s"] = (get(name)["s"], "s/pass")
        out[name + ".bytes"] = (attr_sum(name, "bytes"), "B/pass")

    # theory
    out["theory.model_init.s"] = (get("theory.model_init")["s"], "s/pass")
    timed("theory.g", "theory.g", pct=True)
    out["theory.g.small_d.s"] = (
        time_sum("theory.g", lambda i: spans[i][4]["small_d"]), "s/pass")
    out["theory.g.large_d.s"] = (
        time_sum("theory.g", lambda i: not spans[i][4]["small_d"]), "s/pass")
    timed("theory.kernel", "theory.kernel")
    out["theory.curve.s"] = (get("theory.curve")["s"], "s/pass")
    out["theory.curve.points"] = (attr_sum("theory.curve", "points"), "count/pass")
    timed("theory.D0", "theory.D0")
    timed("theory.invert", "theory.invert")
    timed("theory.universal_binary_map", "theory.universal_binary_map")

    # expcli
    out["expcli.parse_config.s"] = (get("expcli.parse_config")["s"], "s/pass")
    out["expcli.emit_csv.s"] = (get("expcli.emit_csv")["s"], "s/pass")
    out["expcli.emit_csv.bytes"] = (attr_sum("expcli.emit_csv", "bytes"), "B/pass")
    for cfg in cfg_names:
        e = get("expcli.cfg." + cfg)
        out["expcli.cfg.%s.s" % cfg] = (e["s"], "s/pass")
        out["expcli.cfg.%s.self_s" % cfg] = (e["self_s"], "s/pass")
    out["expcli.run_retrieval.self_s"] = (get("expcli.run_retrieval")["self_s"], "s/pass")
    out["expcli.hamming_cmp_computed"] = (
        attr_sum("expcli.run_retrieval", "hamming_cmp"), "count/pass")
    return out
