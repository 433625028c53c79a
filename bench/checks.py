"""Output checks of the benchmark; each failed check fails one operation.

Every function returns a list of failure strings (empty when the output
is right), so a workload counts an operation as failed when its list is
non-empty.  Failures of a documented defect of the package are
``KnownDefect`` strings: they are counted as failed operations like any
other, but a run whose failures are all known defects is still reported
``correct``.  The known defects are:

- tiny d: below scale * d = KNOWN_TINY_D_SCALE the analytic series stops
  at its harmonic cap, so g breaks the bound sandwich and the dilogarithm
  form, and for every map 1 - phi cancels, so invert(g(d)) drifts;
- the top level of a quantizing map (multibit, quantized) is computed as
  lo + (idx + 1/2) step and can exceed the declared value_range by one
  unit in the last place.

The reference forms used here (``universal_binary_map`` and
``universal_binary_map_l1``) are imported before any tracing is
installed, so checking never shows up in a trace.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

from uemb.theory import universal_binary_map, universal_binary_map_l1

# invert(g(d)) must return d to this relative error; the bisection itself
# stops at rel_tol 1e-10.
ROUND_TRIP_RTOL = 1e-8
# The engine's square+cauchy g against the exact dilogarithm form.
DILOG_RTOL = 1e-6
# Absolute slack of the bound sandwich, as in the acceptance suite.
SANDWICH_SLACK = 1e-15
# Failures at projected distances scale * d below this are the known
# tiny-d defect: they are counted as failed operations but do not make
# the run incorrect.  The largest failing scale * d measured at the seed
# commit is 2.0e-6 (invert of the Gaussian mixture, on a grid of 20
# points per decade for two (sigma, Delta) pairs); this is 2.5x that.
KNOWN_TINY_D_SCALE = 5e-6


class KnownDefect(str):
    """A failure message of one of the documented known defects."""


def only_known(failures):
    """True when every failure of an operation is a known defect."""
    return all(isinstance(f, KnownDefect) for f in failures)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# repro: one operation per config run


def csv_column(path, column):
    with open(path, newline="", encoding="utf-8") as f:
        return [row[column] for row in csv.DictReader(f)]


def repro_failures(exit_code, files, expected_sha256=None, quant_summary=None):
    """Failures of one CLI config run.

    ``files`` maps output file names to paths; ``expected_sha256`` (name ->
    digest, or None when the run is not at a recorded seed) must match
    every file; ``quant_summary`` is the path of a quant_summary.csv whose
    within_inflation column must be all true.
    """
    if exit_code != 0:
        return ["exit code %r" % (exit_code,)]
    out = []
    if quant_summary is not None:
        flags = csv_column(quant_summary, "within_inflation")
        if not flags or any(v != "1" for v in flags):
            out.append("within_inflation false: %s" % ",".join(flags))
    if expected_sha256 is not None:
        if sorted(files) != sorted(expected_sha256):
            out.append("output files %s, expected %s"
                       % (sorted(files), sorted(expected_sha256)))
        for name in sorted(set(files) & set(expected_sha256)):
            if sha256_file(files[name]) != expected_sha256[name]:
                out.append("sha256 mismatch: %s" % name)
    return out


# ---------------------------------------------------------------------------
# embed: one operation per (operator, batch)


# Map kinds whose levels are computed as lo + (idx + 1/2) step.
QUANTIZING_KINDS = ("multibit", "quantized")


def codomain_failures(op, Y):
    """Embedding values must lie in the map's codomain [lo, hi]."""
    lo, hi = op.map.value_range
    if op.map.is_binary:
        bad = int(np.count_nonzero((Y != 0.0) & (Y != 1.0)))
        return ["%d values not in {0, 1}" % bad] if bad else []
    outside = Y[~((Y >= lo) & (Y <= hi))]
    if not outside.size:
        return []
    msg = "%d values outside the codomain [%r, %r], extremes %r, %r" % (
        outside.size, lo, hi, float(outside.min()), float(outside.max()))
    if op.map.kind not in QUANTIZING_KINDS:
        return [msg]
    one_ulp = (outside >= np.nextafter(lo, -np.inf)) & (outside <= np.nextafter(hi, np.inf))
    return [KnownDefect(msg) if np.all(one_ulp) else msg]


def digest_vectors(vectors):
    """sha256 of the stacked float64 values of a list of embeddings."""
    return hashlib.sha256(np.stack([v.values for v in vectors]).tobytes()).hexdigest()


def embed_failures(op, vectors, loaded, split_digest):
    """UEMB round trip, provenance, codomain and split-batch bit-exactness.

    ``vectors`` is embed_batch's output for a batch, ``loaded`` the same
    batch after save_embeddings/load_embeddings, ``split_digest`` the
    digest_vectors of the batch embedded in two parts and concatenated.
    """
    out = []
    Y = np.stack([v.values for v in vectors])
    ids = {v.map_id for v in vectors} | {v.map_id for v in loaded}
    if ids != {op.operator_id}:
        out.append("operator_id %r, expected %r" % (sorted(ids), op.operator_id))
    if len(loaded) != len(vectors):
        out.append("loaded %d vectors, saved %d" % (len(loaded), len(vectors)))
    else:
        L = np.stack([v.values for v in loaded])
        if L.dtype != Y.dtype or L.shape != Y.shape or not np.array_equal(L, Y):
            out.append("UEMB round trip not bit-exact")
    out += codomain_failures(op, Y)
    if digest_vectors(vectors) != split_digest:
        out.append("split batch not bit-exact with the whole batch")
    return out


# ---------------------------------------------------------------------------
# retrieval: one operation per (Delta, rate) cell


def _unimodal(vals, slack=0.015):
    """The acceptance suite's c12 unimodality rule."""
    peak = int(np.argmax(vals))
    rising = all(b - a >= -slack for a, b in zip(vals[:peak + 1], vals[1:peak + 1]))
    falling = all(b - a <= slack for a, b in zip(vals[peak:], vals[peak + 1:]))
    return rising and falling


def retrieval_failures(accuracy, baseline, deltas, rates):
    """Per-cell failures of the c12 trend rules and the l2 baseline.

    ``accuracy`` maps (delta, rate) to accuracy.  Every cell fails when the
    infinite-rate baseline is not exactly 1; every cell of a rate fails
    when accuracy is not unimodal in Delta at that rate; a cell of the
    best-Delta curve fails when it is below the cell at the next lower rate.
    """
    out = {cell: [] for cell in accuracy}
    if baseline != 1.0:
        for cell in out:
            out[cell].append("baseline_l2_accuracy %r != 1" % baseline)
    for r in rates:
        vals = [accuracy[(d, r)] for d in deltas]
        if not _unimodal(vals):
            for d in deltas:
                out[(d, r)].append("not unimodal in Delta at rate %d: %s" % (r, vals))
    best = max(deltas, key=lambda d: accuracy[(d, rates[-1])])
    for lo, hi in zip(rates, rates[1:]):
        if accuracy[(best, hi)] < accuracy[(best, lo)]:
            out[(best, hi)].append("best-Delta curve decreases at rate %d" % hi)
    return out


# ---------------------------------------------------------------------------
# theory: one operation per (model, d) point


def theory_point_failures(point):
    """Failures of one evaluated point of a DistanceMapModel.

    ``point`` holds: kind, family, sigma, delta (the binary universal
    parameters, scale = sigma / (2 delta)), d, g, K, total_power,
    tail_bound, and optionally ``inverse`` = (d_hat, status) and
    g_sat (= 0.95 g_inf, where invert reports saturation).
    """
    out, tiny = [], is_known_tiny_d(point)
    d, g = point["d"], point["g"]
    budget = max(2.0 * point["tail_bound"], 1e-12)
    err = abs(point["K"] + g / 2.0 - point["total_power"])
    if not err <= budget:
        out.append("K + g/2 off total power by %.3g > %.3g" % (err, budget))
    if point["kind"] == "square" and point["family"] == "gaussian":
        _, b = universal_binary_map(d, point["sigma"], point["delta"])
        if not b.lower <= g + SANDWICH_SLACK:
            out.append(_tiny("g %.17g below lower5 %.17g" % (g, b.lower), tiny))
        if not g <= min(b.upper_exp, b.upper_lin) + SANDWICH_SLACK:
            out.append(_tiny("g %.17g above min(upper6, upper7) %.17g"
                             % (g, min(b.upper_exp, b.upper_lin)), tiny))
    if point["kind"] == "square" and point["family"] == "cauchy":
        ref = universal_binary_map_l1(d, point["sigma"], point["delta"])
        if not abs(g - ref) <= DILOG_RTOL * ref + SANDWICH_SLACK:
            out.append(_tiny("g %.17g vs dilogarithm form %.17g" % (g, ref), tiny))
    if "inverse" in point:
        d_hat, status = point["inverse"]
        if g >= point["g_sat"]:
            if status != "saturated" or d_hat > d * (1 + ROUND_TRIP_RTOL):
                out.append("invert(g) = (%r, %s) past saturation" % (d_hat, status))
        elif status != "unique" or not math.isfinite(d_hat) or \
                abs(d_hat - d) > ROUND_TRIP_RTOL * d:
            out.append(_tiny("invert(g(%.17g)) = (%.17g, %s)" % (d, d_hat, status), tiny))
    return out


def _tiny(msg, tiny):
    return KnownDefect(msg) if tiny else msg


def is_known_tiny_d(point):
    scale = point["sigma"] / (2.0 * point["delta"])
    return scale * point["d"] < KNOWN_TINY_D_SCALE
