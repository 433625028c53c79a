"""Experiment runners: desk-scale simulation reproductions and sweeps.

Every runner is bit-reproducible from (config, seed): randomness flows
through per-cell derived RandomStates and CSV cells are written with
shortest round-trip float formatting, so a rerun yields identical bytes.
Scatter outputs always carry the theory column computed at the same
parameters.  Each scatter cell goes through ``_cell_distances``, which
builds the cell's operator and streams its signal pairs through it in
blocks of at most ``_PAIR_BLOCK`` elements (or one pair, where a pair
alone is more), so a cell holds its operator and one block whatever
``pairs`` is; quant-sim also quantizes each block's values (in place,
unless the batch is binary) into a float batch.  Every CSV a runner
writes goes through ``_emit``, which also records its path in the
result's "files".  A map key's map is ``cfg.map``, built with its
spectrum once, by the config check.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..embedder import (EmbeddingBatch, build_operator, build_universal_operator,
                        embed_batch, embedding_distance, universal_scale)
from ..maps import _quantize_values, make_sawtooth, make_square_wave
from ..randproj import ProjectionSpec, RandomState
from ..theory import (
    DistanceMapModel,
    binary_decay_threshold,
    discontinuous_extension_bound,
    p2_bound,
    p2_meaningful_radius,
    pointcloud_bound,
    quantized_bound_inflation,
    universal_binary_map,
    universal_binary_map_l1,
)
from .config import emit_csv


class DatasetError(RuntimeError):
    """Synthetic dataset failed its separation-margin validation."""


# Elements of one scatter-cell block's signals or embeddings: 2 rows a pair
# by the larger of N and M.  A block holds one pair at least.
_PAIR_BLOCK = 1 << 19


def _pair_block(rs, stream, N, dvals, metric, start=0):
    """Signal pairs x' = x + d u at controlled distances.

    u is uniform on the unit sphere for the l2 metric and scaled to unit
    l1 norm for the l1 metric.  The pairs are those numbered start,
    start + 1, ... of the stream: pair i is its draws [2iN, 2iN + 2N).
    Returns a (2n, N) matrix with the n = len(dvals) pairs in rows 2i, 2i+1.
    """
    n = len(dvals)
    g = rs.gaussian(stream, 2 * n * N, start=2 * start * N).reshape(n, 2, N)
    x = g[:, 0, :]
    u = g[:, 1, :]
    if metric == "l2":
        norms = np.linalg.norm(u, axis=1, keepdims=True)
    else:
        norms = np.sum(np.abs(u), axis=1, keepdims=True)
    # x + d u / norms, built in place over the u rows
    np.multiply(np.asarray(dvals)[:, None], u, out=u)
    u /= norms
    u += x
    return g.reshape(2 * n, N)


def _pair_distances(Y):
    """sq_l2_mean of the batch's row pairs (2i, 2i+1); hamming_mean on 0/1 codes."""
    return embedding_distance(Y[0::2], Y[1::2], "sq_l2_mean")


def _cell_distances(cell, spec, map_, M, N, dvals, bits=None):
    """sq_l2_mean of the cell's embedded signal pairs at distances dvals.

    The operator draws from the cell's "matrix" and "dither" streams and the
    pairs from its "signals" stream.  The pairs go through in blocks, each
    drawn, embedded and measured before the next is drawn.  Returns a
    1 x n array of one distance per pair; with bits, a 2 x n array whose
    second row holds the distances of the same embeddings quantized to bits
    over the map's value range.
    """
    op = build_operator(spec, map_, M, N, cell)
    step = max(1, _PAIR_BLOCK // (2 * max(N, M)))
    out = np.empty((1 if bits is None else 2, len(dvals)))
    for lo in range(0, len(dvals), step):
        block = slice(lo, lo + step)
        Y = embed_batch(op, _pair_block(cell, "signals", N, dvals[block],
                                        spec.signal_metric, lo))
        out[0, block] = _pair_distances(Y)
        if bits is not None:
            # in place for a float batch; a binary batch's values are a read-only copy
            v = np.require(Y.values, requirements="W")
            out[1, block] = _pair_distances(
                EmbeddingBatch(_quantize_values(v, map_.value_range, bits), Y.map_id))
            del v
        del Y  # the next block is drawn without this one alive
    return out


def _emit(files, out_dir, name, header, rows):
    """Write the CSV ``name`` in out_dir and append its path to files."""
    path = os.path.join(out_dir, name)
    emit_csv(path, header, rows)
    files.append(path)


def _fmt(v):
    return repr(float(v))


def run_design_sim(cfg, out_dir):
    """Unquantized designed-map scatter vs theory (two projection scales)."""
    map_ = cfg.map
    rs = RandomState(cfg.seed)
    dvals = np.linspace(cfg["d_min"], cfg["d_max"], cfg["pairs"])
    summary_rows = []
    files = []
    for j, sigma in enumerate(cfg["sigma_list"]):
        spec = ProjectionSpec(cfg["family"], sigma)
        cell = rs.child("design:%d" % j)
        emb, = _cell_distances(cell, spec, map_, cfg["M"], cfg["N"], dvals)
        theory = DistanceMapModel(map_, spec).curve(dvals)
        _emit(files, out_dir, "design_scatter_sigma=%s.csv" % _fmt(sigma),
              ["d_true", "emb_sq_l2_mean", "g_theory"], zip(dvals, emb, theory))
        resid = emb - theory
        hbar = map_.hbar
        within = float(np.mean(np.abs(resid) <= 0.1))
        viol15 = float(np.mean(np.abs(resid) > 0.15))
        hoeff15 = 2.0 * math.exp(-2.0 * cfg["M"] * 0.15 ** 2 / hbar ** 4)
        summary_rows.append((sigma, cfg["pairs"], within, viol15, hoeff15, hbar))
    _emit(files, out_dir, "design_summary.csv",
          ["sigma", "pairs", "frac_within_0.1", "violation_rate_0.15",
           "hoeffding_bound_0.15", "hbar"],
          summary_rows)
    return {"files": files, "summary": summary_rows}


def run_quantization_sim(cfg, out_dir):
    """Scatter of quantized embeddings against the unquantized theory curve.

    variant "mixture": h = Q_B(design mixture); variant "universal": the
    B-bit universal (quantized-sawtooth) embedding at (sigma, Delta).
    Each cell embeds once with the unquantized base map and quantizes that
    embedding, so both share (A, w); the quantized deviations are checked
    against the eps + 2 E_Q inflation on the metric (sqrt) scale.
    """
    variant = cfg["variant"]
    rs = RandomState(cfg.seed)
    dvals = np.linspace(cfg["d_min"], cfg["d_max"], cfg["pairs"])
    base_map = cfg.map if variant == "mixture" else make_sawtooth()
    summary_rows = []
    files = []
    for bits in cfg["b_list"]:
        cell = rs.child("quant:%s:%d" % (variant, bits))
        if variant == "mixture":
            scale = cfg["sigma"]
        else:
            scale = universal_scale(cfg["sigma"], cfg["delta"], bits)
        spec = ProjectionSpec(cfg["family"], scale)
        emb_u, emb_q = _cell_distances(cell, spec, base_map, cfg["M"], cfg["N"], dvals, bits)
        theory = DistanceMapModel(base_map, spec).curve(dvals)
        _emit(files, out_dir, "quant_scatter_B=%d.csv" % bits,
              ["d_true", "emb_sq_l2_mean", "g_theory_unquantized"],
              zip(dvals, emb_q, theory))
        mean_dev = float(np.mean(np.abs(emb_q - theory)))
        # quantized-embedding inflation check on the metric scale
        e_q = base_map.hbar * 2.0 ** (-bits - 1)
        eps_run = float(np.max(np.abs(np.sqrt(emb_u) - np.sqrt(theory))))
        dev_q = float(np.max(np.abs(np.sqrt(emb_q) - np.sqrt(theory))))
        bound_ok = dev_q <= quantized_bound_inflation(eps_run, e_q) + 1e-12
        summary_rows.append((bits, mean_dev, eps_run, e_q, dev_q, bound_ok))
    _emit(files, out_dir, "quant_summary.csv",
          ["B", "mean_abs_dev", "eps_unquantized", "E_Q", "max_sqrt_dev", "within_inflation"],
          summary_rows)
    return {"files": files, "summary": summary_rows}


def run_universal_scatter(cfg, out_dir):
    """Binary universal Hamming-vs-distance scatter over a Delta x M grid."""
    rs = RandomState(cfg.seed)
    dvals = np.linspace(cfg["d_min"], cfg["d_max"], cfg["pairs"])
    family = cfg["family"]
    sigma = cfg["sigma"]
    square = make_square_wave()
    summary_rows = []
    files = []
    for delta in cfg["delta_list"]:
        if family == "gaussian":
            theory = np.array([universal_binary_map(d, sigma, delta)[0] for d in dvals])
        else:
            theory = np.array([universal_binary_map_l1(d, sigma, delta) for d in dvals])
        spec = ProjectionSpec(family, universal_scale(sigma, delta, 1))
        d0 = DistanceMapModel(square, spec).D0
        for M in cfg["m_list"]:
            cell = rs.child("scatter:%s:%d" % (_fmt(delta), M))
            ham, = _cell_distances(cell, spec, square, M, cfg["N"], dvals)
            _emit(files, out_dir, "scatter_delta=%s_M=%d.csv" % (_fmt(delta), M),
                  ["d_true", "hamming_mean", "g_theory"], zip(dvals, ham, theory))
            lo_h, hi_h = np.percentile(ham - theory, [2.5, 97.5])
            summary_rows.append((delta, M, float(hi_h - lo_h), float(d0)))
    _emit(files, out_dir, "scatter_summary.csv", ["delta", "M", "spread95", "d0_theory"],
          summary_rows)
    return {"files": files, "summary": summary_rows}


def _build_retrieval_dataset(cfg, rs):
    """Synthetic clustered point cloud with one held-out query per cluster.

    Returns (db, db_labels, queries); query i belongs to cluster i.  By
    construction every query's nearest database point belongs to its own
    cluster: the minimum inter-center distance exceeds margin_factor times
    the largest point offset.
    """
    L = cfg["clusters"]
    per = cfg["points_per_cluster"]
    N = cfg["N"]
    centers = rs.gaussian("centers", L * N).reshape(L, N)
    centers *= cfg["center_scale"] / np.linalg.norm(centers, axis=1, keepdims=True)
    scale = cfg["cluster_radius"] / math.sqrt(N)
    offsets = scale * rs.gaussian("points", L * per * N).reshape(L, per, N)
    points = centers[:, None, :] + offsets

    inter = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    min_inter = float(np.min(inter[np.triu_indices(L, k=1)]))
    max_off = float(np.max(np.linalg.norm(offsets, axis=2)))
    if min_inter <= cfg["margin_factor"] * max_off:
        raise DatasetError(
            "clusters overlap beyond margin: min center distance %.4g <= "
            "%.3g * max offset %.4g; shrink cluster_radius or grow "
            "center_scale" % (min_inter, cfg["margin_factor"], max_off)
        )
    db = points[:, 1:, :].reshape(L * (per - 1), N)
    return db, np.repeat(np.arange(L), per - 1), points[:, 0, :]


def _majority_vote(dist, db_labels, n_labels, J):
    """Label votes over the J nearest candidates; stable, deterministic."""
    order = np.argsort(dist, axis=1, kind="stable")[:, :J]
    votes = db_labels[order]
    out = np.empty(votes.shape[0], dtype=np.int64)
    for i in range(votes.shape[0]):
        out[i] = np.bincount(votes[i], minlength=n_labels).argmax()
    return out


def run_retrieval(cfg, out_dir):
    """Nearest-neighbor retrieval accuracy over a Delta x rate sweep."""
    rs = RandomState(cfg.seed)
    L = cfg["clusters"]
    reps = cfg["reps"]
    query_labels = np.arange(L)
    cells = [(delta, rate) for delta in cfg["delta_list"] for rate in cfg["rate_list"]]
    acc = np.zeros(len(cells))
    baseline = 0.0
    for rep in range(reps):
        rep_rs = rs.child("rep:%d" % rep)
        db, db_labels, queries = _build_retrieval_dataset(cfg, rep_rs)
        J = min(cfg["candidates"], db.shape[0])
        # infinite-rate proxy: plain l2 nearest neighbor on the signals
        d2 = np.linalg.norm(queries[:, None, :] - db[None, :, :], axis=2)
        base_votes = _majority_vote(d2, db_labels, L, 1)
        baseline += float(np.mean(base_votes == query_labels))
        for j, (delta, rate) in enumerate(cells):
            cell = rep_rs.child("cell:%s:%d" % (_fmt(delta), rate))
            op = build_universal_operator(
                cfg["family"], cfg["sigma"], delta, 1, rate, cfg["N"], cell
            )
            Ydb = embed_batch(op, db).values
            Yq = embed_batch(op, queries).values
            # 0/1 codes: |q| + |y| - 2 q.y counts the mismatches, exact integers in float64
            ham = (Yq.sum(1)[:, None] + Ydb.sum(1) - 2.0 * (Yq @ Ydb.T)) / rate
            votes = _majority_vote(ham, db_labels, L, J)
            acc[j] += float(np.mean(votes == query_labels))
    acc /= reps
    baseline /= reps
    rows = [(delta, rate, a) for (delta, rate), a in zip(cells, acc)]
    files = []
    _emit(files, out_dir, "retrieval_accuracy.csv", ["delta", "rate", "accuracy"], rows)
    return {
        "files": files,
        "summary": rows,
        "baseline_l2_accuracy": baseline,
        "chance": 1.0 / L,
    }


def run_bounds_sweep(cfg, out_dir):
    """Tabulate bound calculators over parameter grids, flagging vacuity."""
    calc = cfg["calculator"]
    rows, files = [], []
    summary = {"rows": rows, "files": files}
    if calc == "pointcloud":
        header = ["flavor", "Q", "M", "eps", "exponent", "probability", "vacuous"]
        for M in cfg["m_list"]:
            for eps in cfg["eps_list"]:
                rep = pointcloud_bound(cfg["q"], M, eps, cfg["hbar"], cfg["flavor"])
                rows.append((cfg["flavor"], cfg["q"], M, eps,
                             rep.exponent, rep.probability, rep.vacuous))
    elif calc == "binary_infinite":
        header = ["eps", "M", "c1", "w", "no_decay", "exponent", "probability"]
        for eps in cfg["eps_list"]:
            for M in cfg["m_list"]:
                w = 2.0 * eps * eps
                rep = discontinuous_extension_bound(
                    cfg["e_r_half"], M, w, cfg["c"], [1.0], 2, 0.0, cfg["c0"]
                )
                rows.append((eps, M, rep.extras["c1"], w,
                             rep.extras["no_decay"], rep.exponent, rep.probability))
        summary["threshold"] = binary_decay_threshold(cfg["c0"])
    else:  # ball_crossing
        header = ["N", "r", "bound", "meaningful"]
        for N in cfg["n_list"]:
            for r in cfg["r_list"]:
                b = p2_bound(N, cfg["sigma"], r, cfg["delta"])
                meaningful = r < p2_meaningful_radius(N, cfg["sigma"], cfg["delta"])
                rows.append((N, r, b, meaningful))
    _emit(files, out_dir, "bounds_%s.csv" % calc, header, rows)
    return summary


def run_map_eval(cfg, out_dir):
    """Distance/kernel curves of one map, with bounds for binary universal."""
    map_ = cfg.map
    is_binary_universal = map_.kind == "square" and cfg["scale"] == 0.0
    if cfg["scale"] > 0:
        scale = cfg["scale"]
    elif map_.kind == "square":
        scale = universal_scale(cfg["sigma"], cfg["delta"], 1)
    else:
        scale = cfg["sigma"]
    spec = ProjectionSpec(cfg["family"], scale)
    grid = np.geomspace if cfg["log_grid"] else np.linspace
    ds = grid(cfg["d_min"], cfg["d_max"], cfg["d_count"])
    g = DistanceMapModel(map_, spec).curve(ds)
    K = DistanceMapModel(map_, spec, flavor="kernel").curve(ds)
    header = ["d", "g", "g_sqrt", "K"]
    with_bounds = is_binary_universal and cfg["family"] == "gaussian"
    if with_bounds:
        header += ["lower5", "upper6", "upper7"]
    rows = []
    for d, g_d, K_d in zip(ds.tolist(), g.tolist(), K.tolist()):
        row = [d, g_d, math.sqrt(g_d), K_d]
        if with_bounds:
            _, b = universal_binary_map(d, cfg["sigma"], cfg["delta"])
            row += [b.lower, b.upper_exp, b.upper_lin]
        rows.append(tuple(row))
    files = []
    _emit(files, out_dir, "map_curve.csv", header, rows)
    return {"files": files, "rows": len(rows)}


RUNNERS = {
    "design_sim": run_design_sim,
    "quantization_sim": run_quantization_sim,
    "universal_scatter": run_universal_scatter,
    "retrieval": run_retrieval,
    "bounds_sweep": run_bounds_sweep,
    "map_eval": run_map_eval,
}
