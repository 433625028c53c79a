"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances and time budgets are pinned here, not configurable.
"""

import filecmp
import math
import os
import time

import numpy as np

from uemb.embedder import (
    EmbeddingBatch,
    build_operator,
    embed_batch,
    post_quantize,
    universal_scale,
)
from uemb.expcli.config import make_config
from uemb.expcli.runners import RUNNERS, run_design_sim, run_quantization_sim, run_retrieval
from uemb.maps import (
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)
from uemb.randproj import ProjectionSpec, RandomState, sample_projection
from uemb.theory import (
    DistanceMapModel,
    binary_decay_threshold,
    check_subadditivity,
    discontinuous_extension_bound,
    p2_bound,
    p2_meaningful_radius,
    p2_monte_carlo,
    universal_binary_map,
)

from oracles import oracle_distance_map

SQRT2 = math.sqrt(2.0)
FIG3 = [(1, SQRT2 / 2), (10, SQRT2 / 2)]


def _report(num, text, elapsed=None):
    suffix = "" if elapsed is None else "  (%.2fs)" % elapsed
    print("\n[acceptance] criterion %02d: PASS  %s%s" % (num, text, suffix))


def test_c01_closed_form_vs_generic():
    """Eq-4-style closed form vs the generic spectrum engine, 1e-9, < 1 s."""
    sigma, Delta = 1.3, 0.8
    spec = ProjectionSpec("gaussian", sigma / (2.0 * Delta))
    model = DistanceMapModel(make_square_wave(), spec)
    ds = np.geomspace(1e-3, 10.0, 100) * Delta / sigma
    t0 = time.perf_counter()
    worst = 0.0
    for d in ds:
        g_closed, _ = universal_binary_map(float(d), sigma, Delta)
        worst = max(worst, abs(g_closed - model.g(float(d))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report(1, "closed form vs generic agree to %.2e on 100 points" % worst, elapsed)


def test_c02_quadrature_oracle_equivalence():
    """2-D quadrature oracle matches g(d) to 1e-4 on 4 combos x 10 d, < 30 s."""
    combos = [
        ("square+gaussian", make_square_wave(), ProjectionSpec("gaussian", 0.35)),
        ("sawtooth+gaussian", make_sawtooth(), ProjectionSpec("gaussian", 0.5)),
        ("mixture+gaussian", make_fourier_mixture(FIG3), ProjectionSpec("gaussian", 0.3)),
        ("square+cauchy", make_square_wave(), ProjectionSpec("cauchy", 0.3)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for name, m, spec in combos:
        model = DistanceMapModel(m, spec)
        for d in np.linspace(0.1, 3.0, 10):
            err = abs(model.g(float(d)) - oracle_distance_map(m, spec, float(d)))
            worst = max(worst, err)
            assert err <= 1e-4, (name, d, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, "oracle equivalence worst error %.2e" % worst, elapsed)


def test_c03_saturation_constants():
    """Binary map flat at 1/2 (1e-9); sawtooth/multibit flat at 1/3 (1e-6)."""
    sigma, Delta = 0.7, 1.1
    g, _ = universal_binary_map(3.0 * Delta / sigma, sigma, Delta)
    assert abs(g - 0.5) <= 1e-9
    g_saw = DistanceMapModel(make_sawtooth(), ProjectionSpec("gaussian", 1.0)).g(1.2)
    mb_spec = ProjectionSpec("gaussian", universal_scale(1.0, 1.0, 2))
    g_mb = DistanceMapModel(make_sawtooth(), mb_spec).g(1.2 * 2 ** 2)
    assert abs(g_saw - 1.0 / 3.0) <= 1e-6
    assert abs(g_mb - 1.0 / 3.0) <= 1e-6
    _report(3, "saturation at 1/2 (binary) and 1/3 (sawtooth, multibit)")


def test_c04_bound_sandwich_and_d0():
    """Lower/upper bounds order correctly; D0 within 15% of Delta sqrt(pi/8)/sigma."""
    for sigma, Delta in [(1.0, 1.0), (2.0, 0.5), (0.4, 1.7)]:
        ds = np.geomspace(1e-3, 10.0, 100) * Delta / sigma
        for d in ds:
            g, b = universal_binary_map(float(d), sigma, Delta)
            assert b.lower <= g + 1e-15
            assert g <= min(b.upper_exp, b.upper_lin) + 1e-15
        # saturation radius of the metric (sqrt) curve vs the slope estimate
        spec = ProjectionSpec("gaussian", sigma / (2.0 * Delta))
        d0 = DistanceMapModel(make_square_wave(), spec, flavor="sqrt").D0
        target = Delta * math.sqrt(math.pi / 8.0) / sigma
        assert abs(d0 - target) / target <= 0.15
    _report(4, "bounds sandwich on 3 parameterizations; D0 within 15%")


def test_c05_kernel_identity_across_catalog():
    """K(d) + g(d)/2 - sum P_k within 2 tail_bound, catalog-wide, < 1 s."""
    t0 = time.perf_counter()
    mix = make_fourier_mixture(FIG3)
    models = [
        DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5)),
        DistanceMapModel(make_sawtooth(), ProjectionSpec("gaussian", 0.7)),
        DistanceMapModel(mix, ProjectionSpec("gaussian", 0.25)),
        DistanceMapModel(make_multibit(2), ProjectionSpec("gaussian", 0.4)),
        DistanceMapModel(make_multibit(4), ProjectionSpec("cauchy", 0.4)),
        DistanceMapModel(quantize_map(mix, 3), ProjectionSpec("gaussian", 0.3)),
        DistanceMapModel(make_square_wave(), ProjectionSpec("cauchy", 0.6)),
    ]
    ds = np.linspace(0.0, 4.0, 100)
    worst = 0.0
    for model in models:
        budget = max(2.0 * model.tail_bound, 1e-12)
        for d in ds:
            err = abs(model.kernel(float(d)) + model.g(float(d)) / 2.0 - model.total_power)
            worst = max(worst, err - budget)
            assert err <= budget
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, "kernel identity holds across 7 catalog models", elapsed)


def test_c06_concentration_reproduction():
    """Design-map scatter: >=95% within 0.1; 0.15-violations under Hoeffding; < 60 s."""
    t0 = time.perf_counter()
    cfg = make_config("design_sim", N=1000, M=2000, pairs=500,
                      sigma_list=[0.2, 0.4], seed=2026)
    res = run_design_sim(cfg, _outdir("c06"))
    for sigma, pairs, within, viol15, hoeff15, hbar in res["summary"]:
        assert within >= 0.95, (sigma, within)
        assert viol15 < hoeff15, (sigma, viol15, hoeff15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "sigma 0.2/0.4 scatter concentrates (within-0.1 rates %s)"
            % [round(r[2], 3) for r in res["summary"]], elapsed)


def test_c07_quantization_trend():
    """Mean |scatter-theory| strictly decreases over B=1,2,4; B=4 universal
    within 0.01 of the unquantized sawtooth curve; < 90 s."""
    t0 = time.perf_counter()
    cfg = make_config("quantization_sim", N=1000, M=2000, pairs=500,
                      b_list=[1, 2, 4], sigma=0.2, seed=77)
    res = run_quantization_sim(cfg, _outdir("c07a"))
    devs = [row[1] for row in res["summary"]]
    assert devs[0] > devs[1] > devs[2], devs
    assert all(row[-1] for row in res["summary"])  # eps + 2 E_Q inflation
    cfg_u = make_config("quantization_sim", N=1000, M=2000, pairs=500,
                        variant="universal", b_list=[4], sigma=1.0, delta=1.0,
                        d_max=3.0, seed=78)
    res_u = run_quantization_sim(cfg_u, _outdir("c07b"))
    mean_dev_b4 = res_u["summary"][0][1]
    assert mean_dev_b4 <= 0.01, mean_dev_b4
    elapsed = time.perf_counter() - t0
    assert elapsed < 90.0
    _report(7, "mixture devs %s decreasing; B=4 universal dev %.4f <= 0.01"
            % ([round(d, 4) for d in devs], mean_dev_b4), elapsed)


def test_c08_quantized_jl_inflation():
    """Quantized J-L deviations never exceed eps + 2 E_Q, E_Q = sqrt(M) 2^-B S."""
    t0 = time.perf_counter()
    N, M, bits, n_pairs = 128, 256, 4, 1000
    rs = RandomState(31337)
    A = sample_projection(ProjectionSpec("gaussian", 1.0), M, N, rs) / math.sqrt(M)
    g = rs.gaussian("signals", 2 * n_pairs * N).reshape(2 * n_pairs, N)
    Y = g @ A.T
    S = float(np.max(np.abs(Y))) * 1.01
    E_Q = math.sqrt(M) * 2.0 ** (-bits) * S
    Q = post_quantize(EmbeddingBatch(values=Y, map_id="jl"), bits, S)
    assert not np.any(Q.saturation_count)
    eps_run = 0.0
    worst_q = 0.0
    for i in range(n_pairs):
        y1, y2 = Y[2 * i], Y[2 * i + 1]
        d_true = float(np.linalg.norm(g[2 * i] - g[2 * i + 1]))
        eps_run = max(eps_run, abs(float(np.linalg.norm(y1 - y2)) - d_true))
        q1, q2 = Q.values[2 * i], Q.values[2 * i + 1]
        worst_q = max(worst_q, abs(float(np.linalg.norm(q1 - q2)) - d_true))
    assert worst_q <= eps_run + 2.0 * E_Q
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(8, "quantized J-L dev %.4f <= eps %.4f + 2 E_Q %.4f"
            % (worst_q, eps_run, 2 * E_Q), elapsed)


def test_c09_ball_crossing_grid():
    """Monte Carlo P2 <= bound + 3 SE on a 4x4 grid; meaningful-region check."""
    t0 = time.perf_counter()
    sigma, Delta, trials = 1.0, 1.0, 10 ** 5
    rs = RandomState(4242)
    for N in (16, 64, 128, 256):
        r_thr = p2_meaningful_radius(N, sigma, Delta)
        for c in (0.1, 0.4, 0.8, 1.2):
            r = c * r_thr
            bound = p2_bound(N, sigma, r, Delta)
            assert (r < r_thr) == (c < 1.0)
            if c >= 1.0:
                assert bound >= 1.0  # outside the meaningful region
            est = p2_monte_carlo(N, sigma, r, Delta, trials,
                                 rs.child("cell:%d:%s" % (N, c)))
            se = math.sqrt(max(est * (1.0 - est), 1e-12) / trials)
            assert est <= bound + 3.0 * se, (N, c, est, bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, "P2 Monte Carlo under the analytic bound on the 4x4 grid", elapsed)


def test_c10_infinite_set_threshold():
    """P2=1 bound decays in M iff eps > sqrt(0.5 ln 2) ~ 0.589 (3 decimals)."""
    thr = binary_decay_threshold(0.0)
    assert round(thr, 3) == 0.589
    lo = discontinuous_extension_bound(0.0, 1000, 2 * 0.588 ** 2, 1.0, [1.0], 2, 0.0, 0.0)
    hi = discontinuous_extension_bound(0.0, 1000, 2 * 0.589 ** 2, 1.0, [1.0], 2, 0.0, 0.0)
    assert lo.extras["no_decay"] and not hi.extras["no_decay"]
    _report(10, "decay threshold %.5f flips between eps=0.588 and 0.589" % thr)


def test_c11_subadditivity():
    """sqrt(g) passes the subadditivity check for every catalog map; d^2 fails."""
    mix = make_fourier_mixture(FIG3)
    models = [
        DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5), flavor="sqrt"),
        DistanceMapModel(make_sawtooth(), ProjectionSpec("gaussian", 0.7), flavor="sqrt"),
        DistanceMapModel(mix, ProjectionSpec("gaussian", 0.25), flavor="sqrt"),
        DistanceMapModel(make_multibit(2), ProjectionSpec("gaussian", 0.4), flavor="sqrt"),
        DistanceMapModel(make_multibit(4), ProjectionSpec("cauchy", 0.4), flavor="sqrt"),
        DistanceMapModel(quantize_map(mix, 3), ProjectionSpec("gaussian", 0.3), flavor="sqrt"),
        DistanceMapModel(make_square_wave(), ProjectionSpec("cauchy", 0.6), flavor="sqrt"),
    ]
    for model in models:
        grid = np.linspace(0.0, 3.0 * model.D0, 50)
        rep = check_subadditivity(model.value, 0.0, 0.0, grid)
        assert rep.passed, (model.map.name, rep)
    rep_sq = check_subadditivity(lambda d: d * d, 0.0, 0.0, np.linspace(0, 2, 50))
    assert not rep_sq.passed
    _report(11, "sqrt-flavor subadditive on 7 models; squared distance fails")


def test_c12_synthetic_retrieval():
    """Accuracy unimodal in Delta per rate, nondecreasing in rate at the best
    Delta, chance-level in the degenerate-Delta limit; < 120 s."""
    t0 = time.perf_counter()
    deltas = [0.02, 0.1, 0.5, 2.0, 1e5]
    rates = [16, 48, 256]
    cfg = make_config(
        "retrieval", N=64, clusters=50, points_per_cluster=5,
        cluster_radius=0.12, delta_list=deltas, rate_list=rates,
        candidates=3, reps=4, seed=515,
    )
    res = run_retrieval(cfg, _outdir("c12"))
    assert res["baseline_l2_accuracy"] == 1.0
    acc = {(d, r): a for d, r, a in res["summary"]}
    chance = res["chance"]

    def unimodal(vals, slack=0.015):
        peak = int(np.argmax(vals))
        rising = all(b - a >= -slack for a, b in zip(vals[:peak + 1], vals[1:peak + 1]))
        falling = all(b - a <= slack for a, b in zip(vals[peak:], vals[peak + 1:]))
        return rising and falling

    for r in rates:
        vals = [acc[(d, r)] for d in deltas]
        assert unimodal(vals), (r, vals)
    best_delta = max(deltas, key=lambda d: acc[(d, rates[-1])])
    best_curve = [acc[(best_delta, r)] for r in rates]
    assert all(b >= a for a, b in zip(best_curve, best_curve[1:])), best_curve
    assert acc[(1e5, rates[-1])] <= 3.0 * chance
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(12, "retrieval unimodal per rate; best-Delta curve %s; degenerate %.3f"
            % ([round(float(a), 3) for a in best_curve], acc[(1e5, rates[-1])]), elapsed)


def test_c13_deterministic_reruns():
    """Every experiment rerun with the same seed yields byte-identical CSVs."""
    t0 = time.perf_counter()
    configs = {
        "design_sim": make_config("design_sim", N=48, M=128, pairs=30,
                                  sigma_list=[0.3], seed=5),
        "quantization_sim": make_config("quantization_sim", N=48, M=128, pairs=20,
                                        b_list=[1, 2], sigma=0.25, seed=6),
        "universal_scatter": make_config("universal_scatter", N=48, pairs=40,
                                         delta_list=[0.5, 1.5], m_list=[64, 256],
                                         sigma=1.0, seed=7),
        "retrieval": make_config("retrieval", N=32, clusters=10,
                                 points_per_cluster=4, cluster_radius=0.05,
                                 delta_list=[0.5], rate_list=[128], candidates=3,
                                 seed=8),
        "bounds_sweep": make_config("bounds_sweep", calculator="pointcloud",
                                    m_list=[100, 1000], eps_list=[0.1, 0.2]),
        "map_eval": make_config("map_eval", map="square", d_count=25, seed=9),
    }
    for kind, cfg in configs.items():
        out_a = _outdir("c13_%s_a" % kind)
        out_b = _outdir("c13_%s_b" % kind)
        files_a = sorted(RUNNERS[kind](cfg, out_a)["files"])
        files_b = sorted(RUNNERS[kind](cfg, out_b)["files"])
        assert [os.path.basename(f) for f in files_a] == [
            os.path.basename(f) for f in files_b
        ]
        for fa, fb in zip(files_a, files_b):
            assert filecmp.cmp(fa, fb, shallow=False), fa
    elapsed = time.perf_counter() - t0
    _report(13, "all 6 experiment kinds byte-identical on rerun", elapsed)


def test_c14_embedding_throughput():
    """embed_batch of 1e4 signals, N=1000 -> M=2000, under 10 s."""
    spec = ProjectionSpec("gaussian", 0.2)
    op = build_operator(spec, make_square_wave(), 2000, 1000, RandomState(99))
    X = RandomState(100).gaussian("signals", 10 ** 4 * 1000).reshape(10 ** 4, 1000)
    t0 = time.perf_counter()
    vecs = embed_batch(op, X)
    elapsed = time.perf_counter() - t0
    assert len(vecs) == 10 ** 4
    assert elapsed < 10.0
    _report(14, "embedded 10^4 signals (N=1000, M=2000)", elapsed)


def _outdir(name):
    base = os.environ.get("PYTEST_ACCEPTANCE_TMP", "/tmp/uemb_acceptance")
    path = os.path.join(base, name)
    os.makedirs(path, exist_ok=True)
    return path
