"""Tests of the benchmark's output checks and span tracing.

Run from the root of a checkout:  python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from uemb import embedder  # noqa: E402
from uemb.expcli.config import DEFAULT_MIXTURE, parse_map  # noqa: E402
from uemb.maps import make_multibit, make_square_wave  # noqa: E402
from uemb.randproj import ProjectionSpec, RandomState  # noqa: E402
from uemb.theory import SATURATION_FRACTION, DistanceMapModel, universal_binary_map  # noqa: E402


def _nospan(name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# repro


def test_shipped_configs_match_recorded_sha256(tmp_path):
    wl = workloads.Repro(ROOT, 0, tmp_path)
    ops = wl.check(wl.work(0, _nospan))
    assert [label for label, _ in ops] == [p.stem for p in workloads.shipped_configs(ROOT)]
    assert [f for _, f in ops if f] == []


def test_flipped_csv_byte_fails_repro_check(tmp_path):
    path = ROOT / "configs" / "map_eval.cfg"
    code, err = workloads.run_shipped_config(path, tmp_path)
    expected = workloads.Repro(ROOT, 0, tmp_path).expected[path.name]
    files = workloads.output_files(tmp_path)
    assert checks.repro_failures(code, files, expected) == []
    csv = files["map_curve.csv"]
    data = bytearray(csv.read_bytes())
    data[len(data) // 2] ^= 0x01
    csv.write_bytes(bytes(data))
    fails = checks.repro_failures(code, files, expected)
    assert fails == ["sha256 mismatch: map_curve.csv"]
    assert not checks.only_known(fails)


def test_repro_check_reads_exit_code_and_inflation_flag(tmp_path):
    assert checks.repro_failures(3, {}) == ["exit code 3"]
    summary = tmp_path / "quant_summary.csv"
    summary.write_text("B,within_inflation\n1,1\n2,0\n")
    assert checks.repro_failures(0, {}, None, summary) == ["within_inflation false: 1,0"]


# ---------------------------------------------------------------------------
# embed


def _roundtrip(tmp_path, op, X):
    Y = embedder.embed_batch(op, X)
    path = tmp_path / "batch.uemb"
    embedder.save_embeddings(path, Y)
    split = embedder.embed_batch(op, X[:7]) + embedder.embed_batch(op, X[7:])
    return Y, path, checks.digest_vectors(split)


def test_flipped_uemb_payload_bit_fails_embed_check(tmp_path):
    rs = RandomState(5)
    op = embedder.build_operator(ProjectionSpec("gaussian", 0.3), make_square_wave(), 64, 16, rs)
    X = np.random.default_rng(5).standard_normal((20, 16))
    Y, path, split = _roundtrip(tmp_path, op, X)
    assert checks.embed_failures(op, Y, embedder.load_embeddings(path), split) == []
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x04
    path.write_bytes(bytes(data))
    fails = checks.embed_failures(op, Y, embedder.load_embeddings(path), split)
    assert fails == ["UEMB round trip not bit-exact"]


def test_split_and_provenance_mismatches_fail_embed_check(tmp_path):
    rs = RandomState(6)
    op = embedder.build_operator(ProjectionSpec("gaussian", 0.3), make_square_wave(), 64, 16, rs)
    other = embedder.build_operator(op.spec, op.map, 64, 16, RandomState(7))
    X = np.random.default_rng(6).standard_normal((20, 16))
    Y, path, split = _roundtrip(tmp_path, op, X)
    loaded = embedder.load_embeddings(path)
    wrong_split = checks.digest_vectors(embedder.embed_batch(other, X))
    assert checks.embed_failures(op, Y, loaded, wrong_split) == [
        "split batch not bit-exact with the whole batch"]
    fails = checks.embed_failures(other, Y, loaded, split)
    assert len(fails) == 1 and fails[0].startswith("operator_id")


def test_codomain_check_separates_the_one_ulp_defect():
    op = embedder.build_operator(ProjectionSpec("gaussian", 0.3), make_multibit(4), 8, 4,
                                 RandomState(1))
    lo, hi = op.map.value_range
    assert checks.codomain_failures(op, np.array([[lo, hi]])) == []
    one_ulp = checks.codomain_failures(op, np.array([[np.nextafter(hi, 2.0)]]))
    assert len(one_ulp) == 1 and checks.only_known(one_ulp)
    far = checks.codomain_failures(op, np.array([[hi + 1e-9]]))
    assert len(far) == 1 and not checks.only_known(far)


def test_one_ulp_excess_of_a_smooth_map_is_not_a_known_defect():
    op = embedder.build_operator(ProjectionSpec("gaussian", 0.3), parse_map(DEFAULT_MIXTURE),
                                 8, 4, RandomState(1))
    lo, hi = op.map.value_range
    fails = checks.codomain_failures(op, np.array([[np.nextafter(hi, np.inf)]]))
    assert len(fails) == 1 and not checks.only_known(fails)


# ---------------------------------------------------------------------------
# retrieval


def test_retrieval_trend_rules():
    deltas, rates = (0.1, 0.5, 2.0), (64, 512)
    good = {(0.1, 64): 0.0, (0.5, 64): 0.9, (2.0, 64): 0.95,
            (0.1, 512): 0.0, (0.5, 512): 1.0, (2.0, 512): 1.0}
    assert all(f == [] for f in checks.retrieval_failures(good, 1.0, deltas, rates).values())
    bad_baseline = checks.retrieval_failures(good, 0.995, deltas, rates)
    assert all(len(f) == 1 for f in bad_baseline.values())
    dip = {**good, (0.1, 64): 0.6, (0.5, 64): 0.2, (2.0, 64): 0.5}
    fails = checks.retrieval_failures(dip, 1.0, deltas, rates)
    assert {c for c, f in fails.items() if f} == {(0.1, 64), (0.5, 64), (2.0, 64)}
    worse = {**good, (0.5, 64): 1.0, (0.5, 512): 0.9, (2.0, 512): 0.9}
    fails = checks.retrieval_failures(worse, 1.0, deltas, rates)
    assert {c for c, f in fails.items() if f} == {(0.5, 512)}


# ---------------------------------------------------------------------------
# theory


def _point(model, family, sigma, delta, d, invert=False):
    point = {
        "kind": model.map.kind, "family": family, "sigma": sigma, "delta": delta,
        "d": d, "g": model.g(d), "K": model.kernel(d),
        "total_power": model.total_power, "tail_bound": model.tail_bound,
    }
    if invert:
        point["inverse"] = model.invert(point["g"])
        point["g_sat"] = SATURATION_FRACTION * model.g_inf
    return point


@pytest.mark.parametrize("family", workloads.Theory.FAMILIES)
@pytest.mark.parametrize("selector", workloads.Theory.SELECTORS + ("square", "sawtooth"))
def test_seed_theory_outputs_pass_above_tiny_d(family, selector):
    sigma, delta = 1.3, 0.9
    scale = sigma / (2 * delta)
    model = DistanceMapModel(parse_map(selector), ProjectionSpec(family, scale))
    for u in (checks.KNOWN_TINY_D_SCALE, 1e-4, 3e-3, 0.08, 0.4, 5.0, 90.0):
        point = _point(model, family, sigma, delta, u / scale, invert=True)
        assert checks.theory_point_failures(point) == [], (u, point)


@pytest.mark.parametrize("family", workloads.Theory.FAMILIES)
def test_tiny_d_failures_are_known_defects(family):
    sigma = delta = 1.0
    model = DistanceMapModel(make_square_wave(), ProjectionSpec(family, 0.5))
    point = _point(model, family, sigma, delta, 2e-9)
    fails = checks.theory_point_failures(point)
    assert fails and checks.only_known(fails)


def test_g_above_upper7_fails_theory_check():
    sigma, delta = 1.0, 1.0
    model = DistanceMapModel(make_square_wave(), ProjectionSpec("gaussian", 0.5))
    d = 0.02
    point = _point(model, "gaussian", sigma, delta, d)
    assert checks.theory_point_failures(point) == []
    _, b = universal_binary_map(d, sigma, delta)
    assert b.upper_lin < b.upper_exp
    point["g"] = b.upper_lin * (1 + 1e-9)
    point["K"] = point["total_power"] - point["g"] / 2
    fails = checks.theory_point_failures(point)
    assert len(fails) == 1 and "upper6, upper7" in fails[0]
    assert not checks.only_known(fails)


def test_broken_round_trip_fails_theory_check():
    model = DistanceMapModel(parse_map(DEFAULT_MIXTURE), ProjectionSpec("cauchy", 0.5))
    point = _point(model, "cauchy", 1.0, 1.0, 0.1, invert=True)
    assert checks.theory_point_failures(point) == []
    point["inverse"] = (0.1 * (1 + 1e-6), "unique")
    assert len(checks.theory_point_failures(point)) == 1


# ---------------------------------------------------------------------------
# tracing


def test_traced_spans_nest_and_wrappers_are_removed():
    op = embedder.build_operator(ProjectionSpec("gaussian", 0.3), make_multibit(2), 32, 8,
                                 RandomState(3))
    original = embedder.embed_batch
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.span("pass"):
        assert embedder.embed_batch is not original
        embedder.embed_batch(op, np.ones((3, 8)))
    assert embedder.embed_batch is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["pass", "embedder.embed_batch"]
    assert "maps.call" in names and names[-1] == "embedder.gemm_ref"
    by, passes = spans.summarize(tracer.spans)
    assert passes == 1
    batch = by["embedder.embed_batch"]
    assert batch["calls"] == 1 and 0 < batch["self_s"] <= batch["s"]
    call = tracer.spans[names.index("maps.call")]
    assert call[3] == 1 and call[4] == {"kind": "multibit", "elems": 96}
    metrics = spans.layer_metrics(tracer.spans, [])
    assert metrics["embedder.embed_batch.rows"] == (3, "count/pass")
    assert metrics["maps.call.elems"] == (96, "count/pass")
    assert math.isclose(metrics["embedder.embed_batch.gflops_computed"][0],
                        2 * 3 * 32 * 8 / batch["s"] / 1e9)


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_layer_totals_are_per_pass_and_exclude_the_gemm_reference():
    log = [_span("setup", 0.0, 1.0, -1),
           _span("randproj.sample_projection", 0.1, 0.6, 0, {"elems": 1000})]
    for k in range(4):
        t = 10.0 * (k + 1)
        base = len(log)
        log += [_span("pass", t, t + 5.0, -1),
                _span("expcli.cfg.scatter", t, t + 4.0, base),
                _span("embedder.embed_batch", t, t + 1.0, base + 1,
                      {"rows": 10, "flops": 100, "bytes": 80}),
                _span("embedder.gemm_ref", t + 1.0, t + 1.5, base + 1)]
    m = spans.layer_metrics(log, ["scatter"])
    # four equal passes: every total is one pass's, however many ran
    assert m["embedder.embed_batch.calls"] == (1.0, "count/pass")
    assert m["embedder.embed_batch.rows"] == (10.0, "count/pass")
    assert m["embedder.gemm_ref.s"] == (0.5, "s/pass")
    # the config span loses the 0.5 s of benchmark GEMM it enclosed
    assert m["expcli.cfg.scatter.s"] == (3.5, "s/pass")
    assert m["expcli.cfg.scatter.self_s"] == (2.5, "s/pass")
    # set-up spans are reported once, apart from the passes
    assert m["randproj.sample_projection.calls"] == (0.0, "count/pass")
    assert m["randproj.sample_projection.setup_s"] == (0.5, "s")
    assert math.isclose(m["randproj.sample_projection.melems_per_s"][0], 1000 / 0.5 / 1e6)


def test_benchmark_json_names_metrics_the_code_computes():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfgs = [p.stem for p in workloads.shipped_configs(ROOT)]
    layer = spans.layer_metrics([], cfgs)
    layer["trace.overhead_frac"] = (0.0, "ratio")
    layer["theory.check_failures"] = (0, "count/pass")
    for m in spec["per_layer"]:
        assert layer[m["name"]][1] == m["unit"], m
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "cpu_s", "ops_per_s", "peak_rss_mb"]
