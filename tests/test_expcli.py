"""Config parsing, CSV output, experiment runners, and the CLI surface."""

import filecmp
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import uemb
from uemb.embedder import (
    build_operator,
    build_universal_operator,
    embed_batch,
    embedding_distance,
    universal_scale,
)
from uemb.expcli import runners
from uemb.expcli.config import (
    DEFAULT_MIXTURE,
    SCHEMAS,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    make_config,
    parse_config,
    parse_map,
)
from uemb.expcli.main import main
from uemb.expcli.runners import (
    RUNNERS,
    DatasetError,
    _embedded_pairs,
    _pair_block,
    _pair_distances,
    run_bounds_sweep,
    run_design_sim,
    run_map_eval,
    run_quantization_sim,
    run_retrieval,
    run_universal_scatter,
)
from uemb.maps import _quantize_values, make_sawtooth, make_square_wave, quantize_map
from uemb.randproj import _HALF_CELL, ProjectionSpec, RandomState
from uemb.theory import universal_binary_map, universal_binary_map_l1


class TestConfigParsing:
    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# experiment\n"
            "kind = design_sim\n"
            "M = 2000\n"
            "sigma_list = 0.5,0.75,1.0\n"
            "seed = 7\n"
        )
        cfg = parse_config(p)
        assert cfg["M"] == 2000
        assert cfg["sigma_list"] == [0.5, 0.75, 1.0]
        assert cfg.seed == 7
        assert cfg["pairs"] == 500  # default

    def test_unknown_key_names_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("kind = design_sim\nsigm = 1\n")
        with pytest.raises(ConfigError, match=r":2:.*sigm"):
            parse_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("kind = design_sim\nM = 10\nM = 20\n")
        with pytest.raises(ConfigError, match=r":3:.*duplicate"):
            parse_config(p)

    def test_missing_kind(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("M = 10\n")
        with pytest.raises(ConfigError, match="kind"):
            parse_config(p)

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("kind = design_sim\nM = abc\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(p)

    @pytest.mark.parametrize("key,value", [
        ("N", "abc"), ("N", 2.5), ("N", True), ("sigma_list", 0.3), ("sigma_list", []),
        ("sigma_list", [0.2, "x"]), ("d_max", math.inf), ("family", 3), ("map", 1),
    ])
    def test_make_config_wrong_type(self, key, value):
        # a wrong type is a ConfigError naming the key, not a runner's TypeError
        with pytest.raises(ConfigError, match="^%s must" % key):
            make_config("design_sim", **{key: value})

    def test_config_values_checked_however_made(self, tmp_path):
        # make_config, parse_config and a directly built config share one check
        with pytest.raises(ConfigError, match="^pairs must"):
            ExperimentConfig("design_sim", {"pairs": 0})
        with pytest.raises(ConfigError, match="^map must be a catalog selector: "):
            make_config("map_eval", map="triangle")
        p = tmp_path / "c.cfg"
        p.write_text("kind = map_eval\nlog_grid = 1\nd_min = 0\n")
        with pytest.raises(ConfigError, match=r"c\.cfg: d_min must be positive"):
            parse_config(p)
        cfg = ExperimentConfig("map_eval", {"d_count": 5})
        assert cfg.params == make_config("map_eval", d_count=5).params
        assert cfg["map"] == "square" and cfg.seed == 0
        assert cfg.map.name == "square"
        assert make_config("bounds_sweep", calculator="pointcloud").map is None
        # each config owns its lists: the schema's defaults stay as they are
        make_config("design_sim")["sigma_list"].append(9.0)
        assert make_config("design_sim", sigma_list=(0.3,))["sigma_list"] == [0.3]
        assert make_config("design_sim")["sigma_list"] == [0.2, 0.4]

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="delta_list"):
            make_config("retrieval", rate_list=[64])

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("kind = design_sim\njust a line\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(p)

    _KEYS = sorted({"kind", *(k for schema in SCHEMAS.values() for k in schema)})
    _VALUE = st.one_of(
        st.text(max_size=12),
        st.integers(-10 ** 6, 10 ** 6).map(str),
        st.floats().map(repr),
        st.lists(st.floats(-1e3, 1e3).map(repr), min_size=1, max_size=3).map(",".join),
    )

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), kind=st.one_of(st.none(), st.sampled_from(sorted(SCHEMAS))))
    def test_any_text_parses_or_raises_config_error(self, tmp_path, data, kind):
        # keys of the kind (or of any kind) with any values, and any lines
        # between them: the file either parses or raises ConfigError
        keys = self._KEYS if kind is None else sorted(SCHEMAS[kind])
        entries = data.draw(st.dictionaries(st.sampled_from(keys), self._VALUE, max_size=8))
        lines = ["kind = %s" % kind] * (kind is not None)
        lines += ["%s = %s" % kv for kv in entries.items()]
        for _ in range(data.draw(st.integers(0, 2))):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.text(max_size=30)))
        p = tmp_path / "c.cfg"
        p.write_text("\n".join(lines), encoding="utf-8")
        try:
            cfg = parse_config(p)
        except ConfigError:
            return
        assert cfg.kind in SCHEMAS
        assert set(cfg.params) == {"seed", *SCHEMAS[cfg.kind]}


class TestMapSelectors:
    @pytest.mark.parametrize(
        "sel",
        [
            "square",
            "sawtooth",
            "multibit:B=3",
            "mixture:1:0.5,10:0.25",
            "quantized:mixture:1:0.5,10:0.25:B=4",
            "quantized:sawtooth:B=2",
        ],
    )
    def test_selector_round_trip(self, sel):
        m = parse_map(sel)
        m2 = parse_map(m.name)
        ts = np.linspace(0, 1, 257, endpoint=False)
        np.testing.assert_array_equal(m(ts), m2(ts))

    def test_bad_selectors(self):
        for sel in ("triangle", "multibit:4", "mixture:1", "quantized:square",
                    "multibit:B=0", "multibit:B=17"):
            with pytest.raises(ConfigError):
                parse_map(sel)


class TestEmitCsv:
    def test_deterministic_formatting(self, tmp_path):
        p = tmp_path / "t.csv"
        emit_csv(p, ["a", "b"], [(1, 0.1), (2, 1.0 / 3.0)])
        text = p.read_text()
        assert text == "a,b\n1,0.1\n2,0.3333333333333333\n"

    def test_quoting(self, tmp_path):
        p = tmp_path / "t.csv"
        emit_csv(p, ["x"], [("needs,quote",)])
        assert p.read_text() == 'x\n"needs,quote"\n'


def tiny_design_cfg(**kw):
    return make_config(
        "design_sim", N=48, M=256, pairs=60, sigma_list=[0.3], seed=11, **kw
    )


class TestRunners:
    def test_design_sim(self, tmp_path):
        res = run_design_sim(tiny_design_cfg(), tmp_path)
        scatter = (tmp_path / "design_scatter_sigma=0.3.csv").read_text().splitlines()
        assert scatter[0] == "d_true,emb_sq_l2_mean,g_theory"
        assert len(scatter) == 61
        # d = 0 pair embeds to distance exactly 0
        first = scatter[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert res["summary"][0][2] >= 0.9  # strong concentration already

    def test_design_sim_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_design_sim(tiny_design_cfg(), a)
        run_design_sim(tiny_design_cfg(), b)
        name = "design_scatter_sigma=0.3.csv"
        assert filecmp.cmp(a / name, b / name, shallow=False)

    def test_quantization_sim_within_inflation(self, tmp_path):
        cfg = make_config(
            "quantization_sim", N=48, M=256, pairs=40, b_list=[1, 2],
            sigma=0.25, seed=3,
        )
        res = run_quantization_sim(cfg, tmp_path)
        for row in res["summary"]:
            assert row[-1]  # within eps + 2 E_Q always (triangle inequality)

    def test_quantization_sim_of_a_binary_map(self, tmp_path):
        # B-bit levels of the square wave's 0/1 codes: 0.25/0.75 at B = 1 and
        # 0.125/0.875 at B = 2, so emb_q is 0.25 and 0.5625 times the Hamming
        cfg = make_config("quantization_sim", N=16, M=32, pairs=4, b_list=[1, 2],
                          map="square", seed=7)
        run_quantization_sim(cfg, tmp_path)
        emb = {B: [float(line.split(",")[1]) for line in
                   (tmp_path / ("quant_scatter_B=%d.csv" % B)).read_text().splitlines()[1:]]
               for B in (1, 2)}
        assert emb == {1: [0.0, 0.0625, 0.0859375, 0.0859375],
                       2: [0.0, 0.158203125, 0.123046875, 0.263671875]}

    def test_quantization_sim_universal_variant(self, tmp_path):
        cfg = make_config(
            "quantization_sim", N=48, M=512, pairs=40, b_list=[4],
            variant="universal", sigma=1.0, delta=1.0, d_max=3.0, seed=5,
        )
        res = run_quantization_sim(cfg, tmp_path)
        assert res["summary"][0][1] < 0.05  # B=4 hugs the sawtooth curve

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_universal_scatter(self, tmp_path, family):
        cfg = make_config(
            "universal_scatter", N=48, pairs=80, delta_list=[0.5, 1.5],
            m_list=[128, 1024], sigma=1.0, seed=9, family=family,
        )
        res = run_universal_scatter(cfg, tmp_path)
        rows = res["summary"]
        # all hamming values in [0, 1], beside the family's closed form
        for f in res["files"]:
            if "scatter_delta" in os.path.basename(f):
                data = np.genfromtxt(f, delimiter=",", names=True)
                assert np.all(data["hamming_mean"] >= 0)
                assert np.all(data["hamming_mean"] <= 1)
                delta = float(os.path.basename(f).split("=")[1].split("_")[0])
                want = [universal_binary_map(d, 1.0, delta)[0] if family == "gaussian"
                        else universal_binary_map_l1(d, 1.0, delta) for d in data["d_true"]]
                assert [v.hex() for v in data["g_theory"]] == [v.hex() for v in want]
        assert all(math.isfinite(r[3]) for r in rows)
        # spread shrinks as M grows at fixed Delta
        by_cell = {(r[0], r[1]): r[2] for r in rows}
        assert by_cell[(0.5, 1024)] < by_cell[(0.5, 128)]
        assert by_cell[(1.5, 1024)] < by_cell[(1.5, 128)]
        # upward-slope endpoint (D0) scales linearly with Delta
        d0 = {(r[0], r[1]): r[3] for r in rows}
        assert d0[(1.5, 128)] / d0[(0.5, 128)] == pytest.approx(3.0, rel=1e-9)

    def test_retrieval_baseline_and_chance(self, tmp_path):
        cfg = make_config(
            "retrieval", N=32, clusters=10, points_per_cluster=4,
            cluster_radius=0.05, delta_list=[1.0, 400.0], rate_list=[256],
            candidates=3, seed=2,
        )
        res = run_retrieval(cfg, tmp_path)
        assert res["baseline_l2_accuracy"] == 1.0
        accs = {r[0]: r[2] for r in res["summary"]}
        assert accs[1.0] > 0.8
        assert accs[400.0] <= 3 * res["chance"] + 1e-9

    def test_retrieval_refuses_overlapping_clusters(self, tmp_path):
        cfg = make_config(
            "retrieval", N=16, clusters=8, points_per_cluster=3,
            cluster_radius=5.0, delta_list=[1.0], rate_list=[64], seed=2,
        )
        with pytest.raises(DatasetError, match="overlap"):
            run_retrieval(cfg, tmp_path)

    def test_bounds_sweep_pointcloud(self, tmp_path):
        cfg = make_config(
            "bounds_sweep", calculator="pointcloud", q=2, m_list=[1000],
            eps_list=[0.1], hbar=1.0, flavor="sq_l2",
        )
        res = run_bounds_sweep(cfg, tmp_path)
        assert res["rows"][0][5] == pytest.approx(math.exp(2 * math.log(2) - 20))

    def test_bounds_sweep_binary_threshold(self, tmp_path):
        cfg = make_config(
            "bounds_sweep", calculator="binary_infinite",
            eps_list=[0.588, 0.589], m_list=[1000],
        )
        res = run_bounds_sweep(cfg, tmp_path)
        decay_flags = {r[0]: r[4] for r in res["rows"]}
        assert decay_flags[0.588] and not decay_flags[0.589]
        assert res["threshold"] == pytest.approx(math.sqrt(0.5 * math.log(2)))

    def test_bounds_sweep_ball_crossing(self, tmp_path):
        cfg = make_config(
            "bounds_sweep", calculator="ball_crossing", n_list=[100],
            r_list=[0.05, 2.0], sigma=1.0, delta=10.0,
        )
        res = run_bounds_sweep(cfg, tmp_path)
        rows = {r[1]: r for r in res["rows"]}
        assert rows[0.05][3] and not rows[2.0][3]

    def test_map_eval_binary_bounds_columns(self, tmp_path):
        cfg = make_config("map_eval", map="square", sigma=1.0, delta=1.0, d_count=10)
        run_map_eval(cfg, tmp_path)
        header = (tmp_path / "map_curve.csv").read_text().splitlines()[0]
        assert header == "d,g,g_sqrt,K,lower5,upper6,upper7"

    def test_map_eval_plain_map(self, tmp_path):
        cfg = make_config("map_eval", map="sawtooth", scale=0.5, d_count=8)
        run_map_eval(cfg, tmp_path)
        header = (tmp_path / "map_curve.csv").read_text().splitlines()[0]
        assert header == "d,g,g_sqrt,K"


def pair_signals(N, seed=4):
    """Signal pairs at distances 0 .. 2, pair i in rows 2i, 2i+1."""
    return _pair_block(RandomState(seed), "signals", N, np.linspace(0.0, 2.0, 15), "l2")


class TestOneEmbeddingPerCell:
    @pytest.mark.parametrize("metric", ["l2", "l1"])
    def test_pair_block_equals_out_of_place_formula(self, metric):
        dvals = np.linspace(0.0, 2.0, 15)
        X = _pair_block(RandomState(4), "signals", 24, dvals, metric)
        g = RandomState(4).gaussian("signals", 2 * 15 * 24).reshape(15, 2, 24)
        x, u = g[:, 0, :], g[:, 1, :]
        norms = (np.linalg.norm(u, axis=1, keepdims=True) if metric == "l2"
                 else np.sum(np.abs(u), axis=1, keepdims=True))
        assert X[0::2].tobytes() == x.tobytes()
        assert X[1::2].tobytes() == (x + dvals[:, None] * u / norms).tobytes()

    @pytest.mark.parametrize("map_sel,metric", [
        (DEFAULT_MIXTURE, "sq_l2_mean"), ("square", "hamming_mean"),
    ])
    def test_pair_formula_equals_embedding_distance(self, map_sel, metric):
        op = build_operator(
            ProjectionSpec("gaussian", 0.3), parse_map(map_sel), 1000, 24, RandomState(8)
        )
        X = pair_signals(op.N)
        vecs = embed_batch(op, X)
        expected = [embedding_distance(vecs[2 * i], vecs[2 * i + 1], metric)[0]
                    for i in range(len(vecs) // 2)]
        assert _pair_distances(vecs).tolist() == expected

    @pytest.mark.parametrize("bits", [1, 2, 4])
    @pytest.mark.parametrize("base", ["mixture", "sawtooth"])
    def test_in_place_quantization_equals_quantized_operator(self, base, bits):
        # quant-sim's cell matrix, quantized in place, is the quantized map's
        # embedding by the same cell's (A, w) of the same pairs
        base_map = parse_map(DEFAULT_MIXTURE) if base == "mixture" else make_sawtooth()
        spec, cell = ProjectionSpec("gaussian", 0.2), RandomState(bits)
        dvals = np.linspace(0.0, 2.0, 15)
        Y = _embedded_pairs(cell, spec, base_map, 1000, 24, dvals)
        _quantize_values(Y.values, base_map.value_range, bits)
        twin = build_operator(spec, quantize_map(base_map, bits), 1000, 24, cell)
        Yq = embed_batch(twin, _pair_block(cell, "signals", 24, dvals, "l2"))
        assert Y.values.tobytes() == Yq.values.tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_scatter_cell_equals_universal_operator(self, family):
        # scatter builds its square-wave operator from its own spec; the
        # bytes are those of build_universal_operator's at (sigma, Delta, 1)
        cell, dvals = RandomState(6), np.linspace(0.0, 3.0, 15)
        spec = ProjectionSpec(family, universal_scale(1.0, 0.5, 1))
        Y = _embedded_pairs(cell, spec, make_square_wave(), 256, 24, dvals)
        op = build_universal_operator(family, 1.0, 0.5, 1, 256, 24, cell)
        X = _pair_block(cell, "signals", 24, dvals, spec.signal_metric)
        assert Y.values.tobytes() == embed_batch(op, X).values.tobytes()
        assert Y.map_id == op.operator_id


# one small config per runner kind; bounds_sweep once per calculator
SMALL_CONFIGS = {
    "design_sim": dict(N=16, M=32, pairs=6, sigma_list=[0.2, 0.4]),
    "quantization_sim": dict(N=16, M=32, pairs=6, b_list=[1, 2]),
    "universal_scatter": dict(N=16, pairs=6, delta_list=[0.5, 1.5], m_list=[32, 64]),
    "retrieval": dict(N=16, clusters=4, points_per_cluster=3, cluster_radius=0.05,
                      delta_list=[1.0], rate_list=[16, 32]),
    "bounds_sweep:pointcloud": dict(calculator="pointcloud"),
    "bounds_sweep:binary_infinite": dict(calculator="binary_infinite"),
    "bounds_sweep:ball_crossing": dict(calculator="ball_crossing"),
    "map_eval": dict(d_count=5),
}


@pytest.mark.parametrize("case", sorted(SMALL_CONFIGS))
def test_result_files_are_the_files_written_in_order(tmp_path, monkeypatch, case):
    written = []

    def recording_emit_csv(path, header, rows):
        written.append(path)
        emit_csv(path, header, rows)

    monkeypatch.setattr(runners, "emit_csv", recording_emit_csv)
    kind = case.split(":")[0]
    out = tmp_path / "out"
    out.mkdir()
    result = RUNNERS[kind](make_config(kind, **SMALL_CONFIGS[case]), str(out))
    assert result["files"] == written
    assert sorted(os.path.basename(f) for f in written) == sorted(os.listdir(out))
    assert all(os.path.dirname(f) == str(out) for f in written)


class TestCli:
    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.cfg"
        p.write_text(text)
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "kind = map_eval\nmap = square\nd_count = 5\n",
        )
        rc = main(["map-eval", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "map_curve.csv" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "kind = map_eval\nbogus = 1\n")
        rc = main(["map-eval", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_non_finite_number_exit_two(self, tmp_path, capsys):
        for raw in ("nan", "inf", "-inf"):
            cfg = self._write(tmp_path, "kind = map_eval\nd_min = %s\n" % raw)
            out = tmp_path / ("out_" + raw)
            assert main(["map-eval", "--config", cfg, "--out", str(out)]) == 2
            assert ":2:" in capsys.readouterr().err
            assert not out.exists()

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = self._write(tmp_path, "kind = design_sim\n")
        assert main(["map-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_exit_two(self, tmp_path):
        missing = str(tmp_path / "nope.cfg")
        assert main(["map-eval", "--config", missing, "--out", str(tmp_path / "o")]) == 2

    def test_runtime_error_exit_three(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "kind = retrieval\nN = 16\nclusters = 8\npoints_per_cluster = 3\n"
            "cluster_radius = 5.0\ndelta_list = 1.0\nrate_list = 64\n",
        )
        rc = main(["retrieve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("candidates", 0), ("candidates", -2), ("reps", 0),
        ("clusters", 1), ("rate_list", 0),
    ])
    def test_retrieval_nonpositive_count_exit_two(self, tmp_path, capsys, key, value):
        keys = {"kind": "retrieval", "N": 16, "clusters": 4, "points_per_cluster": 3,
                "cluster_radius": 0.05, "delta_list": 1.0, "rate_list": 16, key: value}
        cfg = self._write(tmp_path, "".join("%s = %s\n" % kv for kv in keys.items()))
        out = tmp_path / "out"
        rc = main(["retrieve", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,text,key", [
        ("scatter", "kind = universal_scatter\nN = 16\npairs = 4\nm_list = 32,0\n",
         "m_list"),
        ("scatter", "kind = universal_scatter\nN = 16\nm_list = 32\npairs = 0\n", "pairs"),
        ("design-sim", "kind = design_sim\nN = 16\nM = 32\nsigma_list = 0.3\npairs = 0\n",
         "pairs"),
        ("design-sim", "kind = design_sim\nM = 32\npairs = 4\nsigma_list = 0.3\nN = 0\n",
         "N"),
        ("quant-sim", "kind = quantization_sim\nN = 16\nM = 32\npairs = 4\nb_list = 1,0\n",
         "b_list"),
        ("quant-sim", "kind = quantization_sim\nN = 16\nM = 32\npairs = 4\nb_list = 41\n",
         "b_list"),
        ("quant-sim", "kind = quantization_sim\nN = 16\npairs = 4\nb_list = 1\nM = 0\n",
         "M"),
        ("map-eval", "kind = map_eval\nd_count = 0\n", "d_count"),
        ("design-sim", "kind = design_sim\nN = 16\nM = 32\npairs = 4\nsigma_list = 0.3\n"
         "family = foo\n", "family"),
        ("quant-sim", "kind = quantization_sim\nN = 16\nM = 32\npairs = 4\nb_list = 1\n"
         "family = foo\n", "family"),
        ("quant-sim", "kind = quantization_sim\nN = 16\nM = 32\npairs = 4\nb_list = 1\n"
         "variant = foo\n", "variant"),
        ("design-sim", "kind = design_sim\nN = 16\nM = 32\npairs = 4\nsigma_list = 0.2,-1\n",
         "sigma_list"),
        ("scatter", "kind = universal_scatter\nN = 16\npairs = 4\nm_list = 32\n"
         "delta_list = 0\n", "delta_list"),
        ("quant-sim", "kind = quantization_sim\nN = 16\nM = 32\npairs = 4\nb_list = 1\n"
         "variant = universal\ndelta = 0\n", "delta"),
        ("retrieve", "kind = retrieval\nN = 16\nclusters = 4\npoints_per_cluster = 3\n"
         "cluster_radius = 0.05\ndelta_list = 1.0\nrate_list = 16\nsigma = 0\n", "sigma"),
        ("map-eval", "kind = map_eval\nd_count = 5\nlog_grid = 0\nd_min = -1\n", "d_min"),
        ("map-eval", "kind = map_eval\nd_count = 5\nscale = -1\n", "scale"),
        ("bounds", "kind = bounds_sweep\ncalculator = pointcloud\nq = 1\n", "q"),
        ("bounds", "kind = bounds_sweep\ncalculator = pointcloud\nflavor = foo\n", "flavor"),
        ("bounds", "kind = bounds_sweep\ncalculator = ball_crossing\nn_list = 0\n", "n_list"),
        ("bounds", "kind = bounds_sweep\ncalculator = foo\n", "calculator"),
        ("map-eval", "kind = map_eval\nd_count = 5\nmap = multibit:B=0\n", "map"),
        ("map-eval", "kind = map_eval\nd_count = 5\nmap = multibit:B=17\n", "map"),
        ("design-sim", "kind = design_sim\nN = 16\nM = 32\npairs = 4\nsigma_list = 0.3\n"
         "map = multibit:B=17\n", "map"),
        ("map-eval", "kind = map_eval\nd_count = 5\nmap = mixture:1%s:1\n" % ("0" * 400),
         "map"),
        ("map-eval", "kind = map_eval\nd_count = 5\nd_min = 0\n", "d_min"),
        *[(command, text + "map = mixture:1:%s\n" % amp, "map")
          for command, text in [
              ("design-sim", "kind = design_sim\nN = 16\nM = 32\npairs = 4\nsigma_list = 0.3\n"),
              ("quant-sim", "kind = quantization_sim\nN = 16\nM = 32\npairs = 4\nb_list = 1\n"),
              ("map-eval", "kind = map_eval\nd_count = 5\n")]
          for amp in ("0", "1e200")],
        # hbar^4 underflows to 0 or overflows
        *[(command, text + "map = mixture:1:%s\n" % amp, "map")
          for command, text in [
              ("design-sim", "kind = design_sim\nN = 16\nM = 32\npairs = 4\nsigma_list = 0.3\n"),
              ("quant-sim", "kind = quantization_sim\nN = 16\nM = 32\npairs = 4\nb_list = 1\n")]
          for amp in ("1e-100", "1e154")],
        # spectra that cannot be computed: cells finer than the crossing
        # grid, a sawtooth of 2^17 pieces
        ("map-eval", "kind = map_eval\nd_count = 5\nmap = quantized:mixture:1:1:B=14\n",
         "map"),
        ("map-eval", "kind = map_eval\nd_count = 5\nmap = quantized:sawtooth:B=17\n", "map"),
        # projections past randproj.MAX_ELEMENTS, and a grid flag other than 0 or 1
        ("design-sim", "kind = design_sim\nN = 20000\nM = 20000\nsigma_list = 0.3\n", "M"),
        ("scatter", "kind = universal_scatter\nN = 70000\nm_list = 2048\n", "m_list"),
        ("retrieve", "kind = retrieval\ndelta_list = 1.0\nrate_list = 16,3000000\n",
         "rate_list"),
        # 2 pairs x max(N, M) past the cap: about 13 GB of signals and embeddings
        ("design-sim", "kind = design_sim\npairs = 200000\n", "pairs"),
        ("quant-sim", "kind = quantization_sim\npairs = 200000\n", "pairs"),
        ("scatter", "kind = universal_scatter\npairs = 200000\n", "pairs"),
        # the l2 baseline's clusters x clusters (points_per_cluster - 1) x N past the
        # cap: about 51 GB at clusters = 5000
        *[("retrieve", "kind = retrieval\ndelta_list = 1.0\nrate_list = 16\n%s\n" % text,
           "clusters") for text in ("clusters = 5000", "points_per_cluster = 1000",
                                    "N = 20000")],
        ("map-eval", "kind = map_eval\nd_count = 5\nlog_grid = 7\n", "log_grid"),
        # binary_infinite's w = 2 eps^2 overflowing to inf or underflowing to 0
        *[("bounds", "kind = bounds_sweep\ncalculator = binary_infinite\neps_list = 0.1,%s\n"
           % eps, "eps_list") for eps in ("1e200", "1e-200")],
    ], ids=["scatter-m_list", "scatter-pairs", "design-pairs", "design-N", "quant-b_list-0",
            "quant-b_list-41", "quant-M", "map_eval-d_count", "design-family", "quant-family",
            "quant-variant", "design-sigma_list", "scatter-delta_list", "quant-delta",
            "retrieval-sigma", "map_eval-d_min", "map_eval-scale", "bounds-q", "bounds-flavor",
            "bounds-n_list", "bounds-calculator", "map_eval-multibit-0", "map_eval-multibit-17",
            "design-multibit-17", "map_eval-mixture-1e400", "map_eval-log-d_min-0",
            "design-constant", "design-power-inf", "quant-constant", "quant-power-inf",
            "map_eval-constant", "map_eval-power-inf", "design-hbar4-zero",
            "design-hbar4-inf", "quant-hbar4-zero", "quant-hbar4-inf",
            "map_eval-cells-finer-than-grid", "map_eval-sawtooth-17",
            "design-projection-cap", "scatter-projection-cap", "retrieval-projection-cap",
            "design-pairs-cap", "quant-pairs-cap", "scatter-pairs-cap",
            "retrieve-clusters-cap", "retrieve-points_per_cluster-cap", "retrieve-N-cap",
            "map_eval-log_grid-7", "bounds-binary_infinite-eps-huge",
            "bounds-binary_infinite-eps-tiny"])
    def test_bad_count_exit_two(self, tmp_path, capsys, command, text, key):
        # counts, choices and the sign of each scale and distance, found
        # when the config is parsed: before the output directory is made
        cfg = self._write(tmp_path, text)
        out = tmp_path / "out"
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "%s must" % key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,text", [
        ("map-eval", "kind = map_eval\nd_count = 5\nmap = multibit:B=4\n"),
        ("design-sim", "kind = design_sim\nN = 16\nM = 32\npairs = 4\nsigma_list = 0.3\n"
         "map = quantized:%s:B=3\n" % DEFAULT_MIXTURE),
    ], ids=["map_eval-multibit", "design-quantized"])
    def test_run_certifies_its_map_once(self, tmp_path, monkeypatch, command, text):
        # the runner uses the map the config check built and certified
        calls = []
        spectrum = uemb.maps._pieces_spectrum
        monkeypatch.setattr(uemb.maps, "_pieces_spectrum",
                            lambda pieces: calls.append(1) or spectrum(pieces))
        cfg = self._write(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_universal_quant_sim_builds_no_map(self, tmp_path, monkeypatch):
        # the universal variant runs the sawtooth: its map key's map, here
        # one whose spectrum cannot be computed, is neither built nor refused
        calls = []
        spectrum = uemb.maps._pieces_spectrum
        monkeypatch.setattr(uemb.maps, "_pieces_spectrum",
                            lambda pieces: calls.append(1) or spectrum(pieces))
        text = ("kind = quantization_sim\nvariant = universal\nN = 16\nM = 32\n"
                "pairs = 4\nmap = quantized:mixture:1:1:B=14\n")
        cfg = self._write(tmp_path, text)
        assert main(["quant-sim", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == []
        assert parse_config(cfg).map is None

    def test_map_listed_to_the_harmonic_cap_runs(self, tmp_path):
        # its power above KMAX_CAP is listed, not refused: g saturates at 2 ac = 1/2
        cfg = self._write(tmp_path, "kind = map_eval\nmap = quantized:mixture:400:1:B=1\n"
                                    "scale = 0.01\nd_count = 5\n")
        out = tmp_path / "out"
        assert main(["map-eval", "--config", cfg, "--out", str(out)]) == 0
        last = (out / "map_curve.csv").read_text().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("command,text,row", [
        ("bounds", "kind = bounds_sweep\ncalculator = pointcloud\neps_list = 1e200\n",
         "sq_l2,2,1000,1e+200,-inf,0.0,0"),
        ("bounds", "kind = bounds_sweep\ncalculator = binary_infinite\nc0 = 1e200\n",
         "0.1,1000,6.9314718055994525e+199,0.020000000000000004,1,6.931471805599452e+202,1.0"),
        ("map-eval", "kind = map_eval\nmap = square\ndelta = 1e-160\nd_count = 5\n",
         "10.0,0.5,0.7071067811865476,0.25,0.5,0.5,7.978845608028655e+160"),
    ], ids=["bounds-pointcloud-eps", "bounds-binary_infinite-c0", "map_eval-square-delta"])
    def test_huge_finite_inputs_exit_zero(self, tmp_path, command, text, row):
        # squares past the float range give their limits, not OverflowError
        # nor a RuntimeWarning
        cfg = self._write(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        (csv_file,) = out.iterdir()
        assert csv_file.read_text().splitlines()[-1] == row

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "kind = design_sim\nN = 32\nM = 64\npairs = 10\nsigma_list = 0.3\n",
        )
        out1, out2, out3 = (str(tmp_path / d) for d in ("o1", "o2", "o3"))
        assert main(["design-sim", "--config", cfg, "--out", out1, "--seed", "1"]) == 0
        assert main(["design-sim", "--config", cfg, "--out", out2, "--seed", "2"]) == 0
        assert main(["design-sim", "--config", cfg, "--out", out3, "--seed", "1"]) == 0
        name = "design_scatter_sigma=0.3.csv"
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        c = (tmp_path / "o3" / name).read_bytes()
        assert a != b and a == c


def _fresh(args, **env):
    """``python args`` in a fresh interpreter that imports this uemb, with
    ``env`` over this process's environment (None unsets a variable)."""
    src = os.path.dirname(os.path.dirname(uemb.__file__))
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=src, **env).items() if v is not None}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _run_fresh(code, **env):
    """stdout of ``code`` run by ``_fresh``, which must exit 0."""
    result = _fresh(["-c", code], **env)
    result.check_returncode()
    return result.stdout


def test_module_entry_point_runs_with_warnings_as_errors(tmp_path):
    # the package does not import its main module, so -m runs it as
    # __main__ with no copy of it already in sys.modules
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("kind = bounds_sweep\ncalculator = pointcloud\n")
    out = tmp_path / "out"
    result = _fresh(["-W", "error", "-m", "uemb.expcli.main", "bounds",
                     "--config", str(cfg), "--out", str(out)])
    assert (result.returncode, result.stderr) == (0, "")
    assert len(list(out.iterdir())) == 1


# this process may have set it already, by importing uemb before numpy
_PRINT_TIMEOUT = "import os, uemb\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"


def test_import_sets_openblas_thread_timeout():
    assert _run_fresh(_PRINT_TIMEOUT, OPENBLAS_THREAD_TIMEOUT=None).strip() == "4"


def test_import_keeps_the_users_openblas_thread_timeout():
    assert _run_fresh(_PRINT_TIMEOUT, OPENBLAS_THREAD_TIMEOUT="28").strip() == "28"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_idle_blas_worker_does_not_spin():
    # at OpenBLAS's own timeout its second thread spin-waits after a GEMM:
    # about 0.13 CPU-s of this sleep on a 2-vCPU Xeon
    code = ("import time, uemb, numpy as np\n"
            "a = np.ones((1000, 1000))\n"
            "a @ a\n"
            "t = time.process_time()\n"
            "time.sleep(0.3)\n"
            "print(time.process_time() - t)")
    cpu = float(_run_fresh(code, OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=None))
    assert cpu < 0.02


def test_thread_timeout_keeps_the_bytes(tmp_path):
    # the timeout changes how an idle worker waits, not how a GEMM is split:
    # this config's bytes differ between one and two OpenBLAS threads
    # (scipy-openblas 0.3.31 on a SkylakeX Xeon), and not between timeouts
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text("kind = design_sim\nN = 1000\nM = 256\npairs = 20\nsigma_list = 0.3\n")
    outs = []
    for timeout in (None, "28"):
        out = tmp_path / ("out-%s" % timeout)
        argv = ["design-sim", "--config", str(cfg), "--out", str(out)]
        _run_fresh("from uemb.expcli.main import main\nassert main(%r) == 0" % (argv,),
                   OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=timeout)
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outs[0]) == 2 and outs[0] == outs[1]


def test_import_leaves_heavy_scipy_modules_out():
    # scipy.special loads on the first Gaussian draw or dilogarithm;
    # scipy.optimize would pull in linalg, sparse, spatial and fft
    code = ("import sys, uemb, uemb.expcli.main\n"
            "print(' '.join(m for m in ('scipy.special', 'scipy.optimize', 'scipy.linalg',"
            " 'scipy.sparse') if m in sys.modules))")
    assert _run_fresh(code).strip() == ""


def test_scipy_special_loads_on_first_gaussian_draw(tmp_path):
    # map-eval and bounds draw nothing, so they run on numpy alone
    configs = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")
    runs = [[cmd, "--config", os.path.join(configs, cfg + ".cfg"), "--out", str(tmp_path)]
            for cmd, cfg in (("map-eval", "map_eval"), ("bounds", "bounds_binary_infinite"))]
    code = ("import sys\n"
            "from uemb.expcli.main import main\n"
            "from uemb.randproj import RandomState\n"
            "assert [main(argv) for argv in %r] == [0, 0]\n"
            "print('scipy.special' in sys.modules)\n"
            "g = RandomState(7).gaussian('matrix', 1000)\n"
            "print('scipy.special' in sys.modules)\n"
            "print(g.tobytes().hex())\n" % (runs,))
    before, after, draw = _run_fresh(code).splitlines()[-3:]
    assert (before, after) == ("False", "True")
    u = RandomState(7).uniform("matrix", 1000)
    assert bytes.fromhex(draw) == ndtri(u + _HALF_CELL).tobytes()
