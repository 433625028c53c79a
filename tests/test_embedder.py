"""Embedding operators: determinism, distances, quantization, persistence."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uemb.embedder import (
    EmbeddingVector,
    FormatError,
    _embed_matrix,
    build_operator,
    build_universal_operator,
    embed,
    embed_batch,
    embedding_distance,
    export_csv,
    load_embeddings,
    post_quantize,
    save_embeddings,
    universal_scale,
)
from uemb.maps import (
    _MAP_BLOCK,
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)
from uemb.randproj import ProjectionSpec, RandomState
from uemb.theory import universal_binary_map

from oracles import mc_distance_map


def small_op(seed=5, M=64, N=16, scale=0.5, map_=None):
    spec = ProjectionSpec("gaussian", scale)
    return build_operator(spec, map_ or make_square_wave(), M, N, RandomState(seed))


class TestBuildOperator:
    def test_determinism(self):
        a = small_op(seed=9)
        b = small_op(seed=9)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.operator_id == b.operator_id

    def test_dither_support(self):
        op = small_op()
        assert np.all((op.w >= 0) & (op.w < 1))

    def test_invalid_dimensions(self):
        spec = ProjectionSpec("gaussian", 1.0)
        with pytest.raises(ValueError):
            build_operator(spec, make_square_wave(), 0, 4, RandomState(0))

    def test_universal_scale_folding(self):
        # B-bit folding: scale / (2^B Delta); B = 2 is 1/4 of the B = 0 ratio
        assert universal_scale(1.0, 1.0, 2) == pytest.approx(0.25)
        assert universal_scale(1.0, 1.0, 1) == pytest.approx(0.5)
        assert universal_scale(3.0, 1.5, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, -1])
    @pytest.mark.parametrize("arg", ["scale", "Delta"])
    def test_universal_scale_wants_positive_finite(self, arg, bad):
        # NaN and inf once came back as nan or 0.0
        args = {"scale": 1.0, "Delta": 1.0, arg: bad}
        with pytest.raises(ValueError, match="scale and Delta must be positive and finite"):
            universal_scale(args["scale"], args["Delta"])
        args[arg] = 2.5
        assert universal_scale(args["scale"], args["Delta"]) == args["scale"] / (2 * args["Delta"])

    def test_universal_operator_maps(self):
        op1 = build_universal_operator("gaussian", 1.0, 1.0, 1, 8, 4, RandomState(1))
        op2 = build_universal_operator("gaussian", 1.0, 1.0, 3, 8, 4, RandomState(1))
        assert op1.map.kind == "square"
        assert op2.map.kind == "multibit"

    def test_empirical_map_matches_closed_form(self):
        # pins the scale convention: Hamming scatter tracks the closed-form
        # map evaluated at the same user-level (sigma, Delta)
        sigma = Delta = 1.0
        N, M = 128, 8000
        op = build_universal_operator("gaussian", sigma, Delta, 1, M, N, RandomState(7))
        rng = np.random.default_rng(3)
        for d in (0.2, 0.5, 1.0):
            x = rng.standard_normal(N)
            u = rng.standard_normal(N)
            u *= d / np.linalg.norm(u)
            ham = embedding_distance(embed(op, x), embed(op, x + u), "hamming_mean")
            g, _ = universal_binary_map(d, sigma, Delta)
            assert abs(ham - g) <= 3.5 * math.sqrt(g * (1 - g) / M) + 1e-9


class TestEmbed:
    def test_identical_inputs(self):
        op = small_op()
        x = np.linspace(-1, 1, op.N)
        y1, y2 = embed(op, x), embed(op, x.copy())
        np.testing.assert_array_equal(y1.values, y2.values)
        assert embedding_distance(y1, y2, "sq_l2_mean") == 0.0

    def test_binary_codomain(self):
        op = small_op()
        y = embed(op, np.ones(op.N))
        assert set(np.unique(y.values)) <= {0.0, 1.0}
        assert y.binary

    def test_constant_map_collapses(self):
        flat = make_fourier_mixture([(1, 0.0)])  # h identically zero
        op = small_op(map_=flat)
        rng = np.random.default_rng(0)
        ys = embed_batch(op, rng.standard_normal((5, op.N)))
        for a in ys:
            for b in ys:
                assert embedding_distance(a, b, "sq_l2_mean") == 0.0

    def test_validation(self):
        op = small_op()
        with pytest.raises(ValueError):
            embed(op, np.zeros(op.N + 1))
        with pytest.raises(ValueError):
            embed(op, np.full(op.N, np.nan))
        with pytest.raises(ValueError):
            embed_batch(op, np.zeros((3, op.N + 2)))

    @pytest.mark.parametrize("map_", [
        make_square_wave(),
        # at small shapes the GEMM's bits depend on the rows batched with a
        # signal; the square wave hides it, a smooth map shows it
        pytest.param(make_sawtooth(), marks=pytest.mark.xfail(
            strict=True, reason="small-shape GEMM bits depend on the batch (ROADMAP item 2)")),
    ], ids=["square", "sawtooth"])
    def test_batch_equals_embed_bit_exact(self, map_):
        op = small_op(M=256, N=64, map_=map_)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((37, op.N))
        batch = embed_batch(op, X)
        for i in range(X.shape[0]):
            np.testing.assert_array_equal(batch[i].values, embed(op, X[i]).values)

    def test_partition_independence(self):
        op = small_op(M=128, N=32)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((23, op.N))
        whole = embed_batch(op, X)
        for cut in (1, 2, 7, 22):
            parts = embed_batch(op, X[:cut]) + embed_batch(op, X[cut:])
            for a, b in zip(whole, parts):
                np.testing.assert_array_equal(a.values, b.values)

    def test_batch_equals_out_of_place_formula(self):
        # the GEMM written into the result has the bits of X @ A.T
        mix = make_fourier_mixture([(1, 0.5), (10, 0.5)])
        op = small_op(M=257, N=64, map_=mix)
        rng = np.random.default_rng(3)
        for n in (2, 5, _MAP_BLOCK // 257 + 1):
            X = rng.standard_normal((n, op.N))
            want = op.map(X @ op.A.T + op.w)
            got = np.stack([v.values for v in embed_batch(op, X)])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("map_", [
        make_square_wave(), make_fourier_mixture([(1, 0.5), (10, 0.5)]), make_multibit(3),
    ], ids=["square", "mixture", "multibit3"])
    def test_batch_allocates_one_embedding_matrix(self, map_):
        n, M = 1000, 2000
        op = small_op(M=M, N=200, map_=map_)
        X = np.random.default_rng(4).standard_normal((n, op.N))
        tracemalloc.start()
        try:
            embed_batch(op, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * M * 8

    def test_matrix_holds_the_batch_rows_without_a_copy(self):
        n, M = 1000, 2000
        op = small_op(M=M, N=200, map_=make_fourier_mixture([(1, 0.5), (10, 0.5)]))
        X = np.random.default_rng(5).standard_normal((n, op.N))
        batch = embed_batch(op, X)
        assert batch[0].values.base is batch[-1].values.base
        tracemalloc.start()
        try:
            Y = _embed_matrix(op, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Y.tobytes() == np.stack([v.values for v in batch]).tobytes()
        assert peak < 1.25 * n * M * 8
        assert _embed_matrix(op, X[:0]).shape == (0, M)

    def test_batch_of_one_and_empty(self):
        op = small_op()
        x = np.ones(op.N)
        np.testing.assert_array_equal(embed_batch(op, x[None, :])[0].values,
                                      embed(op, x).values)
        assert embed_batch(op, np.zeros((0, op.N))) == []


class TestDistances:
    def test_hamming_equals_sq_l2_for_binary(self):
        op = small_op(M=512, N=32)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, op.N))
        ys = embed_batch(op, X)
        for i in range(0, 10, 2):
            h = embedding_distance(ys[i], ys[i + 1], "hamming_mean")
            s = embedding_distance(ys[i], ys[i + 1], "sq_l2_mean")
            assert h == s

    def test_inner_expansion_identity(self):
        # (1/M)||y-y'||^2 = (1/M)(||y||^2 + ||y'||^2) - 2 (1/M) <y,y'>
        op = small_op(M=128, N=32, map_=make_multibit(3))
        rng = np.random.default_rng(6)
        ys = embed_batch(op, rng.standard_normal((2, op.N)))
        y, y2 = ys
        sq = embedding_distance(y, y2, "sq_l2_mean")
        inner = embedding_distance(y, y2, "inner_mean")
        self_terms = (np.sum(y.values ** 2) + np.sum(y2.values ** 2)) / op.M
        assert sq == pytest.approx(self_terms - 2 * inner, abs=1e-12)

    def test_l2_mean_is_sqrt(self):
        op = small_op(M=64, N=8)
        rng = np.random.default_rng(7)
        ys = embed_batch(op, rng.standard_normal((2, op.N)))
        sq = embedding_distance(ys[0], ys[1], "sq_l2_mean")
        assert embedding_distance(ys[0], ys[1], "l2_mean") == pytest.approx(math.sqrt(sq))

    def test_hamming_rejected_for_non_binary(self):
        op = small_op(map_=make_multibit(2))
        ys = embed_batch(op, np.zeros((2, op.N)))
        with pytest.raises(ValueError):
            embedding_distance(ys[0], ys[1], "hamming_mean")

    def test_provenance_mismatch_rejected(self):
        y1 = embed(small_op(seed=1), np.zeros(16))
        y2 = embed(small_op(seed=2), np.zeros(16))
        with pytest.raises(ValueError):
            embedding_distance(y1, y2, "sq_l2_mean")

    def test_unknown_metric(self):
        y = embed(small_op(), np.zeros(16))
        with pytest.raises(ValueError):
            embedding_distance(y, y, "cosine")


class TestStatisticalInvariants:
    def test_norm_concentration_square_wave(self):
        # (1/M)||y||^2 concentrates around total power 1/2 of the {0,1} map
        N, M = 64, 2000
        op = small_op(seed=21, M=M, N=N, scale=0.4)
        rng = np.random.default_rng(8)
        ys = embed_batch(op, rng.standard_normal((1000, N)))
        norms = [np.sum(y.values ** 2) / M for y in ys]
        assert abs(np.mean(norms) - 0.5) < 0.02

    def test_dither_shift_invariance(self):
        # shifting every projection by a constant (a dither rotation) leaves
        # the distance-map estimate unchanged up to Monte Carlo error
        N, M, d = 48, 6000, 0.7
        spec = ProjectionSpec("gaussian", 0.5)
        op = build_operator(spec, make_square_wave(), M, N, RandomState(33))
        shifted_w = np.mod(op.w + 0.37, 1.0)
        op2 = type(op)(A=op.A, w=shifted_w, map=op.map, spec=op.spec,
                       M=op.M, N=op.N, seed=op.seed)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(N)
        u = rng.standard_normal(N)
        u *= d / np.linalg.norm(u)
        h1 = embedding_distance(embed(op, x), embed(op, x + u), "hamming_mean")
        h2 = embedding_distance(embed(op2, x), embed(op2, x + u), "hamming_mean")
        se = math.sqrt(0.25 / M)
        assert abs(h1 - h2) <= 4 * math.sqrt(2) * se

    def test_monte_carlo_oracle_agrees(self):
        # sanity link between the embedding path and the scalar MC oracle
        spec = ProjectionSpec("gaussian", 0.5)
        m = make_square_wave()
        est = mc_distance_map(m, spec, 0.8, 10 ** 6, RandomState(40))
        g, _ = universal_binary_map(0.8, 1.0, 1.0)  # sigma/(2 Delta) = 0.5
        assert abs(est - g) < 0.002


class TestPostQuantize:
    def test_per_coordinate_error(self):
        op = small_op(M=256, N=32, map_=make_multibit(4))
        y = embed(op, np.linspace(-1, 1, 32))
        S = 1.0
        for bits in (1, 3, 6):
            q = post_quantize(y, bits, S)
            assert np.max(np.abs(q.values - y.values)) <= 2.0 ** -bits * S + 1e-15
            assert q.saturation_count == 0
            assert q.quantized_bits == bits

    def test_l2_error_bound(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(-1, 1, size=500)
        from uemb.embedder import EmbeddingVector

        y = EmbeddingVector(values=vals, map_id="t")
        q = post_quantize(y, 4, 1.0)
        assert np.linalg.norm(q.values - vals) <= math.sqrt(500) * 2.0 ** -4

    def test_fine_quantization_recovers(self):
        from uemb.embedder import EmbeddingVector

        vals = np.linspace(-0.9, 0.9, 64)
        y = EmbeddingVector(values=vals, map_id="t")
        q = post_quantize(y, 30, 1.0)
        assert np.max(np.abs(q.values - vals)) < 1e-6

    def test_saturation_counted(self):
        from uemb.embedder import EmbeddingVector

        y = EmbeddingVector(values=np.array([-5.0, 0.0, 5.0]), map_id="t")
        q = post_quantize(y, 2, 1.0)
        assert q.saturation_count == 2
        assert np.all(np.abs(q.values) <= 1.0)

    def test_validation(self):
        from uemb.embedder import EmbeddingVector

        y = EmbeddingVector(values=np.zeros(3), map_id="t")
        with pytest.raises(ValueError):
            post_quantize(y, 0, 1.0)
        with pytest.raises(ValueError):
            post_quantize(y, 2, 0.0)
        with pytest.raises(ValueError):
            post_quantize(y, 2, 1e308)

    def test_bits_capped_as_in_quantize_map(self):
        # past 40 bits the cells are finer than float64 resolves; 2**1100 overflows
        from uemb.embedder import EmbeddingVector

        y = EmbeddingVector(values=np.array([0.1, -0.3]), map_id="t")
        assert post_quantize(y, 40, 1.0).quantized_bits == 40
        for bits in (41, 1000, 1100):
            with pytest.raises(ValueError):
                post_quantize(y, bits, 1.0)
            with pytest.raises(ValueError):
                quantize_map(make_sawtooth(), bits)

    @pytest.mark.parametrize("entry,most", [
        ("quantize_map", 40), ("make_multibit", 16), ("post_quantize", 40),
        ("universal_scale", 40),
    ])
    def test_bad_bit_width_is_a_value_error(self, entry, most):
        # one check serves all four: inf and huge widths once leaked OverflowError
        from uemb.embedder import EmbeddingVector

        y = EmbeddingVector(values=np.array([0.1, -0.3]), map_id="t")
        call = {
            "quantize_map": lambda b: quantize_map(make_sawtooth(), b),
            "make_multibit": make_multibit,
            "post_quantize": lambda b: post_quantize(y, b, 1.0),
            "universal_scale": lambda b: universal_scale(1.0, 1.0, b),
        }[entry]
        for bits in (math.inf, math.nan, 2.5, 0, most + 1, 2000):
            with pytest.raises(ValueError, match="bits must be an integer"):
                call(bits)
        call(most)
        call(float(most))

    def test_nonfinite_rejected(self):
        # NaN has no cell; an infinity would count as an ordinary saturation
        from uemb.embedder import EmbeddingVector

        for bad in (math.nan, math.inf, -math.inf):
            y = EmbeddingVector(values=np.array([0.1, bad]), map_id="t")
            with pytest.raises(ValueError):
                post_quantize(y, 2, 1.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        op = small_op(M=77, N=16)
        rng = np.random.default_rng(12)
        ys = embed_batch(op, rng.standard_normal((9, op.N)))
        p = tmp_path / "emb.uemb"
        save_embeddings(p, ys)
        back = load_embeddings(p)
        assert len(back) == 9
        for a, b in zip(ys, back):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.map_id == b.map_id
            assert b.binary

    def test_round_trip_float_payload(self, tmp_path):
        op = small_op(M=20, N=8, map_=make_multibit(3))
        ys = embed_batch(op, np.eye(8)[:4])
        p = tmp_path / "emb.uemb"
        save_embeddings(p, ys)
        back = load_embeddings(p)
        for a, b in zip(ys, back):
            np.testing.assert_array_equal(a.values, b.values)

    def test_empty_list(self, tmp_path):
        p = tmp_path / "empty.uemb"
        save_embeddings(p, [])
        assert load_embeddings(p) == []

    # load_embeddings refuses vectors of length 0, and a 2 x 3 array would
    # reload as one vector of length 6: neither is written
    @pytest.mark.parametrize("values", [np.zeros(0), np.zeros((2, 3))], ids=["empty", "2-D"])
    def test_unloadable_values_not_saved(self, tmp_path, values):
        p = tmp_path / "bad.uemb"
        with pytest.raises(ValueError, match="1-D array of at least one value"):
            save_embeddings(p, [EmbeddingVector(values, "m") for _ in range(3)])
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.uemb"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            load_embeddings(p)

    def test_truncation(self, tmp_path):
        op = small_op(M=16, N=8)
        ys = embed_batch(op, np.zeros((3, 8)))
        p = tmp_path / "t.uemb"
        save_embeddings(p, ys)
        data = p.read_bytes()
        p.write_bytes(data[:-1])
        with pytest.raises(FormatError):
            load_embeddings(p)

    @staticmethod
    def _raw_file(tmp_path, M, count, tail):
        p = tmp_path / "raw.uemb"
        p.write_bytes(struct.pack("<4sHHIQ", b"UEMB", 1, 0, M, count) + tail)
        return p

    def test_missing_map_id_length(self, tmp_path):
        with pytest.raises(FormatError, match="map id length"):
            load_embeddings(self._raw_file(tmp_path, 4, 1, b"\x01"))

    def test_non_utf8_map_id(self, tmp_path):
        p = self._raw_file(tmp_path, 1, 1, struct.pack("<H", 2) + b"\xff\xfe" + bytes(8))
        with pytest.raises(FormatError, match="UTF-8"):
            load_embeddings(p)

    def test_zero_length_vectors_rejected(self, tmp_path):
        p = self._raw_file(tmp_path, 0, 10 ** 6, struct.pack("<H", 0))
        with pytest.raises(FormatError, match="length 0"):
            load_embeddings(p)

    def test_payload_size_checked_before_reading(self, tmp_path):
        # a header claiming 2^40 vectors fails on the size, not in the read loop
        p = self._raw_file(tmp_path, 2, 2 ** 40, struct.pack("<H", 0) + bytes(32))
        with pytest.raises(FormatError, match="does not hold"):
            load_embeddings(p)
        p = self._raw_file(tmp_path, 2, 1, struct.pack("<H", 0) + bytes(17))
        with pytest.raises(FormatError, match="does not hold"):
            load_embeddings(p)

    @pytest.mark.parametrize("flags", [0x0002, 0xFFFF])
    def test_undefined_flag_bits_rejected(self, tmp_path, flags):
        # only bit 0 (packed bits) is defined; the payload is sized to bit 0,
        # so the file would load if the other bits were ignored
        M = 8
        per_vec = (M + 7) // 8 if flags & 1 else 8 * M
        p = tmp_path / "flags.uemb"
        p.write_bytes(struct.pack("<4sHHIQH", b"UEMB", 1, flags, M, 1, 0) + bytes(per_vec))
        with pytest.raises(FormatError, match="flag bits"):
            load_embeddings(p)

    def test_flipped_payload_bit_still_loads(self, tmp_path):
        op = small_op(M=16, N=8)
        p = tmp_path / "f.uemb"
        save_embeddings(p, embed_batch(op, np.zeros((2, 8))))
        data = bytearray(p.read_bytes())
        data[-1] ^= 0x1
        p.write_bytes(bytes(data))
        assert len(load_embeddings(p)) == 2

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        flags=st.integers(0, 0xFFFF),
        M=st.integers(0, 40),
        count=st.integers(0, 6),
        mid=st.binary(max_size=12),
        edits=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)), max_size=3),
        extra=st.just(b"") | st.binary(max_size=9),
    )
    def test_any_bytes_load_or_raise_format_error(self, tmp_path, data, flags, M, count,
                                                  mid, edits, extra):
        # a well-formed file with any bytes overwritten, cut or appended:
        # it either loads or raises FormatError
        per_vec = (M + 7) // 8 if flags & 1 else 8 * M
        payload = data.draw(st.binary(min_size=count * per_vec, max_size=count * per_vec))
        raw = bytearray(struct.pack("<4sHHIQH", b"UEMB", 1, flags, M, count, len(mid))
                        + mid + payload)
        for pos, byte in edits:
            raw[pos % len(raw)] = byte
        cut = data.draw(st.none() | st.integers(0, len(raw)))
        p = tmp_path / "fuzz.uemb"
        p.write_bytes(bytes(raw[:cut]) + extra)
        try:
            out = load_embeddings(p)
        except FormatError:
            return
        M, count = struct.unpack_from("<IQ", raw, 8)
        assert len(out) == count
        assert all(v.values.shape == (M,) and v.values.dtype == np.float64 for v in out)

    def test_mixed_operators_rejected(self, tmp_path):
        y1 = embed(small_op(seed=1), np.zeros(16))
        y2 = embed(small_op(seed=2), np.zeros(16))
        with pytest.raises(ValueError):
            save_embeddings(tmp_path / "x.uemb", [y1, y2])

    def test_csv_export(self, tmp_path):
        op = small_op(M=4, N=16)
        ys = embed_batch(op, np.zeros((2, 16)))
        p = tmp_path / "e.csv"
        export_csv(p, ys)
        lines = p.read_text().splitlines()
        assert lines[0] == "id,v0,v1,v2,v3"
        assert len(lines) == 3

    @pytest.mark.parametrize("vectors, match", [
        ([([0.0, 1.0], "a"), ([0.0, 1.0, 2.0], "b")], "share M and map_id"),
        ([([0.0, 1.0], "a"), ([0.0, 1.0, 2.0], "a")], "share M and map_id"),
        ([([0.0, 1.0], "a"), ([2.0, 3.0], "b")], "share M and map_id"),
        ([([], "a")], "1-D array of at least one value"),
        ([([[0.0, 1.0], [2.0, 3.0]], "a")], "1-D array of at least one value"),
    ], ids=["ragged-mixed", "ragged", "mixed", "empty", "2-D"])
    def test_csv_export_refuses_what_save_refuses(self, tmp_path, vectors, match):
        # one rule for both writers: a ragged or mixed list would give rows
        # of another width than the header, or mix operators in one file
        ys = [EmbeddingVector(values=np.array(v, dtype=np.float64), map_id=mid)
              for v, mid in vectors]
        for write, name in ((export_csv, "e.csv"), (save_embeddings, "e.uemb")):
            with pytest.raises(ValueError, match=match):
                write(tmp_path / name, ys)
            assert not (tmp_path / name).exists()

