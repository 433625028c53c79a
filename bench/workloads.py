"""The three benchmark workloads: repro, embed and theory.

Each workload generates its inputs from the benchmark seed in its
constructor (the set-up that ``setup_s`` times), then runs passes of a
fixed amount of work.  ``work(i, span)`` runs pass ``i`` and returns a
``Pass`` with the CPU time of the timed operations only; ``check(p)``
runs the output checks of that pass afterwards, untimed and untraced,
and returns one ``(label, failures)`` pair per operation (see checks.py
for the failures that are documented known defects).  ``span(name)`` is a context
manager: the tracer's span in a traced pass, a no-op otherwise.

Why these three:
  repro   every shipped config through the CLI entry point: the only
          workload that runs the runners' glue (per-pair distances,
          quant-sim projecting one X twice, the retrieval runner's
          Hamming broadcast) and checks CSV bytes.
  embed   the library's bulk path: projection GEMM and the map, plus
          the UEMB container, which no shipped config touches.
  theory  the series engine on finite spectra (certified numeric spectra
          and the mixture): certification, g and K from tiny d to past
          saturation, D0 and invert, which no shipped config calls.

The analytic-series maps (square, sawtooth) are left out of theory: at
small d their series runs to its harmonic cap, and their four curves
take about 12 s, twenty times the rest of a pass, so a 30 s run would
hold two passes.  A standalone retrieval workload is left out too: its
0.8 GB page-faulting broadcast spreads its runs by 14-26% (IQR/median).
Both are timed inside repro.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uemb import embedder
from uemb.expcli.config import DEFAULT_MIXTURE, parse_map
from uemb.maps import make_multibit, make_square_wave
from uemb.randproj import ProjectionSpec, RandomState
from uemb.theory import SATURATION_FRACTION, DistanceMapModel

import checks

# the module, which uemb.expcli shadows with its main() function
cli = importlib.import_module("uemb.expcli.main")

BENCH_DIR = Path(__file__).resolve().parent
SHA256_FILE = BENCH_DIR / "repro_sha256.json"

# CPU seconds of the process (all its threads; see run.BLAS_THREADS).
# On a shared VM the host takes the CPU away for a quarter of the time in
# some minutes and hardly at all in others; in such minutes a fixed
# pure-Python loop took 0.54-1.64 s of wall-clock time and 0.53-0.64 s
# of CPU time.
clock = time.process_time


@dataclass
class Pass:
    cpu: float                                 # CPU seconds of timed operations
    work: dict = field(default_factory=dict)   # amounts and phase seconds
    payload: object = None                     # outputs for check()


def _rate(passes, amount, seconds):
    """Median over passes of amount / seconds."""
    return statistics.median(p.work[amount] / p.work[seconds] for p in passes)


def run_cli(argv):
    """uemb.expcli.main.main with its stdout/stderr captured: (code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue().strip()


class Workload:
    name = ""
    # operations counted per pass, for the human-readable report
    op_name = ""

    def __init__(self, root, seed, workdir):
        self.seed = int(seed) % (1 << 63)  # numpy generators take no negative seed
        self.workdir = Path(workdir)

    def work(self, i, span):
        raise NotImplementedError

    def check(self, p):
        raise NotImplementedError

    def ops_per_s(self, passes):
        """The workload's headline rate (the ops_per_s metric)."""
        raise NotImplementedError

    def named_metrics(self, passes):
        """Workload-specific end-to-end metrics for the report: name -> (value, unit)."""
        return {}


# ---------------------------------------------------------------------------
# repro

SUBCOMMANDS = {
    "design_sim": "design-sim",
    "quantization_sim": "quant-sim",
    "universal_scatter": "scatter",
    "retrieval": "retrieve",
    "bounds_sweep": "bounds",
    "map_eval": "map-eval",
}
# kinds whose outputs do not depend on the seed: hashes hold at any seed
SEEDLESS_KINDS = ("bounds_sweep", "map_eval")


def config_kind(path):
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, sep, value = line.partition("=")
            if sep and key.strip() == "kind":
                return value.strip()
    raise ValueError("%s has no kind" % path)


def shipped_configs(root):
    return sorted((Path(root) / "configs").glob("*.cfg"))


def run_shipped_config(path, out_dir, seed=None):
    """Run one config through the CLI; (exit code, stderr)."""
    argv = [SUBCOMMANDS[config_kind(path)], "--config", str(path), "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return run_cli(argv)


def output_files(out_dir):
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return {}
    return {f.name: f for f in sorted(out_dir.iterdir()) if f.is_file()}


class Repro(Workload):
    """The seven shipped configs in sequence through uemb.expcli.main.main.

    Pass 0 runs them at their shipped seeds and checks every CSV's sha256
    against ``repro_sha256.json``; later passes override the seed with one
    drawn from the benchmark seed, where only the seedless kinds have
    fixed bytes.
    """

    name = "repro"
    op_name = "config runs"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.configs = shipped_configs(root)
        self.kinds = {p.name: config_kind(p) for p in self.configs}
        with open(SHA256_FILE, encoding="utf-8") as f:
            self.expected = json.load(f)
        rng = np.random.default_rng(self.seed)
        self.pass_seeds = [int(s) for s in rng.integers(1, 2 ** 31, size=64)]

    def work(self, i, span):
        seed = None if i == 0 else self.pass_seeds[i % len(self.pass_seeds)]
        base = self.workdir / ("repro-%d" % i)
        runs, times = [], {}
        for path in self.configs:
            out = base / path.stem
            t0 = clock()
            with span("expcli.cfg." + path.stem):
                code, err = run_shipped_config(path, out, seed)
            times[path.stem] = clock() - t0
            runs.append((path, out, code, err))
        cpu = sum(times.values())
        work = {"configs": len(runs), "cpu": cpu}
        work.update({"cfg." + k: v for k, v in times.items()})
        return Pass(cpu, work, (seed, base, runs))

    def check(self, p):
        seed, base, runs = p.payload
        ops = []
        for path, out, code, err in runs:
            kind = self.kinds[path.name]
            expected = None
            if seed is None or kind in SEEDLESS_KINDS:
                expected = self.expected.get(path.name, {})
            quant = out / "quant_summary.csv" if kind == "quantization_sim" and code == 0 else None
            fails = checks.repro_failures(code, output_files(out), expected, quant)
            if err:
                fails.append(err)
            ops.append((path.stem, fails))
        shutil.rmtree(base, ignore_errors=True)
        return ops

    def ops_per_s(self, passes):
        return _rate(passes, "configs", "cpu")

    def named_metrics(self, passes):
        out = {}
        for path in self.configs:
            key = "cfg." + path.stem
            out["config.%s_s" % path.stem] = (statistics.median(p.work[key] for p in passes), "s")
        return out


# ---------------------------------------------------------------------------
# embed


class Embed(Workload):
    """embed_batch, save_embeddings and load_embeddings at N=1000 -> M=2000.

    Two Gaussian operators, ``square`` (binary, stored packed) and
    ``multibit:B=4`` (stored as float64), embed batches of 1000 rows: 16 MB
    of float64 output per batch against a 16 MB A.  Inputs cycle through a
    pool of POOL batches generated at set-up; each pool batch is embedded
    in two uneven halves once per operator, and every later embedding of
    it is compared with that split result.
    """

    name = "embed"
    op_name = "batches"
    N, M, ROWS, POOL, SCALE = 1000, 2000, 1000, 4, 0.2
    # the split point of the split-batch check (deliberately uneven)
    SPLIT = 389

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        rng = np.random.default_rng(self.seed)
        self.pool = [rng.standard_normal((self.ROWS, self.N)) for _ in range(self.POOL)]
        rs = RandomState(self.seed)
        spec = ProjectionSpec("gaussian", self.SCALE)
        self.ops = [
            embedder.build_operator(spec, make_square_wave(), self.M, self.N, rs.child("square")),
            embedder.build_operator(spec, make_multibit(4), self.M, self.N, rs.child("multibit")),
        ]
        # digest of each pool batch embedded in two halves, per operator
        self.split_digest = {}

    def work(self, i, span):
        X = self.pool[i % self.POOL]
        embed_s = store_s = 0.0
        nbytes = 0
        results = []
        for op in self.ops:
            path = self.workdir / ("embed-%s.uemb" % op.map.kind)
            t0 = clock()
            Y = embedder.embed_batch(op, X)
            t1 = clock()
            embedder.save_embeddings(path, Y)
            L = embedder.load_embeddings(path)
            t2 = clock()
            embed_s += t1 - t0
            store_s += t2 - t1
            nbytes += 2 * os.path.getsize(path)
            results.append((op, Y, L))
            os.remove(path)
        work = {"batch": i % self.POOL, "rows": len(self.ops) * self.ROWS, "embed_s": embed_s,
                "store_bytes": nbytes, "store_s": store_s}
        return Pass(embed_s + store_s, work, (X, results))

    def check(self, p):
        X, results = p.payload
        ops = []
        for op, Y, L in results:
            key = (op.map.kind, p.work["batch"])
            if key not in self.split_digest:
                split = embedder.embed_batch(op, X[:self.SPLIT]) + \
                    embedder.embed_batch(op, X[self.SPLIT:])
                self.split_digest[key] = checks.digest_vectors(split)
            ops.append((op.map.kind,
                        checks.embed_failures(op, Y, L, self.split_digest[key])))
        return ops

    def ops_per_s(self, passes):
        return _rate(passes, "rows", "embed_s")

    def named_metrics(self, passes):
        return {
            "embed_rows_per_s": (_rate(passes, "rows", "embed_s"), "rows/s"),
            "store_mb_per_s": (_rate(passes, "store_bytes", "store_s") / 1e6, "MB/s"),
        }


# ---------------------------------------------------------------------------
# theory


class Theory(Workload):
    """Fresh finite-spectrum DistanceMapModels on a log grid of distances.

    Three maps with finite spectra (multibit:B=4 and the 3-bit quantized
    design_sim mixture, whose spectra are certified numerically by
    power_coeffs, and the mixture itself) under both families, each built
    from a freshly parsed map so the spectrum cache is cold, as in every
    CLI run.  Each model evaluates g and K at POINTS log-spaced projected
    distances scale * d from 1e-9 to 1e2 (past saturation), then D0 and
    invert(g) at every INVERT_EVERY-th point.  sigma and Delta (scale =
    sigma / 2 Delta, the binary universal parameterization) come from the
    seed.  The grid is fixed in scale * d because the engine's cost
    depends on nothing else, so every seed does the same amount of work.
    The grid's tiny-d end keeps the known tiny-d failures counted.
    """

    name = "theory"
    op_name = "(model, d) points"
    SELECTORS = ("multibit:B=4", DEFAULT_MIXTURE, "quantized:%s:B=3" % DEFAULT_MIXTURE)
    FAMILIES = ("gaussian", "cauchy")
    POINTS, INVERT_EVERY = 200, 10
    LOG_U = (-9.0, 2.0)

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        rng = np.random.default_rng(self.seed)
        self.sigma, self.delta = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
        self.scale = self.sigma / (2.0 * self.delta)
        u = np.logspace(*self.LOG_U, self.POINTS)
        self.ds = [float(d) for d in u / self.scale]
        self.inv_idx = list(range(0, self.POINTS, self.INVERT_EVERY))

    def work(self, i, span):
        t = {"init_s": 0.0, "curve_s": 0.0, "d0_s": 0.0, "invert_s": 0.0}
        models = []
        for family in self.FAMILIES:
            for sel in self.SELECTORS:
                t0 = clock()
                model = DistanceMapModel(parse_map(sel), ProjectionSpec(family, self.scale))
                t1 = clock()
                g = model.curve(self.ds)
                K = [model.kernel(d) for d in self.ds]
                t2 = clock()
                model.D0  # bisection for the saturation radius, cached on the model
                t3 = clock()
                inv = {j: model.invert(float(g[j])) for j in self.inv_idx}
                t4 = clock()
                t["init_s"] += t1 - t0
                t["curve_s"] += t2 - t1
                t["d0_s"] += t3 - t2
                t["invert_s"] += t4 - t3
                models.append((family, sel, model, g, K, inv))
        cpu = sum(t.values())
        n = len(models)
        t.update({"values": 2 * n * self.POINTS, "inversions": n * len(self.inv_idx)})
        return Pass(cpu, t, models)

    def check(self, p):
        ops = []
        for family, sel, model, g, K, inv in p.payload:
            kind = model.map.kind
            for j, d in enumerate(self.ds):
                point = {
                    "kind": kind, "family": family, "sigma": self.sigma,
                    "delta": self.delta, "d": d, "g": float(g[j]), "K": K[j],
                    "total_power": model.total_power, "tail_bound": model.tail_bound,
                }
                if j in inv:
                    point["inverse"] = inv[j]
                    point["g_sat"] = SATURATION_FRACTION * model.g_inf
                ops.append(("%s/%s d=%.3g" % (family, sel.split(":")[0], d),
                            checks.theory_point_failures(point)))
        return ops

    def ops_per_s(self, passes):
        return _rate(passes, "values", "curve_s")

    def named_metrics(self, passes):
        return {
            "curve_points_per_s": (_rate(passes, "values", "curve_s"), "1/s"),
            "inversions_per_s": (_rate(passes, "inversions", "invert_s"), "1/s"),
        }


WORKLOADS = {w.name: w for w in (Repro, Embed, Theory)}
