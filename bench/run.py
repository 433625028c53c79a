"""uemb benchmark: end-to-end metrics, output checks and a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {repro,embed,theory} \\
        --seed N --seconds S --trace {0,1}

The run times the ``uemb`` package under this checkout's ``src/`` and
refuses to start if ``import uemb`` would resolve anywhere else.  It
measures set-up time in fresh child processes, then runs passes of the
workload until S seconds have passed, checking every pass's outputs.
Times are CPU seconds of the process, which leave out the time a shared
VM's host takes the CPU away; wall-clock figures are reported beside
them.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics, taken from spans recorded around the calls into
each module, as totals per traced pass.  A human-readable report goes to
stdout first; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
Full results (and the spans of a traced run) are written under
``.bench_build/uemb/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build" / "uemb"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# embed and theory run OpenBLAS on one thread, so the process is single-
# threaded and its CPU time is the work's time.  On a 2-vCPU VM the
# default second thread did not shorten a pass (embed: median 0.52 s at
# one thread, 0.66 s at two, side by side); it spin-waited on the second
# CPU (0.33 CPU-s in a 0.57 s theory pass), and every threaded call
# waited for it, so with one busy process beside it a theory pass took
# 30% longer (0.83 s against 0.64 s at one thread).  repro keeps the
# default: the GEMM's summation order depends on the thread count, and
# its CSV digests are those of the default.
BLAS_THREADS = {"embed": "1", "theory": "1"}


def guard():
    """Import uemb from ROOT/src or exit 2: never time another copy."""
    src = (ROOT / "src").resolve()
    if not (src / "uemb" / "__init__.py").is_file():
        sys.exit("bench: %s holds no uemb package; run from a full checkout" % src)
    sys.path.insert(0, str(src))
    import uemb

    where = Path(uemb.__file__).resolve()
    if src not in where.parents:
        sys.exit("bench: uemb resolves to %s, not under %s" % (where, src))
    return uemb


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("repro", "embed", "theory"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args, workdir):
    """Set-up of fresh interpreters: (median CPU s, CPU s each, wall s each).

    A probe's CPU time runs from its process start to its finished set-up.
    """
    times, walls = [], []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / ("probe-%d" % k)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        word, _, cpu = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %r)" % proc.returncode)
        times.append(float(cpu))
        walls.append(t1 - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times), times, walls


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, workdir, uemb_threads):
    import checks
    import machine
    import spans
    import workloads

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    setup_s, setup_all, setup_walls = measure_setup(args, workdir)
    make = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        wl = make(ROOT, args.seed, workdir)
    else:
        # a traced run traces its set-up too (operator sampling in embed)
        with spans.installed(tracer), tracer.span("setup"):
            wl = make(ROOT, args.seed, workdir)
    plain, traced, gemm_ref = [], [], []
    walls = {"untraced": [], "traced": []}
    ops, traced_ops = [], []
    start = time.perf_counter()
    i = 0
    while True:
        # a traced run traces two of every three passes; the untraced
        # ones are the reference for the tracing overhead
        t0 = time.perf_counter()
        if tracer is not None and i % 3 != 0:
            n0 = len(tracer.spans)
            with spans.installed(tracer), tracer.span("pass"):
                p = wl.work(i, tracer.span)
            walls["traced"].append(time.perf_counter() - t0)
            gemm_ref.append(sum(e - s for n, s, e, _, _ in tracer.spans[n0:]
                                if n == "embedder.gemm_ref"))
            traced.append(p)
            result = wl.check(p)
            traced_ops += result
        else:
            p = wl.work(i, lambda name: contextlib.nullcontext())
            walls["untraced"].append(time.perf_counter() - t0)
            plain.append(p)
            result = wl.check(p)
        p.payload = None  # the outputs are checked; keep memory flat
        ops += result
        i += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            break

    failed = [(label, f) for label, f in ops if f]
    correct = all(checks.only_known(f) for _, f in failed)
    named = {
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(p.cpu for p in plain), "s"),
        "ops_per_s": (wl.ops_per_s(plain), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "failed_frac": (len(failed) / len(ops), "ratio"),
        "wall_s": (statistics.median(walls["untraced"]), "s"),
        "setup_wall_s": (statistics.median(setup_walls), "s"),
    }
    named.update(wl.named_metrics(plain))

    layers = None
    if tracer is not None:
        cfgs = [c.stem for c in workloads.shipped_configs(ROOT)]
        layers = spans.layer_metrics(tracer.spans, cfgs)
        t_cpu = statistics.median(p.cpu - g for p, g in zip(traced, gemm_ref))
        u_cpu = statistics.median(p.cpu for p in plain)
        layers["trace.overhead_frac"] = (t_cpu / u_cpu - 1.0, "ratio")
        # failed theory points per traced pass, like the other per-layer totals
        layers["theory.check_failures"] = (
            sum(1 for _, f in traced_ops if f) / len(traced)
            if args.workload == "theory" else 0.0, "count/pass")
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    table = layers if layers is not None else named
    metrics = {}
    for name, unit in wanted:
        value, got_unit = table[name]
        if got_unit != unit:
            raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                               % (name, got_unit, unit))
        metrics[name] = {"value": value, "unit": unit}

    prov = machine.provenance(ROOT, uemb_threads)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_cpu_s": {"untraced": [p.cpu for p in plain],
                       "traced": [p.cpu for p in traced]},
        "pass_wall_s": walls,
        "setup_probes_cpu_s": setup_all,
        "setup_probes_wall_s": setup_walls,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_layer": None if layers is None else
        {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "attempted": len(ops), "failed": len(failed), "correct": correct,
        "failures": [{"op": label, "why": f, "known_defect": checks.only_known(f)}
                     for label, f in failed[:200]],
    }
    _print_report(report, wl, layers)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    with open(OUT_DIR / (stem + ".json"), "w", encoding="utf-8") as f:
        if tracer is not None:
            report["spans"] = tracer.to_json()
        json.dump(report, f)
    return {"correct": correct, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def _fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def _print_report(report, wl, layers):
    print("uemb benchmark: workload=%s seed=%d seconds=%g trace=%d  (%d untraced, %d traced passes)"
          % (report["workload"], report["seed"], report["seconds"], report["trace"],
             report["passes"]["untraced"], report["passes"]["traced"]))
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    print("end-to-end (untraced passes; rates and times are medians over passes;"
          " seconds are CPU seconds except in wall_s and setup_wall_s):")
    for k, m in report["end_to_end"].items():
        print("  %-36s %14s %s" % (k, _fmt(m["value"]), m["unit"]))
    if layers is not None:
        print("per-layer (traced passes only; *_computed from array shapes):")
        for k, (v, u) in layers.items():
            print("  %-44s %14s %s" % (k, _fmt(v), u))
    print("checks: %d %s attempted, %d failed%s" % (
        report["attempted"], wl.op_name, report["failed"],
        " (all known defects)" if report["failed"] and report["correct"] else ""))
    for f in report["failures"][:10]:
        print("  FAILED %s: %s%s" % (f["op"], "; ".join(f["why"]),
                                     " [known defect]" if f["known_defect"] else ""))


def main(argv=None):
    args = _parse_args(argv)
    # set before numpy loads; the set-up probes inherit it
    if args.workload in BLAS_THREADS:
        os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS[args.workload]
    guard()
    sys.path.insert(0, str(BENCH_DIR))
    # workloads run single-process, with no uemb worker threads
    uemb_threads = os.environ.pop("UEMB_THREADS", None)
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(args.workdir))
        print("ready %r" % time.process_time(), flush=True)
        return 0
    workdir = OUT_DIR / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir, uemb_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
