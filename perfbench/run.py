"""Benchmark of picontrol's planning, training and CLI paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the package under ``src/`` of
the checkout this file sits in, for about S seconds of whole rounds, then
checks the outputs against ``reference`` and prints, as the last line of
standard output, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` wraps the package's layers (see ``tracing``) and reports per-layer
metrics instead.  ``--workload all`` runs every workload, each in its own
process, and prints a summary.  Artifacts, provenance and spans go to
``perfbench/out/<workload>/``.
"""

import argparse
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread per process, fixed before numpy loads: the workloads are
# dominated by small matrix products, and a fixed thread count keeps runs
# comparable on a shared machine.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")
SETUP_REPEATS = 5


def metric_units(kind):
    """(name, unit) of each metric of one kind ("end_to_end" or
    "per_layer"), in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (used to "
                             "time set-up in a fresh interpreter)")
    return parser.parse_args(argv)


def provenance(args, digest, rounds):
    import scipy
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "rounds": rounds, "outputs_sha256": digest}


def time_setup(args):
    """Median wall time of SETUP_REPEATS fresh interpreters that import the
    package and build this workload's inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(argv, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_rounds(workload, inputs, seconds, tracer):
    """Whole rounds until the next one would overrun ``seconds``.

    Without a tracer every round is measured plain.  With one, rounds
    alternate plain and traced (at least one of each), so the traced run
    also measures its own overhead.
    """
    rounds = []   # (round, seconds, traced)
    started = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round_id = len(rounds)
            tracer.install()
        start = perf_counter()
        try:
            if traced:
                with tracer.span("round"):
                    rnd = workload.run_round(inputs)
            else:
                rnd = workload.run_round(inputs)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((rnd, perf_counter() - start, traced))
        elapsed = perf_counter() - started
        typical = statistics.median(t for _, t, _ in rounds)
        enough = tracer is None or len(rounds) >= 2
        if enough and elapsed + typical > seconds:
            return rounds


def layer_metrics(tracer, rounds):
    """Per-layer metrics of a traced run, named as in BENCHMARK.json."""
    traced = [t for _, t, flag in rounds if flag]
    plain = [t for _, t, flag in rounds if not flag]
    totals = tracer.layer_totals(len(traced))
    iterations = totals.get("experts.ilqr_iterations", 0.0)
    totals["experts.ilqr_accept_ratio"] = (
        totals.get("experts.ilqr_accepted", 0.0) / iterations
        if iterations else 0.0)
    totals["controller.tape_bytes"] = tracer.tape_bytes
    for command in ("gen-data", "train", "eval"):
        totals[f"cli.{command}.s"] = _inclusive(tracer, f"cli.{command}",
                                                len(traced))
    # share of one traced set-up plus one traced round spent inside layers
    # rather than in the benchmark's own code between layer calls
    unit_s = (_inclusive(tracer, "setup", 1)
              + _inclusive(tracer, "round", len(traced)))
    glue = (tracer.self_s.get(("setup", "setup"), 0.0)
            + tracer.self_s[("round", "round")] / len(traced))
    totals["trace.overhead_s"] = (statistics.mean(traced)
                                  - statistics.mean(plain))
    totals["trace.coverage"] = 1.0 - glue / unit_s
    return {name: {"value": float(totals.get(name, 0.0)), "unit": unit}
            for name, unit in metric_units("per_layer")}


def _inclusive(tracer, name, rounds):
    """Mean inclusive seconds per round of one span name."""
    if name not in tracer.names:
        return 0.0
    index = tracer.names.index(name)
    ids = np.frombuffer(tracer.span_name, dtype=np.int32)
    start = np.frombuffer(tracer.span_start, dtype=np.float64)
    end = np.frombuffer(tracer.span_end, dtype=np.float64)
    return float((end - start)[ids == index].sum()) / rounds


def check_outputs(workload, inputs, rounds):
    """Named pass/fail verdicts on a run's outputs.  A first round with a
    failed operation leaves outputs to check missing, so the run cannot be
    correct: ``outputs_checked`` fails."""
    from workloads import digest

    first = rounds[0][0]
    want = digest(first.outputs)
    checks = {"rounds_reproduce_first": all(
        digest(r.outputs) == want for r, _, _ in rounds[1:])}
    checks["outputs_checked"] = not first.failed
    if not first.failed:
        outputs = dict(first.outputs)
        outputs.update(workload.probe(inputs))
        checks.update(workload.check(inputs, outputs))
    return checks


def run_one(args):
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, args.workload)
    if args.setup_only:
        workload.setup(args.seed, os.path.join(workdir, "setup-probe"))
        return 0
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setup_s = time_setup(args)

    tracer = None
    if args.trace:
        import picontrol
        import tracing
        tracer = tracing.Tracer(picontrol)
        tracer.phase = "setup"
        tracer.install()
        try:
            with tracer.span("setup"):
                inputs = workload.setup(args.seed, workdir)
        finally:
            tracer.uninstall()
        tracer.phase = "round"
    else:
        inputs = workload.setup(args.seed, workdir)

    rounds = run_rounds(workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.attempted for r, _, _ in rounds)
    failed = sum(r.failed for r, _, _ in rounds)
    for r, _, _ in rounds:
        for error in r.errors:
            print(f"operation failed: {error}", file=sys.stderr)
    digest = workloads.digest(rounds[0][0].outputs)
    checks = check_outputs(workload, inputs, rounds)
    correct = all(checks.values())

    prov = provenance(args, digest, len(rounds))
    with open(os.path.join(workdir, "provenance.json"), "w") as fh:
        json.dump(prov, fh, indent=1, sort_keys=True)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, passed in checks.items():
        print(f"check {name}: {'pass' if passed else 'FAIL'}")

    if tracer is not None:
        metrics = layer_metrics(tracer, rounds)
        tracer.write(os.path.join(workdir, "spans.npz"))
        print(f"trace: {tracer.span_count} spans in "
              f"{sum(1 for *_, t in rounds if t)} traced rounds")
    else:
        items = sum(r.items for r, _, _ in rounds)
        items_s = sum(r.items_s for r, _, _ in rounds)
        # rounds are identical work, so the mean round time is the
        # estimator least moved by the machine's slow and fast phases
        values = {"setup_s": setup_s,
                  "run_s": statistics.mean(t for _, t, _ in rounds),
                  "peak_rss_mb": peak_rss_mb,
                  "items_per_s": items / items_s if items_s else 0.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end")}
        report_figures(rounds)
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_figures(rounds):
    """Print each workload's own figures (plain rounds only): the median,
    and the 95th percentile where there are at least twenty samples."""
    merged = {}
    for rnd, _, traced in rounds:
        for name, values in rnd.figures.items():
            if not traced:
                merged.setdefault(name, []).extend(values)
    for name, values in merged.items():
        if not values:
            continue
        line = f"figure {name} p50 {statistics.median(values):.6g}"
        if len(values) >= 20:
            line += f" p95 {statistics.quantiles(values, n=20)[-1]:.6g}"
        print(f"{line} (n={len(values)})")


def run_all(args):
    """Every workload in its own process; one summary line each."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        shown = ", ".join(f"{key} {m['value']:.4g} {m['unit']}"
                          for key, m in res["metrics"].items())
        print(f"{name}: correct {res['correct']}, attempted "
              f"{res['attempted']}, failed {res['failed']}; {shown}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "picontrol", "__init__.py")):
        print(f"error: no picontrol package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
