"""Run a workload once per seed and summarise the end-to-end metrics.

    python3 perfbench/spread.py --workload swingup_pi --seeds 0-9 --seconds 35

For each metric it prints the median over the runs and the spread: the
distance between the first and third quartiles (``statistics.quantiles``,
n=4) as a share of the median.  It also prints the share of failed
operations.  The runs are sequential, each its own process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", default="35")
    args = parser.parse_args(argv)
    values, attempted, failed = {}, 0, 0
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        shown = " ".join(f"{k}={m['value']:.4g}"
                         for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {shown}",
              flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for key, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / median:.3f}"
        else:
            spread = "n/a"
        print(f"{key}: median {median:.6g}, spread {spread}")
    print(f"failed share: {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
