"""Drive the whole experiment pipeline through the command line.

gen-data -> train -> eval at toy scale, in a temp directory.
Every artifact is byte-stable: rerunning any command with the same config
and seed reproduces the files exactly, which the last section checks.
"""
import filecmp
import json
import subprocess
import sys
import tempfile
from pathlib import Path

work = Path(tempfile.mkdtemp(prefix="picontrol_demo_"))
print(f"working under {work}\n")

config = {
    "environment": "linear",
    "hyper": {"num_samples": 8, "horizon": 10, "recurrences": 4},
    "dataset": {"n_train": 8, "n_test": 4, "demo_horizon": 10},
    "training": {"epochs": 3, "batch_size": 4},
    "paths": {"dataset": str(work / "data")},
}
cfg_path = work / "config.json"
cfg_path.write_text(json.dumps(config, indent=1))

def cli(*args):
    cmd = [sys.executable, "-m", "picontrol.cli", *args,
           "--config", str(cfg_path), "--seed", "1"]
    print("$", "picontrol", *args, "--config config.json --seed 1")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for line in proc.stdout.strip().splitlines():
        print("  ", line)
    if proc.returncode != 0:
        print("  ", proc.stderr.strip())
        raise SystemExit(proc.returncode)
    print()

cli("gen-data", "--out", str(work / "data"))
cli("train", "--out", str(work / "run"))
config["paths"]["checkpoint"] = str(work / "run" / "checkpoint_best.json")
cfg_path.write_text(json.dumps(config, indent=1))
cli("eval", "--out", str(work / "eval"))

report = json.loads((work / "eval" / "eval_report.json").read_text())
print("eval_report.json mse:", report["mse"], "\n")

# ------------------------------------------------------------ determinism

cli("gen-data", "--out", str(work / "data_again"))
match, mismatch, errors = filecmp.cmpfiles(
    work / "data", work / "data_again",
    ["train_data.csv", "test_data.csv", "manifest.json"], shallow=False)
print(f"rerun comparison: {len(match)} files identical, "
      f"{len(mismatch) + len(errors)} differ")
