"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs every workload of workloads.json at --seconds 1 with --sabotage,
which registers affine engines that return a wrong (shifted) codeword, once
untraced and once traced.  Passes when each run exits 1 with error_frac > 0, prints every
metric BENCHMARK.json declares for its mode, and still agrees with
cli.run_simulation on the first trials (the cross-check uses the same
sabotaged engines, so only the contract check may fail).
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, declared):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--sabotage"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"no output; stderr: {proc.stderr.strip()[-500:]}"]
    res = json.loads(lines[-1])
    errors = []
    if proc.returncode != 1:
        errors.append(f"exit code {proc.returncode}, expected 1")
    if res["correct"] or not res["failed"] > 0:
        errors.append(f"error_frac = {res['failed']}/{res['attempted']}, expected > 0")
    names = {m["name"] for m in declared}
    if set(res["metrics"]) != names:
        errors.append(f"metrics {sorted(res['metrics'])} != declared {sorted(names)}")
    if any("tallies" in line for line in lines):
        errors.append("run_simulation cross-check disagreed")
    return errors


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    ok = True
    for name in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errors = check(name, trace, bench[key])
            ok &= not errors
            print(f"{name} trace={trace}: {'ok' if not errors else '; '.join(errors)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
