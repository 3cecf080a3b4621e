"""Decode benchmark for prmcodes: one command, one workload per invocation.

    python3 perfbench/run.py --workload solid-beyond --seed 1 --seconds 50 --trace 0

Runs WORKERS fresh single-threaded processes one after another (worker.py).
Each times its own set-up, then decodes the workload's trial pool in a closed
loop with one caller for seconds/WORKERS, then checks every output.  This
process only aggregates: with --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer metrics of BENCHMARK.json, both as the last
stdout line, and exits 1 when any output breaks the decoder's contract.
Every time is scaled to a nominal host speed (see speed()).  Workloads are
defined in workloads.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3           # fresh processes per run; set-up is their median
TIME_LIMIT_S = 170    # every run ends within this, set-up included
REF_NOMINAL_S = 0.003   # worker.reference_loop time at the nominal host speed
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workers(args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_ENV})
    results = []
    started = time.monotonic()
    for index in range(WORKERS):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / WORKERS),
               "--trace", str(args.trace), "--index", str(index)]
        if args.sabotage:
            cmd.append("--sabotage")
        left = TIME_LIMIT_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: worker {index} exceeded {TIME_LIMIT_S} s")
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: worker {index} exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def speed(r, key="ref_s"):
    """Factor that scales worker r's times to the nominal host speed.

    The host's speed drifts by up to 1.6x over minutes, so raw times of the
    same code spread past any useful bound between runs.  Each worker times
    worker.reference_loop, which does not call the library, between its
    decodes (ref_s) and around its set-up (setup_ref_s); a time t becomes
    t * REF_NOMINAL_S / ref, the time on a host where that loop takes
    REF_NOMINAL_S.  A change to the library moves the scaled times as it
    moves the raw ones.
    """
    return REF_NOMINAL_S / r[key]


def trial_latencies(results):
    """Mean latency of each pool trial over all its timed calls in the run.

    The host's speed swings by up to 1.6x for seconds at a time, and a
    trial's calls are spread over the whole run, so averaging per trial
    before taking quantiles over trials keeps p50 and p90 from jumping
    between a fast and a slow copy of a narrow latency distribution.
    """
    pool = results[0]["pool"]
    total, count = np.zeros(pool), np.zeros(pool)
    for r in results:
        np.add.at(total, r["latency_trials"], np.asarray(r["latencies"]) * speed(r))
        np.add.at(count, r["latency_trials"], 1)
    return total[count > 0] / count[count > 0]


def end_to_end(results):
    per_trial = trial_latencies(results)
    return {
        "setup_s": statistics.median(r["setup_s"] * speed(r, "setup_ref_s") for r in results),
        "decodes_per_s": (sum(r["timed_calls"] for r in results)
                          / sum(r["wall_s"] * speed(r) for r in results)),
        "decode_p50_ms": float(np.percentile(per_trial, 50) * 1000),
        "decode_p90_ms": float(np.percentile(per_trial, 90) * 1000),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "decoded_frac": results[0]["decoded"] / results[0]["pool"],
    }


def per_layer(results, spec):
    decodes = sum(r["traced_calls"] for r in results)
    spans = {}
    for r in results:
        for name, (calls, self_s) in r["layers"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s * speed(r)
    out = {}
    for layer, names in spec["layers"].items():
        out[f"{layer}.self_ms"] = sum(spans.get(n, [0, 0.0])[1] for n in names) * 1000 / decodes
    for metric, names in spec["call_counts"].items():
        out[metric] = sum(spans.get(n, [0, 0.0])[0] for n in names) / decodes
    ev = {k: sum(r["events"][k] for r in results) for k in results[0]["events"]}
    out["decoders.affine.calls"] = ev["affine"] / decodes
    out["decoders.affine.ok_ratio"] = ev["affine_ok"] / max(ev["affine"], 1)
    out["decoders.second_branch_frac"] = ev["accept_second"] / max(ev["accept"], 1)
    calls, elems, scalar = (sum(r["gf_ops"][i] for r in results) for i in range(3))
    out["gf.ops.calls"] = calls / decodes
    out["gf.ops.elems"] = elems / decodes
    out["gf.scalar_frac"] = scalar / max(calls, 1)
    for module in ("gf", "geometry", "poly", "codes", "linalg", "decoders"):
        out[f"{module}.setup_ms"] = statistics.median(
            sum(s for name, (_, s) in r["setup_layers"].items()
                if name.startswith(module + ".")) * 1000 * speed(r, "setup_ref_s")
            for r in results)
    traced = [x for r in results for x in r["traced_latencies"]]
    untraced = [x for r in results for x in r["latencies"]]
    out["trace.overhead_frac"] = float(np.median(traced) / np.median(untraced) - 1)
    return out


def problems(results, trace):
    """Reasons the run's outputs are not correct; empty when they are."""
    found = []
    for i, r in enumerate(results):
        if r["failed"]:
            found.append(f"worker {i}: {r['failed']} of {r['attempted']} decodes broke the contract")
        if r["decoded"] != results[0]["decoded"]:
            found.append(f"worker {i}: decoded {r['decoded']} trials, worker 0 decoded {results[0]['decoded']}")
        if trace and r["coverage_missing"]:
            found.append(f"worker {i}: first seen in the timed phase: {r['coverage_missing']}")
    cc = results[0]["crosscheck"]
    if cc["benchmark"] != cc["run_simulation"]:
        found.append(f"tallies (success, failure, wrong) of the first {cc['trials']} trials: "
                     f"benchmark {cc['benchmark']} != run_simulation {cc['run_simulation']}")
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sabotage", action="store_true",
                    help="self-test only: engines return wrong codewords")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        ap.error(f"unknown workload {args.workload!r}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    results = run_workers(args)
    values = per_layer(results, spec) if args.trace else end_to_end(results)
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"perfbench: computed {sorted(values)} but BENCHMARK.json "
                 f"declares {sorted(m['name'] for m in declared)}")
    found = problems(results, args.trace)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    samples = sum(len(r["latencies"]) for r in results)
    trials = len(trial_latencies(results))
    raw_rate = sum(r["timed_calls"] for r in results) / sum(r["wall_s"] for r in results)
    print(f"{args.workload} seed={args.seed} workers={WORKERS} timed_calls={samples} "
          f"timed_trials={trials} raw_decodes_per_s={raw_rate:.2f} "
          f"host_speed={statistics.median(speed(r) for r in results):.3f}"
          + (f" traced_samples={sum(r['traced_calls'] for r in results)}" if args.trace else "")
          + f" error_frac={failed / attempted:.6f} ({failed}/{attempted})")
    for p in found:
        print("FAIL:", p)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not found, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
