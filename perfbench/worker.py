"""One fresh benchmark process: timed set-up, closed decode loop, output checks.

Started by run.py, never imported by it.  Prints one JSON object with the raw
measurements on its last stdout line; run.py aggregates the workers of a run.

    python3 perfbench/worker.py --workload plane-t0 --seed 1 --seconds 5 \
        --trace 0 --index 0 [--sabotage]
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLOCK_S = 0.5     # traced and untraced blocks alternate at this period, or
                  # faster, so that even a short run has two of each
REF_EVERY_S = 0.1 # decode time between two calls of reference_loop
REF_SETUP = 5     # reference_loop calls just before and just after set-up


def import_library():
    """Import prmcodes from the checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "prmcodes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no prmcodes sources under {src}")
    sys.path.insert(0, str(src))
    import prmcodes
    import prmcodes.cli
    if Path(prmcodes.__file__).resolve().parent != src / "prmcodes":
        sys.exit(f"perfbench: imported prmcodes from {prmcodes.__file__}")
    return prmcodes


def reference_loop():
    """Fixed interpreter and small-array numpy work that never calls prmcodes.

    The host's speed drifts by up to 1.6x over minutes, and the decoders
    slow down with it.  Timing this loop next to the decodes measures that
    drift, so run.py can scale every time to a nominal host speed; a change
    to the library leaves this loop's time alone.
    """
    table = {}
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i) % 1000003
        table[acc & 1023] = i
    a = np.arange(64, dtype=np.int64)
    for _ in range(300):
        a = (a * 7 + 3) % 257
    return acc + len(table) + int(a.sum())


def time_reference(times, calls=1):
    for _ in range(calls):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)


def make_trial(lib, gf, spec, params, seed, i, weight):
    """Trial i of `seed`, drawn exactly as cli.run_simulation draws it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
    msg = rng.integers(0, gf.q, size=params.k)
    c, _ = lib.codes.encode(spec, msg)
    e = gf.zeros(params.n)
    support = rng.choice(params.n, size=weight, replace=False)
    e[support] = rng.integers(1, gf.q, size=weight)
    return c, e, gf.add(c, e)


def recursion_plan(prm_weight, q, m, d):
    """Engine keys (m', d') and base keys the recursive decoder can visit.

    Mirrors the branch structure of decoders._decode_level; the traced run's
    coverage check fails if the library ever visits a key this misses.
    """
    engines, bases = [], []

    def level(m, d):
        if m == 0:
            return
        if prm_weight(q, m, d) <= 2:
            bases.append((m, d))
            return
        engines.append((m, d))
        if d > q - 1:
            level(m - 1, d - (q - 1))
        level(m - 1, d)
        engines.append((m, d - 1))

    level(m, d)
    return list(dict.fromkeys(engines)), list(dict.fromkeys(bases))


def sabotaged_decoders(lib):
    """Registry whose engines shift every decoded word by the all-ones codeword."""
    honest = lib.decoders.AffineDecoders()

    def shifted(spec, r):
        out = honest.decode(spec, r)
        if not out.ok:
            return out
        one = lib.poly.Poly.constant(spec.gf, out.witness.nvars, 1)
        return lib.decoders.DecodeResult.success(
            spec.gf.add(out.codeword, 1), out.witness + one)

    return lib.decoders.AffineDecoders(default=shifted)


def setup(lib, w, decoders):
    """Build every table the timed loop can use; returns (gf, seconds)."""
    q, m, d = w["q"], w["m"], w["d"]
    codes, dec = lib.codes, lib.decoders
    started = time.perf_counter()
    gf = lib.gf.GF.from_order(q)
    registry = decoders or dec.AffineDecoders()
    engines, bases = recursion_plan(codes.prm_weight, q, m, d)
    for mm, dd in engines:
        registry.decode(codes.CodeSpec(codes.RM, gf, mm, dd), gf.zeros(q ** mm))
    for mm, dd in bases:
        n_base = lib.geometry.num_projective_points(q, mm)
        codes.interpolate_family(gf, codes.PRM, mm, dd, gf.zeros(n_base))
    # two probe words: the zero codeword, and errors packed into the chart
    n = lib.geometry.num_projective_points(q, m)
    packed = gf.zeros(n)
    packed[:w["error_weight"]] = 1
    run = getattr(dec, w["decoder"])
    for r in (gf.zeros(n), packed):
        run(gf, m, d, r, decoders=decoders)
    return gf, time.perf_counter() - started


def count_events(events, into):
    for ev in events:
        kind = ev["event"]
        if kind == "affine":
            into["affine"] += 1
            into["affine_ok"] += bool(ev["ok"])
        elif kind == "accept":
            into["accept"] += 1
            into["accept_second"] += ev["part"] == "second"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--sabotage", action="store_true")
    args = ap.parse_args(argv)

    w = json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]
    lib = import_library()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(lib)
        tracer.install()
    decoders = sabotaged_decoders(lib) if args.sabotage else None

    setup_refs = []
    reference_loop()
    time_reference(setup_refs, REF_SETUP)
    gf, setup_s = setup(lib, w, decoders)
    time_reference(setup_refs, REF_SETUP)
    result = {"setup_s": setup_s, "setup_ref_s": statistics.fmean(setup_refs)}
    if tracer:
        setup_mark = tracer.mark()
        tracer.uninstall()
        result["setup_layers"], _ = tracer.totals((0, 0, 0, 0), setup_mark)

    q, m, d, weight = w["q"], w["m"], w["d"], w["error_weight"]
    spec = lib.codes.CodeSpec(lib.codes.PRM, gf, m, d)
    params = lib.codes.code_params(spec)
    robust = w["decoder"] == "decode_prm_robust"
    if weight > params.T or (not robust and weight != params.T0):
        sys.exit(f"perfbench: weight {weight} does not fit {w['decoder']} on {w['code']}")
    trials = [make_trial(lib, gf, spec, params, args.seed, i, weight)
              for i in range(w["pool"])]
    words = [r for _, _, r in trials]

    # --- timed phase: closed loop, one caller --------------------------------
    outs, idxs, lat, lat_trials, traced_lat, refs = [], [], [], [], [], []
    layers, gf_ops = {}, [0, 0, 0]
    events = {"affine": 0, "affine_ok": 0, "accept": 0, "accept_second": 0}
    # each pass visits the pool in a fresh order, so the calls of one trial
    # fall at unrelated times and per-trial means do not share host phases
    order_rng = np.random.default_rng([args.seed, args.index])
    order = []
    wall = 0.0
    since_ref = 0.0
    traced_block = False
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        if tracer and traced_block:
            tracer.install()
            tracer.phase = "timed"
            before = tracer.mark()
        run = getattr(lib.decoders, w["decoder"])
        block_s = min(BLOCK_S, args.seconds / 4)
        block_end = min(deadline, time.perf_counter() + block_s) if tracer else deadline
        block_start = time.perf_counter()
        block_refs = len(refs)
        while True:
            if not order:
                order = order_rng.permutation(len(words)).tolist()
            j = order.pop()
            trace = [] if traced_block else None
            if tracer:
                tracer.trial = j
            t0 = time.perf_counter()
            try:
                out = run(gf, m, d, words[j], decoders=decoders, trace=trace)
            except Exception as exc:  # an exception is a contract violation, tallied below
                out = exc
            t1 = time.perf_counter()
            if traced_block:
                traced_lat.append(t1 - t0)
                count_events(trace, events)
            else:
                lat.append(t1 - t0)
                lat_trials.append(j)
            outs.append(out)
            idxs.append(j)
            if t1 >= block_end:
                break
            since_ref += t1 - t0
            if since_ref >= REF_EVERY_S:
                time_reference(refs)
                since_ref = 0.0
        if traced_block:
            part, ops = tracer.totals(before, tracer.mark())
            tracer.uninstall()
            for name, (calls, self_s) in part.items():
                acc = layers.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
            gf_ops = [a + b for a, b in zip(gf_ops, ops)]
        else:
            wall += t1 - block_start - sum(refs[block_refs:])
        traced_block = bool(tracer) and not traced_block

    if not refs:
        time_reference(refs)

    # --- checks, after timing stops ------------------------------------------
    run = getattr(lib.decoders, w["decoder"])
    seen = set(idxs)
    for j in range(len(words)):
        if j not in seen:
            try:
                out = run(gf, m, d, words[j], decoders=decoders)
            except Exception as exc:
                out = exc
            outs.append(out)
            idxs.append(j)
    first, verdict = {}, {}
    failed = 0
    for j, out in zip(idxs, outs):
        c, e, _ = trials[j]
        if j not in first:
            first[j] = out
            verdict[j] = classify(lib, out, c, e, weight, params.T0, robust, gf, m, d)
        elif not same_outcome(first[j], out):
            verdict[j] = "violation"
        failed += verdict[j] == "violation"
    result.update({
        "timed_calls": len(lat),
        "wall_s": wall,
        "ref_s": statistics.fmean(refs),
        "latencies": lat,
        "latency_trials": lat_trials,
        "attempted": len(outs),
        "failed": failed,
        "decoded": sum(v == "decoded" for v in verdict.values()),
        "pool": len(words),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if args.index == 0:
        result["crosscheck"] = crosscheck(lib, gf, w, args.seed, first, trials, decoders)
    if tracer:
        result.update({
            "traced_calls": len(traced_lat),
            "traced_latencies": traced_lat,
            "layers": layers,
            "gf_ops": gf_ops,
            "events": events,
            "coverage_missing": sorted(map(list, tracer.keys["timed"] - tracer.keys["setup"])),
        })
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-w{args.index}.jsonl",
                    {"workload": args.workload, "seed": args.seed,
                     "timed_calls": len(lat) + len(traced_lat)})
    print(json.dumps(result))


def classify(lib, out, c, e, weight, t0, robust, gf, m, d):
    """decoded, failed (an allowed BeyondRadius-style failure) or violation."""
    if isinstance(out, Exception):
        return "violation"
    if out.ok:
        return "decoded" if np.array_equal(out.codeword, c) else "violation"
    if weight <= t0:
        return "violation"
    if robust and lib.decoders.check_error_pattern(gf, m, d, e):
        return "violation"
    return "failed"


def same_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    if a.ok != b.ok:
        return False
    return not a.ok or np.array_equal(a.codeword, b.codeword)


def crosscheck(lib, gf, w, seed, first, trials, decoders):
    """Tallies of the first trials against cli.run_simulation on the same seed."""
    n = w["crosscheck_trials"]
    alg = "alg2" if w["decoder"] == "decode_prm_robust" else "alg1"
    ours = [0, 0, 0]
    for j in range(n):
        out = first[j]
        if isinstance(out, Exception) or not out.ok:
            ours[1] += 1
        elif np.array_equal(out.codeword, trials[j][0]):
            ours[0] += 1
        else:
            ours[2] += 1
    try:
        rep = lib.cli.run_simulation(gf, w["m"], w["d"], w["error_weight"], n,
                                     seed, alg, decoders)
    except Exception as exc:  # reported as a mismatch, not a crash
        return {"trials": n, "benchmark": ours, "run_simulation": repr(exc)}
    theirs = [rep.successes, rep.failures, rep.wrong_decodings]
    return {"trials": n, "benchmark": ours, "run_simulation": theirs}


if __name__ == "__main__":
    main()
