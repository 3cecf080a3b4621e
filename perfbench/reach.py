"""Reach probe: can one T0 decode of each "not reachable" code finish in 1 s?

    python3 perfbench/reach.py            # writes perfbench/reach.json

Informational, not a gated workload.  Each code gets its own fresh process,
one after another: it draws trial 0 of seed 1 at weight T0 with the workload
trial generator and runs one cold decode_prm under a 1 s wall cap.  The
outcome is EnumerationBoundError, over_cap, or the decode time in ms.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CAP_S = 1.0
CODES = [(7, 2, 3), (8, 2, 4), (4, 3, 3), (3, 4, 2), (521, 1, 260)]   # (q, m, d)


def probe(q, m, d):
    from worker import import_library, make_trial
    lib = import_library()
    gf = lib.gf.GF.from_order(q)
    spec = lib.codes.CodeSpec(lib.codes.PRM, gf, m, d)
    params = lib.codes.code_params(spec)
    _, _, r = make_trial(lib, gf, spec, params, 1, 0, params.T0)

    def over_cap(signum, frame):
        raise TimeoutError

    signal.signal(signal.SIGALRM, over_cap)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    started = time.perf_counter()
    try:
        out = lib.decoders.decode_prm(gf, m, d, r)
        outcome = {"outcome": "decoded" if out.ok else out.failure,
                   "decode_ms": (time.perf_counter() - started) * 1000}
    except lib.decoders.EnumerationBoundError:
        outcome = {"outcome": "EnumerationBoundError"}
    except TimeoutError:
        outcome = {"outcome": "over_cap"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    outcome.update(n=params.n, k=params.k, T0=params.T0)
    print(json.dumps(outcome))


def main():
    rows = []
    for q, m, d in CODES:
        proc = subprocess.run([sys.executable, __file__, str(q), str(m), str(d)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            row = {"outcome": "error", "stderr": proc.stderr.strip()[-300:]}
        else:
            row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append({"code": f"PRM({m},{d})/GF({q})", **row})
        print(rows[-1])
    doc = {"about": __doc__.strip().splitlines()[0], "cap_s": CAP_S, "codes": rows}
    (HERE / "reach.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 4:
        probe(*map(int, sys.argv[1:]))
    else:
        main()
