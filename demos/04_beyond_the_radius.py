"""
Past the guarantee: error patterns the robust decoder still fixes
=================================================================

The [21,10,8] code over GF(4) can correct 3 errors, but the recursion is only
guaranteed up to 2.  When the third error lands in the affine chart rather
than the tail, the robust variant recovers anyway; this script shows one such
decode, then measures how often each variant survives random weight-3 errors.
"""

import numpy as np

from prmcodes import (GF, PRM, CodeSpec, check_error_pattern, code_params,
                      decode_prm_robust, encode)
from prmcodes.cli import run_simulation

gf = GF(2, 2)
spec = CodeSpec(PRM, gf, 2, 3)
p = code_params(spec)
print(f"[{p.n},{p.k},{p.wt}] over GF(4): T = {p.T}, guaranteed T0 = {p.T0}")

# --- one concrete weight-3 rescue ---

rng = np.random.default_rng(41)
c, f = encode(spec, rng.integers(0, 4, size=p.k))
e = gf.zeros(p.n)
e[[0, 1, 5]] = [2, 3, 1]  # all three errors inside the 16-point chart

# the pattern test: total weight below wt/2, and some suffix of tail blocks
# is clean enough for the recursion to anchor on
print("pattern qualifies:", check_error_pattern(gf, 2, 3, e))

r = gf.add(c, e)
robust = decode_prm_robust(gf, 2, 3, r)
assert robust.ok and np.array_equal(robust.codeword, c)
print("robust decode: recovered, witness", robust.witness)

# --- how the two variants compare on random weight-3 errors ---

# on the plane the recursion is shallow, so both variants succeed on exactly
# the same words and differ only in how they report a refusal
print("\nrandom weight-3 errors on the plane code:")
for alg in ("alg1", "alg2"):
    rep = run_simulation(gf, 2, 3, error_weight=3, trials=400, seed=7, alg=alg)
    rate = rep.successes / rep.trials
    print(f"  {alg}: {rep.successes}/{rep.trials} recovered "
          f"({rate:.0%}), {rep.failures} refusals, "
          f"{rep.wrong_decodings} wrong answers")

rep = run_simulation(gf, 2, 3, error_weight=4, trials=400, seed=7, alg="alg2")
print(f"  weight 4 (> T): {rep.successes}/{rep.trials} recovered, "
      f"{rep.failures} refusals; past half the distance nothing is promised")

# --- deeper recursion separates the variants ---

# in P^3 over GF(3) with d=4, two chart errors can fool the inner [27,23,3]
# affine decode into a plausible wrong answer; the strict variant then runs
# aground on an unsolvable inner interpolation and gives up, while the robust
# one treats that as a dead branch and decodes from the tail instead
gf3 = GF(3)
p3 = code_params(CodeSpec(PRM, gf3, 3, 4))
print(f"\n[{p3.n},{p3.k},{p3.wt}] over GF(3) in P^3, weight-2 errors "
      f"(T0 = {p3.T0}):")
for alg in ("alg1", "alg2"):
    rep = run_simulation(gf3, 3, 4, error_weight=2, trials=400, seed=7, alg=alg)
    print(f"  {alg}: {rep.successes}/{rep.trials} recovered, "
          f"{rep.failures} refusals, {rep.wrong_decodings} wrong answers")
