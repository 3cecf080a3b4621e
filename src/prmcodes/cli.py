"""Command line for the projective Reed-Muller toolkit.

Subcommands:

  params       print n, k, wt (and eta, T, T0) for a code
  encode       evaluate a polynomial or encode a message vector
  decode       run the recursive projective decoder on a received word
  simulate     Monte-Carlo error-channel trials, CSV report
  ratio-table  per-degree capability table T0/T as CSV
  demo         step-by-step decoding walkthroughs with golden checks

Exit codes: 0 success, 1 golden mismatch, 2 decode failure (including a
code too large for the exhaustive affine engine), 64 usage error.
"""

import argparse
import pathlib
import sys
import time
from dataclasses import dataclass

import numpy as np

from .codes import (PRM, RM, CodeSpec, NotInCodeError, code_params, encode,
                    replicate_scaled)
from .decoders import (EnumerationBoundError, decode_prm, decode_prm_robust,
                       exhaustive_decoders, weight)
from .gf import GF
from .poly import eval_affine, eval_projective, lift_to_degree, parse_poly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DECODE_FAIL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64 rather than argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _vec(values):
    return ",".join(str(int(v)) for v in values)


def _parse_vector(text):
    # comma-separated integers, spaces allowed around each; an empty field or
    # a space inside one is an error, never a different word
    fields = [field.strip() for field in text.split(",")]
    for field in fields:
        if field.split() != [field]:
            raise ValueError(f"malformed vector {text!r}: each comma-separated "
                             "field must be one integer")
    return [int(field) for field in fields]


def _read_vector(path):
    data = sys.stdin.read() if path == "-" else pathlib.Path(path).read_text()
    for line in data.splitlines():
        if line.strip():
            return _parse_vector(line)
    raise ValueError(f"no vector found in {path!r}")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _family(name):
    return PRM if name.lower() == "prm" else RM


# --- subcommands ---

def cmd_params(args):
    spec = CodeSpec(_family(args.family), GF.from_order(args.q), args.m, args.d)
    p = code_params(spec)
    if args.csv:
        eta_s = "" if p.eta is None else str(p.eta)
        t0_s = "" if p.T0 is None else str(p.T0)
        text = ("family,q,m,d,n,k,wt,eta,T,T0\n"
                f"{spec.family},{args.q},{args.m},{args.d},"
                f"{p.n},{p.k},{p.wt},{eta_s},{p.T},{t0_s}")
    else:
        bits = [f"n={p.n}", f"k={p.k}", f"wt={p.wt}"]
        if p.eta is not None:
            bits.append(f"eta={p.eta}")
        bits.append(f"T={p.T}")
        if p.T0 is not None:
            bits.append(f"T0={p.T0}")
        text = ",".join(bits)
    _emit(text, args.out)
    return EXIT_OK


def cmd_encode(args):
    gf = GF.from_order(args.q)
    spec = CodeSpec(_family(args.family), gf, args.m, args.d)
    if args.poly is not None:
        f = parse_poly(gf, args.poly, args.m + 1)
        if spec.family == PRM:
            if f.terms and (not f.is_homogeneous or f.degree != args.d):
                raise ValueError(
                    "projective encoding needs a homogeneous polynomial "
                    f"of degree exactly {args.d}")
            cw = eval_projective(f, args.m)
        else:
            if f.degree > args.d:
                raise ValueError(f"polynomial degree exceeds {args.d}")
            cw = eval_affine(f, args.m)
    else:
        cw, _ = encode(spec, _parse_vector(args.message))
    _emit(_vec(cw), args.out)
    return EXIT_OK


def cmd_decode(args):
    gf = GF.from_order(args.q)
    r = _read_vector(args.infile)
    decoders = exhaustive_decoders() if args.decoder == "exhaustive" else None
    run = decode_prm if args.alg == "alg1" else decode_prm_robust
    out = run(gf, args.m, args.d, r, decoders=decoders)
    if not out.ok:
        print(f"decode failed: {out.failure}", file=sys.stderr)
        return EXIT_DECODE_FAIL
    _emit(_vec(out.codeword) + "\n" + str(out.witness), args.out)
    return EXIT_OK


@dataclass(frozen=True)
class SimReport:
    q: int
    m: int
    d: int
    error_weight: int
    trials: int
    successes: int
    failures: int
    wrong_decodings: int
    seed: int
    elapsed_ms: int

    HEADER = ("q,m,d,error_weight,trials,successes,failures,"
              "wrong_decodings,seed,elapsed_ms")

    def csv_row(self):
        return (f"{self.q},{self.m},{self.d},{self.error_weight},"
                f"{self.trials},{self.successes},{self.failures},"
                f"{self.wrong_decodings},{self.seed},{self.elapsed_ms}")


def run_simulation(gf, m, d, error_weight, trials, seed, alg="alg1",
                   decoders=None):
    """Random codeword + random weight-w error, decode, tally outcomes.

    Per-trial generators are seeded from (seed, trial index), so the tallies
    do not depend on execution order.
    """
    spec = CodeSpec(PRM, gf, m, d)
    params = code_params(spec)
    if error_weight < 0:
        raise ValueError(f"error weight {error_weight} is negative")
    if error_weight > params.n:
        raise ValueError(f"error weight {error_weight} exceeds n = {params.n}")
    if trials < 0:
        raise ValueError(f"trial count {trials} is negative")
    run = decode_prm if alg == "alg1" else decode_prm_robust
    successes = failures = wrong = 0
    started = time.perf_counter()
    for i in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        msg = rng.integers(0, gf.q, size=params.k)
        c, _ = encode(spec, msg)
        e = gf.zeros(params.n)
        support = rng.choice(params.n, size=error_weight, replace=False)
        e[support] = rng.integers(1, gf.q, size=error_weight)
        out = run(gf, m, d, gf.add(c, e), decoders=decoders)
        if not out.ok:
            failures += 1
        elif np.array_equal(out.codeword, c):
            successes += 1
        else:
            wrong += 1
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return SimReport(gf.q, m, d, error_weight, trials, successes, failures,
                     wrong, seed, elapsed_ms)


def cmd_simulate(args):
    gf = GF.from_order(args.q)
    decoders = exhaustive_decoders() if args.decoder == "exhaustive" else None
    report = run_simulation(gf, args.m, args.d, args.errors, args.trials,
                            args.seed, args.alg, decoders)
    _emit(SimReport.HEADER + "\n" + report.csv_row(), args.out)
    return EXIT_OK


def cmd_ratio_table(args):
    gf = GF.from_order(args.q)
    if args.m < 1:
        raise ValueError("m must be >= 1")  # the error params gets from CodeSpec
    lines = ["d,eta,wt,T0,T,ratio"]
    for d in range(1, args.m * (gf.q - 1) + 1):
        p = code_params(CodeSpec(PRM, gf, args.m, d))
        ratio = f"{p.T0 / p.T:.3f}" if p.T else ""
        lines.append(f"{d},{p.eta},{p.wt},{p.T0},{p.T},{ratio}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# --- worked-example demos with embedded golden values ---

class _Walkthrough:
    def __init__(self, title):
        self.lines = [title]
        self.bad = 0

    def say(self, text):
        self.lines.append(text)

    def check(self, label, got, want):
        got_s, want_s = str(got), str(want)
        if got_s == want_s:
            self.lines.append(f"  {label} = {got_s}")
        else:
            self.lines.append(f"  {label} = {got_s}  ** expected {want_s}")
            self.bad += 1

    def finish(self):
        if self.bad:
            self.lines.append(f"{self.bad} value(s) differ from the worked example")
            return "\n".join(self.lines), EXIT_MISMATCH
        self.lines.append("all values match the worked example")
        return "\n".join(self.lines), EXIT_OK


def _demo_ex41():
    """[21,10,8] code over GF(4): 3 errors in the affine block, beyond T0."""
    gf = GF(2, 2)
    w = _Walkthrough("robust decoding of a [21,10,8] code over GF(4), "
                     "3 errors bunched in the affine block")
    p = code_params(CodeSpec(PRM, gf, 2, 3))
    w.check("[n,k,wt]", f"[{p.n},{p.k},{p.wt}]", "[21,10,8]")
    w.check("eta", p.eta, 6)
    w.check("T", p.T, 3)
    w.check("T0", p.T0, 2)
    r = gf.asarray([3, 2, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1,
                    0, 0, 0, 1, 1])
    w.say(f"received word r = {_vec(r)}")
    w.say("the error weight is 3 > T0, so the strict decoder has no "
          "guarantee; the robust variant still gets through:")
    trace = []
    out = decode_prm_robust(gf, 2, 3, r, trace=trace)
    first = next(ev for ev in trace
                 if ev["event"] == "affine" and ev.get("part") == "first")
    w.check("first pass, affine decode at degree 3, ok", first["ok"], False)
    w.say("3 errors exceed the [16,10,4] code's capability, so the first "
          "pass is rejected and the tail takes over")
    tail = next(ev for ev in trace if ev["event"] == "tail")
    w.check("tail block decoded, v", _vec(tail["v"]), "0,0,0,1,1")
    w.check("tail witness g", tail["g"], "x1^3+x2^3")
    vxd = replicate_scaled(gf, tail["v"], 3)
    w.check("replicated tail", _vec(vxd), "0,0,0,1,1,0,0,0,1,1,0,0,0,1,1,0")
    second = next(ev for ev in trace
                  if ev["event"] == "affine" and ev.get("part") == "second")
    w.check("affine decode of r_1 minus the replicated tail, u",
            _vec(second["u"]), _vec([1] * 16))
    w.check("low-degree witness", second["f_low"], "1")
    w.check("reassembled f", out.witness, "x0^3+x1^3+x2^3")
    w.check("decoded codeword",
            _vec(out.codeword), "1,1,1,0,0,1,1,1,0,0,1,1,1,0,0,1,0,0,0,1,1")
    w.check("corrected error weight", weight(gf.sub(r, out.codeword)), 3)
    return w.finish()


def _demo_ex33():
    """[13,10,3] code over GF(3): the exponent-collision bookkeeping path."""
    gf = GF(3)
    w = _Walkthrough("decoding a degree-3 projective word over GF(3): "
                     "how colliding low-degree monomials are recovered")
    p = code_params(CodeSpec(PRM, gf, 2, 3))
    w.check("[n,k,wt]", f"[{p.n},{p.k},{p.wt}]", "[13,10,3]")
    r = gf.asarray([0, 2, 0, 2, 2, 0, 0, 0, 0, 1, 0, 2, 1])
    w.say(f"received word r = {_vec(r)} (no errors; the point is the "
          "reassembly bookkeeping)")
    trace = []
    out = decode_prm(gf, 2, 3, r, trace=trace)
    first = next(ev for ev in trace
                 if ev["event"] == "affine" and ev.get("part") == "first")
    w.check("affine decode at degree 3, ok", first["ok"], True)
    split = next(ev for ev in trace if ev["event"] == "split")
    w.say("degree 3 >= q, so exponents wrapped modulo x^q = x; split the "
          "affine witness by how each term lifts:")
    w.check("colliding part", split["bad"], "x2")
    w.check("top part", split["good_top"], "x1^2*x2")
    w.check("settled part", split["good_low"], "x2^2")
    c_good = eval_projective(split["good_top"], 1)
    w.check("tail contribution of the top part", _vec(c_good), "1,2,0,0")
    residue = next(ev for ev in trace if ev["event"] == "residue")
    w.say("the tail minus that contribution decodes recursively at "
          "degree 3-(q-1) = 1:")
    w.check("recursive witness", residue["f_sub"], "2*x1+x2")
    w.check("its degree-3 lift", lift_to_degree(residue["f_sub"], 3),
            "2*x1^3+x2^3")
    w.check("leftover affine part g0", residue["g0"], "x2^2+x1")
    w.check("reassembled f", out.witness,
            "x0^2*x1+x0*x2^2+2*x1^3+x1^2*x2+x2^3")
    w.check("decoded codeword", _vec(out.codeword), _vec(r))
    return w.finish()


_DEMOS = {"ex41": _demo_ex41, "ex33": _demo_ex33}


def cmd_demo(args):
    text, code = _DEMOS[args.name]()
    print(text)
    return code


# --- argument plumbing ---

def _add_code_args(sp, family=True):
    sp.add_argument("--q", type=int, required=True, help="field size, a prime power")
    sp.add_argument("--m", type=int, required=True, help="number of affine variables")
    sp.add_argument("--d", type=int, required=True, help="degree")
    if family:
        sp.add_argument("--family", choices=["rm", "prm"], default="prm",
                        help="code family (default prm)")


def _build_parser():
    top = _Parser(prog="prmcodes",
                  description="projective Reed-Muller codes: parameters, "
                              "encoding, recursive decoding")
    sub = top.add_subparsers(dest="command", required=True, metavar="command",
                             parser_class=_Parser)

    sp = sub.add_parser("params", help="print code parameters")
    _add_code_args(sp)
    sp.add_argument("--csv", action="store_true", help="emit a CSV header and row")
    sp.add_argument("--out", help="write output to a file instead of stdout")
    sp.set_defaults(handler=cmd_params)

    sp = sub.add_parser("encode", help="evaluate a polynomial or encode a message")
    _add_code_args(sp)
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial text, e.g. 'x0^3+x1^3+x2^3'")
    src.add_argument("--message", help="comma-separated basis coefficients, length k")
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_encode)

    sp = sub.add_parser("decode", help="decode a received projective word")
    _add_code_args(sp, family=False)
    sp.add_argument("--in", dest="infile", required=True,
                    help="file with one comma-separated word, or - for stdin")
    sp.add_argument("--alg", choices=["alg1", "alg2"], default="alg1",
                    help="strict (alg1) or robust (alg2) recursion")
    sp.add_argument("--decoder", choices=["auto", "exhaustive"], default="auto",
                    help="affine decoder selection")
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_decode)

    sp = sub.add_parser("simulate", help="Monte-Carlo decoding trials")
    _add_code_args(sp, family=False)
    sp.add_argument("--errors", type=int, required=True, help="error weight per trial")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--alg", choices=["alg1", "alg2"], default="alg1")
    sp.add_argument("--decoder", choices=["auto", "exhaustive"], default="auto")
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("ratio-table",
                        help="CSV of eta, wt, T0, T and T0/T per degree")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_ratio_table)

    sp = sub.add_parser("demo", help="annotated decoding walkthroughs")
    sp.add_argument("name", choices=sorted(_DEMOS))
    sp.set_defaults(handler=cmd_demo)
    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECODE_FAIL
    except (ValueError, NotInCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
