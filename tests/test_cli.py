"""Command-line surface: exit codes, output goldens, file and stdin plumbing,
and the Monte-Carlo report format."""

import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import prmcodes
from prmcodes.cli import (EXIT_DECODE_FAIL, EXIT_OK, EXIT_USAGE, _parse_vector, main,
                          run_simulation)
from prmcodes.codes import PRM, CodeSpec, encode
from prmcodes.decoders import decode_prm_robust
from prmcodes.gf import GF

EX_R = "3,2,1,0,0,0,1,1,0,0,1,1,1,0,0,1,0,0,0,1,1"
EX_C = "1,1,1,0,0,1,1,1,0,0,1,1,1,0,0,1,0,0,0,1,1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- params ---

def test_params_text_golden(capsys):
    code, out, _ = run_cli(capsys, "params", "--q", "4", "--m", "2", "--d", "3")
    assert code == EXIT_OK
    assert out.strip() == "n=21,k=10,wt=8,eta=6,T=3,T0=2"


def test_params_rm_omits_projective_fields(capsys):
    code, out, _ = run_cli(capsys, "params", "--q", "4", "--m", "2", "--d", "3",
                           "--family", "rm")
    assert code == EXIT_OK
    assert out.strip() == "n=16,k=10,wt=4,T=1"


def test_params_csv(capsys):
    code, out, _ = run_cli(capsys, "params", "--q", "4", "--m", "2", "--d", "3",
                           "--csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "family,q,m,d,n,k,wt,eta,T,T0"
    assert lines[1] == "PRM,4,2,3,21,10,8,6,3,2"


def test_params_csv_rm_empty_cells(capsys):
    code, out, _ = run_cli(capsys, "params", "--q", "3", "--m", "2", "--d", "2",
                           "--family", "rm", "--csv")
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "RM,3,2,2,9,6,3,,1,"


def test_params_invalid_degree_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "params", "--q", "4", "--m", "2", "--d", "0")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_params_oversized_field_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "params", "--q", "1000000000000000003", "--m", "1",
                           "--d", "1")
    assert code == EXIT_USAGE
    assert "exceeds" in err


def test_oversized_codes_are_usage_errors(capsys, no_enumeration):
    # the size cap refuses each before any point, basis or matrix is built
    for argv in (["params", "--q", "2", "--m", "100000", "--d", "1"],
                 ["ratio-table", "--q", "2", "--m", "100000"],
                 ["encode", "--q", "2", "--m", "24", "--d", "1", "--message", ",".join(["1"] * 25)],
                 ["encode", "--q", "2", "--m", "24", "--d", "1", "--poly", "x0"],
                 ["simulate", "--q", "2", "--m", "24", "--d", "1", "--errors", "1"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_USAGE and out == ""
        assert "too large" in err
    # params reads closed forms only, so it answers for a code whose matrix
    # is past the cap but whose length is not
    code, out, _ = run_cli(capsys, "params", "--q", "2", "--m", "24", "--d", "1")
    assert code == EXIT_OK
    assert out.strip() == "n=33554431,k=25,wt=16777216,eta=16777216,T=8388607,T0=8388607"


def test_params_out_file(tmp_path, capsys):
    target = tmp_path / "params.txt"
    code, out, _ = run_cli(capsys, "params", "--q", "4", "--m", "2", "--d", "3",
                           "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == "n=21,k=10,wt=8,eta=6,T=3,T0=2\n"


# --- encode ---

def test_encode_poly_golden(capsys):
    code, out, _ = run_cli(capsys, "encode", "--q", "4", "--m", "2", "--d", "3",
                           "--poly", "x0^3+x1^3+x2^3")
    assert code == EXIT_OK
    assert out.strip() == EX_C


def test_encode_message_zero(capsys):
    code, out, _ = run_cli(capsys, "encode", "--q", "4", "--m", "2", "--d", "3",
                           "--message", ",".join(["0"] * 10))
    assert code == EXIT_OK
    assert out.strip() == ",".join(["0"] * 21)


def test_encode_rejects_inhomogeneous_projective(capsys):
    code, _, err = run_cli(capsys, "encode", "--q", "4", "--m", "2", "--d", "3",
                           "--poly", "x1^2+x2")
    assert code == EXIT_USAGE
    assert "homogeneous" in err


def test_encode_rm_accepts_low_degree(capsys):
    code, out, _ = run_cli(capsys, "encode", "--q", "3", "--m", "2", "--d", "2",
                           "--family", "rm", "--poly", "x1+1")
    assert code == EXIT_OK
    assert len(out.strip().split(",")) == 9


def test_encode_rm_rejects_high_degree(capsys):
    code, _, err = run_cli(capsys, "encode", "--q", "3", "--m", "2", "--d", "1",
                           "--family", "rm", "--poly", "x1*x2")
    assert code == EXIT_USAGE
    assert "degree" in err


def test_vector_fields_are_one_integer_each(capsys):
    # '1 2, 3' once read as [12, 3] and '1,,2' as [1, 2]; over GF(257) the
    # first is a valid word, so a typo decoded as another word
    assert _parse_vector("1, 2, 3") == [1, 2, 3]
    assert _parse_vector(" 7 ,8,\t9 ") == [7, 8, 9]
    for text in ("1 2, 3", "1,,2", "1,2,", ",1", "", "1\t2,3"):
        with pytest.raises(ValueError, match="malformed vector"):
            _parse_vector(text)
    zeros = ",".join(["0"] * 10)  # with one more symbol, k = 11 of PRM(1,10)
    for bad in ("1 2," + zeros, "1,," + zeros):
        code, out, err = run_cli(capsys, "encode", "--q", "257", "--m", "1", "--d", "10",
                                 "--message", bad)
        assert (code, out) == (EXIT_USAGE, "")
        assert "malformed vector" in err


def test_encode_requires_a_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--q", "4", "--m", "2", "--d", "3"])
    assert exc.value.code == EXIT_USAGE


# --- decode ---

def test_decode_clean_word(tmp_path, capsys):
    infile = tmp_path / "r.txt"
    infile.write_text(EX_C + "\n")
    code, out, _ = run_cli(capsys, "decode", "--q", "4", "--m", "2", "--d", "3",
                           "--in", str(infile))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == EX_C
    assert lines[1] == "x0^3+x1^3+x2^3"


def test_decode_three_errors_robust(tmp_path, capsys):
    infile = tmp_path / "r.txt"
    infile.write_text(EX_R + "\n")
    code, out, _ = run_cli(capsys, "decode", "--q", "4", "--m", "2", "--d", "3",
                           "--in", str(infile), "--alg", "alg2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == EX_C
    assert lines[1] == "x0^3+x1^3+x2^3"


def test_decode_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(EX_R + "\n"))
    code, out, _ = run_cli(capsys, "decode", "--q", "4", "--m", "2", "--d", "3",
                           "--in", "-", "--alg", "alg2")
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == EX_C


def test_decode_failure_exit_code(tmp_path, capsys):
    # hunt down a word both variants refuse, then check the exit code
    gf = GF(2, 2)
    rng = np.random.default_rng(99)
    word = None
    for _ in range(100):
        e = gf.zeros(21)
        chart = rng.choice(16, size=4, replace=False)
        tail = 16 + rng.choice(5, size=3, replace=False)
        e[chart] = rng.integers(1, 4, size=4)
        e[tail] = rng.integers(1, 4, size=3)
        if not decode_prm_robust(gf, 2, 3, e).ok:
            word = e
            break
    assert word is not None
    infile = tmp_path / "bad.txt"
    infile.write_text(",".join(str(int(x)) for x in word) + "\n")
    for alg in ("alg1", "alg2"):
        code, _, err = run_cli(capsys, "decode", "--q", "4", "--m", "2",
                               "--d", "3", "--in", str(infile), "--alg", alg)
        assert code == EXIT_DECODE_FAIL
        assert "decode failed" in err


def test_engine_bound_is_decode_failure(tmp_path, capsys):
    # PRM(2,3)/GF(7) needs an RM(2,3) affine decode whose exhaustive scan
    # exceeds the enumeration bound: exit 2 with a message, no traceback
    gf = GF(7)
    c, _ = encode(CodeSpec(PRM, gf, 2, 3), np.arange(10) % 7)
    c[[0, 30]] = gf.add(c[[0, 30]], gf.asarray([1, 2]))
    infile = tmp_path / "r.txt"
    infile.write_text(",".join(str(int(x)) for x in c) + "\n")
    for alg in ("alg1", "alg2"):
        code, out, err = run_cli(capsys, "decode", "--q", "7", "--m", "2",
                                 "--d", "3", "--in", str(infile), "--alg", alg)
        assert code == EXIT_DECODE_FAIL
        assert out == "" and err.startswith("error:") and "bound" in err
    code, out, err = run_cli(capsys, "simulate", "--q", "7", "--m", "2", "--d", "3",
                             "--errors", "2", "--trials", "1", "--seed", "1")
    assert code == EXIT_DECODE_FAIL
    assert out == "" and err.startswith("error:") and "bound" in err


def test_decode_exhaustive_engine(tmp_path, capsys):
    infile = tmp_path / "r.txt"
    infile.write_text(EX_R + "\n")
    code, out, _ = run_cli(capsys, "decode", "--q", "4", "--m", "2", "--d", "3",
                           "--in", str(infile), "--alg", "alg2",
                           "--decoder", "exhaustive")
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == EX_C


def test_decode_missing_file(capsys):
    code, _, err = run_cli(capsys, "decode", "--q", "4", "--m", "2", "--d", "3",
                           "--in", "/nonexistent/r.txt")
    assert code == EXIT_USAGE
    assert "error:" in err


# --- simulate ---

def test_simulate_zero_errors(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--q", "4", "--m", "2", "--d", "3",
                           "--errors", "0", "--trials", "5", "--seed", "7")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    assert header == ("q,m,d,error_weight,trials,successes,failures,"
                      "wrong_decodings,seed,elapsed_ms")
    fields = row.split(",")
    assert fields[:9] == ["4", "2", "3", "0", "5", "5", "0", "0", "7"]


def test_simulate_within_guarantee_all_succeed(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--q", "4", "--m", "2", "--d", "3",
                           "--errors", "2", "--trials", "10", "--seed", "3")
    assert code == EXIT_OK
    fields = out.strip().splitlines()[1].split(",")
    assert fields[5] == "10" and fields[6] == "0" and fields[7] == "0"


def test_simulate_deterministic_given_seed():
    # per-trial seeding from (seed, index) pins the tallies; elapsed_ms is
    # wall time and excluded from the comparison
    gf = GF(3)
    a = run_simulation(gf, 2, 3, 1, 20, seed=11)
    b = run_simulation(gf, 2, 3, 1, 20, seed=11)
    assert a.csv_row().rsplit(",", 1)[0] == b.csv_row().rsplit(",", 1)[0]
    assert (a.successes, a.failures, a.wrong_decodings) == (20, 0, 0)


def test_simulate_rejects_an_unknown_algorithm():
    # the --alg names are the only algorithms; any other name is an error,
    # not a silent run of the robust decoder
    with pytest.raises(ValueError, match="unknown algorithm 'alg9'"):
        run_simulation(GF(3), 2, 3, 1, 5, seed=1, alg="alg9")
    for alg in ("alg1", "alg2"):
        assert run_simulation(GF(3), 2, 3, 1, 5, seed=1, alg=alg).successes == 5


def test_simulate_overweight_usage_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--q", "3", "--m", "2", "--d", "3",
                           "--errors", "14", "--trials", "1")
    assert code == EXIT_USAGE
    assert "error" in err


def test_simulate_negative_weight_usage_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "--q", "3", "--m", "2", "--d", "3",
                             "--errors", "-1", "--trials", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: error weight -1 is negative\n"


def test_simulate_negative_trials_usage_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "--q", "3", "--m", "2", "--d", "3",
                             "--errors", "1", "--trials", "-5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: trial count -5 is negative\n"


# --- ratio-table ---

def test_ratio_table_gf3_all_ones(capsys):
    code, out, _ = run_cli(capsys, "ratio-table", "--q", "3", "--m", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "d,eta,wt,T0,T,ratio"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        ratio = line.split(",")[5]
        assert ratio in ("1.000", "")


def test_ratio_table_gf4_single_deficit(capsys):
    code, out, _ = run_cli(capsys, "ratio-table", "--q", "4", "--m", "2")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 6
    below = [r[0] for r in rows if r[5] not in ("1.000", "")]
    assert below == ["3"]
    d3 = next(r for r in rows if r[0] == "3")
    assert d3[1:5] == ["6", "8", "2", "3"] and d3[5] == "0.667"


def test_ratio_table_rejects_m_below_one(capsys):
    # as params does, rather than printing only the header
    for cmd in ("ratio-table", "params"):
        extra = () if cmd == "ratio-table" else ("--d", "1")
        code, out, err = run_cli(capsys, cmd, "--q", "4", "--m", "0", *extra)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: m must be >= 1\n"


# --- demos ---

def test_demo_walkthroughs_pass(capsys):
    for name in ("ex41", "ex33"):
        code, out, _ = run_cli(capsys, "demo", name)
        assert code == EXIT_OK, out
        assert "all values match the worked example" in out


def test_demo_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "nope"])
    assert exc.value.code == EXIT_USAGE


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_module_entry_point():
    # the child imports the package under test, wherever this process found it
    path = [str(Path(prmcodes.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "prmcodes", "params", "--q", "4", "--m", "2",
         "--d", "3"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "n=21,k=10,wt=8,eta=6,T=3,T0=2"
