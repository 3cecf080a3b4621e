"""The demo walkthroughs print, byte for byte, the output committed under
tests/golden/: point orders, parameter tables, traced decodes and the
beyond-radius runs stay exactly as documented."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prmcodes

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_demo_has_a_golden():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden(demo):
    # the child imports the package under test, wherever this process found it
    path = [str(Path(prmcodes.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
