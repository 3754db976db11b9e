"""Command-line goldens: the stdout of ``verify`` and of every ``reproduce``
scenario, byte for byte, with the exit code.

``data/golden/cases.json`` lists each case: its arguments, the file that
holds its recorded stdout, and its exit code.  A file ending in ``.gz`` holds
the stdout gzip-compressed.  A change that means to alter one of these
outputs records it again, for example with
``python -m delibsim.cli verify --seeds 20 > tests/data/golden/verify-seeds-20.csv``
or, for seeds 0-419, which cover every size, step and rule a verify check
picks from its seed (each repeats with a period dividing 420),
``python -m delibsim.cli verify --seeds 420 | gzip -9 -n > tests/data/golden/verify-seeds-420.csv.gz``,
and says why.
"""

import gzip
import json
from pathlib import Path

import pytest

from delibsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["stdout"] for case in CASES])
def test_command_output_matches_its_golden(capsys, case):
    code = main(case["argv"])
    out = capsys.readouterr().out
    recorded = (GOLDEN / case["stdout"]).read_bytes()
    if case["stdout"].endswith(".gz"):
        recorded = gzip.decompress(recorded)
    assert out.encode("utf-8") == recorded
    assert code == case["exit"]
