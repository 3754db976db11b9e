"""Command-line goldens: the stdout of ``verify`` and of every ``reproduce``
scenario, byte for byte, with the exit code.

``data/golden/cases.json`` lists each case: its arguments, the file that
holds its recorded stdout, and its exit code.  A change that means to alter
one of these outputs records it again, for example with
``python -m delibsim.cli verify --seeds 20 > tests/data/golden/verify-seeds-20.csv``,
and says why.
"""

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
    assert out.encode("utf-8") == (GOLDEN / case["stdout"]).read_bytes()
    assert code == case["exit"]
