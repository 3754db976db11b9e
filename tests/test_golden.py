"""Command-line goldens: the stdout of ``verify`` and of every ``reproduce``
scenario, and the JSONL traces that ``run --out`` writes, byte for byte, with
the exit code.

``data/golden/cases.json`` lists each case: its arguments (run from the
repository root), its exit code, and the file that holds its recorded
``stdout`` or, for a ``run`` given ``--quiet``, the recorded ``--out`` file
(``out``); a case without ``stdout`` prints nothing.  A file ending in
``.gz`` holds the stdout gzip-compressed.  A change that means to alter one
of these outputs records it again, for example with
``python -m delibsim.cli verify --seeds 20 > tests/data/golden/verify-seeds-20.csv``,
``python -m delibsim.cli run examples/run.json --quiet --out tests/data/golden/run-examples-run.jsonl``
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

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", CASES, ids=[case.get("stdout") or case["out"] for case in CASES]
)
def test_command_output_matches_its_golden(capsys, monkeypatch, tmp_path, case):
    monkeypatch.chdir(ROOT)
    argv = list(case["argv"])
    if "out" in case:
        argv += ["--out", str(tmp_path / case["out"])]
    code = main(argv)
    out = capsys.readouterr().out
    recorded = b""
    if "stdout" in case:
        recorded = (GOLDEN / case["stdout"]).read_bytes()
        if case["stdout"].endswith(".gz"):
            recorded = gzip.decompress(recorded)
    assert out.encode("utf-8") == recorded
    if "out" in case:
        assert (tmp_path / case["out"]).read_bytes() == (GOLDEN / case["out"]).read_bytes()
    assert code == case["exit"]
