"""Negative control for the correctness gate.

    python3 perfbench/negative_control.py

Runs each workload once at the default seed through ``run.py
--negative-control``, which gates the outputs against goldens carrying the
deliberately wrong values in ``data/negative_control.json``.  The control
passes only when every workload then reports failed operations
(failed_ratio > 0), ``correct: false`` and a non-zero exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    wrong = json.loads((HERE / "data" / "negative_control.json").read_text())
    ok = True
    for workload in wrong:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
             "--seconds", "0", "--trace", "0", "--negative-control"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ratio = result["failed"] / result["attempted"]
        fired = proc.returncode != 0 and not result["correct"] and ratio > 0
        ok = ok and fired
        print(f"{workload}: failed_ratio = {ratio!r} ({result['failed']} of "
              f"{result['attempted']}), exit code {proc.returncode}: "
              f"{'caught' if fired else 'NOT CAUGHT'}")
    print("negative control " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
