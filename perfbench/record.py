"""Run every workload at the default seed, traced and untraced, and record the baseline.

    python3 perfbench/record.py   # prints every metric, writes data/baseline.json

Each run goes through ``run.py``, so every metric is printed by name with its
unit and every output passes the gate.  The baseline file keeps the metrics,
the environment and the commit they were measured at.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "data" / "baseline.json"
DEFAULT_SEED = 0


def _run(cmd: list[str]) -> tuple[int, list[str]]:
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.strip().splitlines()


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]

    baseline = {"seed": DEFAULT_SEED, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in workloads:
        entry = {}
        for trace in ("0", "1"):
            code, lines = _run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                "--seed", str(DEFAULT_SEED), "--seconds", seconds,
                                "--trace", trace])
            env_line = next(line for line in lines if line.startswith("# python"))
            result = json.loads(lines[-1])
            ok = ok and code == 0 and result["correct"]
            entry["per_layer" if trace == "1" else "end_to_end"] = result
        baseline["environment"] = env_line[2:]
        baseline["workloads"][name] = entry
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"# wrote {BASELINE.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
