"""Smoke test of the benchmark: every workload at a tiny size, both run kinds.

Usage (from the repository root): ``python3 perfbench/smoke.py``. Each run
must exit 0, report ``correct`` with no failed operation, and emit exactly
the metric names and units that ``BENCHMARK.json`` declares.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                units = sorted(n for n in set(emitted) & set(declared[trace])
                               if emitted[n] != declared[trace][n])
                problems.append(f"{label}: missing {missing}, undeclared {extra}, "
                                f"unit differs {units}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            print(f"{label}: {len(emitted)} metrics, "
                  f"{result['attempted']} operations", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
