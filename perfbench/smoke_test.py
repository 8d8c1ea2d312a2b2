#!/usr/bin/env python3
"""Short-length test of the benchmark: runs every workload named in
BENCHMARK.json once per trace mode at input scale 1 and checks that the
result line carries exactly the metrics BENCHMARK.json lists for that
mode, each with its unit, and that every cell finished correctly.

Run from the repository root (takes about two minutes after the build):

    python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--scale", "1"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            tag = f"{workload} trace={trace}"
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} "
                                f"attempted={result['attempted']}")
            metrics = result["metrics"]
            for m in listed:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: {m['name']} missing")
                elif got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{tag}: {m['name']} = {got}")
            extra = set(metrics) - {m["name"] for m in listed}
            if extra:
                problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
            print("ok  " if len(problems) == before else "FAIL", tag)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
