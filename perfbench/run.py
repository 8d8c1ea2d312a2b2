#!/usr/bin/env python3
"""Repository benchmark: host throughput and simulated results of the TMI
simulator on three workloads, with a per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload fs-repair --seed 1 --seconds 15 --trace 0

It builds perfbench/ (the simulator libraries from src/ plus the
tmi_perfbench harness) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload, and prints the harness report
followed, as the last line, by one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list.
The full result, with provenance and per-cell fingerprints, is kept in
<build dir>/results/<workload>-seed<seed>-trace<trace>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir):
    """Configure once, then build the harness target (a no-op when fresh)."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "tmi_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir / "tmi_perfbench"


def commit_id():
    """The git commit, or 'none' when the root is not a git checkout."""
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """sha256 over the simulator and benchmark sources, so a result can be
    tied to its code when no commit is available."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=int, default=4,
                    help="workload input scale (the smoke test uses 1)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    exe = build(target / "perfbench")
    results = target / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)

    sys.stdout.flush()
    proc = subprocess.run([str(exe), "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--scale", str(args.scale), "--out", str(out),
                           "--commit", commit_id(),
                           "--source-digest", source_digest()])
    if proc.returncode != 0 or not out.exists():
        sys.exit(f"perfbench: harness exited with {proc.returncode}")
    result = json.loads(out.read_text())

    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        sys.exit(f"perfbench: harness metrics {sorted(metrics)} do not "
                 f"match BENCHMARK.json {sorted(names)}")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"perfbench: {m['name']} unit "
                     f"{metrics[m['name']]['unit']!r} != {m['unit']!r}")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))


if __name__ == "__main__":
    main()
