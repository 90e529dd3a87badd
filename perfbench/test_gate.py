#!/usr/bin/env python3
"""Shows that the benchmark's correctness gate holds back every number.

    python3 perfbench/test_gate.py

For each workload, one short run passes and prints its result line; then
each of the workload's checks is corrupted in turn (the benchmark's
--sabotage test hook) and the run must exit non-zero with nothing on
stdout. Builds like run.py does ($CARGO_TARGET_DIR or .bench_build).
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

CHECKS = {
    "bulk_paper": ["bulk_paper.restore_equals_saved",
                   "bulk_paper.workers_bit_identical",
                   "bulk_paper.global_within_bound"],
    "server_frames": ["server_frames.snapshot_equals_library_prefix",
                      "server_frames.final_equals_library",
                      "server_frames.restore_equals_saved",
                      "server_frames.baseline_deterministic"],
    "ckpt_resume": ["ckpt_resume.stream_length",
                    "ckpt_resume.restore_equals_saved",
                    "ckpt_resume.resumed_equals_uninterrupted"],
}


def bench(binary, workload, sabotage=None):
    command = [binary, "--workload", workload, "--seed", "7", "--seconds",
               "0.5", "--trace", "0"]
    if sabotage:
        command += ["--sabotage", sabotage]
    return subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = run.build(bench_dir, build_dir)
    failures = []
    for workload, checks in CHECKS.items():
        ok = bench(binary, workload)
        lines = ok.stdout.strip().splitlines()
        if ok.returncode != 0 or not lines or \
                json.loads(lines[-1]).get("correct") is not True:
            failures.append(f"{workload}: unsabotaged run did not pass "
                            f"(exit {ok.returncode})\n{ok.stderr[-2000:]}")
            continue
        for check in checks:
            bad = bench(binary, workload, check)
            if bad.returncode == 0 or bad.stdout.strip():
                failures.append(f"{workload}: sabotaged {check} exited "
                                f"{bad.returncode} with stdout "
                                f"{bad.stdout.strip()[:200]!r}")
            elif f"check failed: {check}" not in bad.stderr:
                failures.append(f"{workload}: sabotaged {check} failed "
                                "without naming the check")
        print(f"{workload}: pass + {len(checks)} refused runs ok")
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
