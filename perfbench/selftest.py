"""Self-test of the benchmark at smoke size.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Checks that every workload in BENCHMARK.json emits every end-to-end metric
(untraced) and every per-layer metric (traced) with the declared unit and no
failed operation; that a deliberately truncated binary artifact makes the
run report failed operations; and that without a source tree the benchmark
exits non-zero without printing a result.  Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--seed", str(SEED), "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def fail(message: str, proc=None) -> None:
    print(f"FAIL: {message}")
    if proc is not None:
        print(proc.stderr[-3000:])
    sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc, result = bench("--workload", workload, "--trace", str(trace), "--smoke")
            if proc.returncode != 0 or result is None:
                fail(f"{workload} trace={trace}: exit {proc.returncode}, no result", proc)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {result['failed']} of "
                     f"{result['attempted']} operations failed", proc)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(n for n in got.keys() & declared[trace].keys()
                               if got[n] != declared[trace][n])
                fail(f"{workload} trace={trace}: missing {missing}, extra {extra}, "
                     f"wrong units {wrong}")
            print(f"ok: {workload} trace={trace} emits {len(got)} metrics, "
                  f"{result['attempted']} operations, none failed")

    for workload in ("desk_pipeline", "paper_scale_combine"):
        proc, result = bench("--workload", workload, "--trace", "0", "--smoke", "--fault")
        if result is None or result["failed"] == 0 or result["correct"]:
            fail(f"{workload}: a truncated artifact did not raise the error rate", proc)
        print(f"ok: {workload} with a truncated artifact reports "
              f"{result['failed']}/{result['attempted']} failed")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = bench("--workload", "desk_pipeline", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    if proc.returncode == 0 or result is not None:
        fail("without a source tree the benchmark must exit non-zero with no result", proc)
    print(f"ok: without a source tree the benchmark exits {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
