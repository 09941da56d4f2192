"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload with ``--scale small`` for one second, untraced and
traced, and asserts that the last line is the result object, that every
metric BENCHMARK.json names for that mode is there with its unit, and that
no operation failed. Then checks that a directory holding only the
benchmark's files (no program) makes the benchmark exit non-zero without a
result. Takes about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, config: dict) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}/{trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], result
    wanted = config["per_layer"] if trace else config["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, result["metrics"].keys()
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        if not trace:
            assert got["value"] > 0, (m, got)
    print(f"ok  {workload:10s} trace={trace}  attempted={result['attempted']}  fail_ratio=0")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "impact", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without a program"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  without a program the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in config["workloads"]]:
        for trace in (0, 1):
            check_result(workload, trace, config)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
