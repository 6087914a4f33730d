"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` untraced and traced and checks
the result line against ``BENCHMARK.json`` (keys, metric names, units,
values), checks that ``summarize`` counts a failed output check, a
report-bytes mismatch and a dead worker as failures, and that the benchmark refuses to
run, printing no result, in a directory that holds only
``BENCHMARK.json`` and ``perfbench/``. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(workload: str, trace: int) -> None:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny")
    result = json.loads(lines[-1])
    where = f"{workload} trace={trace}"
    assert code == 0, f"{where}: exit {code}\n" + "\n".join(lines[-20:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2, where
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected], where
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert math.isfinite(got["value"]) and got["value"] >= 0, f"{where}: {m['name']}"
        if not trace:
            assert got["value"] > 0, f"{where}: {m['name']} is 0"
    print(f"ok: {where}, {result['attempted']} repetitions")


def check_summarize() -> None:
    def rep(instance: int, digest: str, run_s: float = 2.0, failures=()) -> dict:
        return {"ok": not failures, "instance": instance, "traced": False,
                "digest": digest, "failures": list(failures), "run_s": run_s,
                "work": 10, "sim": {"mean_service_mpps": 1.0, "mean_nics": 3.0}}

    def worker(*reps: dict) -> dict:
        return {"traced": False, "setup_s": 1.0, "peak_rss_mb": 50.0, "reps": list(reps)}

    good = run.summarize("fleet-deepmix", [
        worker(rep(0, "a", 3.0), rep(1, "b")), worker(rep(2, "c"), rep(0, "a", 1.0)),
    ], False)
    assert good["correct"] and good["failed"] == 0, good
    assert good["metrics"]["run_s"]["value"] == 2.0, good
    mismatch = run.summarize("fleet-deepmix", [
        worker(rep(0, "a"), rep(1, "b"), rep(2, "c")), worker(rep(0, "x")),
    ], False)
    assert not mismatch["correct"] and mismatch["failed"] == 1, mismatch
    checked = run.summarize("fleet-deepmix", [
        worker(rep(0, "a"), rep(1, "b", failures=["rate out of range"]), rep(2, "c")),
        worker(rep(1, "b")),
    ], False)
    assert not checked["correct"] and checked["failed"] == 1, checked
    assert checked["metrics"]["ok_pct"]["value"] == 75.0, checked
    died = run.summarize("fleet-deepmix", [
        worker(rep(0, "a"), rep(1, "b"), rep(2, "c")),
        {"traced": False, "reps": [], "error": "timed out"},
    ], False)
    assert not died["correct"] and (died["attempted"], died["failed"]) == (4, 1), died
    print("ok: summarize counts failed checks, byte mismatches and dead workers")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines = bench("--workload", "fleet-deepmix", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0, "benchmark ran without the program"
    assert not any(line.startswith("{") for line in lines), lines
    print("ok: refuses to run without the program")


def main() -> int:
    check_summarize()
    check_bare_directory()
    for workload in run.INSTANCES:
        for trace in (0, 1):
            check_result(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
