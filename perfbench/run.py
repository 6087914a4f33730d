"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload fleet-deepmix --seed 1 --seconds 34 --trace 0

A run measures ``INSTANCES[workload]`` seeded instances of the
workload (instance ``i`` gets program seed ``100 * seed + i``). It starts
``WORKERS`` fresh single processes one after another (serial runtime,
single-threaded BLAS). Each sets the workload up once, which gives one
``setup_s`` sample, and then times repetitions of the instances in turn,
each from the same cold state, for its share of ``--seconds``; the
instance order carries on from one worker to the next. Every repetition
is output-checked, and all repetitions of one instance, in any worker,
must render the same report bytes.

A run's ``run_s`` is the mean over instances of each instance's median
repetition; set-up is the median over workers; a sim metric is the
mean over instances.

Prints one line per repetition, the machine, the end-to-end metrics
under their workload-specific names, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 1`` runs pairs of workers, one untraced and one traced, each
over every instance once, and reports the per-layer metrics of the
traced worker (set-up included) plus ``trace.overhead``; traced reports
must match the untraced bytes. Spans and per-run records are written
under ``.perfbench/`` at the repository root. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Seeded instances per run: averaging over instances keeps one seed's
#: inputs from setting the run's figures.
INSTANCES = {"fleet-deepmix": 3, "fleet-hetero-event": 4, "paper-tables": 1}

#: Worker processes of an untraced run, each one set-up sample.
WORKERS = 3

#: Thread pools pinned to one thread so a repetition uses one core.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: No worker may run past this many seconds after the run started.
HARD_LIMIT_S = 160.0

#: End-to-end metric -> (unit, its name on each workload).
END_TO_END = {
    "setup_s": ("s", {}),
    "run_s": ("s", {}),
    "peak_rss_mb": ("MB", {}),
    "ok_pct": ("%", {}),
    "work_per_s": ("1/s", {
        "fleet-deepmix": "service_epochs_per_s",
        "fleet-hetero-event": "service_epochs_per_s",
        "paper-tables": "profiling_samples_per_s",
    }),
    "sim_score": ("1", {
        "fleet-deepmix": "mean_service_mpps",
        "fleet-hetero-event": "mean_service_mpps",
        "paper-tables": "yala_acc10_pct",
    }),
    "sim_loss": ("1", {
        "fleet-deepmix": "mean_nics",
        "fleet-hetero-event": "mean_nics",
        "paper-tables": "yala_mape_pct",
    }),
}


def machine() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "platform": platform.platform(),
        "env": PINNED_ENV,
    }


def run_worker(args, start: int, seconds: float, min_reps: int, traced: bool,
               timeout: float) -> dict:
    """One worker process; a crash or timeout is one failed repetition."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--start", str(start),
           "--instances", str(INSTANCES[args.workload]), "--seconds", str(seconds),
           "--min-reps", str(min_reps)]
    if traced:
        cmd += ["--trace-out", str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")]
    env = {**os.environ, **PINNED_ENV}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        worker = {"reps": [], "error": f"timed out after {timeout:.0f} s"}
    else:
        try:
            worker = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            worker = {"reps": [], "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    worker["traced"] = traced
    for rep in worker["reps"]:
        rep["traced"] = traced
    return worker


def attempts(workers: list[dict]) -> list[dict]:
    """Every repetition, plus one failed attempt per worker that died."""
    reps = [r for w in workers for r in w["reps"]]
    reps += [{"instance": None, "ok": False, "traced": w["traced"], "error": w["error"]}
             for w in workers if "error" in w]
    return reps


def by_instance(reps: list[dict], traced: bool) -> dict[int, list[dict]]:
    """Each instance's successful repetitions."""
    groups: dict[int, list[dict]] = {}
    for r in reps:
        if r["ok"] and r["traced"] == traced:
            groups.setdefault(r["instance"], []).append(r)
    return groups


def median_run_s(groups: dict[int, list[dict]]) -> dict[int, float]:
    return {i: statistics.median(r["run_s"] for r in g) for i, g in groups.items()}


def summarize(workload: str, workers: list[dict], trace: bool) -> dict:
    """The result object from the workers of one run.

    A repetition fails if it raised, failed an output check, or rendered
    other report bytes than the first successful repetition of its
    instance; a worker that died counts as one more failed attempt.
    """
    reps = attempts(workers)
    reference: dict[int, str] = {}
    for r in reps:
        if r["ok"]:
            expected = reference.setdefault(r["instance"], r["digest"])
            if r["digest"] != expected:
                r["ok"] = False
                r["failures"] = [f"report digest {r['digest'][:12]} != {expected[:12]}"]
    failed = sum(not r["ok"] for r in reps)
    result = {"correct": failed == 0, "attempted": max(len(reps), 1), "failed": failed,
              "metrics": {}}
    plain = by_instance(reps, traced=False)
    traced = by_instance(reps, traced=True)
    expected = set(range(INSTANCES[workload]))
    if set(plain) != expected or (trace and set(traced) != expected):
        result["correct"] = False
        return result
    metrics = result["metrics"]
    plain_s = median_run_s(plain)
    if not trace:
        for name, (unit, aliases) in END_TO_END.items():
            if name == "setup_s":
                value = statistics.median(w["setup_s"] for w in workers if "setup_s" in w)
            elif name == "run_s":
                value = statistics.fmean(plain_s.values())
            elif name == "peak_rss_mb":
                value = max(w["peak_rss_mb"] for w in workers if "peak_rss_mb" in w)
            elif name == "ok_pct":
                value = 100.0 * (len(reps) - failed) / len(reps)
            elif name == "work_per_s":
                value = sum(g[0]["work"] for g in plain.values()) / sum(plain_s.values())
            else:
                value = statistics.fmean(g[0]["sim"][aliases[workload]] for g in plain.values())
            metrics[name] = {"value": value, "unit": unit}
        return result
    layered = [w["layers"] for w in workers if w["traced"] and "layers" in w]
    for name, (_, unit) in layered[0].items():
        metrics[name] = {"value": statistics.median(w[name][0] for w in layered),
                         "unit": unit}
    traced_s = median_run_s(traced)
    metrics["trace.overhead"] = {
        "value": statistics.fmean(traced_s[i] / plain_s[i] for i in plain_s),
        "unit": "ratio",
    }
    return result


def print_human(workload: str, seed: int, workers: list[dict], result: dict) -> None:
    """Per-repetition lines, then every metric under its workload name."""
    for k, w in enumerate(workers):
        kind = "traced" if w["traced"] else "plain"
        if "setup_s" in w:
            print(f"# worker {k} {kind}: setup {w['setup_s']:.3f} s, "
                  f"rss {w['peak_rss_mb']:.1f} MB")
        for r in attempts([w]):
            if "run_s" in r:
                status = "ok" if r["ok"] else "FAILED " + "; ".join(r["failures"][:3])
                print(f"#   instance {r['instance']}: run {r['run_s']:.3f} s, "
                      f"digest {r['digest'][:12]}, {status}")
            else:
                error = r.get("error", "").strip().replace("\n", "\n#     ")
                print(f"#   instance {r['instance']}: FAILED\n#     {error}")
    failed_pct = 100.0 * result["failed"] / result["attempted"]
    print(f"# {workload} seed {seed}: failed_pct {failed_pct:.1f} % "
          f"of {result['attempted']} attempted repetitions")
    for name, metric in result["metrics"].items():
        alias = END_TO_END.get(name, (None, {}))[1].get(workload)
        label = f"{alias} ({name})" if alias else name
        print(f"# {label}: {metric['value']:.6g} {metric['unit']}")
    plain = list(by_instance(attempts(workers), traced=False).values())
    if plain:
        for name in plain[0][0]["sim"]:
            value = statistics.fmean(g[0]["sim"][name] for g in plain)
            print(f"# sim {name}: {value:.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(INSTANCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the harness self-test's inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    host = machine()
    print(f"# machine: {json.dumps(host, sort_keys=True)}")

    k = INSTANCES[args.workload]
    start = time.monotonic()
    workers: list[dict] = []

    def left() -> float:
        return max(HARD_LIMIT_S - (time.monotonic() - start), 1.0)

    if args.trace:
        # Pairs of one untraced and one traced pass over every instance,
        # as long as another pair fits in --seconds.
        while True:
            began = time.monotonic()
            for traced in (False, True):
                workers.append(run_worker(args, 0, 0.0, k, traced, left()))
            now = time.monotonic()
            if (now - start) + (now - began) > args.seconds:
                break
    else:
        timed, done = 0.0, 0
        for j in range(WORKERS):
            share = max(args.seconds - timed, 0.0) / (WORKERS - j)
            # The last worker makes sure every instance ran at least once.
            min_reps = max(k - done, 1) if j == WORKERS - 1 else 1
            worker = run_worker(args, done % k, share, min_reps, False, left())
            workers.append(worker)
            timed += worker.get("timed_s", 0.0)
            done += len(worker["reps"])

    result = summarize(args.workload, workers, bool(args.trace))
    print_human(args.workload, args.seed, workers, result)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"machine": host, "args": vars(args),
                                  "workers": workers, "result": result},
                                 indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
