"""One worker process of a benchmark run.

Run by ``run.py`` as ``python3 perfbench/rep.py --workload W --seed N
--size full|tiny --instances K --start I --seconds T --min-reps M
[--trace-out PATH]`` from the repository root. The worker sets the
workload up once, then times repetitions of its ``K`` instances in
turn, starting at instance ``I``, until at least ``M`` are done and another would run past ``T``
seconds. Each repetition starts from the state set-up left (see
``workloads.py``).

Prints one JSON object: the set-up seconds (from process start), peak
RSS and one record per repetition (instance, run seconds, report
digest, work, sim metrics, failed output checks or the exception).
With ``--trace-out`` every layer is traced, set-up included; the
per-layer metrics of the whole process are added and the spans are
written to ``PATH`` when it ends.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def repeat(workload, start: int, seconds: float, min_reps: int, tracer) -> list[dict]:
    reps: list[dict] = []
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        n = len(reps)
        if n >= max(min_reps, 1) and elapsed * (n + 1) / n > seconds:
            return reps
        i = (start + n) % workload.instances
        rep: dict = {"instance": i, "ok": False}
        try:
            run = workload.prepare(i)
            if tracer is not None:
                run = tracer.wrap("run", run)
            t1 = time.perf_counter()
            outcome = run()
            run_s = time.perf_counter() - t1
            rep.update(
                run_s=run_s,
                ok=not outcome.failures,
                digest=outcome.digest,
                work=outcome.work,
                sim=outcome.sim,
                counters=outcome.counters,
                failures=outcome.failures,
            )
        except Exception:  # counted as a failed repetition by the parent
            rep["error"] = traceback.format_exc()
        reps.append(rep)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--instances", type=int, default=1)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    result: dict = {"reps": []}
    tracer = None
    try:
        import workloads

        workload = workloads.make_workload(args.workload, args.seed, args.size,
                                          args.instances)
        setup = workload.setup
        if args.trace_out:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            setup = tracer.wrap("setup", setup)
        setup()
        t1 = time.perf_counter()
        result["setup_s"] = t1 - T0
        result["reps"] = repeat(workload, args.start, args.seconds, args.min_reps, tracer)
        result["timed_s"] = time.perf_counter() - t1
        if tracer is not None:
            counters = sum((Counter(r.get("counters", {})) for r in result["reps"]), Counter())
            result["layers"] = tracing.layer_metrics(tracer, counters)
            tracer.save(args.trace_out)
    except Exception:  # a failed set-up: reported to the parent
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
