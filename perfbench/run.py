"""relex benchmark harness.

One run measures one workload for about ``--seconds`` seconds and prints,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, run_s,
peak_rss_mb); with ``--trace 1`` the relex layers are traced from outside
and the metrics are the per-layer ones (see layers.py).  Times are
scaled to the reference machine's speed by the speed probe (probe.py).

    python3 perfbench/run.py --workload verify-bp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the root of a relex checkout; relex is imported from ``src/``.
"""

from __future__ import annotations

import os

# One relex worker, so spans nest on one thread, and one BLAS thread, so
# a run does not compete with itself for the cores (set before numpy loads).
os.environ.pop("RELEX_THREADS", None)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from checks import check_factorization  # noqa: E402
from layers import METRICS, round_metrics  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNITS = dict(METRICS)


def _import_relex():
    """Import relex from the checkout's src/, never from elsewhere."""
    if not (ROOT / "src" / "relex" / "__init__.py").is_file():
        raise ImportError("no src/relex package in the checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import relex.cli  # noqa: F401


def timed_setup(workload: str, seed: int, work: Path) -> float:
    """Median, over SETUP_REPEATS fresh interpreters, of the wall time from
    process start until imports are done and the inputs are written,
    scaled by the speed probe taken just before and after each."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed = SpeedProbe()
        speed.bracket()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--work", str(work)],
            cwd=ROOT, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        speed.bracket()
        times.append(elapsed * speed.scale())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}")
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: timed set-up, then whole rounds until ``seconds`` pass.

    Every round's times, the per-layer ones too, are scaled by the speed
    probe taken during the round; the probe's own time is taken out of
    the round's time and out of every span."""
    w = WORKLOADS[workload]
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    tracer = Tracer() if trace else None
    rounds, raw, per_round, problems = [], [], [], []
    attempted = failed = 0
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = timed_setup(workload, seed, work)
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            k = len(rounds)
            speed = SpeedProbe()
            with speed.during():
                if tracer:
                    lo = len(tracer.spans)
                    tracer.install()
                    try:
                        res = w.run_round(work, seed, k)
                    finally:
                        tracer.uninstall()
                else:
                    res = w.run_round(work, seed, k)
            if not speed.samples:  # a round shorter than the probe interval
                speed.bracket()
            raw.append(res.seconds)
            rounds.append(res.seconds * speed.scale())
            if tracer:
                m = round_metrics(tracer.spans, lo, len(tracer.spans))
                m["trace.run_s"] = res.seconds
                per_round.append({name: value * speed.scale() if UNITS[name] in ("s", "ms")
                                  else value for name, value in m.items()})
            attempted += res.attempted
            failed += res.failed
            problems += w.check_round(work, seed, k)
        if tracer:
            problems += [p for s in tracer.spans
                         if s.name == "boolfact.bmf_factorize" and s.info is not None
                         for p in check_factorization(*s.info)]
            tracer.write(WORK / "traces" / f"{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(rounds)} rounds of "
          f"{', '.join(f'{r:.3f}' for r in rounds)} s at reference speed, "
          f"{', '.join(f'{r:.3f}' for r in raw)} s wall", file=sys.stderr)
    if tracer:
        metrics = {name: {"value": statistics.median(m[name] for m in per_round),
                          "unit": unit} for name, unit in METRICS}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "run_s": {"value": statistics.median(rounds), "unit": "s"},
                   "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"}}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, in child processes, as a table."""
    status = 0
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited {proc.returncode}\n{proc.stderr}")
                status = 1
                break
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        if len(results) < 2:
            continue
        plain, traced = results[0], results[1]
        print(f"== {name}  seed {seed}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for metric, v in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
        overhead = traced["metrics"]["trace.run_s"]["value"] - plain["metrics"]["run_s"]["value"]
        print(f"  {'tracing overhead (trace.run_s - run_s)':34s} {overhead:14.6g} s")
    return status


def _terminate(signum, frame):
    # Unwind on SIGTERM, so the scratch directory is removed and a running
    # set-up child is killed and waited for.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        _import_relex()
    except ImportError as exc:
        print(f"error: cannot import relex from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_only:  # the body of one timed set-up; relex is imported
        WORKLOADS[args.workload].setup(args.work, args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
