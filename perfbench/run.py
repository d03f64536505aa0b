"""flexmarket benchmark: closed-loop runs of one workload, or of all of them.

    python3 perfbench/run.py                       # every workload, table of metrics
    python3 perfbench/run.py --workload closed-24 --seed 1 --seconds 25 --trace 0

One process runs one simulation (or checker pass) at a time.  With
``--trace 0`` the operations are timed bare and the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
layer bindings are wrapped (see ``tracing.py``) and the JSON holds the
per-layer metrics.  The program is imported from ``src/`` of the checkout
this file sits in; without it the benchmark exits with code 2 and prints
no result.  See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

SETUP_RUNS = 5
#: a run is a fixed amount of work (``Workload.budget``); it is cut short only
#: if it takes this many times ``--seconds``, so that it still ends in time
HARD_STOP_FACTOR = 4

SETUP_CHILD = """
import sys, time, json
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import flexmarket, scipy.optimize
import workloads
workload = workloads.WORKLOADS[sys.argv[3]]
inputs = workloads.make_inputs(workload, int(sys.argv[4]))
if workload.config is not None:
    flexmarket.generate_scenario(inputs)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not import_program():
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    summary = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


def import_program() -> bool:
    """Import flexmarket from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import flexmarket
        import scipy.optimize  # noqa: F401  (linprog imports it lazily; keep that out of run_s)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return False
    if SRC.resolve() not in Path(flexmarket.__file__).resolve().parents:
        print(f"flexmarket came from {flexmarket.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the operations ``seconds`` buys on the reference machine,
    and summarize (contract JSON)."""
    setup_s = statistics.median(_setup_child(workload, seed) for _ in range(SETUP_RUNS))

    results = []

    def op(tracer=None):
        r = _timed_operation(workload, seed, tracer)
        first = next((p.terminal for p in results if p.terminal), None)
        if r.terminal and first is not None and r.terminal != first:
            r.problems.append("repetition differs from the first run at this seed")
        results.append(r)
        return r

    warm = op()
    _print_reference(workload.name, warm)
    budget, spent = workload.budget(seconds), 0
    hard_stop = time.perf_counter() + HARD_STOP_FACTOR * seconds

    def spend(r) -> bool:
        """Charge an operation's units to the budget; True once it is used up.
        One that raised is charged as many units as an operation can have."""
        nonlocal spent
        spent += r.units or workload.max_units
        if time.perf_counter() >= hard_stop and spent < budget:
            print(f"{workload.name}: stopped at {spent} of {budget} units, "
                  f"{HARD_STOP_FACTOR} x --seconds has passed")
            return True
        return spent >= budget

    if not trace:
        while not spend(op()):
            pass
        timed = results[1:]  # the warm-up is checked, not timed
        metrics = _end_to_end(timed, setup_s)
        _print_end_to_end(workload.name, timed, metrics)
    else:
        from tracing import Tracer

        tracer = Tracer()
        bare, traced, profiles = [], [], []
        while True:
            bare.append(op())
            tracer.op += 1
            tracer.install()
            try:
                r = op(tracer)
            finally:
                tracer.uninstall()
            traced.append(r)
            if r.terminal:
                profiles.append(tracer.profile(tracer.op))
            spent += bare[-1].units or workload.max_units
            if spend(r):
                break
        metrics = _per_layer(profiles, bare, traced, results)
        _print_metrics(workload.name + " (traced)", metrics)
    failed = sum(not r.ok for r in results)
    print(
        f"{workload.name}: attempted {len(results)}, failed {failed}, "
        f"failed_ratio {failed / len(results):.4g}"
    )
    for i, r in enumerate(results):
        for problem in ([r.unfinished] if r.unfinished else []) + r.problems:
            print(f"  FAILED operation {i} at seed {r.seed}: {problem}")
    return {
        "correct": not any(r.problems for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def _setup_child(workload, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), workload.name, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _timed_operation(workload, seed: int, tracer):
    """One operation; a raise or a failed check is recorded in the result,
    never propagated."""
    from workloads import OpResult, make_inputs, run_operation

    inputs = make_inputs(workload, seed)
    try:
        return run_operation(workload, seed, inputs, WORK_DIR / workload.name)
    except Exception as exc:  # the operation failed; keep measuring the rest
        if tracer is not None:
            tracer.reset_stack()
        result = OpResult(seed)
        result.unfinished = f"raised {type(exc).__name__}: {exc}"
        return result


def _end_to_end(timed, setup_s: float) -> dict:
    # a simulation stopped by max_rounds played its rounds too; at a seed that
    # never terminates those are the only rounds there are
    # every operation of a run does the same work, so the median shrugs off a
    # burst of load on the shared host
    done = [r for r in timed if r.terminal]
    return {
        "ms_per_round": (
            1000 * statistics.median(r.work_s / r.units for r in done) if done else None
        ),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(profiles, bare, traced, results) -> dict:
    if not profiles:
        return {}
    metrics = {}
    for key in profiles[0]:
        values = [p[key] for p in profiles]
        if unit_of(key) == "s":
            metrics[key] = None if None in values else statistics.median(values)
            continue
        metrics[key] = values[0]
        if any(v != values[0] for v in values):
            results[-1].problems.append(f"traced count {key} differs between repetitions: {values}")
    done_bare = [r.run_s for r in bare if r.terminal]
    done_traced = [r.run_s for r in traced if r.terminal]
    metrics["trace.overhead_s"] = (
        statistics.median(done_traced) - statistics.median(done_bare) if done_bare else None
    )
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric == "ms_per_round":
        return "ms"
    if "bytes" in metric:
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# human-readable report
# ---------------------------------------------------------------------------


def _print_reference(name: str, warm) -> None:
    """Terminal values of the warm-up operation beside the recorded ones, with deltas."""
    reference = json.loads((BENCH_DIR / "reference.json").read_text()).get(name)
    if not reference or warm.seed != reference["seed"] or not warm.terminal:
        return
    print(f"{name} seed {warm.seed}: terminal values vs reference")
    for key, ref in reference.items():
        if key == "seed":
            continue
        got = warm.terminal.get(key)
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
            print(f"  {key:20s} {got!r:>24} ref {ref!r:>24} delta {got - ref:+.6g}")
        else:
            print(f"  {key:20s} {got} ({'same' if got == ref else 'differs from ' + str(ref)})")


def _print_end_to_end(name, timed, metrics) -> None:
    """The gated metrics, then run_s: its median follows each seed's round
    count, so it is printed for people and left out of the JSON."""
    _print_metrics(name, metrics)
    ok = sorted(r.run_s for r in timed if r.ok)
    n = len(ok)
    if not ok:
        print(f"  {name} run_s = missing s (no operation succeeded)")
        return
    if n >= 20:
        tail = f"p{100 * (n - 10) / n:.0f} {ok[n - 11]:.6g} s (10 samples beyond)"
    else:
        tail = "no percentile at or above the median has 10 samples beyond it"
    print(f"  {name} run_s = {statistics.median(ok):.6g} s (median of {n}); {tail}")


def _print_metrics(name, metrics) -> None:
    for key, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name} {key} = {shown} {unit_of(key)}")


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def run_all(workloads, args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    rows, status = [], 0
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        status = status or int(not summary["correct"])
        rows.append((name, summary))
    print()
    for name, summary in rows:
        ratio = summary["failed"] / summary["attempted"]
        shown = ", ".join(
            f"{k} {'missing' if m['value'] is None else format(m['value'], '.4g')} {m['unit']}"
            for k, m in summary["metrics"].items()
            if args.trace == 0 or k.endswith(".s")
        )
        print(f"{name:11s} failed_ratio {ratio:.3g}, {shown}")
    return status


if __name__ == "__main__":
    sys.exit(main())
