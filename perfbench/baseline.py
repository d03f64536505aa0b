"""Record the benchmark baseline: every workload at one seed, tracing off and
on, with the facts of the machine it ran on.

    python3 perfbench/baseline.py [--seed 1] [--seconds 22] [--out perfbench/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH_DIR.parent, check=True,
    )
    sys.stdout.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        record["workloads"][name] = {
            "end_to_end": bench(name, args.seed, args.seconds, 0),
            "per_layer": bench(name, args.seed, args.seconds, 1),
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
