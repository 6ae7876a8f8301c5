"""Steadiness report: repeat the benchmark over seeds, report the spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads diurnal-k1 mesh-k2 paper-k2 --seeds 1 2 3 4 5 6 7 8 9 10

For every workload it runs ``run.py --trace 0`` once per seed, one run
at a time, and prints for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the IQR as a
share of the median.  A spread is flagged ``WIDE`` when it exceeds a
third of the metric's bound in ``BENCHMARK.json`` and ``OVER`` when it
exceeds the bound itself.  The report is also written as JSON to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def bounds() -> "dict[str, float]":
    path = REPO / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def spread(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["diurnal-k1", "mesh-k2", "paper-k2"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    seconds = args.seconds
    if seconds is None:
        spec = REPO / "BENCHMARK.json"
        seconds = json.loads(spec.read_text())["run_seconds"] if spec.is_file() else 20
    limits = bounds()

    report: dict = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    status = 0
    for workload in args.workloads:
        samples: "dict[str, list[float]]" = {}
        durations = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=REPO, capture_output=True, text=True,
            )
            durations.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        rows = {name: spread(values) for name, values in samples.items() if len(values) >= 2}
        report["workloads"][workload] = {"metrics": rows, "run_s": durations}
        print(f"{workload}: {len(durations)} runs, {max(durations):.1f} s longest, "
              f"{sum(durations):.0f} s total")
        for name, row in rows.items():
            bound = limits.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "OVER" if row["iqr_share"] > bound else (
                    "WIDE" if row["iqr_share"] > bound / 3 else "ok")
            print(f"  {name:<12} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} iqr/median {row['iqr_share']:7.2%}  "
                  f"bound {bound if bound is not None else '-'}  {flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {path.relative_to(REPO)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
