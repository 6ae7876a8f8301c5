"""Benchmark command: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload diurnal-k1 --seed 11 --seconds 25 --trace 0

Every pass runs in a fresh interpreter (``child.py``).  With
``--trace 0`` the command starts one discarded pass that only sets up
(it compiles the ``.pyc`` files), then timed passes until at least
``--seconds`` have been spent in them (at least two passes), then
set-up-only passes until five cold starts have been timed.  It prints
the medians of the end-to-end metrics.  With ``--trace 1`` it runs one
untraced and one traced pass plus three ``import repro.cli`` starts and
prints the per-layer metrics.

Correctness gates, applied to every pass: each trajectory passes
``check_trajectory``, no slot is unserved or served by a serve
fallback path, no algorithm run raises, and the decision digests of all
passes of one invocation are identical.  A violation is printed, counts
as failed, and makes the command exit 1.

The full record — metrics, every pass, gates and the environment's
provenance — is written to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("diurnal-k1", "mesh-k2", "paper-k2")
DEFAULT_SEED = 11

#: Cold starts timed per invocation for ``setup_s``.
SETUP_SAMPLES = 5
#: Timed passes per invocation, at least (the digest gate needs two).
MIN_PASSES = 2
#: Hard limit on one child process.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cost_ratio": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "startup.modules": "count",
    "topology.build_s": "s",
    "serve.self_s": "s",
    "serve.events_s": "s",
    "obs.health_s": "s",
    "engine.self_s": "s",
    "core.split_s": "s",
    "core.solve_reduced_s": "s",
    "serve.slot_ms_p50": "ms",
    "serve.slot_ms_p90": "ms",
    "backends.self_s": "s",
    "backends.fast_path_hits": "count",
    "backends.newton_iters": "count",
    "backends.fallbacks": "count",
    "backends.fallback_share": "ratio",
    "convex.self_s": "s",
    "convex.calls": "count",
    "barrier.newton_iters": "count",
    "barrier.backtracks": "count",
    "barrier.factorization_s": "s",
    "convex.trust_constr_share": "ratio",
    "core.warm_hit_share": "ratio",
    "lp.self_s": "s",
    "lp.calls": "count",
    "offline.solve_s": "s",
    "prediction.fhc_s": "s",
    "prediction.rhc_s": "s",
    "prediction.rfhc_s": "s",
    "prediction.rrhc_s": "s",
    "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    pass


def run_child(args: argparse.Namespace, mode: str, spans: "Path | None" = None) -> dict:
    """Start one child pass; returns its result plus the timed set-up.

    ``setup_s`` is measured here, from just before the interpreter is
    started until the child prints ``READY``.  The child inherits this
    process's environment unchanged (BLAS thread settings included).
    """
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=REPO)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        setup_s = None
        lines = []
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise ChildError(f"{mode} pass exited with code {code}")
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = setup_s
    return result


def git_commit() -> "str | None":
    """HEAD of the checkout, read from ``.git`` inside it (None outside git)."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args: argparse.Namespace, fingerprint: "str | None") -> dict:
    """Where and on what the numbers were measured."""
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                     if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "backend": "sequential" if args.workload == "paper-k2" else "batched",
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "input_fingerprint": fingerprint,
    }


def gate(passes: "list[dict]") -> "list[str]":
    """Problems across passes: per-pass findings plus digest agreement."""
    problems = []
    for k, p in enumerate(passes):
        problems += [f"pass {k}: {msg}" for msg in p["problems"]]
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"decision digests differ across passes: {sorted(digests)}")
    if len({p["fingerprint"] for p in passes}) != 1:
        problems.append("input fingerprints differ across passes")
    return problems


def end_to_end(args: argparse.Namespace) -> "tuple[dict, list[dict], list[float]]":
    run_child(args, "setup")  # discarded: compiles the .pyc files
    passes: "list[dict]" = []
    setups: "list[float]" = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        p = run_child(args, "run")
        passes.append(p)
        setups.append(p["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(args, "setup")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cost_ratio": passes[0]["cost_ratio"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes, setups


def per_layer(args: argparse.Namespace) -> "tuple[dict, list[dict], dict]":
    run_child(args, "setup")  # discarded: compiles the .pyc files
    imports = [run_child(args, "import") for _ in range(3)]
    plain = run_child(args, "run")
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    traced = run_child(args, "trace", spans=spans)
    metrics = dict(traced["layers"])
    metrics.update({
        "startup.import_s": statistics.median(i["import_s"] for i in imports),
        "startup.modules": imports[0]["modules"],
        "topology.build_s": plain["build_s"],
        "serve.slot_ms_p50": plain["slot_ms_p50"],
        "serve.slot_ms_p90": plain["slot_ms_p90"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    extra = {"attribution": traced["attribution"], "spans_file": traced.get("spans_file")}
    return metrics, [plain, traced], extra


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests' input size")
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {REPO / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, passes, extra = per_layer(args)
            units = PER_LAYER_UNITS
        else:
            metrics, passes, setups = end_to_end(args)
            extra = {"setup_samples": setups}
            units = END_TO_END_UNITS
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = gate(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if problems and failed == 0:
        failed = 1  # a gate failed that no single operation accounts for
    if not args.trace:
        metrics["ok_share"] = 1.0 - failed / attempted
    record = {
        "schema": "repro-perfbench/v1",
        "provenance": provenance(args, passes[0]["fingerprint"]),
        "shape": passes[0]["shape"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    width = max(len(k) for k in units)
    print(f"{args.workload} seed={args.seed} size={args.size} "
          f"passes={len(passes)} record={out.relative_to(REPO)}")
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]!r:>24}  {unit}")
    for layer, share in extra.get("attribution", {}).items():
        print(f"  share of traced wall: {layer:<20} {share:7.2%}")
    for msg in problems:
        print(f"  GATE FAILED: {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
