#!/usr/bin/env python
"""Solver performance microbenchmarks -> ``BENCH_solver.json``.

Measures the wall-time effect of the solver performance flags
(:class:`~repro.core.subproblem.SubproblemConfig` ``fused_kernels`` and
``reuse_structure``) on full :class:`~repro.core.online.RegularizedOnline`
trajectories, plus kernel-level call timings of the fused
:class:`~repro.solvers.convex.SeparableObjective` against its per-term
loop reference.  The two configurations are solved in the *same run* on
the *same instance*, and the fused kernels are bitwise identical to the
loop reference (property-tested), so both take exactly the same Newton
path — the speedup is pure per-iteration work, not a different
trajectory.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_solver.py              # full suite
    PYTHONPATH=src python benchmarks/perf/bench_solver.py --smoke      # CI-sized
    PYTHONPATH=src python benchmarks/perf/bench_solver.py --out f.json --repeats 5

Scenario scales:

* ``small``  — :meth:`ExperimentScale.tiny` (3x5 clouds, 30 slots);
* ``medium`` — the repo's default laptop scale (6x12 clouds, 96 slots,
  ``k=2``), the scale the figure experiments run at.

The ``batched`` scenarios time the ``--backend batched`` solver layer
(component decomposition + closed-form stars + batched block-diagonal
Newton, see docs/SOLVER_BACKENDS.md) against the ``sequential``
reference on the same instance, and record the residual decision gap
alongside the speedup.  ``batched-k2-parity`` pins the k=2 fallback
case, where the two backends are bitwise identical.  ``batched-mesh``
runs a k=2 regional multi-PoP mesh (the geo generator with
``regional_sla=True``): many same-shape Newton blocks whose peak slots
need a per-block phase-I start; its record counts the slots the batched
backend routed to the coupled solve (``coupled_fallbacks``, expected 0).

The ``cache-cold`` / ``cache-warm`` scenarios measure the persistent
cross-run solver cache (``--cache``, :mod:`repro.cache`): each repeat
runs the same RegularizedOnline trajectory twice against a fresh cache
directory — the first run (cold) populates it, the second (warm)
replays every solve from the store.  Recorded: second-run speedup,
warm-start hit rate (a cache hit is the warmest possible start), and
whether the cached decisions are byte-identical to an uncached run
(they must be: backends are deterministic and hits are exact-input).

The JSON is self-describing (``schema`` key); every trajectory scenario
records median wall time over ``--repeats`` runs, total Newton
iterations, solve count, and warm-start hit rate for the baseline
(flags off) and optimized (flags on, the default) configurations, plus
their speedup ratio.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Trajectory scenarios: flags off vs flags on, same instance, same run
# ----------------------------------------------------------------------
def _config_metrics(times: "list[float]", stats) -> dict:
    """Summarize one configuration's repeated runs."""
    return {
        "wall_time_s": round(statistics.median(times), 4),
        "wall_time_runs_s": [round(t, 4) for t in times],
        "newton_iters": stats.total_newton_iters,
        "solves": stats.total_solves,
        "warm_start_hit_rate": round(stats.warm_hit_rate, 4),
        "steps": stats.n_steps,
    }


def bench_trajectory(
    name: str,
    scale,
    workload: str,
    k: int,
    epsilon: float,
    repeats: int,
) -> dict:
    """Time RegularizedOnline with perf flags off vs on (defaults)."""
    from repro.core.online import RegularizedOnline
    from repro.core.subproblem import SubproblemConfig
    from repro.evaluation.experiments import make_instance
    from repro.evaluation.runner import run_algorithm

    instance = make_instance(scale, workload, k=k)

    def measure(**flags) -> dict:
        times, stats = [], None
        for _ in range(repeats):
            cfg = SubproblemConfig(epsilon=epsilon, **flags)
            result = run_algorithm("bench", RegularizedOnline(cfg), instance)
            times.append(result.runtime)
            stats = result.stats
        return _config_metrics(times, stats)

    baseline = measure(reuse_structure=False, fused_kernels=False)
    optimized = measure()  # the defaults: reuse_structure=True, fused_kernels=True
    return {
        "name": name,
        "kind": "trajectory",
        "algorithm": "RegularizedOnline",
        "workload": workload,
        "scale": {
            "n_tier2": scale.n_tier2,
            "n_tier1": scale.n_tier1,
            "horizon": scale.horizon_wiki
            if workload == "wikipedia"
            else scale.horizon_worldcup,
            "k": k,
        },
        "epsilon": epsilon,
        "repeats": repeats,
        "baseline": baseline,
        "optimized": optimized,
        "speedup": round(baseline["wall_time_s"] / optimized["wall_time_s"], 3),
        "same_newton_path": baseline["newton_iters"] == optimized["newton_iters"],
    }


# ----------------------------------------------------------------------
# Backend scenario: sequential vs batched per-slot solve strategy
# ----------------------------------------------------------------------
def fig_instance(scale, workload: str, k: int) -> "tuple[object, dict]":
    """The figure experiments' instance and its record description."""
    from repro.evaluation.experiments import make_instance

    horizon = scale.horizon_wiki if workload == "wikipedia" else scale.horizon_worldcup
    return make_instance(scale, workload, k=k), {
        "workload": workload,
        "scale": {
            "n_tier2": scale.n_tier2,
            "n_tier1": scale.n_tier1,
            "horizon": horizon,
            "k": k,
        },
    }


def mesh_instance(
    n_regions: int, pops_per_region: int, tier1_per_region: int,
    horizon: int, seed: int,
) -> "tuple[object, dict]":
    """k=2 regional multi-PoP geo mesh (topology seed 11) with diurnal
    demand and prices drawn from ``seed``, and its record description."""
    from repro.topology.generate import GeoTopologyConfig, generate_topology
    from repro.workloads.synthetic import diurnal_profile

    topo = generate_topology(
        GeoTopologyConfig(
            n_regions=n_regions,
            pops_per_region=pops_per_region,
            tier1_per_region=tier1_per_region,
            k=2,
            regional_sla=True,
            seed=11,
        )
    )
    rng = np.random.default_rng(seed)
    volume = np.exp(rng.normal(0.0, 0.2, size=topo.n_tier1))
    demand = np.column_stack(
        [diurnal_profile(horizon, 1.0, 0.4, 24, j % 24) for j in range(topo.n_tier1)]
    )
    instance = topo.build_instance(volume * demand, price_seed=seed)
    return instance, {
        "workload": "geo-mesh",
        "scale": {
            "n_regions": n_regions,
            "pops_per_region": pops_per_region,
            "tier1_per_region": tier1_per_region,
            "n_tier2": topo.n_tier2,
            "n_tier1": topo.n_tier1,
            "horizon": horizon,
            "k": 2,
            "seed": seed,
        },
    }


def bench_backend(
    name: str,
    instance,
    description: dict,
    epsilon: float,
    repeats: int,
) -> dict:
    """Time RegularizedOnline under the two solver backends.

    Unlike the flags scenarios the two configurations take *different*
    numerical paths (closed-form stars + batched Newton vs the coupled
    barrier), so alongside wall time the scenario records the maximum
    relative decision deviation (tier-2 totals, link allocations, total
    cost) — the equivalence contract from docs/SOLVER_BACKENDS.md — and
    how many slots the batched backend handed to the coupled solve.
    """
    from repro.core.online import RegularizedOnline
    from repro.core.subproblem import SubproblemConfig
    from repro.evaluation.runner import run_algorithm
    from repro.model.costs import evaluate_cost

    net = instance.network

    def measure(backend: str) -> "tuple[dict, object]":
        times, stats, result = [], None, None
        for _ in range(repeats):
            cfg = SubproblemConfig(epsilon=epsilon, backend=backend)
            result = run_algorithm("bench", RegularizedOnline(cfg), instance)
            times.append(result.runtime)
            stats = result.stats
        return _config_metrics(times, stats), result.trajectory

    sequential, traj_seq = measure("sequential")
    batched, traj_bat = measure("batched")
    # A slot the batched path served records a "batched" solve; a slot
    # it routed to the coupled solve records the barrier's name instead.
    coupled_fallbacks = sum(
        "batched" not in step.backends for step in traj_bat.run_stats.steps
    )

    def rel_gap(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))

    cost_seq = evaluate_cost(instance, traj_seq).total
    cost_bat = evaluate_cost(instance, traj_bat).total
    return {
        "name": name,
        "kind": "backend",
        "algorithm": "RegularizedOnline",
        **description,
        "epsilon": epsilon,
        "repeats": repeats,
        "sequential": sequential,
        "batched": batched,
        "coupled_fallbacks": coupled_fallbacks,
        "speedup": round(
            sequential["wall_time_s"] / batched["wall_time_s"], 3
        ),
        "decision_gap": {
            "tier2_totals_rel": rel_gap(
                traj_seq.tier2_totals(net), traj_bat.tier2_totals(net)
            ),
            "link_rel": rel_gap(traj_seq.y, traj_bat.y),
            "cost_rel": abs(cost_bat - cost_seq) / (1.0 + abs(cost_seq)),
        },
    }


# ----------------------------------------------------------------------
# Cache scenario: first run populates the store, second run replays it
# ----------------------------------------------------------------------
def bench_cache(
    scale,
    workload: str,
    k: int,
    epsilon: float,
    repeats: int,
) -> "list[dict]":
    """Time RegularizedOnline against a fresh persistent cache.

    Returns two scenario records sharing one measurement: ``cache-cold``
    (first run on an empty store — the uncached path plus store writes)
    and ``cache-warm`` (second run on the populated store — every solve
    replayed, zero Newton iterations).  Decisions of both are compared
    bitwise against an uncached reference run.
    """
    import shutil
    import tempfile

    from repro.cache import runtime as cache_runtime
    from repro.core.online import RegularizedOnline
    from repro.core.subproblem import SubproblemConfig
    from repro.evaluation.experiments import make_instance
    from repro.evaluation.runner import run_algorithm

    instance = make_instance(scale, workload, k=k)

    def one_run():
        cfg = SubproblemConfig(epsilon=epsilon)
        return run_algorithm("bench", RegularizedOnline(cfg), instance)

    ref = one_run()  # uncached reference (decisions + wall time)

    def identical(traj) -> bool:
        return (
            np.array_equal(traj.x, ref.trajectory.x)
            and np.array_equal(traj.y, ref.trajectory.y)
            and np.array_equal(traj.s, ref.trajectory.s)
        )

    cold_times, warm_times = [], []
    cold_stats = warm_stats = None
    all_identical = True
    hits = misses = 0
    for _ in range(repeats):
        root = tempfile.mkdtemp(prefix="bench-cache-")
        try:
            with cache_runtime.use(root) as store:
                cold = one_run()
                before = store.counters.as_dict()
                warm = one_run()
                after = store.counters.as_dict()
                # The warm *run*'s lookup outcomes only (the cold run
                # is all misses by construction).
                hits += after["hit"] - before["hit"]
                misses += after["miss"] - before["miss"]
            cold_times.append(cold.runtime)
            warm_times.append(warm.runtime)
            cold_stats, warm_stats = cold.stats, warm.stats
            all_identical = (
                all_identical and identical(cold.trajectory)
                and identical(warm.trajectory)
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    shared = {
        "kind": "cache",
        "algorithm": "RegularizedOnline",
        "workload": workload,
        "scale": {
            "n_tier2": scale.n_tier2,
            "n_tier1": scale.n_tier1,
            "horizon": scale.horizon_wiki
            if workload == "wikipedia"
            else scale.horizon_worldcup,
            "k": k,
        },
        "epsilon": epsilon,
        "repeats": repeats,
        "decisions_identical_to_uncached": all_identical,
    }
    cold_wall = statistics.median(cold_times)
    warm_wall = statistics.median(warm_times)
    return [
        {
            "name": "cache-cold",
            **shared,
            **_config_metrics(cold_times, cold_stats),
            "uncached_wall_time_s": round(ref.runtime, 4),
            "store_overhead": round(cold_wall / max(ref.runtime, 1e-12), 3),
        },
        {
            "name": "cache-warm",
            **shared,
            **_config_metrics(warm_times, warm_stats),
            "second_run_speedup": round(cold_wall / max(warm_wall, 1e-12), 3),
            "cache_hit_rate": round(hits / max(hits + misses, 1), 4),
        },
    ]


# ----------------------------------------------------------------------
# Kernel scenario: fused vs loop objective evaluations on one program
# ----------------------------------------------------------------------
def bench_kernels(scale, workload: str, k: int, calls: int) -> dict:
    """Per-call timings of the fused objective kernels vs the loop path."""
    from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
    from repro.evaluation.experiments import make_instance
    from repro.model.allocation import Allocation

    instance = make_instance(scale, workload, k=k)
    sub = RegularizedSubproblem(
        instance.network, SubproblemConfig(epsilon=1e-3, reuse_structure=False)
    )
    prog = sub.build(
        instance.workload[0],
        instance.tier2_price[0],
        instance.link_price[0],
        Allocation.zeros(instance.network.n_edges),
    )
    obj = prog.objective
    v = prog._interior_start()

    def per_call(fn) -> float:
        fn(v)  # warm up scratch buffers / allocation paths
        start = time.perf_counter()
        for _ in range(calls):
            fn(v)
        return (time.perf_counter() - start) / calls

    timings = {}
    for kernel in ("value", "grad", "hess_diag"):
        obj.fused = True
        fused_t = per_call(getattr(obj, kernel))
        loop_t = per_call(getattr(obj, f"_{kernel}_loop"))
        timings[kernel] = {
            "fused_us": round(fused_t * 1e6, 2),
            "loop_us": round(loop_t * 1e6, 2),
            "speedup": round(loop_t / fused_t, 2),
        }
    obj.fused = True
    return {
        "name": "kernels",
        "kind": "microbench",
        "n_vars": prog.objective.n,
        "n_entropic_terms": len(obj.entropic),
        "calls": calls,
        "kernels": timings,
    }


# ----------------------------------------------------------------------
def run(repeats: int, smoke: bool) -> dict:
    from repro.evaluation.scale import ExperimentScale

    tiny = ExperimentScale.tiny()
    scenarios = [
        bench_kernels(tiny if smoke else ExperimentScale.from_env(),
                      "wikipedia", k=2, calls=50 if smoke else 500),
        bench_trajectory(
            "small", tiny, "wikipedia", k=1, epsilon=1e-3,
            repeats=1 if smoke else repeats,
        ),
    ]
    scenarios.append(
        bench_backend(
            "batched",
            *fig_instance(tiny if smoke else ExperimentScale.from_env(), "wikipedia", k=1),
            epsilon=1e-2, repeats=1 if smoke else repeats,
        )
    )
    # k=2 regional mesh: at smoke 2 regions x 3 PoPs x 6 edge clouds,
    # otherwise the 12 x 3 x 10 mesh; 24 slots each, with peak slots
    # whose interior candidate overloads a PoP.
    scenarios.append(
        bench_backend(
            "batched-mesh",
            *mesh_instance(*((2, 3, 6) if smoke else (12, 3, 10)), horizon=24, seed=3),
            epsilon=1e-2, repeats=1 if smoke else repeats,
        )
    )
    # Persistent-cache scenarios: tiny at smoke, the default scale
    # otherwise (the "repeated default-scale run" acceptance numbers).
    scenarios.extend(
        bench_cache(
            tiny if smoke else ExperimentScale.from_env(),
            "wikipedia", k=2, epsilon=1e-2, repeats=1 if smoke else repeats,
        )
    )
    if not smoke:
        scenarios.append(
            bench_trajectory(
                "medium", ExperimentScale.from_env(), "wikipedia",
                k=2, epsilon=1e-2, repeats=repeats,
            )
        )
        # k=2 parity row: one whole-graph component -> the batched
        # backend falls back to the coupled solve; speedup ~1x and the
        # decision gaps are exactly zero (bitwise fallback).
        scenarios.append(
            bench_backend(
                "batched-k2-parity",
                *fig_instance(ExperimentScale.from_env(), "wikipedia", k=2),
                epsilon=1e-2, repeats=repeats,
            )
        )
    return {
        "schema": "repro-bench-solver/v2",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "scenarios": scenarios,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_solver.json",
        help="output path (default: repo-root BENCH_solver.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per configuration; the median is reported",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny-scale single-repeat run for CI (valid JSON, no "
        "speedup threshold)",
    )
    args = parser.parse_args(argv)

    report = run(args.repeats, args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for sc in report["scenarios"]:
        if sc["kind"] == "trajectory":
            print(
                f"{sc['name']:8s} baseline {sc['baseline']['wall_time_s']:.3f}s"
                f" -> optimized {sc['optimized']['wall_time_s']:.3f}s"
                f"  ({sc['speedup']:.2f}x, same Newton path:"
                f" {sc['same_newton_path']})"
            )
        elif sc["kind"] == "cache":
            if sc["name"] == "cache-cold":
                print(
                    f"{sc['name']:10s} first run {sc['wall_time_s']:.3f}s"
                    f" (uncached {sc['uncached_wall_time_s']:.3f}s,"
                    f" store overhead {sc['store_overhead']:.2f}x)"
                )
            else:
                print(
                    f"{sc['name']:10s} second run {sc['wall_time_s']:.3f}s"
                    f"  ({sc['second_run_speedup']:.2f}x vs cold,"
                    f" hit rate {sc['cache_hit_rate']:.0%},"
                    f" identical decisions:"
                    f" {sc['decisions_identical_to_uncached']})"
                )
        elif sc["kind"] == "backend":
            gap = sc["decision_gap"]
            print(
                f"{sc['name']:8s} sequential {sc['sequential']['wall_time_s']:.3f}s"
                f" -> batched {sc['batched']['wall_time_s']:.3f}s"
                f"  ({sc['speedup']:.2f}x, decision gap X {gap['tier2_totals_rel']:.1e}"
                f" y {gap['link_rel']:.1e} cost {gap['cost_rel']:.1e},"
                f" coupled fallbacks {sc['coupled_fallbacks']})"
            )
        else:
            parts = ", ".join(
                f"{k} {t['speedup']:.1f}x" for k, t in sc["kernels"].items()
            )
            print(f"{sc['name']:8s} per-call fused vs loop: {parts}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
