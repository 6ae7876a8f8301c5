"""The benchmark's three workloads: seeded inputs, timed phase, gates.

Each workload is built from a seed in a fresh interpreter by
``child.py``.  ``prepare`` builds the inputs and constructs the
controller (everything ``setup_s`` covers) and returns an object whose
``run`` is the timed phase and whose ``score`` checks the outputs
afterwards, outside the timed phase.

* ``diurnal-k1`` — 24 regions x 10 edge clouds, one PoP per region,
  k=1, a one-year hourly diurnal horizon served by ``ServeLoop`` on the
  ``batched`` backend with the metrics registry, ``HealthMonitor`` and
  an in-memory ``EventLog`` on (as ``repro serve --metrics`` runs).
  Every slot takes the closed-form star path: per-slot loop, obs and
  split overhead, never Newton or the LP solver.
* ``mesh-k2`` — 12 regions x 3 PoPs x 10 edge clouds, k=2,
  ``regional_sla=True``, 24 diurnal slots on ``batched`` with the same
  serve stack.  The batched block Newton runs on most slots; 7 or 8 of
  24 bail (``no_interior_candidate``) to the coupled dense barrier, which
  dominates wall time.
* ``paper-k2`` — the paper's evaluation instance (6 tier-2 x 12
  tier-1, Wikipedia-like 96 h, k=2) scored with the offline LP, the
  regularized online controller and FHC/RHC/RFHC/RRHC at window 6 on
  the ``sequential`` backend: many small LP and barrier solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import RegularizedOnline
from repro.core.subproblem import SubproblemConfig
from repro.evaluation.experiments import make_instance
from repro.evaluation.scale import ExperimentScale
from repro.model.allocation import Trajectory
from repro.model.costs import evaluate_cost
from repro.model.feasibility import check_trajectory
from repro.model.instance import Instance
from repro.obs import metrics as obs_metrics
from repro.obs.health import HealthMonitor
from repro.offline.optimal import solve_offline
from repro.prediction.fhc import FixedHorizonControl
from repro.prediction.rfhc import RegularizedFixedHorizonControl
from repro.prediction.rhc import RecedingHorizonControl
from repro.prediction.rrhc import RegularizedRecedingHorizonControl
from repro.serve import EventLog, ServeLoop
from repro.topology.generate import GeoTopologyConfig, generate_topology
from repro.util.digest import array_digest
from repro.workloads.synthetic import diurnal_profile

WORKLOADS = ("diurnal-k1", "mesh-k2", "paper-k2")
SIZES = ("full", "tiny")

#: Topology and horizon per serve workload and size.  ``tiny`` keeps
#: every structural property (k, PoPs per region, regional SLAs) at a
#: size the benchmark's own tests run in about a second.
GEO_SIZES = {
    "diurnal-k1": {
        "full": dict(n_regions=24, pops_per_region=1, tier1_per_region=10, k=1, horizon=8760),
        "tiny": dict(n_regions=4, pops_per_region=1, tier1_per_region=3, k=1, horizon=48),
    },
    "mesh-k2": {
        "full": dict(n_regions=12, pops_per_region=3, tier1_per_region=10, k=2, horizon=24),
        "tiny": dict(n_regions=2, pops_per_region=3, tier1_per_region=4, k=2, horizon=6),
    },
}

#: The serve workloads' network is fixed; ``--seed`` draws the demand
#: and the electricity prices on it.  The placement decides how many
#: mesh-k2 slots bail to the coupled barrier (6 or 7 of 24 across
#: placement seeds), so a seeded placement would make ``wall_s`` a
#: function of the seed instead of the code.
TOPOLOGY_SEED = 11

#: The evaluation's default laptop scale, pinned here rather than read
#: from ``REPRO_FULL_SCALE`` so the environment cannot resize the input.
PAPER_SCALE = ExperimentScale(
    n_tier2=6, n_tier1=12, horizon_wiki=96, horizon_worldcup=120, full=False
)

#: Prediction window of the paper-k2 predictive controllers.
WINDOW = 6

#: Algorithms scored on paper-k2, in run order.
PAPER_ALGORITHMS = ("offline", "online", "fhc", "rhc", "rfhc", "rrhc")


def instance_fingerprint(instance) -> str:
    """SHA-256 of every input array the program receives."""
    net = instance.network
    return array_digest(
        [
            ("workload", instance.workload),
            ("tier2_price", instance.tier2_price),
            ("link_price", instance.link_price),
            ("tier2_capacity", net.tier2_capacity),
            ("edge_capacity", net.edge_capacity),
            ("tier2_recon_price", net.tier2_recon_price),
            ("edge_recon_price", net.edge_recon_price),
            ("edge_i", net.edge_i),
            ("edge_j", net.edge_j),
        ]
    )


def instance_shape(instance) -> dict:
    net = instance.network
    return {
        "horizon": int(instance.horizon),
        "n_tier2": int(net.n_tier2),
        "n_tier1": int(net.n_tier1),
        "n_edges": int(net.n_edges),
    }


def cheapest_route_bound(instance) -> float:
    """``sum_t sum_j lambda_jt * min_{i in I_j} (a_it + c_ijt)``.

    Every feasible trajectory routes each edge cloud's demand over its
    SLA edges and pays at least the cheapest edge's operating price for
    it; reconfiguration costs are non-negative.  So this is a lower
    bound on the offline optimum, computed from the instance arrays
    alone.
    """
    net = instance.network
    edge_price = instance.tier2_price[:, net.edge_i] + instance.link_price  # (T, E)
    cheapest = np.full((net.n_tier1, instance.horizon), np.inf)
    np.minimum.at(cheapest, net.edge_j, edge_price.T)
    return float(np.sum(instance.workload * cheapest.T))


def trajectory_digest(named_trajectories) -> str:
    """SHA-256 of ``(name, trajectory)`` decisions, in order."""
    items = []
    for name, traj in named_trajectories:
        items += [(f"{name}.x", traj.x), (f"{name}.y", traj.y), (f"{name}.s", traj.s)]
    return array_digest(items)


def infeasible_slots(instance, trajectory) -> "list[int]":
    """Slots whose decision violates P1's constraints (``check_trajectory``)."""
    if check_trajectory(instance, trajectory).ok:
        return []
    bad = []
    for t in range(instance.horizon):
        one = slice(t, t + 1)
        slot = Instance(
            instance.network, instance.workload[one],
            instance.tier2_price[one], instance.link_price[one],
        )
        step = Trajectory(trajectory.x[one], trajectory.y[one], trajectory.s[one])
        if not check_trajectory(slot, step).ok:
            bad.append(t)
    return bad


def _diurnal_workload(topo, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Time-zone-shifted diurnal demand (local peak 14:00) per edge cloud,
    with a lognormal per-cloud volume factor.

    The scenario corpus has the same generator; the benchmark keeps its
    own copy so that a change to the corpus cannot change its inputs.
    """
    scales = np.exp(rng.normal(0.0, 0.2, size=topo.n_tier1))
    cols = []
    for j in range(topo.n_tier1):
        tz = int(np.round(topo.tier1_lon[j] / 15.0))
        cols.append(scales[j] * diurnal_profile(horizon, 1.0, 0.4, 24, (14 - tz) % 24))
    return np.column_stack(cols)


@dataclass
class Scored:
    """Outcome of one timed phase, checked after the clock stopped."""

    attempted: int
    failed: int
    problems: "list[str]"
    cost_ratio: "float | None"
    digest: str
    slot_ms: "list[float]"


class ServeWorkload:
    """A geo topology served slot by slot through ``ServeLoop``."""

    def __init__(self, name: str, size: str, seed: int) -> None:
        params = dict(GEO_SIZES[name][size])
        horizon = params.pop("horizon")
        start = time.perf_counter()
        topo = generate_topology(
            GeoTopologyConfig(regional_sla=True, seed=TOPOLOGY_SEED, **params)
        )
        rng = np.random.default_rng(seed)
        self.instance = topo.build_instance(
            _diurnal_workload(topo, horizon, rng), price_seed=seed
        )
        self.build_s = time.perf_counter() - start
        obs_metrics.enable()
        self.log = EventLog()
        controller = RegularizedOnline(SubproblemConfig(backend="batched"))
        self.loop = ServeLoop(
            controller,
            self.instance,
            event_log=self.log,
            health=HealthMonitor(self.instance.network),
        )
        self.report = None

    def run(self) -> None:
        self.report = self.loop.run()

    def score(self) -> Scored:
        instance, report = self.instance, self.report
        problems = []
        failed = {o.t for o in report.outcomes if o.path != "primary" or not o.served}
        if failed:
            problems.append(f"{len(failed)} slots took a serve fallback path or went unserved")
        missing = set(range(len(report.outcomes), instance.horizon))
        if missing:
            problems.append(f"served {len(report.outcomes)} of {instance.horizon} slots")
        traj = report.trajectory
        cost_ratio = None
        digest = ""
        if traj is not None and traj.horizon == instance.horizon:
            bad = infeasible_slots(instance, traj)
            if bad:
                problems.append(f"{len(bad)} slots infeasible, first at t={bad[0]}")
            failed.update(bad)
            cost_ratio = evaluate_cost(instance, traj).total / cheapest_route_bound(instance)
            digest = trajectory_digest([("serve", traj)])
        return Scored(
            attempted=instance.horizon,
            failed=len(failed | missing),
            problems=problems,
            cost_ratio=cost_ratio,
            digest=digest,
            slot_ms=[o.slot_wall * 1e3 for o in report.outcomes],
        )


class OfflineLP:
    """The offline optimum through the ``.run`` protocol."""

    def run(self, instance):
        return solve_offline(instance).trajectory


class PaperWorkload:
    """The paper's evaluation instance scored by six algorithms."""

    def __init__(self, size: str, seed: int) -> None:
        scale = ExperimentScale.tiny() if size == "tiny" else PAPER_SCALE
        start = time.perf_counter()
        self.instance = make_instance(scale, "wikipedia", k=2, seed=seed)
        self.build_s = time.perf_counter() - start
        config = SubproblemConfig(backend="sequential")
        self.algorithms = {
            "offline": OfflineLP(),
            "online": RegularizedOnline(config),
            "fhc": FixedHorizonControl(WINDOW),
            "rhc": RecedingHorizonControl(WINDOW),
            "rfhc": RegularizedFixedHorizonControl(WINDOW, config),
            "rrhc": RegularizedRecedingHorizonControl(WINDOW, config),
        }
        self.trajectories: dict = {}
        self.errors: dict = {}

    def run(self) -> None:
        for name in PAPER_ALGORITHMS:
            try:
                self.trajectories[name] = self.algorithms[name].run(self.instance)
            except Exception as exc:  # noqa: BLE001 - a raising run is a failed operation
                self.errors[name] = f"{type(exc).__name__}: {exc}"

    def score(self) -> Scored:
        problems = [f"{name} raised {err}" for name, err in self.errors.items()]
        feasible = {}
        for name, traj in self.trajectories.items():
            feas = check_trajectory(self.instance, traj)
            feasible[name] = feas.ok
            if not feas.ok:
                problems.append(f"{name} infeasible: {feas.describe()}")
        failed = len(PAPER_ALGORITHMS) - sum(feasible.values())
        cost_ratio = None
        if feasible.get("offline") and feasible.get("online"):
            cost_ratio = (
                evaluate_cost(self.instance, self.trajectories["online"]).total
                / evaluate_cost(self.instance, self.trajectories["offline"]).total
            )
        digest = trajectory_digest(
            (name, self.trajectories[name])
            for name in PAPER_ALGORITHMS
            if name in self.trajectories
        )
        return Scored(
            attempted=len(PAPER_ALGORITHMS),
            failed=failed,
            problems=problems,
            cost_ratio=cost_ratio,
            digest=digest,
            slot_ms=[],
        )


def prepare(name: str, size: str, seed: int):
    """Build one workload's inputs and controller(s)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    if name == "paper-k2":
        return PaperWorkload(size, seed)
    return ServeWorkload(name, size, seed)
