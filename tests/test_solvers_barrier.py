"""Targeted tests for barrier-solver internals."""

import numpy as np
import pytest

import repro.solvers.barrier as barrier_mod
from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
from repro.evaluation.experiments import make_instance as make_fig_instance
from repro.evaluation.scale import ExperimentScale
from repro.model import Allocation
from repro.solvers import (
    ConvexSolverError,
    SeparableObjective,
    SmoothConvexProgram,
    SolverOptions,
)
from repro.solvers.barrier import _Workspace, barrier_solve
from repro.solvers.convex import EntropicTerm
from repro.topology.generate import GeoTopologyConfig, generate_topology


def covering_program(n=5):
    obj = SeparableObjective(
        n,
        np.linspace(1.0, 2.0, n),
        [EntropicTerm(np.arange(n), 1.0, 0.1, np.zeros(n))],
    )
    A = -np.ones((1, n))
    b = np.array([-1.0])
    return SmoothConvexProgram(obj, A, b, np.zeros(n), np.full(n, 2.0))


def slot_program(inst) -> SmoothConvexProgram:
    """The instance's slot-0 P2 program."""
    net = inst.network
    sub = RegularizedSubproblem(net, SubproblemConfig())
    return sub.build(
        inst.workload[0], inst.tier2_price[0], inst.link_price[0],
        Allocation.zeros(net.n_edges),
    )


class TestWorkspace:
    def test_dense_selected_for_small_problems(self):
        ws = _Workspace(covering_program())
        assert ws.dense
        assert isinstance(ws.A, np.ndarray)

    def test_sparse_path_matches_dense(self, monkeypatch):
        """Force the sparse code path and compare optima."""
        prog = covering_program()
        v_dense = barrier_solve(prog)
        assert prog._barrier_ws.dense
        monkeypatch.setattr(barrier_mod, "_dense_newton_wins", lambda *args: False)
        prog = covering_program()
        v_sparse = barrier_solve(prog)
        assert not prog._barrier_ws.dense
        assert prog.objective.value(v_sparse) == pytest.approx(
            prog.objective.value(v_dense), rel=1e-6
        )

    def test_sparse_selected_for_mesh_shaped_program(self):
        """k=2 regional mesh at n >= 500: A is ~1% dense, go sparse."""
        topo = generate_topology(
            GeoTopologyConfig(
                n_regions=12, pops_per_region=3, tier1_per_region=10,
                k=2, regional_sla=True, seed=11,
            )
        )
        demand = np.random.default_rng(0).uniform(0.5, 1.5, size=(2, topo.n_tier1))
        prog = slot_program(topo.build_instance(demand, price_seed=0))
        assert prog.objective.n >= 500
        ws = _Workspace(prog)
        assert not ws.dense
        assert ws._triple is not None

    def test_dense_selected_for_paper_size_program(self):
        scale = ExperimentScale(
            n_tier2=6, n_tier1=12, horizon_wiki=24, horizon_worldcup=24, full=False
        )
        inst = make_fig_instance(scale, "wikipedia", k=2, seed=0)
        prog = slot_program(inst)
        assert prog.objective.n == 54
        assert _Workspace(prog).dense

    def test_dense_constraint_matrix_stays_dense(self):
        """A fully dense A makes the sparse path pure overhead at any n."""
        m, n = 300, 200
        obj = SeparableObjective(
            n, np.ones(n), [EntropicTerm(np.arange(n), 1.0, 0.1, np.zeros(n))]
        )
        A = -np.random.default_rng(0).uniform(0.5, 1.5, size=(m, n))
        prog = SmoothConvexProgram(obj, A, -np.ones(m), np.zeros(n), np.full(n, 2.0))
        assert _Workspace(prog).dense

    def test_phi_infinite_outside_interior(self):
        prog = covering_program()
        ws = _Workspace(prog)
        outside = np.full(prog.objective.n, -1.0)
        assert ws.phi(outside, 1.0) == np.inf

    def test_max_step_keeps_interior(self):
        prog = covering_program()
        ws = _Workspace(prog)
        v = np.full(prog.objective.n, 0.5)
        dv = np.full(prog.objective.n, 10.0)  # toward the upper bounds
        step = ws.max_step(v, dv)
        assert np.isfinite(ws.phi(v + step * dv, 1.0))


class TestBarrierSolve:
    def test_unconstrained_program_rejected(self):
        obj = SeparableObjective(2, np.ones(2))
        prog = SmoothConvexProgram(
            obj, None, None, np.full(2, -np.inf), np.full(2, np.inf)
        )
        with pytest.raises(ConvexSolverError, match="at least one constraint"):
            barrier_solve(prog)

    def test_noninterior_warm_start_falls_back_to_phase1(self):
        prog = covering_program()
        bad_v0 = np.zeros(prog.objective.n)  # on the lower bounds
        v = barrier_solve(prog, v0=bad_v0)
        assert prog.residual(v) <= 1e-8

    def test_box_only_program(self):
        """No general constraints: pure box-constrained minimization."""
        n = 3
        obj = SeparableObjective(
            n,
            np.array([1.0, -1.0, 0.5]),
            [EntropicTerm(np.arange(n), 2.0, 0.2, np.full(n, 0.5))],
        )
        prog = SmoothConvexProgram(obj, None, None, np.zeros(n), np.ones(n))
        v = barrier_solve(prog)
        vt = prog._solve_trust_constr(None, SolverOptions())
        assert obj.value(v) == pytest.approx(obj.value(vt), rel=1e-5, abs=1e-7)


class TestFallback:
    def test_solve_falls_back_when_barrier_fails(self, monkeypatch):
        """A barrier failure must transparently use trust-constr."""
        prog = covering_program()

        def boom(*args, **kwargs):
            raise ConvexSolverError("injected failure")

        monkeypatch.setattr(barrier_mod, "barrier_solve", boom)
        v = prog.solve(options=SolverOptions(backend="barrier", fallback=True))
        assert prog.residual(v) <= 1e-6

    def test_no_fallback_propagates(self, monkeypatch):
        prog = covering_program()

        def boom(*args, **kwargs):
            raise ConvexSolverError("injected failure")

        monkeypatch.setattr(barrier_mod, "barrier_solve", boom)
        with pytest.raises(ConvexSolverError, match="injected"):
            prog.solve(options=SolverOptions(backend="barrier", fallback=False))
