"""Tests for the convex-program layer: objective math, both backends, KKT."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import (
    ConvexSolverError,
    SeparableObjective,
    SmoothConvexProgram,
    SolverOptions,
    first_order_certificate,
)
from repro.solvers.convex import EntropicTerm, phase1_lp


def entropic_program(n=6, seed=0, tight=False):
    """Random covering program with entropic terms (P2(t)-shaped)."""
    rng = np.random.default_rng(seed)
    linear = rng.random(n) * 2.0
    ref = rng.random(n)
    term = EntropicTerm(np.arange(n), weight=rng.random(n) * 3.0, eps=0.05, ref=ref)
    obj = SeparableObjective(n, linear, [term])
    # sum v >= rhs, plus box [0, ub].
    ub = np.full(n, 2.0)
    rhs = 0.5 * n * (1.6 if tight else 0.5)
    A = -sp.csr_matrix(np.ones((1, n)))
    b = np.array([-rhs])
    return SmoothConvexProgram(obj, A, b, np.zeros(n), ub)


class TestSeparableObjective:
    def test_gradient_matches_finite_differences(self):
        prog = entropic_program()
        rng = np.random.default_rng(1)
        v = rng.random(prog.objective.n) + 0.1
        g = prog.objective.grad(v)
        h = 1e-6
        for k in range(prog.objective.n):
            e = np.zeros_like(v)
            e[k] = h
            fd = (prog.objective.value(v + e) - prog.objective.value(v - e)) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_hessian_matches_finite_differences(self):
        prog = entropic_program(seed=2)
        rng = np.random.default_rng(3)
        v = rng.random(prog.objective.n) + 0.2
        hd = prog.objective.hess_diag(v)
        h = 1e-5
        for k in range(prog.objective.n):
            e = np.zeros_like(v)
            e[k] = h
            fd = (
                prog.objective.grad(v + e)[k] - prog.objective.grad(v - e)[k]
            ) / (2 * h)
            assert hd[k] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_entropic_zero_gradient_at_reference(self):
        """The regularizer's gradient vanishes at the anchor point."""
        n = 4
        ref = np.array([0.5, 1.0, 0.0, 2.0])
        term = EntropicTerm(np.arange(n), weight=1.0, eps=0.1, ref=ref)
        obj = SeparableObjective(n, np.zeros(n), [term])
        np.testing.assert_allclose(obj.grad(ref.copy()), 0.0, atol=1e-12)

    def test_entropic_validation(self):
        with pytest.raises(ValueError, match="eps"):
            EntropicTerm(np.array([0]), 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="weight"):
            EntropicTerm(np.array([0]), -1.0, 0.1, 0.0)
        with pytest.raises(ValueError, match="ref"):
            EntropicTerm(np.array([0]), 1.0, 0.1, -0.5)

    def test_out_of_range_indices_rejected(self):
        term = EntropicTerm(np.array([5]), 1.0, 0.1, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            SeparableObjective(3, np.zeros(3), [term])

    def test_huge_weight_tiny_log_precision(self):
        """Regression: eps >> domain with w = b/eta ~ 1e11.

        The naive ln(u/r) loses the entire signal to rounding when u
        and r are ~eps apart by ~1e-6 relative; log1p keeps it.  The
        gradient must match the analytically exact value to high
        relative accuracy (this stalled barrier line searches before).
        """
        eps = 1000.0
        w = 8e11
        ref = np.array([5e-4])
        term = EntropicTerm(np.array([0]), w, eps, ref)
        obj = SeparableObjective(1, np.zeros(1), [term])
        v = np.array([1e-3])
        import math

        exact = w * (math.log1p((v[0] - ref[0]) / (ref[0] + eps)))
        got = obj.grad(v)[0]
        assert got == pytest.approx(exact, rel=1e-12)
        # The value difference across the tiny domain is resolvable.
        f0 = obj.value(np.array([0.0]))
        f1 = obj.value(v)
        # Analytic second-order estimate: w * (v-ref)^2-ish / (2 eps).
        assert abs((f1 - f0)) < 10.0  # not garbage at O(w * u * eps_mach)
        assert f1 != f0


class TestBackendsAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("tight", [False, True])
    def test_barrier_matches_trust_constr(self, seed, tight):
        prog = entropic_program(seed=seed, tight=tight)
        vb = prog.solve(options=SolverOptions(backend="barrier", fallback=False))
        vt = prog.solve(options=SolverOptions(backend="trust-constr"))
        fb = prog.objective.value(vb)
        ft = prog.objective.value(vt)
        # trust-constr is the looser of the two; allow its tolerance.
        assert fb == pytest.approx(ft, rel=5e-4, abs=1e-5)
        # The barrier result must never be worse than trust-constr's by
        # more than round-off (it is the production backend).
        assert fb <= ft + 1e-5 * (1.0 + abs(ft))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_barrier_solution_is_stationary(self, seed):
        prog = entropic_program(seed=seed)
        v = prog.solve(options=SolverOptions(backend="barrier", fallback=False))
        assert prog.residual(v) <= 1e-8
        assert first_order_certificate(prog, v, active_tol=1e-4) >= -1e-4

    def test_warm_start_accepted(self):
        prog = entropic_program(seed=5)
        v1 = prog.solve()
        # Re-solve warm-started from a perturbed interior point.
        v0 = np.clip(v1 * 0.9 + 0.05, 0.01, 1.9)
        v2 = prog.solve(v0=v0)
        assert prog.objective.value(v2) == pytest.approx(
            prog.objective.value(v1), rel=1e-5
        )


class TestProgramValidation:
    def test_shape_mismatch(self):
        obj = SeparableObjective(3, np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            SmoothConvexProgram(obj, np.ones((2, 4)), np.ones(2), np.zeros(3), np.ones(3))

    def test_lb_above_ub(self):
        obj = SeparableObjective(2, np.zeros(2))
        with pytest.raises(ValueError, match="lb > ub"):
            SmoothConvexProgram(obj, None, None, np.ones(2), np.zeros(2))

    def test_unknown_backend(self):
        prog = entropic_program()
        with pytest.raises(ConvexSolverError, match="unknown backend"):
            prog.solve(options=SolverOptions(backend="nope", fallback=False))

    def test_residual_reports_violation(self):
        prog = entropic_program()
        v = np.full(prog.objective.n, 5.0)  # above ub = 2
        assert prog.residual(v) == pytest.approx(3.0)


class TestPhaseOne:
    def test_interior_start_strictly_feasible(self):
        prog = entropic_program(seed=7)
        v = prog._interior_start()
        assert prog.residual(v) < 0

    def test_phase1_lp_takes_dense_rows(self):
        # v0 + v1 <= 1, v >= 0: the max-margin point is strictly inside.
        v = phase1_lp(np.ones((1, 2)), np.array([1.0]), np.zeros(2), np.full(2, np.inf))
        assert v.min() > 0 and v.sum() < 1

    def test_phase1_lp_rejects_empty_interior(self):
        # v0 + v1 >= 2 with v <= 1: feasible only at (1, 1), margin 0.
        with pytest.raises(ConvexSolverError, match="strictly interior"):
            phase1_lp(-np.ones((1, 2)), np.array([-2.0]), np.zeros(2), np.ones(2))

    def test_infeasible_program_detected(self):
        n = 2
        obj = SeparableObjective(n, np.ones(n))
        # sum v >= 10 but ub = 1 each: infeasible.
        A = -sp.csr_matrix(np.ones((1, n)))
        prog = SmoothConvexProgram(obj, A, np.array([-10.0]), np.zeros(n), np.ones(n))
        with pytest.raises(ConvexSolverError):
            prog.solve()
