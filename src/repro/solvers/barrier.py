"""Log-barrier interior-point method for separable convex programs.

Solves :class:`~repro.solvers.convex.SmoothConvexProgram` instances by
classic path following (Boyd & Vandenberghe, ch. 11): minimize

.. math::

    \\phi_\\tau(v) = \\tau f(v)
        - \\sum_i \\log(b_i - a_i^T v)
        - \\sum_k \\log(v_k - lb_k) - \\sum_k \\log(ub_k - v_k)

by damped Newton steps for increasing :math:`\\tau`.  Because the
objective Hessian is diagonal, each Newton system is
``diag(h) + A^T D A`` with ``D`` diagonal.

Dense or sparse Newton is chosen once per program from the structure
of ``A`` (:func:`_dense_newton_wins`): a dense step costs
``n^2 (2m + n/3)`` flops (the ``A^T D A`` GEMM plus ``potrf``) whatever
the sparsity, while a sparse step costs a fixed ~0.1-0.2 ms of
CSC/SuperLU setup plus work proportional to the ``A_ki A_kj`` entry
products and to the ``A^T D A`` pattern's factorization work
(``nnz(H)^2 / n``).  Measured per Newton step (median of 3) on a
2-vCPU x86 VM with numpy's OpenBLAS at its default two threads; in
parentheses ``OPENBLAS_NUM_THREADS=1``:

====================  ===  ===  =========  ==================  ==============  ======
program                 m    n  nnz(A)/mn  dense               sparse          picked
====================  ===  ===  =========  ==================  ==============  ======
paper k=2, 6 x 12      46   54      4.9 %  0.09 ms (0.08)      0.22 ms (0.21)  dense
paper k=2, 12 x 24     95  108      3.2 %  0.23 ms (0.22)      0.40 ms (0.32)  dense
geo k=2, 3 x 3 x 8     90  105      2.9 %  0.16 ms (0.26)      0.22 ms (0.40)  dense
geo k=2, 4 x 3 x 6     96  108      3.2 %  0.28-3.9 ms (0.31)  0.26 ms (0.37)  sparse
geo k=2, 5 x 3 x 6    121  135      2.9 %  15.2 ms (0.41)      0.40 ms (0.37)  sparse
geo k=2, 6 x 3 x 8    180  210      1.9 %  14.0 ms (1.10)      0.77 ms (0.66)  sparse
geo k=2, 12 x 3 x 10  432  516      1.0 %  22.7 ms (8.4)       1.50 ms (1.37)  sparse
====================  ===  ===  =========  ==================  ==============  ======

(paper = ``make_instance`` tier-2 x tier-1; geo = ``generate_topology``
regions x PoPs x edge clouds with regional SLAs; the last row is the
``mesh-k2`` benchmark's coupled program.)  Dense wins only while its
flop count is within the sparse path's fixed cost, a few 1e6 flops.
Past that, the multi-threaded BLAS falls off a cliff on these small
matrices — from ~0.2 ms to 12-16 ms per step once ``n`` passes ~108,
intermittently right at 108 — and sparse wins by 10-40x; on one BLAS
thread dense stays within ~1.5x of sparse up to ``n`` ~200.  Where
the two disagree the rule leans sparse: a wrong sparse pick costs at
most ~2.5x, a wrong dense pick up to ~40x.

Hot-path structure (measured in ``benchmarks/perf/``): the barrier
workspace is built once per program and cached on it — it precomputes
``A^T`` (contiguous, dense path), index arrays for the finite bounds,
preallocated Hessian/scaled-row buffers reused across Newton
iterations, and, on the sparse path, the symbolic expansion of
``A^T D A`` (the sparsity pattern is fixed across iterations, so each
iteration only rescales precomputed entry products and bin-sums them
into the fixed CSC structure).  The Armijo line search reuses the
already-computed slack vector and constraint-direction product
(``trial slack = slack - step * A dv``) instead of a fresh
matrix-vector product per trial point, which removes the dominant
per-trial cost.

Numerical policy: the duality-gap stopping rule is *relative* to the
objective magnitude and the centering tolerance scales with ``tau`` —
chasing an absolute ``1e-8`` gap pushes ``tau`` beyond what double
precision supports and stalls Newton.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.solvers.convex import (
    ConvexSolverError,
    SmoothConvexProgram,
    SolveInfo,
    SolverOptions,
)

# Sparse A^T D A structure reuse stores one entry per nonzero product
# A_ki * A_kj; above this many the one-time memory cost outweighs the
# per-iteration win and the plain sparse product is used instead.
_TRIPLE_PRODUCT_PAIRS_THRESHOLD = 5_000_000
# Sparse Newton step cost model in dense-flop equivalents (calibrated
# against the table in the module docstring): a fixed CSC + SuperLU
# setup cost plus this much per entry product / Cholesky pattern unit.
_SPARSE_STEP_FLOPS = 2_000_000
_SPARSE_FLOPS_PER_ENTRY = 100
_MAX_BOUNDARY_FRACTION = 0.99
_ARMIJO_ALPHA = 0.1
_ARMIJO_BETA = 0.5


def _dense_newton_wins(m: int, n: int, pairs: int, nnz_h: int) -> bool:
    """Whether a dense Newton step is expected to beat a sparse one.

    ``pairs`` is the number of entry products ``A_ki A_kj`` (the sparse
    assembly's work) and ``nnz_h`` the size of the ``A^T D A`` pattern,
    whose ``nnz_h^2 / n`` approximates the sparse Cholesky's work.
    """
    dense_flops = n * n * (2.0 * m + n / 3.0)
    sparse_flops = _SPARSE_STEP_FLOPS + _SPARSE_FLOPS_PER_ENTRY * (
        pairs + nnz_h * nnz_h / max(n, 1)
    )
    return dense_flops <= sparse_flops


class _Workspace:
    """Precomputed constraint data and reusable buffers for one program.

    Built once per :class:`SmoothConvexProgram` and cached on it
    (``prog._barrier_ws``), so repeated solves of the same structure —
    the per-slot subproblem chain updates only ``b``, the linear cost
    and the regularizer anchors in place — skip all of the setup.
    ``b`` is held by reference and picks up in-place updates; ``A`` and
    the bound pattern must not change over the program's lifetime.
    """

    def __init__(self, prog: SmoothConvexProgram) -> None:
        self.prog = prog
        m, n = prog.A.shape
        A_csr = prog.A.tocsr()
        pairs = int((np.diff(A_csr.indptr).astype(np.int64) ** 2).sum())
        # The sparse estimate grows with the A^T D A pattern, so a program
        # that is dense even at an empty pattern skips the expansion.
        triple = None
        self.dense = _dense_newton_wins(m, n, pairs, 0)
        if not self.dense:
            triple = self._compile_triple_product(A_csr, n)
            # Without the expansion (too many pairs) bound the pattern by
            # its definition: one entry per pair, plus the diagonal.
            nnz_h = triple["nnz"] if triple is not None else min(pairs + n, n * n)
            self.dense = _dense_newton_wins(m, n, pairs, nnz_h)
        self.A = prog.A.toarray() if self.dense else A_csr
        self.b = prog.b
        self.fin_lb = np.isfinite(prog.lb)
        self.fin_ub = np.isfinite(prog.ub)
        self.m_total = m + int(self.fin_lb.sum()) + int(self.fin_ub.sum())
        # Finite-bound fast path: when every bound is finite (the
        # subproblem default with capacity caps) the masked selects
        # collapse to whole-array arithmetic.
        self.all_lb = bool(self.fin_lb.all())
        self.all_ub = bool(self.fin_ub.all())
        self.idx_lb = np.flatnonzero(self.fin_lb)
        self.idx_ub = np.flatnonzero(self.fin_ub)
        self.lb_f = prog.lb[self.idx_lb]
        self.ub_f = prog.ub[self.idx_ub]
        # Scratch buffers for phi/newton_step: the solver's inner loop
        # is alloc-bound at subproblem sizes, so the hot kernels write
        # through ``out=``.  Same ops, same order — bitwise identical.
        self._s_lb = np.empty(n if self.all_lb else self.idx_lb.size)
        self._s_ub = np.empty(n if self.all_ub else self.idx_ub.size)
        self._log_m = np.empty(m)
        self._inv_m = np.empty(m)
        self._inv2_m = np.empty(m)
        self._bnd_n = np.empty(n)
        self._slack_m = np.empty(m)
        self._adv_m = np.empty(m)
        self._ms_r = np.empty(m)
        self._ms_mask = np.empty(m, dtype=bool)
        self._ms_q = np.empty(n)
        self._ms_qmask = np.empty(n, dtype=bool)
        self._not_fin_lb = ~self.fin_lb
        self._not_fin_ub = ~self.fin_ub
        self._gemv_n = np.empty(n)
        if self.dense:
            self.AT = np.ascontiguousarray(self.A.T)
            self._scaled = np.empty((m, n))
            self._H = np.empty((n, n))
            self._diag_flat = np.arange(n) * (n + 1)
            self._potrf, self._potrs = la.get_lapack_funcs(
                ("potrf", "potrs"), (self._H,)
            )
            self._triple = None
        else:
            self.AT = self.A.T.tocsr()
            self._triple = triple

    # ------------------------------------------------------------------
    @staticmethod
    def _compile_triple_product(A: sp.csr_matrix, n: int):
        """Symbolic expansion of ``A^T D A`` for structure reuse.

        The product's sparsity pattern is fixed across Newton
        iterations (only ``D`` changes), so the index arithmetic —
        which entry products ``A_ki A_kj`` land where in the CSC result
        — is done once.  Each iteration then just rescales the
        precomputed products by ``d_k`` and bin-sums them.  Returns
        ``None`` when the expansion would be too large (fall back to
        the plain sparse product per iteration).
        """
        m = A.shape[0]
        if m == 0:
            return None
        indptr, indices, data = A.indptr, A.indices, A.data
        row_nnz = np.diff(indptr).astype(np.int64)
        n_pairs = int((row_nnz**2).sum())
        if n_pairs == 0 or n_pairs > _TRIPLE_PRODUCT_PAIRS_THRESHOLD:
            return None
        # For constraint row k with L_k nonzeros, enumerate all L_k^2
        # ordered (i, j) column pairs: owner[k-block] = k, and within
        # the block position p -> (a, b) = (p // L_k, p % L_k).
        owner = np.repeat(np.arange(m), row_nnz**2)
        block_start = np.concatenate([[0], np.cumsum(row_nnz**2)[:-1]])
        blockpos = np.arange(n_pairs, dtype=np.int64) - block_start[owner]
        L = row_nnz[owner]
        start = indptr[:-1].astype(np.int64)[owner]
        a = start + blockpos // L
        b = start + blockpos % L
        pair_i = indices[a].astype(np.int64)
        pair_j = indices[b].astype(np.int64)
        pair_val = data[a] * data[b]
        # Guarantee every diagonal position exists so diag(h) can be
        # added in place (synthetic zero-valued entries, owner 0).
        diag_idx = np.arange(n, dtype=np.int64)
        pair_i = np.concatenate([pair_i, diag_idx])
        pair_j = np.concatenate([pair_j, diag_idx])
        pair_val = np.concatenate([pair_val, np.zeros(n)])
        owner = np.concatenate([owner, np.zeros(n, dtype=owner.dtype)])
        # Canonical CSC order: sort by (column, row).
        keys = pair_j * n + pair_i
        uniq, pos = np.unique(keys, return_inverse=True)
        csc_rows = (uniq % n).astype(np.int32)
        csc_cols = uniq // n
        indptr_u = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(csc_cols, minlength=n), out=indptr_u[1:])
        diag_pos = np.flatnonzero(csc_rows == csc_cols.astype(np.int32))
        return {
            "pos": pos,
            "vals": pair_val,
            "owner": owner,
            "nnz": uniq.size,
            "indices": csc_rows,
            "indptr": indptr_u,
            "diag": diag_pos,
        }

    # ------------------------------------------------------------------
    def slacks(self, v: np.ndarray, buffered: bool = False) -> np.ndarray:
        """``b - A v``; with ``buffered`` the result lives in a scratch
        array owned by the workspace (overwritten by the next buffered
        call — the solve loop consumes it before then)."""
        if self.b.shape[0] == 0:
            return np.zeros(0)
        if buffered and self.dense:
            out = self._slack_m
            np.dot(self.A, v, out=out)
            np.subtract(self.b, out, out=out)
            return out
        return self.b - self.A @ v

    def phi(self, v: np.ndarray, tau: float, slack: "np.ndarray | None" = None) -> float:
        """Barrier function value; +inf outside the strict interior.

        ``slack`` may be supplied by the caller (e.g. the line search's
        incrementally updated ``slack - step * A dv``) to skip the
        matrix-vector product.
        """
        prog = self.prog
        if slack is None:
            slack = self.slacks(v)
        if self.all_lb:
            s_lb = np.subtract(v, prog.lb, out=self._s_lb)
        else:
            s_lb = np.subtract(v[self.idx_lb], self.lb_f, out=self._s_lb)
        if self.all_ub:
            s_ub = np.subtract(prog.ub, v, out=self._s_ub)
        else:
            s_ub = np.subtract(self.ub_f, v[self.idx_ub], out=self._s_ub)
        # Boundary detection rides on the logs instead of three extra
        # min-reductions (the hot line search calls phi tens of
        # thousands of times per trajectory): a zero slack gives
        # log -> -inf -> val=+inf, a negative one gives nan, mapped to
        # +inf below.  Interior values are bitwise unchanged.
        with np.errstate(divide="ignore", invalid="ignore"):
            val = tau * prog.objective.value(v)
            # np.add.reduce is what ndarray.sum dispatches to; calling
            # it directly skips two wrapper layers on the hottest line.
            if slack.size:
                val -= float(np.add.reduce(np.log(slack, out=self._log_m)))
            if s_lb.size:
                val -= float(np.add.reduce(np.log(s_lb, out=s_lb)))
            if s_ub.size:
                val -= float(np.add.reduce(np.log(s_ub, out=s_ub)))
        if val != val:
            return np.inf
        return val

    def newton_step(
        self,
        v: np.ndarray,
        tau: float,
        slack: "np.ndarray | None" = None,
        fact_out: "list[float] | None" = None,
    ) -> tuple[np.ndarray, float]:
        """Newton direction for phi_tau at ``v``; returns (dv, decrement^2).

        ``fact_out`` is an optional one-element accumulator for the
        seconds spent assembling, factorizing and solving the Newton
        system (``A^T D A`` included) — supplied
        only while the metrics registry is enabled, so the disabled
        path pays no clock reads.
        """
        prog = self.prog
        obj = prog.objective
        n = obj.n
        grad = obj.grad(v)
        np.multiply(grad, tau, out=grad)
        hdiag = obj.hess_diag(v)
        np.multiply(hdiag, tau, out=hdiag)

        bb = self._bnd_n
        if self.all_lb:
            inv_lb = np.divide(1.0, np.subtract(v, prog.lb, out=bb), out=bb)
            grad -= inv_lb
            hdiag += np.multiply(inv_lb, inv_lb, out=bb)
        elif self.idx_lb.size:
            inv_lb = 1.0 / (v[self.idx_lb] - self.lb_f)
            grad[self.idx_lb] -= inv_lb
            hdiag[self.idx_lb] += inv_lb * inv_lb
        if self.all_ub:
            inv_ub = np.divide(1.0, np.subtract(prog.ub, v, out=bb), out=bb)
            grad += inv_ub
            hdiag += np.multiply(inv_ub, inv_ub, out=bb)
        elif self.idx_ub.size:
            inv_ub = 1.0 / (self.ub_f - v[self.idx_ub])
            grad[self.idx_ub] += inv_ub
            hdiag[self.idx_ub] += inv_ub * inv_ub

        fact_start = time.perf_counter() if fact_out is not None else 0.0
        if self.b.shape[0]:
            if slack is None:
                slack = self.slacks(v)
            inv = np.divide(1.0, slack, out=self._inv_m)
            inv2 = np.multiply(inv, inv, out=self._inv2_m)
            if self.dense:
                grad += np.dot(self.AT, inv, out=self._gemv_n)
            else:
                grad = grad + self.AT @ inv
            if self.dense:
                np.multiply(self.A, inv2[:, None], out=self._scaled)
                H = np.dot(self.AT, self._scaled, out=self._H)
                Hd = H.reshape(-1)
                Hd[self._diag_flat] += hdiag
            elif self._triple is not None:
                tp = self._triple
                data = np.bincount(
                    tp["pos"],
                    weights=tp["vals"] * inv2[tp["owner"]],
                    minlength=tp["nnz"],
                )
                data[tp["diag"]] += hdiag
                H = sp.csc_matrix(
                    (data, tp["indices"], tp["indptr"]), shape=(n, n)
                )
            else:
                D = sp.diags(inv2)
                H = (sp.diags(hdiag) + self.A.T @ D @ self.A).tocsc()
        else:
            if self.dense:
                H = self._H
                H.fill(0.0)
                H.reshape(-1)[self._diag_flat] = hdiag
            else:
                H = sp.diags(hdiag).tocsc()

        if self.dense:
            Hd = H.reshape(-1)
            diag = Hd[self._diag_flat]
            Hd[self._diag_flat] = diag + 1e-13 * (1.0 + np.abs(diag))
            # Direct LAPACK Cholesky on the reusable buffer (the
            # cho_factor/cho_solve wrappers cost ~10% of a solve at
            # these sizes).  Same routines, same numerics.
            c, info = self._potrf(H, lower=False, overwrite_a=True, clean=False)
            if info != 0:
                raise ConvexSolverError(f"Newton system not SPD (potrf info={info})")
            dv, info = self._potrs(c, -grad, lower=False)
            if info != 0:  # pragma: no cover - potrs only fails on bad args
                raise ConvexSolverError(f"Cholesky solve failed (potrs info={info})")
        else:
            try:
                # H is symmetric: a minimum-degree ordering on its own
                # pattern factors ~20% faster than the default COLAMD.
                dv = spla.spsolve(H, -grad, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # pragma: no cover - rare
                raise ConvexSolverError(f"sparse Newton solve failed: {exc}") from exc
        if fact_out is not None:
            fact_out[0] += time.perf_counter() - fact_start

        return dv, float(-grad @ dv)

    def max_step(
        self,
        v: np.ndarray,
        dv: np.ndarray,
        slack: "np.ndarray | None" = None,
        Adv: "np.ndarray | None" = None,
    ) -> float:
        """Largest step keeping ``v + step*dv`` strictly interior."""
        prog = self.prog
        step = 1.0
        # Masked-select ratios via full-array divides into scratch
        # buffers, with non-candidate entries overwritten by +inf
        # before the min: the surviving values — and hence the min —
        # are bitwise those of the boolean-indexed reference
        # expressions, without the fancy-indexing copies.  A min of
        # +inf (no candidate) leaves ``step`` untouched.
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.b.shape[0]:
                if Adv is None:
                    Adv = self.A @ dv
                if slack is None:
                    slack = self.slacks(v)
                r = np.divide(slack, Adv, out=self._ms_r)
                np.less_equal(Adv, 0.0, out=self._ms_mask)
                np.copyto(r, np.inf, where=self._ms_mask)
                m = float(np.minimum.reduce(r)) * _MAX_BOUNDARY_FRACTION
                if m < step:
                    step = m
            q, qmask = self._ms_q, self._ms_qmask
            np.subtract(prog.lb, v, out=q)
            np.divide(q, dv, out=q)
            np.greater_equal(dv, 0.0, out=qmask)
            if not self.all_lb:
                qmask |= self._not_fin_lb
            np.copyto(q, np.inf, where=qmask)
            m = float(np.minimum.reduce(q)) * _MAX_BOUNDARY_FRACTION
            if m < step:
                step = m
            np.subtract(prog.ub, v, out=q)
            np.divide(q, dv, out=q)
            np.less_equal(dv, 0.0, out=qmask)
            if not self.all_ub:
                qmask |= self._not_fin_ub
            np.copyto(q, np.inf, where=qmask)
            m = float(np.minimum.reduce(q)) * _MAX_BOUNDARY_FRACTION
            if m < step:
                step = m
        return step


def _workspace(prog: SmoothConvexProgram) -> _Workspace:
    """The program's cached barrier workspace, built on first use."""
    ws = prog._barrier_ws
    if ws is None:
        ws = _Workspace(prog)
        prog._barrier_ws = ws
    return ws


def barrier_solve(
    prog: SmoothConvexProgram,
    v0: "np.ndarray | None" = None,
    options: "SolverOptions | None" = None,
    info: "SolveInfo | None" = None,
) -> np.ndarray:
    """Path-following barrier method; returns the optimal ``v``.

    ``v0`` may be any point; if it is not strictly interior a phase-I
    LP supplies one.  Raises :class:`ConvexSolverError` when Newton
    fails early on the path (the caller then falls back to
    trust-constr); a stall deep along the path — where the remaining
    gap is already below tolerance-sized — is accepted.
    """
    options = options or SolverOptions()
    ws = _workspace(prog)
    if ws.m_total == 0:
        raise ConvexSolverError("barrier method needs at least one constraint")
    has_rows = ws.b.shape[0] > 0

    # Observability: resolved once per solve.  While the registry is
    # disabled (the default) ``reg`` is None, ``fact_out`` stays None
    # (newton_step then reads no clocks) and only the two integer
    # tallies below run — the instrumentation cost of a disabled solve
    # is a handful of local increments.
    reg = obs_metrics.active()
    fact_out: "list[float] | None" = [0.0] if reg is not None else None
    newton_here = 0
    backtracks = 0

    def _publish(outcome: str) -> None:
        if info is not None:
            info.backtracks += backtracks
            if fact_out is not None:
                info.fact_time_s += fact_out[0]
        if reg is not None:
            reg.counter(
                "solver_solves_total",
                help="optimization solves by backend and outcome",
                backend="barrier",
                outcome=outcome,
            ).inc()
            reg.counter(
                "solver_newton_iters_total",
                help="Newton iterations spent in the barrier solver",
            ).inc(newton_here)
            reg.counter(
                "solver_backtracks_total",
                help="Armijo line-search backtracking steps",
            ).inc(backtracks)
            reg.histogram(
                "solver_factorization_seconds",
                help="Newton-system assembly + factorization time per solve",
            ).observe(fact_out[0])

    v = None
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float)
        if np.isfinite(ws.phi(v0, 1.0)):
            v = v0.copy()
    if v is None:
        v = prog._interior_start()
        if not np.isfinite(ws.phi(v, 1.0)):
            raise ConvexSolverError("phase-I point not strictly interior")

    tau = options.barrier_t0
    span = obs_tracing.span("barrier.solve", n=prog.objective.n)
    # Line-search scratch (same ops as the allocating expressions they
    # replace — ``x + step*y`` — so trial points are bitwise unchanged).
    trial_v = np.empty_like(v)
    trial_s = np.empty(ws.b.shape[0])
    with span:
        while True:
            # Centering: damped Newton on phi_tau.  The decrement target
            # scales with tau (phi_tau's natural scale).
            center_tol = 1e-9 * (1.0 + tau * 1e-4)
            stalled = False
            for _ in range(options.max_newton):
                slack = ws.slacks(v, buffered=True)
                dv, dec_sq = ws.newton_step(v, tau, slack=slack, fact_out=fact_out)
                newton_here += 1
                if info is not None:
                    info.newton_iters += 1
                if dec_sq / 2.0 <= center_tol:
                    break
                if has_rows:
                    if ws.dense:
                        Adv = np.dot(ws.A, dv, out=ws._adv_m)
                    else:
                        Adv = ws.A @ dv
                else:
                    Adv = slack
                step = ws.max_step(v, dv, slack=slack, Adv=Adv)
                phi0 = ws.phi(v, tau, slack=slack)
                while step > 1e-14:
                    if has_rows:
                        np.multiply(Adv, step, out=trial_s)
                        trial_slack = np.subtract(slack, trial_s, out=trial_s)
                    else:
                        trial_slack = slack
                    np.multiply(dv, step, out=trial_v)
                    np.add(v, trial_v, out=trial_v)
                    trial_phi = ws.phi(trial_v, tau, slack=trial_slack)
                    if trial_phi <= phi0 - _ARMIJO_ALPHA * step * dec_sq:
                        break
                    step *= _ARMIJO_BETA
                    backtracks += 1
                else:
                    stalled = True
                    break
                # The accepted trial point was just materialized in
                # trial_v; adopt it and recycle the old ``v`` array as the
                # next trial scratch.
                v, trial_v = trial_v, v
            else:
                stalled = True

            gap = ws.m_total / tau
            scale = 1.0 + abs(prog.objective.value(v))
            if gap <= options.tol * scale:
                span.set(newton_iters=newton_here, backtracks=backtracks)
                _publish("converged")
                return v
            if stalled:
                # Accept a late-path stall if the remaining gap is modest;
                # otherwise report failure so the caller can fall back.
                if gap <= 1e3 * options.tol * scale:
                    span.set(newton_iters=newton_here, backtracks=backtracks)
                    _publish("converged")
                    return v
                span.set(
                    newton_iters=newton_here, backtracks=backtracks, stalled=True
                )
                _publish("stalled")
                raise ConvexSolverError(
                    f"Newton stalled at tau={tau:.2e} (gap {gap:.2e}, scale {scale:.2e})"
                )
            tau *= options.barrier_mu
