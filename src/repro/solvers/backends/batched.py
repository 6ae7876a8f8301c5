"""Batched block-diagonal Newton backend for the per-slot subproblems.

The reduced program P2(t) couples its variables through five row
families (see :mod:`repro.core.subproblem`).  Four of them —
``s <= y``, workload cover, ``sum s <= X`` and the intra-tier-1 hedge
(3e) — only ever connect clouds inside one connected component of the
bipartite (tier-2, tier-1) SLA graph.  The single cross-component
family is the tier-2 hedge (3d), and a per-component optimum satisfies
it automatically whenever it is feasible at all: cover forces
``sum_k X_k >= Lambda`` while the capacity cap bounds ``X_i <= C_i``,
so ``sum_{k != i} X_k >= Lambda - C_i`` — exactly (3d)'s right-hand
side.  The backend therefore solves each component independently,
verifies (3d) post-hoc (cheap), and falls back to the coupled
sequential solve on the rare violation or structural surprise.

Two per-component execution paths:

* **Closed-form fast path** — a component in which every tier-1 cloud
  has exactly one SLA edge is a star around a single tier-2 cloud, and
  its optimum splits into independent single-resource problems whose
  solution is the paper's exponential-decay recursion
  (:func:`repro.core.single.single_online_decay`, eq. (6)):
  ``X = clip(max(demand, (prev + eps) * exp(-price/weight) - eps), 0, C)``
  and likewise for each link.  All such components are solved in one
  vectorized numpy pass — no Newton iterations at all.  At the paper's
  default SLA size ``k = 1`` the *entire network* is stars, which is
  where the headline trajectory speedup comes from.

* **Batched Newton** — remaining components are stacked by shape into
  dense ``(B, m, n)`` block-diagonal KKT groups and driven down the
  log-barrier path together: one batched Cholesky-free ``solve`` per
  Newton step, one shared feasible-stepsize + Armijo backtracking pass
  with per-block step lengths, convergence masks and barrier
  parameters.  Each block starts from the interior candidate or, where
  that is not interior, from its own phase-I point; blocks whose warm
  start is interior begin further down the path.

Structural analysis happens once in :meth:`BatchedNewtonBackend.compile`;
per-slot variation (the hedging keep-pattern) reuses cached stacked
structures the same way ``RegularizedSubproblem.reuse_structure``
caches compiled coupled programs.

Equivalence contract: tier-2 totals ``X``, link allocations ``y`` and
hence every cost term agree with the sequential backend to solver
tolerance (they are the unique optimum of a strictly convex
objective).  The cover split ``s`` is *not* unique — the objective has
no ``s`` term, so the sequential barrier returns the analytic center
of the optimal face while this backend returns the minimal cover;
neither the trajectory cost nor any later decision depends on the
difference (the next slot's regularizers see only ``X`` and ``y``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.solvers.convex import ConvexSolverError, phase1_lp

#: Same line-search constants as the sequential barrier.
_ARMIJO_ALPHA = 0.1
_ARMIJO_BETA = 0.5
_MAX_BOUNDARY_FRACTION = 0.99
#: A block is centered once its Newton decrement falls below this many
#: units of its own barrier value ``|phi|``: below that, the Armijo test
#: compares differences smaller than phi's rounding error.
_PHI_ROUNDING = 16 * np.finfo(float).eps

#: Blocks-per-batch histogram buckets (counts, not latencies).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _BatchSolveError(RuntimeError):
    """Batched Newton could not certify a block; caller falls back.

    ``reason`` is the fallback reason the slot is counted under.
    """

    def __init__(self, message: str, reason: str = "batched_newton_stalled") -> None:
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# Compiled structure
# ----------------------------------------------------------------------
@dataclass
class _Block:
    """Static index data of one Newton (non-star) component."""

    ti: np.ndarray  # global tier-2 indices in the component
    tj: np.ndarray  # global tier-1 indices
    te: np.ndarray  # global edge indices
    e_i_loc: np.ndarray  # edge -> local tier-2 index
    e_j_loc: np.ndarray  # edge -> local tier-1 index

    @property
    def n_vars(self) -> int:
        return self.ti.size + 2 * self.te.size

    @property
    def shape_key(self) -> "tuple[int, int, int]":
        return (self.ti.size, self.tj.size, self.te.size)


class _BatchedGroup:
    """Same-shape Newton blocks stacked into one block-diagonal system.

    Variable layout per block: ``[X (nI,) | y (nE,) | s (nE,)]``.
    Row layout: ``[s<=y (nE) | cover (nJ) | s<=X (nI) | hedge-y (ky)]``.
    The constraint matrix, bounds and entropic structure are built once
    per hedging keep-pattern and cached; only the right-hand side,
    linear costs and regularizer anchors are rewritten per slot.
    """

    def __init__(
        self,
        blocks: "list[_Block]",
        keep_y: "np.ndarray | None",
        lb_full: np.ndarray,
        ub_full: np.ndarray,
        sl_X: slice,
        sl_y: slice,
        sl_s: slice,
        weight_tier2: np.ndarray,
        weight_link: np.ndarray,
        eps: float,
        eps2: float,
    ) -> None:
        self.blocks = blocks
        B = len(blocks)
        nI, nJ, nE = blocks[0].shape_key
        ky = 0
        if keep_y is not None:
            ky = int(np.count_nonzero(keep_y[blocks[0].te]))
        self.nI, self.nJ, self.nE, self.ky = nI, nJ, nE, ky
        n = nI + 2 * nE
        m = nE + nJ + nI + ky
        self.n, self.m = n, m
        self.q = nI + nE  # entropic variables: [X | y]

        self.A = np.zeros((B, m, n))
        self.lb = np.zeros((B, n))
        self.ub = np.empty((B, n))
        self.w = np.empty((B, self.q))
        self.eps = np.concatenate([np.full(nI, eps), np.full(nE, eps2)])
        # Per-slot buffers.
        self.b = np.zeros((B, m))
        self.lin = np.zeros((B, n))
        self.ref = np.empty((B, self.q))
        # Per-block phase-I points, reused while strictly interior.
        self.phase1 = np.full((B, n), np.nan)

        ub_X, ub_y, ub_s = ub_full[sl_X], ub_full[sl_y], ub_full[sl_s]
        r = np.arange(nE)
        for k, blk in enumerate(blocks):
            A = self.A[k]
            A[r, nI + r] = -1.0          # s - y <= 0  (s coefficient below)
            A[r, nI + nE + r] = 1.0
            A[nE + blk.e_j_loc, nI + nE + r] = -1.0       # cover
            A[nE + nJ + blk.e_i_loc, nI + nE + r] = 1.0   # sum s <= X
            A[nE + nJ + np.arange(nI), np.arange(nI)] = -1.0
            if ky:
                # hedge-y rows: for each active local edge e0, the row
                # selects the *other* edges of e0's tier-1 cloud.
                active = np.flatnonzero(keep_y[blk.te])
                for row, e0 in enumerate(active):
                    peers = np.flatnonzero(blk.e_j_loc == blk.e_j_loc[e0])
                    peers = peers[peers != e0]
                    A[nE + nJ + nI + row, nI + peers] = -1.0
            self.lb[k, :nI] = lb_full[sl_X][blk.ti]
            self.lb[k, nI : nI + nE] = lb_full[sl_y][blk.te]
            self.lb[k, nI + nE :] = lb_full[sl_s][blk.te]
            self.ub[k, :nI] = ub_X[blk.ti]
            self.ub[k, nI : nI + nE] = ub_y[blk.te]
            self.ub[k, nI + nE :] = ub_s[blk.te]
            self.w[k, :nI] = weight_tier2[blk.ti]
            self.w[k, nI:] = weight_link[blk.te]

        self.fin_ub = np.isfinite(self.ub)
        # Barrier constraint count per block: rows + finite bounds.
        self.m_total = float(m + n) + self.fin_ub[0].sum(dtype=float)
        self._active_y = (
            [np.flatnonzero(keep_y[blk.te]) for blk in blocks] if ky else None
        )

    def set_slot(
        self,
        lam: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        X_prev: np.ndarray,
        y_prev: np.ndarray,
        rhs_y: "np.ndarray | None",
    ) -> None:
        """Rewrite the per-slot data in place (structure untouched)."""
        nI, nJ, nE = self.nI, self.nJ, self.nE
        for k, blk in enumerate(self.blocks):
            self.lin[k, :nI] = tier2_price[blk.ti]
            self.lin[k, nI : nI + nE] = link_price[blk.te]
            self.ref[k, :nI] = X_prev[blk.ti]
            self.ref[k, nI:] = y_prev[blk.te]
            self.b[k, nE : nE + nJ] = -lam[blk.tj]
            if self.ky:
                act = self._active_y[k]
                self.b[k, nE + nJ + nI :] = -rhs_y[blk.te][act]

    def gather(self, X: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Stack global ``(X, y, s)`` vectors into per-block rows."""
        nI, nE = self.nI, self.nE
        V = np.empty((len(self.blocks), self.n))
        for k, blk in enumerate(self.blocks):
            V[k, :nI] = X[blk.ti]
            V[k, nI : nI + nE] = y[blk.te]
            V[k, nI + nE :] = s[blk.te]
        return V

    def scatter(
        self, V: np.ndarray, X: np.ndarray, y: np.ndarray, s: np.ndarray
    ) -> None:
        """Write per-block rows back into global ``(X, y, s)`` in place."""
        nI, nE = self.nI, self.nE
        for k, blk in enumerate(self.blocks):
            X[blk.ti] = V[k, :nI]
            y[blk.te] = V[k, nI : nI + nE]
            s[blk.te] = V[k, nI + nE :]

    # ------------------------------------------------------------------
    # Batched objective / barrier kernels.  ``k`` selects the blocks
    # ``V`` holds (rows of the stacked arrays); every value is per
    # block, so a subset evaluates bitwise as it would in the full batch.
    # ------------------------------------------------------------------
    def f_value(self, V: np.ndarray, k: Any = slice(None)) -> np.ndarray:
        Vq = V[:, : self.q]
        ref = self.ref[k]
        u = Vq + self.eps
        lr = np.log1p((Vq - ref) / (ref + self.eps))
        return (self.lin[k] * V).sum(axis=1) + (self.w[k] * (u * lr - Vq)).sum(axis=1)

    def f_grad_hess(
        self, V: np.ndarray, k: Any = slice(None)
    ) -> "tuple[np.ndarray, np.ndarray]":
        Vq = V[:, : self.q]
        ref = self.ref[k]
        u = Vq + self.eps
        lr = np.log1p((Vq - ref) / (ref + self.eps))
        g = self.lin[k].copy()
        g[:, : self.q] += self.w[k] * lr
        h = np.zeros_like(V)
        h[:, : self.q] += self.w[k] / u
        return g, h

    def slacks(self, V: np.ndarray, k: Any = slice(None)) -> np.ndarray:
        return self.b[k] - np.einsum("bmn,bn->bm", self.A[k], V)

    def phi(self, V: np.ndarray, tau: float, k: Any = slice(None)) -> np.ndarray:
        """Barrier potential per block; +inf outside the interior."""
        fin_ub = self.fin_ub[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            slack = self.slacks(V, k)
            lo = V - self.lb[k]
            hi = np.where(fin_ub, self.ub[k] - V, 1.0)
            bad = (
                (slack <= 0).any(axis=1)
                | (lo <= 0).any(axis=1)
                | (hi <= 0).any(axis=1)
            )
            out = (
                tau * self.f_value(V, k)
                - np.log(np.maximum(slack, 1e-300)).sum(axis=1)
                - np.log(np.maximum(lo, 1e-300)).sum(axis=1)
                - np.where(fin_ub, np.log(np.maximum(hi, 1e-300)), 0.0).sum(axis=1)
            )
        out[bad] = np.inf
        return out

    def interior(self, V: np.ndarray, margin: float = 1e-12) -> np.ndarray:
        """Strict-interiority mask per block."""
        ok = (self.slacks(V) > margin).all(axis=1)
        ok &= (V - self.lb > 0).all(axis=1)
        ok &= np.where(self.fin_ub, self.ub - V > 0, True).all(axis=1)
        return ok

    def cached_phase1(self, k: int) -> "np.ndarray | None":
        """Block ``k``'s last phase-I point, if still comfortably interior.

        Same reuse rule as :meth:`SmoothConvexProgram._interior_start`:
        every row and finite bound keeps a slack above 1e-7 for the
        current right-hand side.
        """
        v = self.phase1[k]
        slack = np.concatenate(
            [
                self.b[k] - self.A[k] @ v,
                v - self.lb[k],
                (self.ub[k] - v)[self.fin_ub[k]],
            ]
        )
        return v.copy() if slack.min() > 1e-7 else None  # NaN -> None


@dataclass
class _BarrierStats:
    """Work done by one :func:`_batched_barrier` call, summed over blocks."""

    newton_iters: int = 0  # block Newton steps
    backtracks: int = 0  # block Armijo halvings
    stalled_blocks: int = 0  # block stalls (line search or max_newton exhausted)


def _batched_barrier(
    grp: _BatchedGroup, V0: np.ndarray, tau0: np.ndarray, options
) -> "tuple[np.ndarray, _BarrierStats]":
    """Shared path-following barrier over all blocks of a group.

    Block ``k`` starts at ``tau0[k]`` (warm-started blocks further down
    the path than cold ones) and every block's tau grows by
    ``barrier_mu`` per outer step.  At each tau a block takes Newton
    steps only until it is centered — its decrement below the
    tau-scaled tolerance, or below the rounding level of its own
    barrier value ``phi`` (past that point the Armijo test compares
    differences that round away, so further steps only shrink towards
    zero length) — and it drops out of the working set for good once
    its duality-gap bound ``m_total / tau_k`` clears the tolerance.
    Raises :class:`_BatchSolveError` if any block stalls with a large
    remaining gap, or (reason ``numerical``) if a Newton system is
    singular or yields a non-finite step; the slot then falls back to
    the coupled solve.
    """
    B = V0.shape[0]
    V = V0.copy()
    tau = np.array(tau0, dtype=float)
    done = np.zeros(B, dtype=bool)
    stats = _BarrierStats()
    n_diag = np.arange(grp.n)

    for _outer in range(200):
        work = ~done
        center_tol = 1e-9 * (1.0 + tau * 1e-4)
        centered = done.copy()
        stalled = np.zeros(B, dtype=bool)
        for _inner in range(options.max_newton):
            idx = np.flatnonzero(~centered & ~stalled)
            if idx.size == 0:
                break
            Vw = V[idx]
            A = grp.A[idx]
            lb, ub, fin_ub = grp.lb[idx], grp.ub[idx], grp.fin_ub[idx]
            slack = grp.b[idx] - np.einsum("bmn,bn->bm", A, Vw)
            g_f, h_f = grp.f_grad_hess(Vw, idx)
            d1 = 1.0 / slack
            lo = Vw - lb
            with np.errstate(divide="ignore"):
                hi_inv = np.where(fin_ub, 1.0 / (ub - Vw), 0.0)
            tw = tau[idx]
            g = tw[:, None] * g_f + np.einsum("bmn,bm->bn", A, d1) - 1.0 / lo + hi_inv
            diag = tw[:, None] * h_f + 1.0 / (lo * lo) + hi_inv * hi_inv
            M = A * d1[:, :, None]
            H = np.matmul(M.transpose(0, 2, 1), M)
            H[:, n_diag, n_diag] += diag
            try:
                dv = np.linalg.solve(H, -g[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise _BatchSolveError(
                    f"batched Newton system: {exc}", reason="numerical"
                ) from exc
            if not bool(np.isfinite(dv).all()):
                raise _BatchSolveError(
                    "batched Newton step is not finite", reason="numerical"
                )
            stats.newton_iters += idx.size
            half_dec = -(g * dv).sum(axis=1) / 2.0
            phi0 = grp.phi(Vw, tw, idx)
            floor = np.maximum(center_tol[idx], _PHI_ROUNDING * np.abs(phi0))
            at_center = half_dec <= floor
            centered[idx[at_center]] = True
            sel = np.flatnonzero(~at_center)
            if sel.size == 0:
                continue
            # Largest feasible step per block, then shared Armijo pass.
            gidx = idx[sel]
            Vs, dn, dec_sq = Vw[sel], dv[sel], 2.0 * half_dec[sel]
            Adv = np.einsum("bmn,bn->bm", A[sel], dn)
            step = np.ones(sel.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(Adv > 0, slack[sel] / Adv, np.inf)
                step = np.minimum(step, ratio.min(axis=1) * _MAX_BOUNDARY_FRACTION)
                lo_ratio = np.where(dn < 0, -lo[sel] / dn, np.inf)
                step = np.minimum(step, lo_ratio.min(axis=1) * _MAX_BOUNDARY_FRACTION)
                hi_gap = np.where(fin_ub[sel], ub[sel] - Vs, np.inf)
                hi_ratio = np.where(dn > 0, hi_gap / dn, np.inf)
                step = np.minimum(step, hi_ratio.min(axis=1) * _MAX_BOUNDARY_FRACTION)
            phi0 = phi0[sel]
            need = np.arange(sel.size)
            for _bt in range(60):
                trial = Vs[need] + step[need, None] * dn[need]
                phi1 = grp.phi(trial, tau[gidx[need]], gidx[need])
                ok = phi1 <= phi0[need] - _ARMIJO_ALPHA * step[need] * dec_sq[need]
                V[gidx[need[ok]]] = trial[ok]
                need = need[~ok]
                if need.size == 0:
                    break
                stats.backtracks += need.size
                step[need] *= _ARMIJO_BETA
                exhausted = step[need] <= 1e-14
                if exhausted.any():
                    stalled[gidx[need[exhausted]]] = True
                    need = need[~exhausted]
                    if need.size == 0:
                        break
            else:  # pragma: no cover - 60 halvings always terminates
                stalled[gidx[need]] = True
        else:
            stalled[~centered & ~stalled] = True
        stats.stalled_blocks += int(np.count_nonzero(stalled))

        gap = grp.m_total / tau
        scale = 1.0 + np.abs(grp.f_value(V))
        done |= work & (gap <= options.tol * scale)
        hard = work & stalled & ~done
        if hard.any():
            if bool((gap[hard] <= 1e3 * options.tol * scale[hard]).all()):
                done[hard] = True  # late-path stall, gap already tiny
            else:
                raise _BatchSolveError(
                    f"batched Newton stalled at tau={tau[hard].min():.2e}"
                    f" (gap {gap[hard].max():.2e})"
                )
        if done.all():
            return V, stats
        tau *= options.barrier_mu
    raise _BatchSolveError("batched barrier exceeded the outer-iteration budget")


def _interior_candidate(
    net: Any, lam_e: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Global ``(X, y, s)`` start, the coupled path's construction.

    Each edge cloud's demand is spread over its SLA edges in proportion
    to link capacity; links and tier-2 clouds sit halfway to capacity.
    At peak load the spread can overload a tier-2 cloud, which is why
    blocks fall back to their phase-I point.
    """
    link_sum = net.aggregate_tier1(net.edge_capacity)
    share = net.edge_capacity / np.maximum(link_sum[net.edge_j], 1e-300)
    floor = 1e-9 * (1.0 + net.edge_capacity)
    s_c = np.maximum(lam_e * share * 1.02, floor)
    y_c = 0.5 * (s_c + net.edge_capacity)
    X_c = 0.5 * (net.aggregate_tier2(s_c) + net.tier2_capacity)
    return X_c, y_c, s_c


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
@dataclass
class _Handle:
    """Per-structure state the batched backend precomputes."""

    sub: Any
    fast_i: np.ndarray  # (I,) tier-2 clouds in star components
    fast_e: np.ndarray  # (E,) edges in star components
    blocks: "list[_Block]" = field(default_factory=list)
    groups: "dict[bytes, list[_BatchedGroup]]" = field(default_factory=dict)
    # Static degeneracy flags: a zero regularizer weight makes the fast
    # closed form depend on the slot's price being nonzero.
    wX_zero: "np.ndarray | None" = None
    wy_zero: "np.ndarray | None" = None


class BatchedNewtonBackend:
    """Component-decomposed solves: closed forms + batched Newton."""

    name = "batched"

    # ------------------------------------------------------------------
    def compile(self, subproblem: Any) -> _Handle:
        """Partition the SLA graph and precompute block index data."""
        net = subproblem.network
        n_i, n_j = net.n_tier2, net.n_tier1

        parent = list(range(n_i + n_j))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in range(net.n_edges):
            ra, rb = find(int(net.edge_i[e])), find(n_i + int(net.edge_j[e]))
            if ra != rb:
                parent[ra] = rb

        deg_j = np.bincount(net.edge_j, minlength=n_j)
        roots_i = np.array([find(i) for i in range(n_i)])
        roots_j = np.array([find(n_i + j) for j in range(n_j)])
        roots_e = roots_i[net.edge_i]

        # A component is a closed-form star iff every tier-1 member has
        # exactly one SLA edge; components are enumerated by root.
        comp_has_multi = np.zeros(n_i + n_j, dtype=bool)
        np.logical_or.at(comp_has_multi, roots_j, deg_j > 1)
        fast_root = ~comp_has_multi
        handle = _Handle(
            sub=subproblem,
            fast_i=fast_root[roots_i],
            fast_e=fast_root[roots_e],
            wX_zero=subproblem.weight_tier2 == 0,
            wy_zero=subproblem.weight_link == 0,
        )
        for root in np.unique(np.concatenate([roots_i, roots_j])):
            if fast_root[root]:
                continue
            ti = np.flatnonzero(roots_i == root)
            tj = np.flatnonzero(roots_j == root)
            te = np.flatnonzero(roots_e == root)
            loc_i = np.zeros(n_i, dtype=np.intp)
            loc_i[ti] = np.arange(ti.size)
            loc_j = np.zeros(n_j, dtype=np.intp)
            loc_j[tj] = np.arange(tj.size)
            handle.blocks.append(
                _Block(
                    ti=ti,
                    tj=tj,
                    te=te,
                    e_i_loc=loc_i[net.edge_i[te]],
                    e_j_loc=loc_j[net.edge_j[te]],
                )
            )
        return handle

    # ------------------------------------------------------------------
    def _groups_for(
        self, handle: _Handle, keep_y: "np.ndarray | None"
    ) -> "list[_BatchedGroup]":
        """Stacked groups for one hedging keep-pattern (cached)."""
        sub = handle.sub
        key = keep_y.tobytes() if keep_y is not None else b""
        cached = handle.groups.get(key) if sub.config.reuse_structure else None
        if cached is not None:
            return cached
        by_shape: "dict[tuple, list[_Block]]" = {}
        for blk in handle.blocks:
            ky = 0 if keep_y is None else int(np.count_nonzero(keep_y[blk.te]))
            by_shape.setdefault(blk.shape_key + (ky,), []).append(blk)
        lb, ub = sub._bounds
        groups = [
            _BatchedGroup(
                blocks,
                keep_y,
                lb,
                ub,
                sub.sl_X,
                sub.sl_y,
                sub.sl_s,
                sub.weight_tier2,
                sub.weight_link,
                sub.config.epsilon,
                sub.config.eps2,
            )
            for blocks in by_shape.values()
        ]
        if sub.config.reuse_structure:
            handle.groups[key] = groups
        return groups

    # ------------------------------------------------------------------
    def solve(
        self,
        handle: _Handle,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Any,
        warm: "np.ndarray | None" = None,
        probe: Any = None,
    ) -> "tuple[Any, np.ndarray]":
        sub = handle.sub
        net = sub.network
        cfg = sub.config
        lam = np.asarray(workload, dtype=float)
        lam_e = lam[net.edge_j]
        X_prev = previous.tier2_totals(net)
        y_prev = np.asarray(previous.y, dtype=float)
        lb, ub = sub._bounds
        ub_X, ub_y = ub[sub.sl_X], ub[sub.sl_y]

        rhs_x = rhs_y = keep_x = keep_y = None
        if cfg.hedging:
            total = float(lam.sum())
            rhs_x = np.maximum(total - net.tier2_capacity, 0.0)
            keep_x = rhs_x > 0
            rhs_y = np.maximum(lam_e - net.edge_capacity, 0.0)
            keep_y = rhs_y > 0

        fast_i, fast_e = handle.fast_i, handle.fast_e
        reg = obs_metrics.active()

        def bail(reason: str):
            return self._fallback(
                sub, workload, tier2_price, link_price, previous, warm, probe,
                reason,
            )

        # Structural surprises route the whole slot through the coupled
        # solve so behaviour (including infeasibility errors) matches
        # the sequential backend exactly.
        if keep_y is not None and bool(np.any(keep_y & fast_e)):
            # An active (3e) row on a degree-1 edge has an empty
            # left-hand side: the slot is infeasible (or degenerate).
            return bail("hedge_y_on_star")
        if bool(np.any((lam_e >= ub_y) & fast_e)):
            return bail("star_link_at_capacity")
        if bool(np.any(handle.wy_zero & (link_price == 0) & fast_e)):
            return bail("degenerate_link_objective")
        if bool(np.any(handle.wX_zero & (tier2_price == 0) & fast_i)):
            return bail("degenerate_tier2_objective")
        if len(handle.blocks) == 1 and not bool(fast_e.any()):
            # The SLA graph is one non-star component: there is nothing
            # to decompose, and the coupled solve's sparse fused kernels
            # beat a dense single-block Newton.  Densely-connected
            # structures (k >= 2 at paper sizes) land here.
            return bail("single_component")

        span = obs_tracing.span("subproblem.solve")
        with span:
            v = np.empty(sub.n_vars)
            newton_iters = backtracks = stalled_blocks = 0
            warm_attempted = False
            warm_used = False

            # ---------------- closed-form star components -------------
            # Runs every slot: edge-less tier-2 clouds are stars without
            # edges and hold no Newton block, so their X comes from here
            # even when no star edge exists.
            n_fast = int(np.count_nonzero(fast_e))
            with np.errstate(divide="ignore"):
                fy = np.exp(
                    -np.divide(
                        link_price,
                        sub.weight_link,
                        out=np.full(net.n_edges, np.inf),
                        where=~handle.wy_zero,
                    )
                )
                fX = np.exp(
                    -np.divide(
                        tier2_price,
                        sub.weight_tier2,
                        out=np.full(net.n_tier2, np.inf),
                        where=~handle.wX_zero,
                    )
                )
            ybar = (y_prev + cfg.eps2) * fy - cfg.eps2
            y_fast = np.minimum(np.maximum(lam_e, ybar), ub_y)
            s_fast = np.where(fast_e, lam_e, 0.0)
            D = net.aggregate_tier2(s_fast)
            if bool(np.any((D >= ub_X) & fast_i)):
                return bail("star_cloud_at_capacity")
            xbar = (X_prev + cfg.epsilon) * fX - cfg.epsilon
            X_fast = np.minimum(np.maximum(D, xbar), ub_X)
            v[sub.sl_X] = np.where(fast_i, X_fast, 0.0)
            v[sub.sl_y] = np.where(fast_e, y_fast, 0.0)
            v[sub.sl_s] = s_fast

            # ---------------- batched Newton components ---------------
            batch_sizes: "list[int]" = []
            if handle.blocks:
                groups = self._groups_for(handle, keep_y)
                cand = _interior_candidate(net, lam_e)
                warm_parts = None
                if warm is not None:
                    warm_parts = (warm[sub.sl_X], warm[sub.sl_y], warm[sub.sl_s])
                options = cfg.solver
                t0_warm = options.barrier_t0
                if options.backend == "barrier":
                    t0_warm = max(t0_warm, 1e3)
                warm_attempted = warm is not None
                try:
                    # Every group's start before any Newton work, so a
                    # slot without a strict interior bails cheaply.
                    solved = []
                    for grp in groups:
                        grp.set_slot(
                            lam, tier2_price, link_price, X_prev, y_prev, rhs_y
                        )
                        V0, warm_ok = self._start(grp, cand, warm_parts, reg)
                        warm_used |= bool(warm_ok.any())
                        tau0 = np.where(warm_ok, t0_warm, options.barrier_t0)
                        solved.append((grp, V0, tau0))
                    for grp, V0, tau0 in solved:
                        V, stats = _batched_barrier(grp, V0, tau0, options)
                        newton_iters += stats.newton_iters
                        backtracks += stats.backtracks
                        stalled_blocks += stats.stalled_blocks
                        batch_sizes.append(len(grp.blocks))
                        grp.scatter(V, v[sub.sl_X], v[sub.sl_y], v[sub.sl_s])
                except _BatchSolveError as exc:
                    return bail(exc.reason)

            # ---------------- post-hoc tier-2 hedge check --------------
            if keep_x is not None and bool(np.any(keep_x)):
                X = v[sub.sl_X]
                others = float(X.sum()) - X
                slack_tol = 1e-9 * (1.0 + rhs_x)
                if not bool(np.all(others[keep_x] >= rhs_x[keep_x] - slack_tol[keep_x])):
                    return bail("hedge_x_violation")

            span.set(
                backend=self.name,
                warm_attempted=warm_attempted,
                warm_used=warm_used,
                fallback=False,
                newton_iters=newton_iters,
            )

        if probe is not None:
            probe.record_solve(
                backend=self.name,
                newton_iters=newton_iters,
                warm_attempted=warm_attempted,
                warm_used=warm_used,
                fallback=False,
            )
        if reg is not None:
            reg.counter(
                "backend_slots_total",
                help="slots solved, by solver backend",
                backend=self.name,
            ).inc()
            if n_fast:
                reg.counter(
                    "backend_fast_path_hits_total",
                    help="closed-form star components solved without Newton",
                    backend=self.name,
                ).inc(n_fast)
            if newton_iters:
                reg.counter(
                    "backend_fused_newton_iters_total",
                    help="Newton iterations inside batched block solves",
                    backend=self.name,
                ).inc(newton_iters)
            if backtracks:
                reg.counter(
                    "backend_backtracks_total",
                    help="Armijo halvings inside batched block solves, per block",
                    backend=self.name,
                ).inc(backtracks)
            if stalled_blocks:
                reg.counter(
                    "backend_stalled_blocks_total",
                    help="batched blocks whose Newton centering stalled at a tau",
                    backend=self.name,
                ).inc(stalled_blocks)
            if handle.blocks:
                # The coupled path's rule; closed-form-only slots take
                # no start point and count nothing.
                reg.counter(
                    "subproblem_warm_starts_total",
                    help="warm-start outcomes per subproblem solve",
                    outcome="cold" if warm is None else ("hit" if warm_used else "miss"),
                ).inc()
            for size in batch_sizes:
                reg.histogram(
                    "backend_batch_size",
                    help="blocks stacked per batched Newton solve",
                    buckets=_BATCH_BUCKETS,
                    backend=self.name,
                ).observe(size)
        return sub.split(v, lam), v

    # ------------------------------------------------------------------
    def _start(
        self,
        grp: _BatchedGroup,
        cand: "tuple[np.ndarray, np.ndarray, np.ndarray]",
        warm: "tuple[np.ndarray, np.ndarray, np.ndarray] | None",
        reg: Any,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Strictly interior start per block, and which blocks are warm.

        Each block starts from the interior candidate ``cand`` (global
        ``(X, y, s)``) or, where that is not interior, from its own
        phase-I point.  A block whose ``0.9 * warm + 0.1 * start`` blend
        is interior starts from the blend instead and is marked warm.
        Raises :class:`_BatchSolveError` (``no_interior_candidate``)
        when a block has no strict interior.
        """
        V0 = grp.gather(*cand)
        for k in np.flatnonzero(~grp.interior(V0)):
            start = grp.cached_phase1(k)
            if start is None:
                if reg is not None:
                    reg.counter(
                        "backend_phase1_solves_total",
                        help="phase-I LPs solved for batched blocks",
                        backend=self.name,
                    ).inc()
                try:
                    start = phase1_lp(grp.A[k], grp.b[k], grp.lb[k], grp.ub[k])
                except ConvexSolverError as exc:
                    raise _BatchSolveError(
                        str(exc), reason="no_interior_candidate"
                    ) from exc
                grp.phase1[k] = start
            V0[k] = start
        if not bool(grp.interior(V0).all()):
            raise _BatchSolveError(
                "phase-I point not strictly interior",
                reason="no_interior_candidate",
            )
        warm_ok = np.zeros(len(grp.blocks), dtype=bool)
        if warm is not None:
            blend = 0.9 * grp.gather(*warm) + 0.1 * V0
            warm_ok = grp.interior(blend)
            V0[warm_ok] = blend[warm_ok]
        return V0, warm_ok

    # ------------------------------------------------------------------
    def _fallback(
        self,
        sub: Any,
        workload: np.ndarray,
        tier2_price: np.ndarray,
        link_price: np.ndarray,
        previous: Any,
        warm: "np.ndarray | None",
        probe: Any,
        reason: str,
    ) -> "tuple[Any, np.ndarray]":
        """Route the slot through the coupled sequential solve."""
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(
                "backend_sequential_fallbacks_total",
                help="slots the batched backend routed to the coupled solve",
                backend=self.name,
                reason=reason,
            ).inc()
        return sub._solve_reduced_coupled(
            workload, tier2_price, link_price, previous, warm, probe=probe
        )
