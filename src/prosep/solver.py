"""Variable-projection solver for the bilinear recovery problem.

Stack the measurements as data columns G = [g_hat(s_1), ..., g_hat(s_J)].
The inner linear variable beta(s) is eliminated in closed form, leaving

    min_Z  ||P_perp(L1(Z)) G||_F^2

over Z with orthonormal columns, evaluated on G directly.

L1 is held as its column-disjoint blocks (``psmodel.l1_factors``): with
the half-turn symmetry one P-row block per harmonic parity, without it
one block.  The data split the same way (``stacked_data``), so the
objective, its gradient and beta are sums and stacks of per-block
pieces, each a quarter of the QR work of the 2P-row system.

When d = K+1, Z is square and U Z spans range(U) for every invertible Z,
so range(L1(Z)) and the objective do not depend on Z: Z is not
identifiable.  ``solve`` then takes Z = I (Psi = U) and fits beta with
one least-squares solve; there is nothing to descend on.

When d > K+1, the orthonormality constraint is relaxed to a penalty and
the reduced objective is minimized with Adam; the returned Z is
re-orthonormalized through its polar factor and the coefficients are
recovered per detector offset by truncated least squares.  Everything
runs in the real trigonometric parameterization, so all matrices are
real.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .phantom import TimeSequentialSinogram
from .psmodel import (
    HarmonicCoefficients,
    HarmonicOrder,
    face_split,
    harmonic_parity,
    l1_factors,
)

__all__ = [
    "SolverConfig",
    "SolverReport",
    "VarproProblem",
    "stacked_data",
    "inner_beta",
    "solve",
]


def _mirror_weights(J: int) -> np.ndarray:
    """Weights of the ceil(J/2) kept columns: sqrt2 for a bin pair, 1 for a middle bin."""
    w = np.full((J + 1) // 2, np.sqrt(2.0))
    if J % 2:
        w[-1] = 1.0
    return w


def stacked_data(data: TimeSequentialSinogram, symmetric: bool) -> list:
    """The measurements as data blocks matching the blocks of ``l1_factors``.

    Without the symmetry: one block, the columns g(s_j) (P x J).  With
    it, the 2P-row columns [g(s_j); g(-s_j)] rotated like L1's rows:
    the even part (g(s_j) + g(-s_j)) / sqrt2 and the odd part
    (g(s_j) - g(-s_j)) / sqrt2, where -s_j is detector bin J-1-j.  Bins
    j and J-1-j carry the same parts (the odd one negated), so each block
    keeps only the first ceil(J/2) columns, weighted by sqrt2, except a
    middle bin (odd J), which is its own mirror.  The weights keep every
    sum of squares, so objectives and gradients equal those of the
    2P x J system.
    """
    g = data.values  # J x P
    if not symmetric:
        return [g.T.copy()]
    J = g.shape[0]
    half = (J + 1) // 2
    here, mirrored = g[:half].T, g[::-1][:half].T
    w = _mirror_weights(J) / np.sqrt(2.0)
    return [(here + mirrored) * w, (here - mirrored) * w]


def inner_beta(L1: np.ndarray, g_hat: np.ndarray, rank_rtol: float = 1e-10) -> np.ndarray:
    """Minimum-norm least-squares coefficients beta = pinv(L1) g_hat.

    Singular values below ``rank_rtol`` times the largest are truncated,
    which keeps the solution bounded when L1 is nearly rank deficient.
    Accepts a single right-hand side or a matrix of stacked columns.
    """
    sol, *_ = np.linalg.lstsq(L1, g_hat, rcond=rank_rtol)
    return sol


def _block_inner_beta(L_blocks, G_blocks, rank_rtol: float) -> list:
    """``inner_beta`` per block, with one threshold for all of L1.

    Singular values below ``rank_rtol`` times the largest singular value
    of the whole L1 (the largest over the blocks) are truncated, so each
    block truncates exactly what the stacked system would.  A block with
    nothing above that threshold gets beta = 0 without a solve: LAPACK
    ignores a relative cut-off of 1 or more.
    """
    tops = [np.linalg.norm(L, 2) for L in L_blocks]
    cut = rank_rtol * max(tops)
    return [inner_beta(L, G, cut / t) if t > cut else np.zeros((L.shape[1], G.shape[1]))
            for L, G, t in zip(L_blocks, G_blocks, tops)]


class VarproProblem:
    """Reduced-objective evaluations for a fixed scheme, interpolator and order.

    Holds the blocks of L1 (``l1_factors``) so that repeated
    objective/gradient evaluations reuse them.
    """

    def __init__(self, scheme, U: np.ndarray, order: HarmonicOrder, symmetric: bool,
                 rank_rtol: float = 1e-10):
        self.order = order
        self.symmetric = symmetric
        self.rank_rtol = rank_rtol
        U = np.asarray(U, dtype=float)
        if U.shape[1] != order.d:
            raise ValueError(f"U has {U.shape[1]} columns, expected d={order.d}")
        self.blocks = l1_factors(scheme, order.N, U, symmetric)

    def l1(self, Z: np.ndarray) -> list:
        """The blocks of L1(Z), one per entry of ``blocks``."""
        return [face_split(b.theta, b.V @ Z) for b in self.blocks]

    def beta(self, Z: np.ndarray, G, J: int) -> np.ndarray:
        """Truncated least-squares beta for the data blocks G of J detector bins.

        Solved per block, then scattered back to the (2N+1)(K+1) x J layout
        of beta.  With the symmetry the blocks hold the weighted first
        ceil(J/2) bins (``stacked_data``); bin J-1-j is bin j times
        (-1)^n, so even harmonic rows are mirror-symmetric in j and odd
        rows antisymmetric.
        """
        order = self.order
        betas = _block_inner_beta(self.l1(Z), G, self.rank_rtol)
        B = np.empty((order.n_harmonics, order.n_temporal, betas[0].shape[1]))
        for block, beta in zip(self.blocks, betas):
            B[block.harmonics] = beta.reshape(block.harmonics.size, order.n_temporal, -1)
        if self.symmetric:
            B /= _mirror_weights(J)
            mirror = harmonic_parity(order.N)[:, None, None] * B[:, :, : J // 2]
            B = np.concatenate([B, mirror[:, :, ::-1]], axis=2)
        return B.reshape(order.cols, J)

    def objective_and_gradient_from_data(self, Z: np.ndarray, G, mu: float = 0.0):
        """Penalized objective ||P_perp(L1(Z)) G||_F^2 and its exact gradient in Z.

        G is the list of data blocks (``stacked_data``); F and the
        gradient are sums over the blocks of L1.  Per block, with
        Q R = L1_b(Z) and beta* = pinv(L1_b) G_b the per-column least
        squares solutions, the projector derivative contracts to
        grad_b = -2 V^T M with
        M[i, k] = sum_n theta[i, n] * ((G_b - Q Q^T G_b) beta*^T)[i, (n, k)];
        the penalty mu ||Z^T Z - I||_F^2 adds 4 mu Z (Z^T Z - I).
        """
        L_blocks = self.l1(Z)
        QR = [np.linalg.qr(L) for L in L_blocks]
        QtG = [Q.T @ Gb for (Q, _), Gb in zip(QR, G)]
        F = sum(float(np.sum(Gb * Gb) - np.sum(q * q)) for Gb, q in zip(G, QtG))
        # beta* through the QR factors when every block is safely full
        # column rank, against the largest diagonal over all blocks;
        # truncated least squares otherwise (also when a block has fewer
        # rows than columns, where R is not square)
        diag = np.concatenate([np.abs(np.diagonal(R)) for _, R in QR])
        if (all(R.shape[0] == R.shape[1] for _, R in QR)
                and diag.min() > self.rank_rtol * max(diag.max(), 1e-300)):
            betas = [solve_triangular(R, q, lower=False) for (_, R), q in zip(QR, QtG)]
        else:
            betas = _block_inner_beta(L_blocks, G, self.rank_rtol)
        grad = 0.0
        for b, (Q, _), Gb, q, beta in zip(self.blocks, QR, G, QtG, betas):
            W3 = ((Gb - Q @ q) @ beta.T).reshape(b.theta.shape[0], b.harmonics.size,
                                                 self.order.n_temporal)
            grad = grad - 2.0 * (b.V.T @ np.einsum("in,ink->ik", b.theta, W3))
        if mu:
            ZtZ = Z.T @ Z - np.eye(Z.shape[1])
            F += mu * float(np.sum(ZtZ**2))
            grad = grad + 4.0 * mu * (Z @ ZtZ)
        return F, grad


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the penalized Adam descent on Z.

    The Adam fields (``max_iters``, ``step_size``, ``penalty_weight``,
    ``tol_rel_objective``), ``restarts`` and ``seed`` apply only when
    d > K+1; with d = K+1 ``solve`` runs no descent.  ``pinv_rank_rtol``
    applies to every least-squares solve for beta.
    """

    max_iters: int = 5000
    step_size: float = 0.2
    penalty_weight: float = 1.0
    tol_rel_objective: float = 1e-9
    restarts: int = 5
    seed: int = 0
    pinv_rank_rtol: float = 1e-10

    def __post_init__(self):
        if min(self.max_iters, self.restarts) < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if min(self.step_size, self.penalty_weight, self.tol_rel_objective,
               self.pinv_rank_rtol) <= 0:
            raise ValueError("step_size, penalty_weight, tolerances must be positive")


@dataclass
class SolverReport:
    """Convergence record of a solve.

    ``objective_trace`` is the incumbent (best-so-far) normalized
    objective per iteration of the winning restart, which is
    non-increasing by construction; ``raw_objective_trace`` keeps the
    actual per-iterate values of the same restart.  A solve without a
    descent (d = K+1, or all-zero data) has one entry in each trace, the
    closed-form objective, and no restarts.

    ``z_identifiable`` is false exactly when d = K+1.  ``rank_margin`` is
    the number of equations per detector offset minus the number of
    unknowns, 2P - (2N+1)(K+1) under the half-turn symmetry and
    P - (2N+1)(K+1) without it; below 0, L1 cannot have full column rank.
    It is necessary, not sufficient: ``block_rank_margin`` is the least
    rows - columns over the blocks of L1 (``HarmonicOrder.block_margin``),
    P - (N+1)(K+1) with the symmetry, and L1 can have full column rank
    exactly when it is at least 0.
    """

    objective_trace: np.ndarray
    raw_objective_trace: np.ndarray
    final_objective: float
    final_orthonormality_defect: float
    chosen_restart: int
    iterations_used: int
    converged: bool
    z_identifiable: bool
    rank_margin: int
    block_rank_margin: int
    restart_objectives: list = field(default_factory=list)
    aborted_restarts: list = field(default_factory=list)


_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_PLATEAU_ITERS = 100
_STEP_DECAY = 0.5
_STALL_LIMIT = 350


def _adam_descent(problem: VarproProblem, G_n: np.ndarray, Z0: np.ndarray,
                  config: SolverConfig):
    """One penalized Adam descent with plateau-triggered step decay.

    The step starts at ``config.step_size`` and halves whenever the best
    objective has not improved by ``tol_rel_objective`` (relative) for
    100 iterations; each decay restarts from the incumbent best iterate.
    With a constant step Adam's normalized updates orbit the minimizer
    instead of settling, so the decay is what makes deep convergence
    possible.  Returns None in place of the trace when the objective
    turns non-finite.
    """
    Z = Z0.copy()
    m = np.zeros_like(Z)
    v = np.zeros_like(Z)
    lr = config.step_size
    mu = config.penalty_weight
    best_f = np.inf
    best_Z = Z.copy()
    last_improve = 0
    t_adam = 0
    raw = np.empty(config.max_iters)
    incumbent = np.empty(config.max_iters)
    used = 0
    converged = False
    for it in range(1, config.max_iters + 1):
        f, g = problem.objective_and_gradient_from_data(Z, G_n, mu)
        if not np.isfinite(f):
            return None
        used = it
        raw[it - 1] = f
        # relative to |best_f|: an exact fit can round to a tiny negative
        # objective, and best_f * (1 - tol) would then lie above best_f
        tol = math.copysign(config.tol_rel_objective, best_f)
        if f < best_f * (1.0 - tol) or best_f == np.inf:
            best_f = min(best_f, f)
            best_Z = Z.copy()
            last_improve = it
        elif f < best_f:
            best_f = f
            best_Z = Z.copy()
        incumbent[it - 1] = best_f
        stall = it - last_improve
        if stall >= _STALL_LIMIT:
            converged = True
            break
        if stall and stall % _PLATEAU_ITERS == 0:
            lr *= _STEP_DECAY
            Z = best_Z.copy()
            m[:] = 0.0
            v[:] = 0.0
            t_adam = 0
            continue
        t_adam += 1
        m = _ADAM_B1 * m + (1.0 - _ADAM_B1) * g
        v = _ADAM_B2 * v + (1.0 - _ADAM_B2) * g * g
        m_hat = m / (1.0 - _ADAM_B1**t_adam)
        v_hat = v / (1.0 - _ADAM_B2**t_adam)
        Z = Z - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return best_Z, best_f, raw[:used], incumbent[:used], converged


def _polar_orthonormalize(Z: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns (polar factor)."""
    U, _, Vt = np.linalg.svd(Z, full_matrices=False)
    return U @ Vt


def solve(
    data: TimeSequentialSinogram,
    model: HarmonicOrder,
    U: np.ndarray,
    config: SolverConfig | None = None,
    symmetric: bool | None = None,
):
    """Recover (Z, beta) from a time-sequential sinogram.

    With d = K+1 the objective is the same for every Z (module
    docstring), so Z = I and beta comes from one truncated least-squares
    solve per block of L1(I); the report says converged after 0
    iterations, with ``z_identifiable`` false.  All-zero data take the same path with
    Z = I_{d x (K+1)}, since the zero model fits them exactly.

    With d > K+1, runs ``config.restarts`` independent Adam descents from
    random orthonormal starting points, keeps the lowest objective (ties
    broken by restart index), re-orthonormalizes the winner through its
    polar factor, and recovers beta(s_j) for every detector offset by
    truncated least squares on the blocks.  Truncation is relative to the
    largest singular value of the whole L1 in both cases.  A warning is
    issued when some block of L1 has fewer rows than columns
    (``HarmonicOrder.solvable``).

    Parameters
    ----------
    data : TimeSequentialSinogram
        Acquired projections, one angle per time instant.
    model : HarmonicOrder
        Harmonic bandlimit N, temporal order K, subspace dimension d.
    U : ndarray (P x d)
        Fixed orthonormal interpolator, e.g. ``spline_interpolator(P, d)``.
    config : SolverConfig, optional
    symmetric : bool, optional
        Exploit the half-turn symmetry (doubles the equations, which split
        into one P-row block per harmonic parity).  Default: inferred
        from the scheme span (enabled for span <= pi).

    Returns
    -------
    (Z, HarmonicCoefficients, SolverReport)
    """
    config = config or SolverConfig()
    if symmetric is None:
        symmetric = data.scheme.span <= np.pi * (1.0 + 1e-9)
    P, J = data.scheme.P, data.values.shape[0]
    block_margin = model.block_margin(P, symmetric)
    if not model.solvable(P, symmetric):
        warnings.warn(
            f"P = {P} < {P - block_margin} columns in the largest block of L1 "
            "((N+1)(K+1) with the half-turn symmetry, (2N+1)(K+1) without): the "
            "linearized model cannot have full column rank and recovery is not unique",
            stacklevel=2,
        )
    problem = VarproProblem(data.scheme, U, model, symmetric, config.pinv_rank_rtol)
    G = stacked_data(data, symmetric)
    tr = sum(float(np.sum(Gb * Gb)) for Gb in G)
    identifiable = model.d > model.n_temporal
    equations = 2 * P if symmetric else P
    facts = dict(z_identifiable=identifiable, rank_margin=equations - model.cols,
                 block_rank_margin=block_margin)
    if tr <= 0.0 or not identifiable:
        Z = np.eye(model.d)[:, : model.n_temporal]
        f = 0.0 if tr <= 0.0 else problem.objective_and_gradient_from_data(
            Z, [Gb / np.sqrt(tr) for Gb in G])[0]
        report = SolverReport(
            objective_trace=np.array([f]),
            raw_objective_trace=np.array([f]),
            final_objective=f,
            final_orthonormality_defect=0.0,
            chosen_restart=0,
            iterations_used=0,
            converged=True,
            **facts,
        )
        beta = HarmonicCoefficients(beta=problem.beta(Z, G, J), order=model)
        return Z, beta, report

    G_n = [Gb / np.sqrt(tr) for Gb in G]  # unit norm: objectives are relative to ||G||^2
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best = None
    restart_objectives = []
    aborted = []
    for r in range(config.restarts):
        rng = np.random.default_rng(seeds[r])
        Z0 = _polar_orthonormalize(rng.standard_normal((model.d, model.n_temporal)))
        result = _adam_descent(problem, G_n, Z0, config)
        if result is None:
            aborted.append(r)
            restart_objectives.append(np.inf)
            continue
        _, f_r, *_ = result
        restart_objectives.append(f_r)
        if best is None or f_r < best[1]:
            best = (r, f_r, result)
    if best is None:
        raise RuntimeError("all restarts diverged to a non-finite objective")

    r_best, _, (Z_best, _, raw, incumbent, converged) = best
    Z_final = _polar_orthonormalize(Z_best)
    beta_cols = problem.beta(Z_final, G, J)
    final_obj = problem.objective_and_gradient_from_data(Z_final, G_n)[0]
    defect = float(np.linalg.norm(Z_final.T @ Z_final - np.eye(model.n_temporal)))
    report = SolverReport(
        objective_trace=incumbent,
        raw_objective_trace=raw,
        final_objective=final_obj,
        final_orthonormality_defect=defect,
        chosen_restart=r_best,
        iterations_used=raw.size,
        converged=converged,
        **facts,
        restart_objectives=restart_objectives,
        aborted_restarts=aborted,
    )
    beta = HarmonicCoefficients(beta=beta_cols, order=model)
    return Z_final, beta, report
