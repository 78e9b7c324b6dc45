"""Variable-projection solver for the bilinear recovery problem.

Stack the measurements as data columns G = [g_hat(s_1), ..., g_hat(s_J)].
The inner linear variable beta(s) is eliminated by least squares
(variable projection), leaving

    min_Z  F(Z) = ||G - L1(Z) beta*(Z)||_F^2,  beta*(Z) = pinv(L1(Z)) G,

over Z with orthonormal columns, evaluated on G directly.  beta* is
fitted one way everywhere: by truncated least squares, dropping singular
values at or below 1e-10 of the largest one of L1 (through the QR
factors when L1 has safely full column rank, where nothing is dropped).
F is always the residual of that beta*, so it is never negative.

L1 is held as its column-disjoint blocks (``psmodel.l1_factors``): with
the half-turn symmetry one P-row block per harmonic parity, without it
one block.  The data split the same way (``stacked_data``), so the
objective, its gradient and beta are sums and stacks of per-block
pieces, each a quarter of the QR work of the 2P-row system.

``solve`` is one path: choose Z, then fit beta once.  When d = K+1, Z is
square and U Z spans range(U) for every invertible Z, so range(L1(Z))
and the objective do not depend on Z: Z is not identifiable, and Z = I
(Psi = U).  When d > K+1, the orthonormality constraint is relaxed to a
penalty, the reduced objective is minimized with Adam, and Z is the
polar factor of the best restart.  Either way beta comes from one
truncated least-squares fit on L1(Z), and the reported objective is the
residual of that beta relative to ||G||^2.  Everything runs in the real
trigonometric parameterization, so all matrices are real.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

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
    "solve",
]

# Adam descent on Z (d > K+1): the initial step, the weight mu of the
# orthonormality penalty, and the relative improvement that resets the
# plateau counter
_STEP_SIZE = 0.2
_PENALTY_WEIGHT = 1.0
_TOL_REL_OBJECTIVE = 1e-9
_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_PLATEAU_ITERS = 100
_STEP_DECAY = 0.5
_STALL_LIMIT = 350
# every least-squares solve for beta drops singular values at or below
# this fraction of the largest singular value of the whole L1
_RANK_RTOL = 1e-10


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


def _truncated_lstsq(L_blocks, G_blocks) -> list:
    """Minimum-norm least-squares beta per block, truncated against the whole L1.

    One thin SVD per block.  Singular values at or below ``_RANK_RTOL``
    times the largest singular value over all blocks are dropped, so each
    block truncates exactly what the stacked (block-diagonal) system
    would, and a block with nothing above that cut-off gets beta = 0.
    """
    svds = [np.linalg.svd(L, full_matrices=False) for L in L_blocks]
    cut = _RANK_RTOL * max((s[0] for _, s, _ in svds if s.size), default=0.0)
    betas = []
    for (W, s, Vt), G in zip(svds, G_blocks):
        keep = s > cut
        betas.append(Vt[keep].T @ ((W[:, keep].T @ G) / s[keep, None]))
    return betas


class VarproProblem:
    """Reduced-objective evaluations for a fixed scheme, interpolator and order.

    Holds the blocks of L1 (``l1_factors``) so that repeated
    objective/gradient evaluations reuse them.
    """

    def __init__(self, scheme, U: np.ndarray, order: HarmonicOrder, symmetric: bool):
        self.order = order
        self.symmetric = symmetric
        U = np.asarray(U, dtype=float)
        if U.shape[1] != order.d:
            raise ValueError(f"U has {U.shape[1]} columns, expected d={order.d}")
        self.blocks = l1_factors(scheme, order.N, U, symmetric)

    def l1(self, Z: np.ndarray) -> list:
        """The blocks of L1(Z), one per entry of ``blocks``."""
        return [face_split(b.theta, b.V @ Z) for b in self.blocks]

    def fit(self, Z: np.ndarray, G, J: int):
        """Truncated least-squares beta for the data blocks G of J detector bins.

        Returns (beta, rss): beta solved per block and scattered back to
        the (2N+1)(K+1) x J layout, and the residual sum of squares
        sum_b ||G_b - L1_b beta_b||^2 of the fit.  With the symmetry the
        blocks hold the weighted first ceil(J/2) bins (``stacked_data``),
        which keep every sum of squares; bin J-1-j is bin j times (-1)^n,
        so even harmonic rows are mirror-symmetric in j and odd rows
        antisymmetric.
        """
        order = self.order
        L_blocks = self.l1(Z)
        betas = _truncated_lstsq(L_blocks, G)
        rss = sum(float(np.sum((Gb - L @ beta) ** 2)) for L, Gb, beta in zip(L_blocks, G, betas))
        B = np.empty((order.n_harmonics, order.n_temporal, betas[0].shape[1]))
        for block, beta in zip(self.blocks, betas):
            B[block.harmonics] = beta.reshape(block.harmonics.size, order.n_temporal, -1)
        if self.symmetric:
            B /= _mirror_weights(J)
            mirror = harmonic_parity(order.N)[:, None, None] * B[:, :, : J // 2]
            B = np.concatenate([B, mirror[:, :, ::-1]], axis=2)
        return B.reshape(order.cols, J), rss

    def objective_and_gradient_from_data(self, Z: np.ndarray, G, mu: float = 0.0):
        """Penalized objective ||G - L1(Z) beta*||_F^2 and its exact gradient in Z.

        G is the list of data blocks (``stacked_data``); F and the
        gradient are sums over the blocks of L1.  Per block, beta* is the
        least-squares fit, truncated like ``fit``, and r = G_b - L1_b
        beta* its residual, so F is a sum of squares and never negative.
        The projector derivative contracts to grad_b = -2 V^T M with
        M[i, k] = sum_n theta[i, n] * (r beta*^T)[i, (n, k)];
        the penalty mu ||Z^T Z - I||_F^2 adds 4 mu Z (Z^T Z - I).
        """
        L_blocks = self.l1(Z)
        QR = [np.linalg.qr(L) for L in L_blocks]
        # beta* through the QR factors when every block is safely full
        # column rank, against the largest diagonal over all blocks (a QR
        # is about 4x cheaper than an SVD); truncated least squares
        # otherwise (also when a block has fewer rows than columns, where
        # R is not square).  R is square and upper triangular, so the
        # partial pivoting of np.linalg.solve never swaps a row.  beta* is
        # kept in Fortran order, the order of a LAPACK triangular solve:
        # the products below round by memory order, and the d > K+1
        # descent grows that rounding about 1e4-fold in Z.
        diag = np.concatenate([np.abs(np.diagonal(R)) for _, R in QR])
        if (all(R.shape[0] == R.shape[1] for _, R in QR)
                and diag.min() > _RANK_RTOL * max(diag.max(), 1e-300)):
            betas = [np.asfortranarray(np.linalg.solve(R, Q.T @ Gb))
                     for (Q, R), Gb in zip(QR, G)]
        else:
            betas = _truncated_lstsq(L_blocks, G)
        F, grad = 0.0, 0.0
        for b, L, Gb, beta in zip(self.blocks, L_blocks, G, betas):
            r = Gb - L @ beta
            F += float(np.sum(r * r))
            W3 = (r @ beta.T).reshape(b.theta.shape[0], b.harmonics.size, self.order.n_temporal)
            grad = grad - 2.0 * (b.V.T @ np.einsum("in,ink->ik", b.theta, W3))
        if mu:
            ZtZ = Z.T @ Z - np.eye(Z.shape[1])
            F += mu * float(np.sum(ZtZ**2))
            grad = grad + 4.0 * mu * (Z @ ZtZ)
        return F, grad


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the Adam descent on Z.

    The iteration cap per restart, the number of restarts from random
    orthonormal starting points, and the seed they are drawn from.  They
    apply only when d > K+1; with d = K+1 ``solve`` runs no descent.
    """

    max_iters: int = 5000
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.max_iters, self.restarts) < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SolverReport:
    """Convergence record of a solve.

    ``raw_objective_trace`` is the normalized objective per iteration of
    the winning restart, and ``objective_trace`` its running minimum, the
    incumbent (best-so-far) value.  A solve without a descent (d = K+1,
    or all-zero data) has one entry in each trace, the final objective,
    and no restarts.  ``final_objective`` is the residual of the returned
    beta, ||G - L1(Z) beta||^2 / ||G||^2 (0 for all-zero data), which the
    winning restart's best iterate approximates before the polar step.
    ``restart_objectives`` holds each restart's best objective, inf for a
    restart whose objective turned non-finite; ``aborted_restarts`` lists
    those restarts.

    ``converged`` is true when the winning restart's descent went
    ``_STALL_LIMIT`` (350) iterations without improving its best objective
    by ``_TOL_REL_OBJECTIVE`` (1e-9, relative), or when no descent ran
    (d = K+1, or all-zero data): a stall test, not a test that Z is
    stationary.  False means the descent reached ``config.max_iters`` first.

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


def _adam_descent(problem: VarproProblem, G_n: np.ndarray, Z0: np.ndarray,
                  config: SolverConfig):
    """One penalized Adam descent with plateau-triggered step decay.

    The step starts at ``_STEP_SIZE`` and halves whenever the best
    objective has not improved by ``_TOL_REL_OBJECTIVE`` (relative) for
    100 iterations; each decay restarts from the incumbent best iterate.
    With a constant step Adam's normalized updates orbit the minimizer
    instead of settling, so the decay is what makes deep convergence
    possible.  Returns (best Z, best objective, objective per iteration,
    converged), or None when the objective turns non-finite.
    """
    Z = Z0.copy()
    m = np.zeros_like(Z)
    v = np.zeros_like(Z)
    lr = _STEP_SIZE
    best_f = np.inf
    best_Z = Z.copy()
    last_improve = 0
    t_adam = 0
    raw = np.empty(config.max_iters)
    used = 0
    converged = False
    for it in range(1, config.max_iters + 1):
        f, g = problem.objective_and_gradient_from_data(Z, G_n, _PENALTY_WEIGHT)
        if not np.isfinite(f):
            return None
        used = it
        raw[it - 1] = f
        if f < best_f:
            if f < best_f * (1.0 - _TOL_REL_OBJECTIVE):
                last_improve = it
            best_f = f
            best_Z = Z.copy()
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
    return best_Z, best_f, raw[:used], converged


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

    One path: choose Z, then fit beta once.  Z = I_{d x (K+1)} for
    all-zero data (the zero model fits them exactly) and for d = K+1,
    where the objective is the same for every Z (module docstring); the
    report then says converged after 0 iterations, with
    ``z_identifiable`` false when d = K+1.  With d > K+1, Z is the polar
    factor of the best of ``config.restarts`` independent Adam descents
    from random orthonormal starting points (ties broken by the lowest
    restart index).

    beta(s_j) is then recovered for every detector offset by one
    truncated least-squares fit on the blocks of L1(Z), truncated
    relative to the largest singular value of the whole L1, and the
    reported objective is the residual of that beta.  A warning is issued
    when some block of L1 has fewer rows than columns
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
    problem = VarproProblem(data.scheme, U, model, symmetric)
    G = stacked_data(data, symmetric)
    tr = sum(float(np.sum(Gb * Gb)) for Gb in G)
    identifiable = model.d > model.n_temporal

    restart_objectives, chosen, raw, converged = [], 0, None, True
    Z = np.eye(model.d)[:, : model.n_temporal]
    if tr > 0.0 and identifiable:
        G_n = [Gb / np.sqrt(tr) for Gb in G]  # unit norm: objectives are relative to ||G||^2
        runs = []
        for seed in np.random.SeedSequence(config.seed).spawn(config.restarts):
            Z0 = _polar_orthonormalize(
                np.random.default_rng(seed).standard_normal((model.d, model.n_temporal)))
            runs.append(_adam_descent(problem, G_n, Z0, config))
        restart_objectives = [np.inf if run is None else run[1] for run in runs]
        chosen = int(np.argmin(restart_objectives))
        if runs[chosen] is None:
            raise RuntimeError("all restarts diverged to a non-finite objective")
        Z_best, _, raw, converged = runs[chosen]
        Z = _polar_orthonormalize(Z_best)

    beta_cols, rss = problem.fit(Z, G, J)
    final_obj = rss / tr if tr > 0.0 else 0.0
    trace = np.array([final_obj]) if raw is None else raw
    report = SolverReport(
        objective_trace=np.minimum.accumulate(trace),
        raw_objective_trace=trace,
        final_objective=final_obj,
        final_orthonormality_defect=float(np.linalg.norm(Z.T @ Z - np.eye(model.n_temporal))),
        chosen_restart=chosen,
        iterations_used=0 if raw is None else raw.size,
        converged=converged,
        z_identifiable=identifiable,
        rank_margin=(2 * P if symmetric else P) - model.cols,
        block_rank_margin=block_margin,
        restart_objectives=restart_objectives,
        aborted_restarts=[r for r, f in enumerate(restart_objectives) if f == np.inf],
    )
    return Z, HarmonicCoefficients(beta=beta_cols, order=model), report
