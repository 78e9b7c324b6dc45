"""Variable-projection solver for the bilinear recovery problem.

The data are the time-sequential sinogram, a J x P ``radon.Sinogram``
whose column p is seen at theta_p, its p-th angle; a simulated
acquisition and a sinogram read from file are the same type, so the
solver needs nothing of the phantom simulator.  Stack the measurements
as data columns G = [g_hat(s_1), ..., g_hat(s_J)].  The inner linear
variable beta(s) is eliminated by least squares (variable projection),
leaving

    min_Z  F(Z) = ||G - L1(Z) beta*(Z)||_F^2,  beta*(Z) = pinv(L1(Z)) G,

over Z with orthonormal columns.

L1 is held as its column-disjoint blocks (``psmodel.l1_blocks``): with
the half-turn symmetry one P-row block per harmonic parity, without it
one block.  The data split the same way (``stacked_data``), so the
objective, its gradient and beta are sums and stacks of per-block
pieces.

L1 is linear in Z: block b is L1_b(Z) = A_b (I (x) Z), where A_b, the
block of ``l1_blocks`` with V = U, is fixed.  Every evaluation therefore
works in the reduced space of A_b (variable projection on a separable
model, Golub & Pereyra 2003).  ``VarproProblem`` takes the thin QR A_b =
Q_b R_b once; the data enter only as y_b = Q_b^T G_b and the sum of
squares rho_b = ||G_b - Q_b y_b||^2 outside range(Q_b), and L1_b(Z) =
Q_b L~_b with L~_b = R_b (I (x) Z), whose min(P, |harmonics| d) rows
((N+1)d for the even block under the symmetry) replace P.  Q_b has
orthonormal columns, so L~_b has the singular values of L1_b, and F =
sum_b rho_b + ||y_b - L~_b beta_b||^2 is the true residual sum of
squares of any beta, never negative.

beta is fitted on L~ in one of two ways.  The final fit, which gives the
reported beta and objective, uses truncated least squares: singular
values at or below ``psmodel.RANK_RTOL`` (1e-10) times the largest one
of the whole L1 are dropped, and ``solve`` warns when that drops any.
A descent step solves the normal equations of L~ while kappa(A) kappa(Z)
<= 1e3, kappa(A) over all blocks (``psmodel.block_kappa``) and kappa(Z)
from the eigenvalues of Z^T Z (``psmodel.gram_kappa``).
sigma_min(A (I (x) Z)) >= sigma_min(A) sigma_min(Z), so the bound caps
kappa(L1(Z)), nothing is truncated, and the normal equations give beta
to a relative error of about n kappa^2 u (n unknowns, u the unit
roundoff); F is stationary in beta, so it moves only by the square of
that error.  Past the bound (also when a block of A is wider than tall
or singular) a step takes beta from a QR of L~, or from truncated least
squares when L~ is not safely of full column rank.

``solve`` is one path: choose Z, then fit beta once.  When d = K+1, Z is
square and U Z spans range(U) for every invertible Z, so range(L1(Z))
and the objective do not depend on Z: Z is not identifiable, and Z = I
(Psi = U).  When d > K+1, the orthonormality constraint is relaxed to a
penalty, the reduced objective is minimized with Adam, and Z is the
polar factor of the best restart.  Either way the fit runs on the data
scaled to ||G|| = 1, so the reported objective is relative to ||G||^2,
and beta is scaled back by ||G||.  Everything runs in the real
trigonometric parameterization, so all matrices are real.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .psmodel import (
    RANK_RTOL,
    HarmonicCoefficients,
    HarmonicOrder,
    block_kappa,
    condition_number,
    gram_kappa,
    harmonic_blocks,
    harmonic_parity,
    l1_blocks,
)
from .radon import Sinogram
from .settings import SolverConfig

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
# a descent step solves the normal equations while kappa(A) kappa(Z), a
# bound on kappa(L1(Z)), is at most this: beta then errs by at most about
# n 1e6 u relative (on 160 random problems and Z with the bound at most 1e3
# the gradient was within 2.1e-12 relative of a pseudoinverse oracle).  A QR
# of L~ instead takes about twice as long per step
_NORMAL_EQUATIONS_KAPPA = 1e3


def _mirror_weights(J: int) -> np.ndarray:
    """Weights of the ceil(J/2) kept columns: sqrt2 for a bin pair, 1 for a middle bin."""
    w = np.full((J + 1) // 2, np.sqrt(2.0))
    if J % 2:
        w[-1] = 1.0
    return w


def stacked_data(data: Sinogram, symmetric: bool) -> list:
    """The measurements as data blocks matching the blocks of ``l1_blocks``.

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


def _truncated_lstsq(L_blocks, G_blocks):
    """Minimum-norm least-squares beta per block, truncated against the whole L1.

    One thin SVD per block.  Singular values at or below
    ``psmodel.RANK_RTOL`` times the largest singular value over all
    blocks are dropped, so each block truncates exactly what the stacked
    (block-diagonal) system would, and a block with nothing above that
    cut-off gets beta = 0.  Returns (betas, kappa, truncated, pinv_trace)
    from the same SVDs: kappa of the block-diagonal L
    (``psmodel.condition_number``, +inf exactly when a value was dropped
    or a block is wide), the number of singular values dropped, and
    tr((L^T L)^+), the sum of 1 / s^2 over the values kept.
    """
    svds = [np.linalg.svd(L, full_matrices=False) for L in L_blocks]
    cut = RANK_RTOL * max((s[0] for _, s, _ in svds if s.size), default=0.0)
    betas, truncated, pinv_trace = [], 0, 0.0
    for (W, s, Vt), G in zip(svds, G_blocks):
        keep = s > cut
        truncated += s.size - int(np.count_nonzero(keep))
        pinv_trace += float(np.sum(s[keep] ** -2.0))
        betas.append(Vt[keep].T @ ((W[:, keep].T @ G) / s[keep, None]))
    kappa = condition_number(np.concatenate([s for _, s, _ in svds]),
                             sum(L.shape[1] for L in L_blocks))
    return betas, kappa, truncated, pinv_trace


def _qr_or_truncated_lstsq(L_blocks, G_blocks) -> list:
    """Least-squares beta per block: by QR when L is safely of full column rank.

    Safely means every R is square and its least diagonal entry is above
    ``psmodel.RANK_RTOL`` times the largest over all blocks (a QR is about
    4x cheaper than an SVD); otherwise truncated least squares.  R is
    square and upper triangular, so the partial pivoting of
    np.linalg.solve never swaps a row.
    """
    QR = [np.linalg.qr(L) for L in L_blocks]
    diag = np.concatenate([np.abs(np.diagonal(R)) for _, R in QR])
    if (all(R.shape[0] == R.shape[1] for _, R in QR)
            and diag.min() > RANK_RTOL * diag.max()):
        return [np.linalg.solve(R, Q.T @ G) for (Q, R), G in zip(QR, G_blocks)]
    return _truncated_lstsq(L_blocks, G_blocks)[0]


class VarproProblem:
    """Reduced-objective evaluations for fixed view angles, interpolator and order.

    Holds the harmonics of each block of L1 (``harmonics``) and the thin QR
    A_b = Q_b R_b of each fixed factor A_b of L1_b(Z) = A_b (I (x) Z), the
    blocks ``l1_blocks`` of the P angles and U, taken once here.  Every
    evaluation, the descent's steps and the final fit alike, runs on the
    reduced blocks L~_b = R_b (I (x) Z) and the data reduced by ``reduce``
    (module docstring), so each works on min(P, |harmonics| d) rows per
    block.  A step solves for beta by the normal equations while kappa(A)
    kappa(Z) <= 1e3, by QR or truncated least squares past it.  kappa(A) is
    the ``block_kappa`` of the R_b, so it is computed on the first step,
    not here: a solve with d = K+1 runs no step and never needs it.
    """

    def __init__(self, angles, U: np.ndarray, order: HarmonicOrder, symmetric: bool):
        self.order = order
        self.symmetric = symmetric
        U = np.asarray(U, dtype=float)
        if U.shape[1] != order.d:
            raise ValueError(f"U has {U.shape[1]} columns, expected d={order.d}")
        self.harmonics = harmonic_blocks(order.N, symmetric)
        self.qr = [np.linalg.qr(A) for A in l1_blocks(angles, order.N, U, symmetric)]

    @cached_property
    def kappa_A(self) -> float:
        """kappa(A) over all blocks, from the R_b, which have its singular values."""
        return block_kappa([R for _, R in self.qr])

    def reduced_l1(self, Z: np.ndarray) -> list:
        """The reduced blocks L~_b = R_b (I (x) Z), one per entry of ``harmonics``."""
        d, k = Z.shape
        return [(R.reshape(-1, d) @ Z).reshape(R.shape[0], R.shape[1] // d * k)
                for _, R in self.qr]

    def reduce(self, G) -> list:
        """The data blocks G in the reduced space: (y_b, rho_b) per block.

        y_b = Q_b^T G_b, and rho_b = ||G_b - Q_b y_b||^2, the part of the
        data no beta can fit, as a sum of squares (not ||G_b||^2 -
        ||y_b||^2, which cancels to rounding noise that can be negative).
        """
        Y = []
        for (Q, _), Gb in zip(self.qr, G):
            y = Q.T @ Gb
            r = Gb - Q @ y
            Y.append((y, float(np.sum(r * r))))
        return Y

    def fit(self, Z: np.ndarray, Y, J: int):
        """Truncated least-squares beta for the reduced data blocks Y of J detector bins.

        Returns (beta, F, kappa, truncated, pinv_trace): beta solved per
        block on L~_b and scattered back to the (2N+1)(K+1) x J layout, F =
        sum_b rho_b + ||y_b - L~_b beta_b||^2, the residual sum of squares
        of the fit on the data Y was reduced from, and from the fit's SVDs
        (``_truncated_lstsq``; L~_b has the singular values of L1_b)
        kappa(L1) of the block-diagonal L1(Z), the number of its singular
        values the fit dropped and tr((L1^T L1)^+).  With the symmetry the
        blocks hold the weighted first ceil(J/2) bins (``stacked_data``),
        which keep every sum of squares; bin J-1-j is bin j times (-1)^n,
        so even harmonic rows are mirror-symmetric in j and odd rows
        antisymmetric.
        """
        order = self.order
        L_blocks = self.reduced_l1(Z)
        betas, kappa, truncated, pinv_trace = _truncated_lstsq(L_blocks, [y for y, _ in Y])
        F = sum(rho + float(np.sum((y - L @ beta) ** 2))
                for L, (y, rho), beta in zip(L_blocks, Y, betas))
        B = np.empty((order.n_harmonics, order.n_temporal, betas[0].shape[1]))
        for h, beta in zip(self.harmonics, betas):
            B[h] = beta.reshape(h.size, order.n_temporal, B.shape[2])
        if self.symmetric:
            B /= _mirror_weights(J)
            mirror = harmonic_parity(order.N)[:, None, None] * B[:, :, : J // 2]
            B = np.concatenate([B, mirror[:, :, ::-1]], axis=2)
        return B.reshape(order.cols, J), F, kappa, truncated, pinv_trace

    def objective_and_gradient_from_data(self, Z: np.ndarray, Y, mu: float = 0.0):
        """Penalized objective ||G - L1(Z) beta*||_F^2 and its exact gradient in Z.

        Y is the data reduced by ``reduce``; F and the gradient are sums
        over the blocks of L1.  Per block, with L~ = R (I (x) Z), beta*
        is the least-squares fit of y by L~ (by the normal equations
        within the kappa bound, else by QR or truncated like ``fit``),
        r~ = y - L~ beta* its reduced residual, and F = rho + ||r~||^2, a
        sum of squares that is never negative.  A^T r = R^T r~, so the
        projector derivative contracts to grad = -2 sum_n (R^T r~)_n
        beta*_n^T over the harmonics n of each block; the penalty
        mu ||Z^T Z - I||_F^2 adds 4 mu Z (Z^T Z - I).
        """
        d, k = Z.shape
        L_blocks = self.reduced_l1(Z)
        y_blocks = [y for y, _ in Y]
        if self.kappa_A * gram_kappa([Z.T @ Z]) <= _NORMAL_EQUATIONS_KAPPA:
            betas = [np.linalg.solve(L.T @ L, L.T @ y) for L, y in zip(L_blocks, y_blocks)]
        else:
            betas = _qr_or_truncated_lstsq(L_blocks, y_blocks)
        F, grad = 0.0, 0.0
        for (_, R), L, (y, rho), beta in zip(self.qr, L_blocks, Y, betas):
            r = y - L @ beta
            F += rho + float(np.sum(r * r))
            # (harmonic, d or K+1, bin); explicit sizes, as a block may have no harmonics
            n, J = R.shape[1] // d, r.shape[1]
            Rr = (R.T @ r).reshape(n, d, J)
            grad = grad - 2.0 * np.sum(Rr @ beta.reshape(n, k, J).transpose(0, 2, 1), axis=0)
        if mu:
            ZtZ = Z.T @ Z - np.eye(k)
            F += mu * float(np.sum(ZtZ**2))
            grad = grad + 4.0 * mu * (Z @ ZtZ)
        return F, grad


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
    exactly when it is at least 0.  ``kappa_L1`` is the condition number
    of the fitted L1(Z), the largest over the smallest singular value
    over all its blocks, from the SVDs of the final fit; None when a
    block has fewer rows than columns, or when the fit dropped a singular
    value (``psmodel.condition_number``), where ``table1`` prints inf.
    ``truncated_singular_values`` is the number of singular values the
    final fit dropped, at or below ``psmodel.RANK_RTOL`` (1e-10) times the
    largest: beta was then fitted on a lower rank than L1(Z) has columns,
    it is not the least-squares fit, and ``solve`` warns.  A wide block's
    missing singular values are not counted here; ``block_rank_margin``
    shows them.  ``noise_gain`` is the mean per-frame noise gain
    tr((L1^T L1)^+) / P, with L1 the 2P-row matrix under the symmetry:
    the sum of 1 / s^2 over the singular values the final fit kept,
    divided by the number of frames.
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
    kappa_L1: float | None
    truncated_singular_values: int
    noise_gain: float
    restart_objectives: list = field(default_factory=list)
    aborted_restarts: list = field(default_factory=list)


def _adam_descent(problem: VarproProblem, Y: list, Z0: np.ndarray, config: SolverConfig):
    """One penalized Adam descent with plateau-triggered step decay.

    The step starts at ``_STEP_SIZE`` and halves whenever the best
    objective has not improved by ``_TOL_REL_OBJECTIVE`` (relative) for
    100 iterations; each decay restarts from the incumbent best iterate.
    With a constant step Adam's normalized updates orbit the minimizer
    instead of settling, so the decay is what makes deep convergence
    possible.  Y is the normalized data, reduced (``VarproProblem.reduce``).
    Returns (best Z, best objective, objective per iteration, converged),
    or None when the objective turns non-finite.
    """
    Z = Z0.copy()
    m = np.zeros_like(Z)
    v = np.zeros_like(Z)
    lr = _STEP_SIZE
    best_f = np.inf
    best_Z = Z.copy()
    last_improve = 0
    t_adam = 0
    raw = []
    converged = False
    for it in range(1, config.max_iters + 1):
        f, g = problem.objective_and_gradient_from_data(Z, Y, _PENALTY_WEIGHT)
        if not np.isfinite(f):
            return None
        raw.append(f)
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
    return best_Z, best_f, np.array(raw), converged


def _polar_orthonormalize(Z: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns (polar factor)."""
    U, _, Vt = np.linalg.svd(Z, full_matrices=False)
    return U @ Vt


def solve(
    data: Sinogram,
    model: HarmonicOrder,
    U: np.ndarray,
    config: SolverConfig,
    symmetric: bool,
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
    truncated least-squares fit on the reduced blocks of L1(Z), truncated
    relative to the largest singular value of the whole L1, on the data
    normalized to ||G|| = 1 and scaled back by ||G||; the reported
    objective is the residual of that fit.  The data are first scaled by
    an exact power of two that takes max|g| into [0.5, 1), so for data
    2^k g (any k that keeps them finite) Z and the report are those of g
    and beta is exactly 2^k times that of g.  A warning is issued
    when some block of L1 has fewer rows than columns; it starts with the
    rule's ``HarmonicOrder.shortfall`` text.  Another is issued when the
    final fit dropped singular values (``SolverReport``); it names their
    number.

    Parameters
    ----------
    data : radon.Sinogram
        Acquired projections, J x P: column p is frame p seen at
        ``data.angles[p]``, one angle per time instant.
    model : HarmonicOrder
        Harmonic bandlimit N, temporal order K, subspace dimension d.
    U : ndarray (P x d)
        Fixed orthonormal interpolator, e.g. ``spline_interpolator(P, d)``.
    config : SolverConfig
    symmetric : bool
        Exploit the half-turn symmetry (doubles the equations, which split
        into one P-row block per harmonic parity).  The angles then lie
        in [0, ``sampling.span_for(True)``).

    Returns
    -------
    (Z, HarmonicCoefficients, SolverReport)
    """
    J, P = data.values.shape
    shortfall = model.shortfall(P, symmetric)
    if shortfall:
        warnings.warn(f"{shortfall}: the linearized model cannot have full column rank "
                      "and recovery is not unique", stacklevel=2)
    problem = VarproProblem(data.angles, U, model, symmetric)
    # max|g| taken into [0.5, 1) by the exact power of two 2^-e before any square
    # is summed, which neither overflows nor underflows; then unit norm: objectives
    # are relative to ||G||^2 (all-zero data, e = 0, stay as they are)
    e = math.frexp(np.abs(data.values).max())[1]
    G = [np.ldexp(Gb, -e, out=Gb) for Gb in stacked_data(data, symmetric)]
    tr = sum(float(np.sum(Gb * Gb)) for Gb in G)
    norm = np.sqrt(tr) or 1.0
    Y = problem.reduce([Gb / norm for Gb in G])
    identifiable = model.d > model.n_temporal

    restart_objectives, chosen, raw, converged = [], 0, None, True
    Z = np.eye(model.d)[:, : model.n_temporal]
    if tr > 0.0 and identifiable:
        runs = []
        for seed in np.random.SeedSequence(config.seed).spawn(config.restarts):
            Z0 = _polar_orthonormalize(
                np.random.default_rng(seed).standard_normal((model.d, model.n_temporal)))
            runs.append(_adam_descent(problem, Y, Z0, config))
        restart_objectives = [np.inf if run is None else run[1] for run in runs]
        chosen = int(np.argmin(restart_objectives))
        if runs[chosen] is None:
            raise RuntimeError("all restarts diverged to a non-finite objective")
        Z_best, _, raw, converged = runs[chosen]
        Z = _polar_orthonormalize(Z_best)

    beta_cols, final_obj, kappa, truncated, pinv_trace = problem.fit(Z, Y, J)
    if truncated:
        values = "value" if truncated == 1 else "values"
        warnings.warn(f"L1 is numerically singular: the fit dropped {truncated} singular "
                      f"{values} at or below {RANK_RTOL:g} of the largest, so beta is not "
                      "the least-squares fit", stacklevel=2)
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
        block_rank_margin=model.block_margin(P, symmetric),
        kappa_L1=kappa if np.isfinite(kappa) else None,
        truncated_singular_values=truncated,
        noise_gain=pinv_trace / P,
        restart_objectives=restart_objectives,
        aborted_restarts=[r for r, f in enumerate(restart_objectives) if f == np.inf],
    )
    return Z, HarmonicCoefficients(beta=np.ldexp(beta_cols * norm, e), order=model), report
