"""Variable-projection solver for the bilinear recovery problem.

Stack the measurements as data columns G = [g_hat(s_1), ..., g_hat(s_J)].
The inner linear variable beta(s) is eliminated in closed form, leaving

    min_Z  ||P_perp(L1(Z)) G||_F^2

over Z with orthonormal columns, evaluated on G directly.

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
from .psmodel import HarmonicCoefficients, HarmonicOrder, face_split, l1_factors

__all__ = [
    "SolverConfig",
    "SolverReport",
    "VarproProblem",
    "stacked_data",
    "inner_beta",
    "solve",
]


def stacked_data(data: TimeSequentialSinogram, symmetric: bool) -> np.ndarray:
    """Stack the measurements as columns g_hat(s_j).

    With the half-turn symmetry, g_hat(s_j) = [g(s_j); g(-s_j)]; the
    mirrored offset -s_j is exactly detector bin J-1-j.
    """
    g = data.values  # J x P
    if not symmetric:
        return g.T.copy()  # columns g(s_j) of length P
    return np.vstack([g.T, g[::-1, :].T])  # 2P x J


def inner_beta(L1: np.ndarray, g_hat: np.ndarray, rank_rtol: float = 1e-10) -> np.ndarray:
    """Minimum-norm least-squares coefficients beta = pinv(L1) g_hat.

    Singular values below ``rank_rtol`` times the largest are truncated,
    which keeps the solution bounded when L1 is nearly rank deficient.
    Accepts a single right-hand side or a matrix of stacked columns.
    """
    sol, *_ = np.linalg.lstsq(L1, g_hat, rcond=rank_rtol)
    return sol


class VarproProblem:
    """Reduced-objective evaluations for a fixed scheme, interpolator and order.

    Holds the real trigonometric harmonic matrix and the (row-doubled)
    interpolator so that repeated objective/gradient evaluations reuse
    them.
    """

    def __init__(self, scheme, U: np.ndarray, order: HarmonicOrder, symmetric: bool,
                 rank_rtol: float = 1e-10):
        self.order = order
        self.symmetric = symmetric
        self.rank_rtol = rank_rtol
        U = np.asarray(U, dtype=float)
        if U.shape[1] != order.d:
            raise ValueError(f"U has {U.shape[1]} columns, expected d={order.d}")
        self.theta_hat, self.u_hat = l1_factors(scheme, order.N, U, symmetric)
        self.rows = self.theta_hat.shape[0]

    def l1(self, Z: np.ndarray) -> np.ndarray:
        return face_split(self.theta_hat, self.u_hat @ Z)

    def objective_and_gradient_from_data(self, Z: np.ndarray, G: np.ndarray,
                                         mu: float = 0.0):
        """Penalized objective ||P_perp(L1(Z)) G||_F^2 and its exact gradient in Z.

        With Q R = L1(Z) and beta* = pinv(L1) G the per-column least
        squares solutions, the projector derivative contracts to
        grad = -2 U_hat^T M with
        M[i, k] = sum_n theta_hat[i, n] * ((G - Q Q^T G) beta*^T)[i, (n, k)];
        the penalty mu ||Z^T Z - I||_F^2 adds 4 mu Z (Z^T Z - I).
        """
        L1 = self.l1(Z)
        Q, R = np.linalg.qr(L1)
        QtG = Q.T @ G
        F = float(np.sum(G * G) - np.sum(QtG * QtG))
        resid = G - Q @ QtG
        # beta* through the QR factors when safely full column rank,
        # truncated least squares otherwise (also when rows < columns,
        # where R is not square)
        diag = np.abs(np.diagonal(R))
        if R.shape[0] == R.shape[1] and diag.min() > self.rank_rtol * max(diag.max(), 1e-300):
            beta = solve_triangular(R, QtG, lower=False)
        else:
            beta, *_ = np.linalg.lstsq(L1, G, rcond=self.rank_rtol)
        W3 = (resid @ beta.T).reshape(self.rows, self.order.n_harmonics,
                                      self.order.n_temporal)
        M = np.einsum("in,ink->ik", self.theta_hat, W3)
        grad = -2.0 * (self.u_hat.T @ M)
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
    unknowns, rows(L1) - (2N+1)(K+1), with 2P rows under the half-turn
    symmetry and P without it; below 0, L1 cannot have full column rank.
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
    solve on L1(I); the report says converged after 0 iterations, with
    ``z_identifiable`` false.  All-zero data take the same path with
    Z = I_{d x (K+1)}, since the zero model fits them exactly.

    With d > K+1, runs ``config.restarts`` independent Adam descents from
    random orthonormal starting points, keeps the lowest objective (ties
    broken by restart index), re-orthonormalizes the winner through its
    polar factor, and recovers beta(s_j) for every detector offset by
    truncated least squares.

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
        Exploit the half-turn symmetry (doubles the equations).  Default:
        inferred from the scheme span (enabled for span <= pi).

    Returns
    -------
    (Z, HarmonicCoefficients, SolverReport)
    """
    config = config or SolverConfig()
    if symmetric is None:
        symmetric = data.scheme.span <= np.pi * (1.0 + 1e-9)
    P = data.scheme.P
    if not model.solvable(P):
        warnings.warn(
            f"2P = {2 * P} < (2N+1)(K+1) = {model.cols}: the linearized model "
            "cannot have full column rank and recovery is not unique",
            stacklevel=2,
        )
    problem = VarproProblem(data.scheme, U, model, symmetric, config.pinv_rank_rtol)
    G = stacked_data(data, symmetric)
    tr = float(np.sum(G * G))
    identifiable = model.d > model.n_temporal
    facts = dict(z_identifiable=identifiable, rank_margin=problem.rows - model.cols)
    if tr <= 0.0 or not identifiable:
        Z = np.eye(model.d)[:, : model.n_temporal]
        f = 0.0 if tr <= 0.0 else problem.objective_and_gradient_from_data(Z, G / np.sqrt(tr))[0]
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
        beta = HarmonicCoefficients(beta=inner_beta(problem.l1(Z), G, config.pinv_rank_rtol),
                                    order=model)
        return Z, beta, report

    G_n = G / np.sqrt(tr)  # unit Frobenius norm: objectives are relative to ||G||^2
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
    L1 = problem.l1(Z_final)
    beta_cols = inner_beta(L1, G, config.pinv_rank_rtol)
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
