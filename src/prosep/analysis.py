"""Numerical stability analysis: condition numbers, rank checks, and bounds.

Reproduces the view-angle sampling study (condition numbers of the two
linearized subproblems for progressive, random, and bit-reversed
schemes), validates the full-rank and conditioning guarantees on random
instances, and evaluates the truncation bounds for translational and
rotational motion of a bandlimited object.

kappa(L1) and the rank check are computed on the real trigonometric L1
the solver fits with (``psmodel.l1_factors``); the complex-exponential
form is a unitary column transform of it with the same spectrum.  With
the half-turn symmetry L1 is held as two column-disjoint P-row blocks,
one per harmonic parity, and its spectrum is the union of theirs; full
column rank then needs P >= (N+1)(K+1).  Only the kappa(L2) study uses
the complex harmonics, because its random coefficients are drawn on the
complex coordinates; its singular values come from per-row QR factors
instead of the full L2 (``cond_L2``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .psmodel import (
    HarmonicOrder,
    build_theta,
    face_split,
    l1_factors,
    l2_row_factors,
    legendre_basis,
)
from .radon import DetectorGrid, Frame, radon_energy_check
from .sampling import AngularScheme, bit_reversed, progressive, random_scheme

__all__ = [
    "ConditionReport",
    "MotionBoundSpec",
    "CondL2Result",
    "Theorem1Result",
    "KAPPA_SINGULAR",
    "cond_L1",
    "cond_L2",
    "rank_check_L1",
    "theorem3_sweep",
    "theorem1_check",
    "translation_bound",
    "rotation_bound",
    "table1",
]

# kappa beyond double precision is reported as the +inf sentinel
KAPPA_SINGULAR = 1e15


@dataclass(frozen=True)
class ConditionReport:
    """One row of the conditioning study."""

    scheme_kind: str
    symmetric: bool
    K: int
    N: int
    P: int
    d: int | None = None
    kappa_L1: float | None = None
    kappa_L2: float | None = None
    kappa_Gamma: float | None = None
    bound_sqrt_kappa_Gamma: float | None = None
    full_rank: bool | None = None


def _kappa_from_singvals(s: np.ndarray, n_cols: int) -> float:
    """Condition number with full-column-rank accounting and inf sentinel."""
    if s.size < n_cols or s[-1] < 1e-300:
        return np.inf
    kappa = float(s[0] / s[-1])
    return np.inf if kappa > KAPPA_SINGULAR else kappa


def _l1_singvals(blocks) -> np.ndarray:
    """Singular values of L1 = face_split(theta, V) from its blocks, descending.

    The blocks sit on disjoint columns of a row rotation of L1, so its
    spectrum is the union of theirs.
    """
    s = [np.linalg.svd(face_split(b.theta, b.V), compute_uv=False) for b in blocks]
    return np.sort(np.concatenate(s))[::-1]


def cond_L1(scheme: AngularScheme, K: int, N: int, symmetric: bool = False) -> float:
    """Condition number of Theta_hat * Psi_hat (or Theta * Psi without symmetry).

    Psi is the orthonormalized Legendre basis of degree 0..K.  With the
    symmetry the spectrum is the union of the two parity blocks'
    (``psmodel.l1_factors``).  Returns the +inf sentinel when the
    smallest singular value underflows or kappa exceeds 1e15, i.e. when
    the model is numerically singular, or when a block has fewer rows
    than columns.
    """
    blocks = l1_factors(scheme, N, legendre_basis(scheme.P, K), symmetric)
    return _kappa_from_singvals(_l1_singvals(blocks), (2 * N + 1) * (K + 1))


class CondL2Result(NamedTuple):
    kappa_L2: float
    kappa_Gamma: float


def cond_L2(
    K: int,
    N: int,
    P: int,
    d: int,
    J: int,
    seed: int = 0,
    scheme: AngularScheme | None = None,
    orthonormal_u: bool = False,
) -> CondL2Result:
    """Condition numbers of L2(beta) and of Gamma = sum_j beta(s_j) beta(s_j)^T.

    Both the 2P x d interpolator entries and the coefficient vectors
    beta(s_j) are drawn iid standard normal, seeded.  With
    ``orthonormal_u`` the interpolator is orthonormalized first, which is
    the premise of the kappa(L2) <= sqrt(kappa(Gamma)) guarantee; the raw
    Gaussian draw matches the conditioning study setup.  kappa(Gamma) is
    the +inf sentinel when Gamma is singular (needs J >= (2N+1)(K+1));
    kappa(L2) is still computed and reported.

    L2 (``psmodel.build_L2``) is not built: its row block i is
    kron(C_i, u_i) with C_i = Q_i R_i (J x (K+1)), and the orthonormal
    Q_i drop out of the singular values, so the SVD runs on the stacked
    kron(R_i, u_i), 2P min(J, K+1) rows instead of 2P J.
    """
    order = HarmonicOrder(N=N, K=K, d=d)
    if scheme is None:
        scheme = bit_reversed(P, span=np.pi)
    theta_hat = build_theta(scheme, N)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((2 * P, d))
    if orthonormal_u:
        U, _ = np.linalg.qr(U)
    beta_cols = rng.standard_normal((order.cols, J))
    R = np.linalg.qr(l2_row_factors(beta_cols, theta_hat, order), mode="r")
    reduced = (R[:, :, :, None] * U[:, None, None, :]).reshape(-1, order.n_temporal * d)
    s = np.linalg.svd(reduced, compute_uv=False)
    kappa_L2 = _kappa_from_singvals(s, reduced.shape[1])
    ev = np.linalg.eigvalsh(beta_cols @ beta_cols.T)
    kappa_Gamma = np.inf if ev[0] <= ev[-1] * 1e-12 or ev[0] <= 0 else float(ev[-1] / ev[0])
    return CondL2Result(kappa_L2=kappa_L2, kappa_Gamma=kappa_Gamma)


def rank_check_L1(P: int, K: int, N: int, trials: int = 100, seed: int = 0) -> int:
    """Count full-column-rank draws of L1 with random Psi and random angles.

    Each trial draws P distinct angles uniform in [0, pi) and Psi
    uniformly from the Stiefel manifold (orthonormal factor of a Gaussian
    matrix); L1 is the half-turn augmented product, held as its two
    parity blocks.  Full column rank requires every block to have at
    least as many rows as columns, P >= (N+1)(K+1)
    (``HarmonicOrder.solvable``); otherwise it is impossible by dimension
    count and every trial fails.
    """
    order = HarmonicOrder(N=N, K=K, d=K + 1)
    if not order.solvable(P, symmetric=True):
        warnings.warn(
            f"P = {P} < (N+1)(K+1) = {P - order.block_margin(P, True)}: full column "
            "rank is impossible by dimension count",
            stacklevel=2,
        )
        return 0
    passes = 0
    seeds = np.random.SeedSequence(seed).spawn(trials)
    for t in range(trials):
        rng = np.random.default_rng(seeds[t])
        scheme = random_scheme(P, span=np.pi, seed=rng.integers(2**63))
        Psi, _ = np.linalg.qr(rng.standard_normal((P, K + 1)))
        s = _l1_singvals(l1_factors(scheme, N, Psi, symmetric=True))
        if s[-1] / s[0] > 1e-12:
            passes += 1
    return passes


def theorem3_sweep(
    trials: int = 100,
    K: int = 1,
    N: int = 2,
    P: int = 16,
    d: int = 3,
    J: int | None = None,
    seed: int = 0,
    slack: float = 1e-9,
):
    """Check kappa(L2) <= sqrt(kappa(Gamma)) on random instances with Gamma > 0.

    J defaults to twice the coefficient count so Gamma is positive
    definite; the interpolator is orthonormalized, matching the
    guarantee's premise.  Returns (passes, worst_ratio).
    """
    order = HarmonicOrder(N=N, K=K, d=d)
    if J is None:
        J = 2 * order.cols
    if J < order.cols:
        raise ValueError("need J >= (2N+1)(K+1) for Gamma > 0")
    passes = 0
    worst = 0.0
    for t in range(trials):
        res = cond_L2(K=K, N=N, P=P, d=d, J=J, seed=seed + t,
                      scheme=random_scheme(P, span=np.pi, seed=seed + t),
                      orthonormal_u=True)
        if not np.isfinite(res.kappa_Gamma):
            continue
        ratio = res.kappa_L2 / math.sqrt(res.kappa_Gamma)
        worst = max(worst, ratio)
        if ratio <= 1.0 + slack:
            passes += 1
    return passes, worst


class Theorem1Result(NamedTuple):
    lhs: float
    rhs: float
    per_angle_ratio: np.ndarray


def theorem1_check(frame: Frame, angles, detector: DetectorGrid | None = None) -> Theorem1Result:
    """Projection-energy bound for a residual frame, integrated over angles.

    lhs integrates the per-angle projection energy over a full turn
    (weight 2*pi / len(angles)); rhs = 2*pi*L*||f||^2 is the stated
    projection-domain bound.  ``per_angle_ratio`` holds each angle's
    energy against its own bound 2*L*||f||^2, which is the inequality the
    proof actually uses and the one asserted by the tests; see the module
    tests for the constant ambiguity in the integrated form.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if detector is None:
        detector = DetectorGrid.for_frame(frame)
    per_angle = np.empty(angles.size)
    rhs_single = 2.0 * frame.support_radius * frame.norm2_sq()
    for a, th in enumerate(angles):
        lhs_a, _ = radon_energy_check(frame, th, detector)
        per_angle[a] = lhs_a
    dtheta = 2.0 * np.pi / angles.size
    lhs = float(per_angle.sum() * dtheta)
    rhs = float(np.pi * 2.0 * frame.support_radius * frame.norm2_sq())
    ratio = per_angle / rhs_single if rhs_single > 0 else np.zeros_like(per_angle)
    return Theorem1Result(lhs=lhs, rhs=rhs, per_angle_ratio=ratio)


@dataclass(frozen=True)
class MotionBoundSpec:
    """Inputs of the truncation bounds for affine motion of a bandlimited object."""

    B: float = 0.0
    c_max: float = 0.0
    L: float = 0.0
    theta_max: float = 0.0
    K: int = 0

    def __post_init__(self):
        if min(self.B, self.c_max, self.L, self.theta_max) < 0 or self.K < 0:
            raise ValueError("all bound parameters must be nonnegative")


def _taylor_remainder(x: float, K: int) -> float:
    """|x|^{K+1} / (K+1)!, evaluated stably through lgamma."""
    x = abs(x)
    if x == 0.0:
        return 0.0
    return math.exp((K + 1) * math.log(x) - math.lgamma(K + 2))


def translation_bound(spec: MotionBoundSpec) -> float:
    """Temporal truncation bound |B c_max|^{K+1} / (K+1)! for translation."""
    return _taylor_remainder(spec.B * spec.c_max, spec.K)


def rotation_bound(spec: MotionBoundSpec) -> float:
    """Truncation bound |B L theta_max|^{K+1} / (K+1)! for rotation.

    B * L is the angular bandlimit of the object in its polar
    representation.
    """
    return _taylor_remainder(spec.B * spec.L * spec.theta_max, spec.K)


def table1(
    P: int = 512,
    K: int = 5,
    N: int = 28,
    random_trials: int = 1000,
    seed: int = 0,
    d: int = 8,
    J: int = 128,
):
    """The conditioning study: kappa(L1) per scheme and symmetry, plus kappa(L2).

    Deterministic schemes are evaluated once; the random-scheme entries
    take the best (smallest) kappa over ``random_trials`` seeded draws.
    Returns seven ConditionReport rows: six kappa(L1) entries and one
    kappa(L2) entry.
    """
    rows = []
    for symmetric in (False, True):
        span = np.pi if symmetric else 2.0 * np.pi
        for kind in ("progressive", "random", "bit_reversed"):
            if kind == "progressive":
                kappa = cond_L1(progressive(P, span), K, N, symmetric=symmetric)
            elif kind == "bit_reversed":
                kappa = cond_L1(bit_reversed(P, span), K, N, symmetric=symmetric)
            else:
                seeds = np.random.SeedSequence(seed).spawn(random_trials)
                kappa = np.inf
                for t in range(random_trials):
                    sub_seed = int(np.random.default_rng(seeds[t]).integers(2**63))
                    sch = random_scheme(P, span, seed=sub_seed)
                    kappa = min(kappa, cond_L1(sch, K, N, symmetric=symmetric))
            rows.append(
                ConditionReport(
                    scheme_kind=kind,
                    symmetric=symmetric,
                    K=K,
                    N=N,
                    P=P,
                    kappa_L1=kappa,
                    full_rank=bool(np.isfinite(kappa)),
                )
            )
    res = cond_L2(K=K, N=N, P=P, d=d, J=J, seed=seed)
    rows.append(
        ConditionReport(
            scheme_kind="bit_reversed",
            symmetric=True,
            K=K,
            N=N,
            P=P,
            d=d,
            kappa_L2=res.kappa_L2,
            kappa_Gamma=res.kappa_Gamma,
            bound_sqrt_kappa_Gamma=float(np.sqrt(res.kappa_Gamma))
            if np.isfinite(res.kappa_Gamma)
            else np.inf,
            full_rank=bool(np.isfinite(res.kappa_L2)),
        )
    )
    return rows
