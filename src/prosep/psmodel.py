"""Matrix builders for the projection-domain partially separable model.

The sampled projections of a dynamic object obey the bilinear model

    g_hat(s) = (Theta_hat * Psi_hat) beta(s),        (row-wise Kronecker)

where Theta collects circular harmonics of the view angles, Psi = U Z
holds the sampled temporal functions, and beta(s) stacks the
harmonic-by-temporal coefficients for detector offset s (harmonic-major,
temporal-minor).  This module constructs the harmonic matrices, the
column blocks of L1, the face-splitting products, the operator L2 linear
in vec(Z), and the fixed interpolators (cubic B-spline and Legendre
bases).

The half-turn identity g(-s, theta) = g(s, theta + pi) doubles the
equations: L1_hat = [T; T diag((-1)^n)] * [U; U] Z has 2P rows, and rows
p and P+p differ only in the sign of the odd harmonics.  Rotating each
pair to (r_p + r_{P+p}) / sqrt2 and (r_p - r_{P+p}) / sqrt2 turns L1_hat
into two P-row blocks on disjoint columns, sqrt2 T_even * U Z and
sqrt2 T_odd * U Z, with the same singular values.  ``l1_factors`` returns
L1 in this split form only.  Full column rank needs every block to be
tall: P >= (N+1)(K+1) with the symmetry (the larger parity class has
N+1 harmonics), P >= (2N+1)(K+1) without it.

The harmonic axis uses the real trigonometric basis
[1, sqrt(2) cos theta, sqrt(2) sin theta, ...], which the solver, the
synthesis and the kappa(L1) analysis all share.  The complex
exponentials e^{j n theta}, n = -N..N, are related to it by a unitary
column transform (so face-splitting products built from either have
identical singular values); ``build_theta`` keeps them only for the
kappa(L2) study, whose random coefficients are drawn on the complex
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sampling import AngularScheme

__all__ = [
    "HarmonicOrder",
    "HarmonicCoefficients",
    "build_theta",
    "face_split",
    "spline_interpolator",
    "legendre_basis",
    "build_L2",
    "l2_row_factors",
    "real_trig_theta",
    "real_trig_theta_hat",
    "harmonic_parity",
    "harmonic_blocks",
    "L1Block",
    "l1_factors",
]


@dataclass(frozen=True)
class HarmonicOrder:
    """Model orders: harmonic bandlimit N, temporal order K, subspace dim d.

    The model has (2N+1)(K+1) unknown coefficients per detector offset.
    L1 splits into column-disjoint blocks of P rows each (``l1_factors``):
    with the half-turn symmetry one per harmonic parity, with (N+1)(K+1)
    columns in the larger, and without it one block of (2N+1)(K+1)
    columns.  Recovery needs every block to have at least as many rows as
    columns.
    """

    N: int
    K: int
    d: int

    def __post_init__(self):
        if self.N < 0 or self.K < 0:
            raise ValueError("N and K must be nonnegative")
        if self.d < self.K + 1:
            raise ValueError("d must be at least K + 1")

    @property
    def n_harmonics(self) -> int:
        return 2 * self.N + 1

    @property
    def n_temporal(self) -> int:
        return self.K + 1

    @property
    def cols(self) -> int:
        """Number of model coefficients per detector offset."""
        return self.n_harmonics * self.n_temporal

    def block_margin(self, P: int, symmetric: bool) -> int:
        """Least rows - columns over the blocks of L1, P - |harmonics| (K+1)."""
        return min(P - h.size * self.n_temporal for h in harmonic_blocks(self.N, symmetric))

    def solvable(self, P: int, symmetric: bool) -> bool:
        """Whether L1 can have full column rank with P views.

        P >= (N+1)(K+1) with the half-turn symmetry, P >= (2N+1)(K+1)
        without it.
        """
        return self.block_margin(P, symmetric) >= 0


def build_theta(scheme: AngularScheme, N: int) -> np.ndarray:
    """Complex half-turn augmented harmonic matrix, orders -N..N (2P x (2N+1)).

    Row p holds e^{j n theta_p}; row P + p holds the same row times
    (-1)^n, which implements the half-turn identity
    g(-s, theta) = g(s, theta + pi).  The unaugmented matrix is the first
    P rows.
    """
    n = np.arange(-N, N + 1)
    theta = np.exp(1j * np.outer(scheme.angles, n))
    return np.vstack([theta, theta * ((-1.0) ** n)[None, :]])


def face_split(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Face-splitting (row-wise Kronecker) product.

    Row p of the result is kron(A[p], B[p]); with A holding harmonics and
    B temporal samples the column order is harmonic-major.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    return (A[:, :, None] * B[:, None, :]).reshape(A.shape[0], A.shape[1] * B.shape[1])


def _fix_column_signs(Q: np.ndarray) -> np.ndarray:
    """Make each column's first nonzero entry positive (sign convention)."""
    Q = Q.copy()
    for k in range(Q.shape[1]):
        col = Q[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if nz.size and col[nz[0]] < 0:
            Q[:, k] = -col
    return Q


def _orthonormalize(V: np.ndarray) -> np.ndarray:
    """Householder thin QR with the first-nonzero-positive sign convention."""
    Q, _ = np.linalg.qr(V)
    return _fix_column_signs(Q)


def _bspline_design(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """B-spline basis functions of ``degree`` on ``knots`` at x (Cox-de Boor).

    Degree 0 is the indicator of the half-open knot span [t_i, t_{i+1});
    each higher degree blends neighbouring functions of the degree below,
    with 0/0 = 0 on repeated knots.  Points outside [t_0, t_last) give 0.
    Returns len(x) x (len(knots) - degree - 1).
    """
    x = np.asarray(x, dtype=float)[:, None]
    B = ((knots[:-1] <= x) & (x < knots[1:])).astype(float)
    for k in range(1, degree + 1):
        span_l = knots[k:-1] - knots[: -k - 1]  # t_{i+k} - t_i
        span_r = knots[k + 1:] - knots[1:-k]  # t_{i+k+1} - t_{i+1}
        left = np.divide(x - knots[: -k - 1], span_l, out=np.zeros((x.size, span_l.size)),
                         where=span_l > 0)
        right = np.divide(knots[k + 1:] - x, span_r, out=np.zeros((x.size, span_r.size)),
                          where=span_r > 0)
        B = left * B[:, :-1] + right * B[:, 1:]
    return B


def spline_interpolator(P: int, d: int) -> np.ndarray:
    """Orthonormal cubic B-spline interpolator U (P x d).

    d cubic B-spline basis functions on uniformly spaced knots over
    [0, 1] are sampled at t_p = p / P and orthonormalized by thin QR, so
    U^T U = I_d.  For d < 4 the spline degree drops to d - 1.
    """
    if not 1 <= d <= P:
        raise ValueError(f"need 1 <= d <= P, got d={d}, P={P}")
    degree = min(3, d - 1)
    n_inner = d - degree - 1
    knots = np.concatenate(
        [np.zeros(degree + 1), np.linspace(0.0, 1.0, n_inner + 2)[1:-1], np.ones(degree + 1)]
    )
    t = np.arange(P) / float(P)
    return _orthonormalize(_bspline_design(t, knots, degree))


def legendre_basis(P: int, K: int) -> np.ndarray:
    """Orthonormalized Legendre polynomials of degree 0..K sampled uniformly.

    Sampled on P uniform points the polynomials are no longer exactly
    orthogonal, so the sampled basis is re-orthonormalized; Psi^T Psi = I.
    """
    if K + 1 > P:
        raise ValueError("need K + 1 <= P")
    x = np.linspace(-1.0, 1.0, P) if P > 1 else np.zeros(1)
    V = np.polynomial.legendre.legvander(x, K)
    return _orthonormalize(V)


@dataclass(frozen=True)
class HarmonicCoefficients:
    """Model coefficients beta(s_j) for each detector offset, as columns.

    Layout per column: harmonic-major, temporal-minor, with the harmonic
    axis in the real trigonometric basis [1, sqrt(2) cos, sqrt(2) sin, ...].
    """

    beta: np.ndarray
    order: HarmonicOrder

    def __post_init__(self):
        beta = np.asarray(self.beta)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 2 or beta.shape[0] != self.order.cols:
            raise ValueError(
                f"beta must be ({self.order.cols} x J), got {beta.shape}"
            )
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")

    @property
    def J(self) -> int:
        return self.beta.shape[1]


def build_L2(
    beta: HarmonicCoefficients | np.ndarray,
    theta_hat: np.ndarray,
    u_hat: np.ndarray,
    order: HarmonicOrder | None = None,
) -> np.ndarray:
    """Operator linear in vec(Z), stacked per row i then per offset s_j.

    Row (i, j) is beta(s_j)^T A_i^T (I_{K+1} (x) u_hat[i]) with the
    per-row operator A_i = theta_hat[i] (x) I_{K+1}; the full
    matrix has shape (rows * J, d * (K+1)) and satisfies
    g_hat_stacked = L2(beta) vec(Z) whenever g_hat(s) = L1(Z) beta(s).
    """
    if isinstance(beta, HarmonicCoefficients):
        Bcols = beta.beta
        order = beta.order
    else:
        if order is None:
            raise ValueError("order is required when beta is a bare array")
        Bcols = np.asarray(beta)
    rows, n_harm = theta_hat.shape
    if n_harm != order.n_harmonics:
        raise ValueError("theta_hat column count does not match order.N")
    if u_hat.shape[0] != rows:
        raise ValueError("u_hat row count must match theta_hat")
    if Bcols.shape[0] != order.cols:
        raise ValueError("beta row count must equal (2N+1)(K+1)")
    C = l2_row_factors(Bcols, theta_hat, order)
    J, d = Bcols.shape[1], u_hat.shape[1]
    return (C[:, :, :, None] * u_hat[:, None, None, :]).reshape(rows * J, order.n_temporal * d)


def l2_row_factors(beta: np.ndarray, theta_hat: np.ndarray, order: HarmonicOrder) -> np.ndarray:
    """C[i, j, k] = sum_n theta_hat[i, n] beta[(n, k), j], shape rows x J x (K+1).

    Row block i of ``build_L2`` (its J rows) is kron(C[i], u_hat[i]).
    """
    B3 = np.asarray(beta).reshape(order.n_harmonics, order.n_temporal, -1)
    return np.einsum("in,nkj->ijk", theta_hat, B3)


def real_trig_theta(scheme: AngularScheme | np.ndarray, N: int) -> np.ndarray:
    """Real trigonometric harmonic matrix, columns [1, sqrt2 cos, sqrt2 sin, ...].

    One row per view angle of ``scheme``, which may also be a bare array
    of angles.  Related to the complex matrix of ``build_theta`` by a
    unitary column transform, so face-splitting products built from either
    share their singular values.  Row norms are all sqrt(2N+1).
    """
    angles = np.asarray(getattr(scheme, "angles", scheme), dtype=float)
    T = np.empty((angles.size, 2 * N + 1))
    T[:, 0] = 1.0
    for n in range(1, N + 1):
        T[:, 2 * n - 1] = np.sqrt(2.0) * np.cos(n * angles)
        T[:, 2 * n] = np.sqrt(2.0) * np.sin(n * angles)
    return T


def harmonic_parity(N: int) -> np.ndarray:
    """Signs (-1)^n per real-trig column (shared by the cos/sin pair of order n)."""
    s = np.empty(2 * N + 1)
    s[0] = 1.0
    for n in range(1, N + 1):
        s[2 * n - 1] = s[2 * n] = (-1.0) ** n
    return s


def real_trig_theta_hat(scheme: AngularScheme, N: int) -> np.ndarray:
    """Half-turn augmented real trigonometric matrix [T; T * diag((-1)^n)].

    The 2P-row form of the symmetric model, kept for checks that rebuild
    it; ``l1_factors`` uses the equivalent parity split.
    """
    T = real_trig_theta(scheme, N)
    return np.vstack([T, T * harmonic_parity(N)[None, :]])


def harmonic_blocks(N: int, symmetric: bool) -> list:
    """Real-trig column indices of each block of L1.

    With the half-turn symmetry: the even harmonics, then the odd ones
    (empty when N = 0).  Without it: all 2N+1 columns in one block.
    """
    if not symmetric:
        return [np.arange(2 * N + 1)]
    parity = harmonic_parity(N)
    return [np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)]


class L1Block(NamedTuple):
    """One block of L1, face_split(theta, V Z).

    Its columns are the coefficients (n, k) with n in ``harmonics``,
    harmonic-major like beta.
    """

    theta: np.ndarray
    V: np.ndarray
    harmonics: np.ndarray


def l1_factors(scheme: AngularScheme | np.ndarray, N: int, V: np.ndarray,
               symmetric: bool) -> list:
    """Column-disjoint blocks of L1(Z), one ``L1Block`` per ``harmonic_blocks`` entry.

    With the half-turn symmetry there are two, (sqrt2 T[:, even], V) and
    (sqrt2 T[:, odd], V): the parity rotation of the 2P-row
    [T; T diag((-1)^n)] * [V; V] Z (module docstring), with the same
    singular values.  Without it there is one, (T, V).  T is the real
    trigonometric matrix of the angles; V is the interpolator U, or the
    temporal functions Psi themselves (then Z = I).  Every block has P
    rows.
    """
    T = real_trig_theta(scheme, N)
    scale = np.sqrt(2.0) if symmetric else 1.0
    return [L1Block(scale * T[:, h], V, h) for h in harmonic_blocks(N, symmetric)]
