"""Matrix builders for the projection-domain partially separable model.

The sampled projections of a dynamic object obey the bilinear model

    g_hat(s) = (Theta_hat * Psi_hat) beta(s),        (row-wise Kronecker)

where Theta collects circular-harmonic exponentials of the view angles,
Psi = U Z holds the sampled temporal functions, and beta(s) stacks the
harmonic-by-temporal coefficients for detector offset s (harmonic-major,
temporal-minor).  This module constructs Theta and its half-turn
augmented variant, the face-splitting products, the per-row operators
A_i, the operator L2 linear in vec(Z), and the fixed interpolators
(cubic B-spline and Legendre bases).

Two parameterizations of the harmonic axis are provided: the complex
exponentials e^{j n theta}, n = -N..N, and a real trigonometric basis
[1, sqrt(2) cos theta, sqrt(2) sin theta, ...].  They are related by a
unitary column transform, so every face-splitting product built from
them has identical singular values; the real form is what the solver
uses (the data are real), the complex form is kept for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .sampling import AngularScheme

__all__ = [
    "HarmonicOrder",
    "HarmonicSamplingMatrix",
    "TemporalModel",
    "HarmonicCoefficients",
    "OperatorMatrix",
    "build_theta",
    "face_split",
    "spline_interpolator",
    "legendre_basis",
    "build_L1",
    "build_A",
    "build_L2",
    "real_trig_theta",
    "real_trig_theta_hat",
    "harmonic_parity",
    "vec",
]


@dataclass(frozen=True)
class HarmonicOrder:
    """Model orders: harmonic bandlimit N, temporal order K, subspace dim d.

    The model has (2N+1)(K+1) unknown coefficients per detector offset;
    with the half-turn augmentation there are 2P equations per offset, so
    recovery needs 2P >= (2N+1)(K+1).
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

    def solvable(self, P: int) -> bool:
        return 2 * P >= self.cols


@dataclass(frozen=True)
class HarmonicSamplingMatrix:
    """Complex harmonic sampling matrices of a view-angle scheme.

    theta[p, n + N] = e^{j n theta_p}; theta_bar = theta * diag((-1)^n);
    theta_hat = [theta; theta_bar] implements the half-turn identity
    g(-s, theta) = g(s, theta + pi).
    """

    theta: np.ndarray
    theta_bar: np.ndarray
    theta_hat: np.ndarray
    N: int


def build_theta(scheme: AngularScheme, N: int) -> HarmonicSamplingMatrix:
    """Harmonic sampling matrices for the scheme's angles, orders -N..N."""
    n = np.arange(-N, N + 1)
    theta = np.exp(1j * np.outer(scheme.angles, n))
    theta_bar = theta * ((-1.0) ** n)[None, :]
    theta_hat = np.vstack([theta, theta_bar])
    return HarmonicSamplingMatrix(theta=theta, theta_bar=theta_bar, theta_hat=theta_hat, N=N)


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
    design = BSpline.design_matrix(t, knots, degree, extrapolate=False).toarray()
    return _orthonormalize(design)


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
class TemporalModel:
    """Low-dimensional temporal model Psi = U Z with orthonormal U."""

    U: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Z", Z)
        if U.ndim != 2 or Z.ndim != 2 or U.shape[1] != Z.shape[0]:
            raise ValueError("U (P x d) and Z (d x K+1) have incompatible shapes")
        defect = np.linalg.norm(U.T @ U - np.eye(U.shape[1]))
        if defect > 1e-10:
            raise ValueError(f"U columns not orthonormal (defect {defect:.2e})")

    @property
    def psi(self) -> np.ndarray:
        return self.U @ self.Z

    def u_hat(self) -> np.ndarray:
        """Row-doubled interpolator [U; U] for the half-turn augmented model."""
        return np.vstack([self.U, self.U])


@dataclass(frozen=True)
class HarmonicCoefficients:
    """Model coefficients beta(s_j) for each detector offset, as columns.

    Layout per column: harmonic-major, temporal-minor.  ``representation``
    records whether the harmonic axis uses the complex exponentials or the
    real trigonometric basis [1, sqrt(2) cos, sqrt(2) sin, ...].
    """

    beta: np.ndarray
    order: HarmonicOrder
    representation: str = field(default="real_trig")

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

    def bin_matrix(self, j: int) -> np.ndarray:
        """beta(s_j) reshaped to (harmonics x temporal)."""
        return self.beta[:, j].reshape(self.order.n_harmonics, self.order.n_temporal)


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense model operator with provenance metadata."""

    matrix: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def shape(self):
        return self.matrix.shape


def build_L1(theta_hat: np.ndarray, psi_hat: np.ndarray, meta: dict | None = None) -> OperatorMatrix:
    """Operator linear in beta: L1 = theta_hat * psi_hat (face-splitting)."""
    L1 = face_split(theta_hat, psi_hat)
    info = {"rows": L1.shape[0], "cols": L1.shape[1]}
    if meta:
        info.update(meta)
    return OperatorMatrix(matrix=L1, kind="L1", meta=info)


def build_A(theta_hat: np.ndarray, i: int, K: int) -> np.ndarray:
    """Per-row operator A_i = theta_hat[i] (x) I_{K+1}, shape (K+1, (2N+1)(K+1)).

    Rows are 0-indexed.  Since every entry of theta_hat has unit modulus,
    A_i A_i^H = (2N+1) I_{K+1}.
    """
    if not 0 <= i < theta_hat.shape[0]:
        raise IndexError(f"row index {i} out of range [0, {theta_hat.shape[0]})")
    return np.kron(theta_hat[i][None, :], np.eye(K + 1))


def vec(Z: np.ndarray) -> np.ndarray:
    """Column-major vectorization: vec(Z)[k*d + m] = Z[m, k]."""
    return np.asarray(Z).reshape(-1, order="F")


def build_L2(
    beta: HarmonicCoefficients | np.ndarray,
    theta_hat: np.ndarray,
    u_hat: np.ndarray,
    order: HarmonicOrder | None = None,
    meta: dict | None = None,
) -> OperatorMatrix:
    """Operator linear in vec(Z), stacked per row i then per offset s_j.

    Row (i, j) is beta(s_j)^T A_i^T (I_{K+1} (x) u_hat[i]); the full
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
    J = Bcols.shape[1]
    d = u_hat.shape[1]
    Kp1 = order.n_temporal
    # C[i, j, k] = sum_n theta_hat[i, n] * beta[(n, k), j]
    B3 = Bcols.reshape(order.n_harmonics, Kp1, J)
    C = np.einsum("in,nkj->ijk", theta_hat, B3)
    L2 = (C[:, :, :, None] * u_hat[:, None, None, :]).reshape(rows * J, Kp1 * d)
    info = {"rows": L2.shape[0], "cols": L2.shape[1], "J": J}
    if meta:
        info.update(meta)
    return OperatorMatrix(matrix=L2, kind="L2", meta=info)


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
    """Half-turn augmented real trigonometric matrix [T; T * diag((-1)^n)]."""
    T = real_trig_theta(scheme, N)
    return np.vstack([T, T * harmonic_parity(N)[None, :]])
