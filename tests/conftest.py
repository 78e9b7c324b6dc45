"""Shared test helpers: analytic oracles independent of the library paths."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from prosep.cli import DEFAULT_CONFIG
from prosep.phantom import MotionSpec, _render
from prosep.psmodel import (
    HarmonicOrder,
    component_projections,
    face_split,
    harmonic_parity,
    real_trig_theta,
    real_trig_theta_hat,
    spline_interpolator,
)
from prosep.radon import (
    DetectorGrid,
    Frame,
    Sinogram,
    _ray_samples,
    _reduced_trig,
    grid_coords,
    radon_project,
    support_mask,
    support_masked,
)
from prosep.sampling import bit_reversed

# the motion of the default run configuration: 2.2 and 2 pixels at width 64, pi/16
DEFAULT_MOTION = MotionSpec(**DEFAULT_CONFIG["motion"])


@dataclass(frozen=True)
class Movie:
    """A movie held in memory, with what the movie stages read of a ``phantom.MovieFile``.

    ``values`` is a copy of the given P x W x W array, masked to the
    support disk as ``Frame`` masks one image; ``chunks`` yields it as
    one chunk.  The checks of a movie are ``MovieFile``'s, tested there.
    """

    values: np.ndarray
    pixel_size: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "values", support_masked(self.values, ndim=3))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def shape(self):
        return self.values.shape

    @property
    def width(self):
        return self.values.shape[1]

    def chunks(self):
        return iter((self.values,))


def render_at(spec, motion, t):
    """The truth frame at any time t in [0, 1], rendered as ``render_chunks`` renders its frames."""
    return Frame(values=next(_render(spec, motion, np.array([t], dtype=float)))[0],
                 pixel_size=spec.pixel_size)


def movie_of(chunks, pixel_size=1.0):
    """The frame chunks of a movie (``render_chunks``, ``movie_chunks``) as one ``Movie``."""
    return Movie(np.concatenate(list(chunks)), pixel_size)


def indicator_disk(width, pixel_size, radius, center=(0.0, 0.0)):
    """Pixel-center rasterization of a disk (matches the renderer's rule)."""
    X, Y = grid_coords(width, pixel_size)
    vals = (((X - center[0]) ** 2 + (Y - center[1]) ** 2) <= radius**2).astype(float)
    return Frame(values=vals, pixel_size=pixel_size)


def area_disk(width, pixel_size, radius, center=(0.0, 0.0), subsamples=16):
    """Area rasterization of a disk: per-pixel coverage fraction.

    Uses dense sub-pixel sampling as the quadrature for the exact
    pixel/disk overlap area; this is the reference an FBP image (which is
    band-limited, not binary) should be compared against.
    """
    X, Y = grid_coords(width, pixel_size)
    offs = (np.arange(subsamples) + 0.5) / subsamples - 0.5
    acc = np.zeros((width, width))
    for dx in offs:
        for dy in offs:
            acc += ((X + dx * pixel_size - center[0]) ** 2 +
                    (Y + dy * pixel_size - center[1]) ** 2) <= radius**2
    vals = acc / subsamples**2 * support_mask(width)
    return Frame(values=vals, pixel_size=pixel_size)


def matched_detector(grid):
    """Detector matching a frame's or movie's grid: spacing = pixel_size, J = width + 1."""
    return DetectorGrid(count=grid.width + 1, spacing=grid.pixel_size)


def energy_bound(frame):
    """2 L ||f||^2 of Theorem 1: support radius L = W h / 2, ||f||^2 by pixel-area quadrature."""
    radius = 0.5 * frame.width * frame.pixel_size
    return 2.0 * radius * (float(np.sum(frame.values**2)) * frame.pixel_size**2)


def dense_view_projector(cos_t, sin_t, width, pixel_size, offsets):
    """Oracle projector of one view, every ray sample kept: ``(weights, indices)``, 4(2W+1) x J.

    Column j holds ray s_j's entries: corner c of sample m (``_ray_samples``)
    is row c (2W+1) + m, corners in the order (r, k), (r, k+1), (r+1, k),
    (r+1, k+1), and a sample off the grid has weight zero.
    """
    base, tr, tk, inside = _ray_samples(cos_t, sin_t, width, pixel_size, offsets)
    weight = inside * (0.5 * pixel_size)
    above = weight * tr
    below = weight - above
    right_below, right_above = below * tk, above * tk
    left = 1.0 - tk
    weights = np.stack([below * left, right_below, above * left, right_above])
    step = int(width > 1)
    indices = np.stack([base + shift for shift in (0, step, step * width, step * (width + 1))])
    return weights.reshape(-1, offsets.size), indices.astype(np.intp).reshape(-1, offsets.size)


def dense_project(frames, pixel_size, angles, detector):
    """Oracle of ``project_sequence``: view p's dense projector applied to frame p.

    Each ray's entries add down the column with ``np.add.reduce``, in the
    order of ``dense_view_projector``; returns J x P values.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    cos_t, sin_t = _reduced_trig(angles)
    out = np.empty((detector.count, angles.size))
    for a, values in enumerate(frames):
        weights, indices = dense_view_projector(cos_t[a], sin_t[a], len(values), pixel_size,
                                                detector.offsets)
        np.add.reduce(values.ravel()[indices] * weights, axis=0, out=out[:, a])
    return out


def project_loop(frame, angles, detector):
    """Reference ray-driven projector: ``map_coordinates`` bilinear sampling per view.

    Each ray is sampled at 2W+1 points half a pixel apart; samples whose
    row or column falls outside [0, W-1] read zero.  Returns J x A values.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    W, h = frame.width, frame.pixel_size
    offsets = detector.offsets
    M = 2 * W + 1
    du = 0.5 * h
    u = (np.arange(M) - (M - 1) / 2.0) * du
    c0 = (W - 1) / 2.0
    cos_t, sin_t = _reduced_trig(angles)
    out = np.empty((offsets.size, angles.size))
    for a in range(angles.size):
        x = offsets[:, None] * cos_t[a] + u[None, :] * (-sin_t[a])
        y = offsets[:, None] * sin_t[a] + u[None, :] * cos_t[a]
        vals = map_coordinates(frame.values, [(c0 - y / h).ravel(), (x / h + c0).ravel()],
                               order=1, mode="constant", cval=0.0)
        out[:, a] = vals.reshape(offsets.size, M).sum(axis=1) * du
    return out


def fbp_loop(sinogram, width, pixel_size):
    """Reference FBP: full complex-FFT ramp filter, ``np.interp`` backprojection per view.

    Returns the unmasked W x W image.
    """
    J = sinogram.detector.count
    T = sinogram.detector.spacing
    npad = 2 * (1 << max(int(np.ceil(np.log2(max(J, 2)))), 1))
    n = np.fft.fftfreq(npad, d=1.0 / npad).astype(np.int64)
    kern = np.zeros(npad)
    kern[0] = 1.0 / (4.0 * T**2)
    odd = (n % 2) != 0
    kern[odd] = -1.0 / (np.pi**2 * n[odd] ** 2 * T**2)
    H = np.real(np.fft.fft(kern))
    gpad = np.zeros((npad, sinogram.angles.size))
    gpad[:J, :] = sinogram.values
    filtered = np.real(np.fft.ifft(np.fft.fft(gpad, axis=0) * H[:, None], axis=0))[:J, :] * T
    X, Y = grid_coords(width, pixel_size)
    cos_t, sin_t = _reduced_trig(sinogram.angles)
    s0 = sinogram.detector.offsets[0]
    acc = np.zeros((width, width))
    sample = np.arange(J, dtype=float)
    for a in range(sinogram.angles.size):
        idx = (X * cos_t[a] + Y * sin_t[a] - s0) / T
        acc += np.interp(idx.ravel(), sample, filtered[:, a], left=0.0, right=0.0).reshape(
            width, width
        )
    return acc * (np.pi / sinogram.angles.size)


def complex_l1(angles, N, Psi, symmetric):
    """Reference L1 on the complex harmonics e^{j n theta}, n = -N..N.

    With the half-turn symmetry the rows are [Theta; Theta diag((-1)^n)]
    against [Psi; Psi].  It is a unitary column transform of the real
    trigonometric L1, so both have the same singular values.
    """
    n = np.arange(-N, N + 1)
    theta = np.exp(1j * np.outer(np.asarray(angles, dtype=float), n))
    Psi = np.asarray(Psi, dtype=complex)
    if symmetric:
        theta = np.vstack([theta, theta * ((-1.0) ** n)[None, :]])
        Psi = np.vstack([Psi, Psi])
    return (theta[:, :, None] * Psi[:, None, :]).reshape(theta.shape[0], -1)


def l1_2p(scheme, N, V, Z, symmetric):
    """Reference L1(Z) as one matrix, the form the parity blocks split.

    With the half-turn symmetry [T; T diag((-1)^n)] * [V; V] Z (2P rows),
    without it T * V Z (P rows).
    """
    if symmetric:
        return face_split(real_trig_theta_hat(scheme, N), np.vstack([V, V]) @ Z)
    return face_split(real_trig_theta(scheme, N), V @ Z)


def data_2p(data, symmetric):
    """Reference data columns: g_hat(s_j) = [g(s_j); g(-s_j)] (2P x J), g(s_j) without symmetry."""
    g = data.values  # J x P
    return np.vstack([g.T, g[::-1].T]) if symmetric else g.T.copy()


def rotate_rows(G, symmetric):
    """Any row-stacked G as data blocks for the split L1, every column kept.

    With the symmetry: (G_top + G_bottom) / sqrt2 and (G_top - G_bottom) /
    sqrt2, the orthogonal row rotation that splits L1.
    """
    if not symmetric:
        return [G]
    P = G.shape[0] // 2
    return [(G[:P] + G[P:]) / np.sqrt(2.0), (G[:P] - G[P:]) / np.sqrt(2.0)]


def objective_and_gradient_2p(scheme, N, U, Z, G, K, symmetric):
    """Reference varpro objective and gradient on the unsplit L1 and data G.

    F = ||G - L1 pinv(L1) G||_F^2, with pinv truncated below 1e-10 of the
    largest singular value like the solver; the gradient contracts the projector
    derivative as -2 V_hat^T M with
    M[i, k] = sum_n theta_hat[i, n] ((G - L1 beta*) beta*^T)[i, (n, k)].
    """
    theta_hat = real_trig_theta_hat(scheme, N) if symmetric else real_trig_theta(scheme, N)
    u_hat = np.vstack([U, U]) if symmetric else U
    L1 = face_split(theta_hat, u_hat @ Z)
    beta = np.linalg.pinv(L1, rcond=1e-10) @ G
    resid = G - L1 @ beta
    W3 = (resid @ beta.T).reshape(L1.shape[0], 2 * N + 1, K + 1)
    grad = -2.0 * (u_hat.T @ np.einsum("in,ink->ik", theta_hat, W3))
    return float(np.sum(resid**2)), grad


def inner_beta(L1, g_hat):
    """Reference minimum-norm least squares: ``lstsq``, dropping singular values
    at or below 1e-10 of the largest."""
    sol, *_ = np.linalg.lstsq(L1, g_hat, rcond=1e-10)
    return sol


def build_A(theta_hat, i, K):
    """Per-row operator A_i = theta_hat[i] (x) I_{K+1}, shape (K+1, (2N+1)(K+1)).

    Row i of L1(Z) is vec(Z)^T (A_i (x) u_hat[i]^T); with unit-modulus
    harmonics A_i A_i^H = (2N+1) I_{K+1}.
    """
    return np.kron(theta_hat[i][None, :], np.eye(K + 1))


def build_L2(beta, theta_hat, u_hat, order):
    """The operator L2(beta) linear in vec(Z), stacked per row i then per offset s_j.

    Row (i, j) is beta(s_j)^T A_i^T (I_{K+1} (x) u_hat[i]) with the
    per-row operator A_i = theta_hat[i] (x) I_{K+1}; the full matrix has
    shape (rows * J, d * (K+1)) and satisfies g_hat_stacked = L2(beta)
    vec(Z) whenever g_hat(s) = L1(Z) beta(s).  ``beta`` is the
    (2N+1)(K+1) x J coefficient array.
    """
    C = component_projections(beta, theta_hat, order)
    rows, J, d = theta_hat.shape[0], beta.shape[1], u_hat.shape[1]
    return (C[:, :, :, None] * u_hat[:, None, None, :]).reshape(rows * J, order.n_temporal * d)


def vec(Z):
    """Column-major vectorization: vec(Z)[k*d + m] = Z[m, k]."""
    return np.asarray(Z).reshape(-1, order="F")


class Theorem1Result(NamedTuple):
    lhs: float
    rhs: float
    per_angle_ratio: np.ndarray


def theorem1_check(frame, angles):
    """Projection-energy bound of the paper's Theorem 1 for a residual frame.

    lhs integrates the per-angle projection energy
    sum_j |Rf(s_j, theta)|^2 * spacing over a full turn (weight
    2*pi / len(angles)); rhs = 2*pi*L*||f||^2 is the stated bound.
    ``per_angle_ratio`` holds each angle's energy against its own bound
    2*L*||f||^2, the inequality the proof uses; it holds in the continuum
    for a frame supported in the disk of radius L, and discretization can
    add a few percent of quadrature slack.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    detector = matched_detector(frame)
    g = radon_project(frame, angles, detector).values
    per_angle = np.sum(g**2, axis=0) * detector.spacing
    rhs_single = energy_bound(frame)
    lhs = float(per_angle.sum() * 2.0 * np.pi / angles.size)
    ratio = per_angle / rhs_single if rhs_single > 0 else np.zeros_like(per_angle)
    return Theorem1Result(lhs=lhs, rhs=float(np.pi * rhs_single), per_angle_ratio=ratio)


def random_masked_frame(rng, width=48, pixel_size=None):
    if pixel_size is None:
        pixel_size = 2.0 / width
    return Frame(values=rng.standard_normal((width, width)), pixel_size=pixel_size)


def exact_model_scheme(P):
    """The angles ``make_exact_model_data`` acquires on, for a ``ProSepSolution`` of its data."""
    return bit_reversed(P, span=np.pi)


def make_exact_model_data(P, K, N, d, J, seed=0, psi0=None):
    """Synthetic data that follows the projection model exactly.

    Draws a random orthonormal Z0 (or uses the provided temporal
    functions), draws coefficient columns with the mirror parity
    beta(-s) = diag((-1)^n) beta(s) that physical projections obey, and
    evaluates the face-splitting forward model.  J must be even so that
    detector bins pair up under s -> -s.

    Returns (data, U, Z0, beta0, order).
    """
    assert J % 2 == 0, "use an even bin count so mirrored bins pair up"
    rng = np.random.default_rng(seed)
    order = HarmonicOrder(N=N, K=K, d=d)
    scheme = exact_model_scheme(P)
    U = spline_interpolator(P, d)
    if psi0 is None:
        Z0 = np.linalg.qr(rng.standard_normal((d, K + 1)))[0]
    else:
        Z0 = np.linalg.qr(U.T @ psi0)[0]
    T = real_trig_theta(scheme, N)
    M = face_split(T, U @ Z0)  # P x cols
    beta0 = rng.standard_normal((order.cols, J))
    parity = np.repeat(harmonic_parity(N), K + 1)
    for j in range(J // 2):
        beta0[:, J - 1 - j] = parity * beta0[:, j]
    values = (M @ beta0).T  # J x P
    det = DetectorGrid(count=J, spacing=2.0 / J)
    data = Sinogram(values=values, angles=scheme.angles, detector=det)
    return data, U, Z0, beta0, order


def max_principal_angle(A, B):
    """Largest principal angle (radians) between the column spans of A and B."""
    Qa, _ = np.linalg.qr(np.asarray(A, dtype=float))
    Qb, _ = np.linalg.qr(np.asarray(B, dtype=float))
    s = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
