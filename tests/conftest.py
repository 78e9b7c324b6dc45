"""Shared test helpers: analytic oracles independent of the library paths."""

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from prosep.phantom import Movie, TimeSequentialSinogram
from prosep.psmodel import (
    HarmonicOrder,
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
    _reduced_trig,
    fbp,
    grid_coords,
    support_mask,
)
from prosep.sampling import bit_reversed


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


def naive_fbp(data, width, pixel_size):
    """Direct FBP of the inconsistent time-sequential projection set.

    Treats the P time-stamped columns as if they were simultaneous views
    of a static object; for a moving object this is the artifact-ridden
    baseline the model-based reconstruction is compared against.
    """
    sino = Sinogram(values=data.values, angles=data.scheme.angles, detector=data.detector)
    return fbp(sino, width=width, pixel_size=pixel_size)


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


def vec(Z):
    """Column-major vectorization: vec(Z)[k*d + m] = Z[m, k]."""
    return np.asarray(Z).reshape(-1, order="F")


def random_masked_frame(rng, width=48, pixel_size=None):
    if pixel_size is None:
        pixel_size = 2.0 / width
    return Frame(values=rng.standard_normal((width, width)), pixel_size=pixel_size)


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
    scheme = bit_reversed(P, span=np.pi)
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
    data = TimeSequentialSinogram(values=values, scheme=scheme, detector=det)
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
