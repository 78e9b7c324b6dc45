"""From a recovered representation to a reconstructed movie, plus metrics.

The solver returns temporal coefficients Z and per-offset harmonic
coefficients beta.  The model has one synthesis rule: the sinogram of
frame p is g(s, theta, t_p) = sum_k psi_k(t_p) g_k(s, theta), with Psi =
U Z and the K+1 component sinograms g_k(s_j, theta) = sum_n
basis_n(theta) beta_{n,k}(s_j) in the real trigonometric basis, at any
angles (``_component_sinograms``).  ``synthesize_sinogram`` weights them
by row p of Psi.  FBP is linear, so the movie is a partially separable
image model too: ``movie_factors`` backprojects the g_k into images
phi_k, and ``movie_chunks`` forms the rank-(K+1) product Psi Phi a few
frames at a time, so ``cli`` writes the movie without holding it.  The
caller names the output grid and the synthesis angle count: ``cli``
resolves them once from the run configuration.  Metrics compare two
movies frame by frame, each read a chunk at a time from its tensor file
(``phantom.MovieFile``); the per-frame metrics take plain arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .psmodel import HarmonicCoefficients, HarmonicOrder, real_trig_theta
# fbp is not called here; perfbench's tracer test wraps it at this import site
from .radon import (  # noqa: F401
    DetectorGrid,
    Sinogram,
    fbp,
    fbp_stack,
    support_masked,
)
from .sampling import AngularScheme, progressive
from .tensorio import CHUNK_VALUES

__all__ = [
    "ProSepSolution",
    "MetricsRow",
    "synthesize_sinogram",
    "movie_factors",
    "movie_chunks",
    "psnr",
    "ssim",
    "mae",
    "movie_metrics",
]

PSNR_CAP_DB = 200.0
# SSIM's Gaussian window: sigma 1.5 truncated at radius 5, an 11 x 11 window
_SSIM_SIGMA = 1.5
_SSIM_RADIUS = 5


@dataclass(frozen=True)
class ProSepSolution:
    """Everything needed to evaluate the fitted projection model."""

    Z: np.ndarray
    U: np.ndarray
    beta: HarmonicCoefficients
    model: HarmonicOrder
    scheme: AngularScheme
    detector: DetectorGrid
    times: np.ndarray
    symmetric: bool = True

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        U = np.asarray(self.U, dtype=float)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if Z.shape != (self.model.d, self.model.n_temporal):
            raise ValueError("Z shape does not match model orders")
        if U.shape != (self.scheme.P, self.model.d):
            raise ValueError("U shape does not match (P, d)")
        if self.beta.J != self.detector.count:
            raise ValueError("beta column count must equal detector bin count")
        for name, Q, dim in (("U", U, self.model.d), ("Z", Z, self.model.n_temporal)):
            defect = np.linalg.norm(Q.T @ Q - np.eye(dim))
            if defect > 1e-8:
                raise ValueError(f"{name} columns not orthonormal (defect {defect:.2e})")

    @property
    def P(self) -> int:
        return self.scheme.P


def _component_sinograms(solution: ProSepSolution, angles: np.ndarray) -> np.ndarray:
    """The K+1 component sinograms g_k at ``angles``, as one J x A x (K+1) stack."""
    order = solution.model
    T = real_trig_theta(angles, order.N)  # A x (2N+1)
    B3 = solution.beta.beta.reshape(order.n_harmonics, order.n_temporal, solution.beta.J)
    return np.einsum("an,nkj->jak", T, B3)


def synthesize_sinogram(solution: ProSepSolution, p: int, out_angles) -> Sinogram:
    """Model projections of frame p at arbitrary view angles: the g_k weighted by Psi[p]."""
    if not 0 <= p < solution.P:
        raise IndexError(f"frame index {p} out of range [0, {solution.P})")
    out_angles = np.atleast_1d(np.asarray(out_angles, dtype=float))
    values = _component_sinograms(solution, out_angles) @ (solution.U[p] @ solution.Z)
    return Sinogram(values=values, angles=out_angles, detector=solution.detector)


def movie_factors(
    solution: ProSepSolution,
    fbp_angles_count: int,
    width: int,
    pixel_size: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The factors (Psi, Phi) of the reconstructed movie, frame p = sum_k Psi[p, k] Phi[k].

    The K+1 component sinograms, synthesized at ``fbp_angles_count``
    uniform angles in [0, pi), are backprojected together (``fbp_stack``,
    one backprojector per view) onto the ``width`` x ``width`` grid of
    ``pixel_size``: Phi is the (K+1) x W x W stack of phi_k = FBP(g_k),
    and Psi = U Z the P x (K+1) temporal factor.  Frame p equals FBP of
    ``synthesize_sinogram`` at p up to rounding.
    """
    angles = progressive(fbp_angles_count, np.pi).angles
    phi = fbp_stack(_component_sinograms(solution, angles), angles, solution.detector, width,
                    pixel_size)  # (K+1) x W x W
    return solution.U @ solution.Z, phi


def _chunk_bounds(P: int, frame_values: int):
    """(start, stop) of chunks of P frames: as many as fit in ``CHUNK_VALUES``, and at least two.

    A lone last frame joins the chunk before it: numpy forms a one-row
    product as a matrix-vector product, whose sums round differently
    from the rows of a matrix product.
    """
    starts = list(range(0, P, max(2, CHUNK_VALUES // frame_values)))
    if len(starts) > 1 and P - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [P])


def movie_chunks(psi: np.ndarray, phi: np.ndarray):
    """The frames of the movie Psi Phi in order, as masked C-order chunks (a generator).

    ``psi`` and ``phi`` are as ``movie_factors`` returns them.  A chunk
    holds as many frames as fit in ``tensorio.CHUNK_VALUES`` values, and
    at least two (``_chunk_bounds``); each is one matrix product of rows
    of Psi with Phi, whose rows equal those of the whole product.
    """
    for start, stop in _chunk_bounds(len(psi), phi[0].size):
        frames = np.empty((stop - start, *phi.shape[1:]))
        np.matmul(psi[start:stop], phi.reshape(len(phi), -1), out=frames.reshape(stop - start, -1))
        yield support_masked(frames, ndim=3, copy=False)


def psnr(x: np.ndarray, ref: np.ndarray, peak: float) -> float:
    """Peak signal-to-noise ratio in dB, capped at 200 dB for exact matches.

    The peak and the difference are scaled by the exact power of two that
    takes the peak into [0.5, 1) before anything is squared, so frames and
    peak scaled together by any power of two give the same value.
    """
    xv, rv = _aligned_values(x, ref)
    peak, e = math.frexp(peak)
    diff = xv - rv
    np.ldexp(diff, -e, out=diff)
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse < peak**2 * 1e-20:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(peak**2 / mse))


def ssim(x: np.ndarray, ref: np.ndarray, data_range: float) -> float:
    """Structural similarity with an 11x11 Gaussian window, sigma 1.5.

    K1 = 0.01, K2 = 0.03.
    The local means and moments blur with the reflect-boundary Gaussian
    as a matrix product G X G^T (``_ssim_window``), which equals
    ``scipy.ndimage.gaussian_filter(X, 1.5, truncate=3.5, mode="reflect")``
    to rounding.  The frames and the data range are scaled by the exact
    power of two that takes the range into [0.5, 1) before anything is
    squared, so frames and range scaled together by any power of two give
    the same value.
    """
    xv, rv = _aligned_values(x, ref)
    data_range, e = math.frexp(data_range)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    H, W = xv.shape
    rows = _ssim_window(H)
    cols = rows if W == H else _ssim_window(W)
    # x, r, x^2, r^2, x r, then their blurs, in one array: freeing it lifts
    # glibc's trim threshold above a frame pair's arrays, which as five
    # frame-sized arrays went back to the kernel and faulted in every pair
    moments = np.empty((5, H, W))
    moments[0], moments[1] = xv, rv
    xv, rv = np.ldexp(moments[:2], -e, out=moments[:2])
    np.multiply(xv, xv, out=moments[2])
    np.multiply(rv, rv, out=moments[3])
    np.multiply(xv, rv, out=moments[4])
    for moment in moments:
        np.matmul(rows @ moment, cols.T, out=moment)
    mu_x, mu_r, xx, rr, xr = moments
    sq_x, sq_r = np.square(mu_x), np.square(mu_r)
    var_x = np.subtract(xx, sq_x, out=xx)
    var_r = np.subtract(rr, sq_r, out=rr)
    cov = np.subtract(xr, mu_x * mu_r, out=xr)
    # num = (2 mu_x mu_r + c1)(2 cov + c2), den = (mu_x^2 + mu_r^2 + c1)(var_x + var_r + c2)
    num = mu_x * 2.0
    num *= mu_r
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    den = np.add(sq_x, sq_r, out=sq_x)
    den += c1
    var_x += var_r
    var_x += c2
    den *= var_x
    num /= den
    return float(np.mean(num))


@functools.lru_cache(maxsize=4)
def _ssim_window(n: int) -> np.ndarray:
    """n x n matrix of the 1-D SSIM Gaussian with reflect boundaries, read-only.

    Row i holds the 11 taps around sample i; a tap that falls off the
    edge lands on its half-sample reflection (d c b a | a b c d | d c b a),
    reflected again as often as a frame narrower than the window needs.
    The matrix is built once per size and shared by every frame of a
    movie's metrics.
    """
    x = np.arange(-_SSIM_RADIUS, _SSIM_RADIUS + 1)
    taps = np.exp(-0.5 / _SSIM_SIGMA**2 * x**2)
    taps /= taps.sum()
    src = np.mod(np.arange(n)[:, None] + x, 2 * n)
    src = np.where(src < n, src, 2 * n - 1 - src)
    rows = np.repeat(np.arange(n), x.size)
    window = np.bincount(rows * n + src.ravel(), weights=np.tile(taps, n),
                         minlength=n * n).reshape(n, n)
    window.flags.writeable = False
    return window


def mae(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean absolute error."""
    xv, rv = _aligned_values(x, ref)
    return float(np.mean(np.abs(xv - rv)))


def _aligned_values(x, ref):
    xv = np.asarray(x, dtype=float)
    rv = np.asarray(ref, dtype=float)
    if xv.shape != rv.shape:
        raise ValueError(f"grid mismatch: {xv.shape} vs {rv.shape}")
    return xv, rv


@dataclass(frozen=True)
class MetricsRow:
    """Per-frame (or averaged) reconstruction accuracy."""

    psnr: float
    ssim: float
    mae: float

    def __post_init__(self):
        if self.mae < 0 or self.ssim > 1.0 + 1e-12:
            raise ValueError("invalid metric values")


def movie_metrics(movie, benchmark):
    """Per-frame metric rows plus their arithmetic mean.

    The PSNR/SSIM peak is global: the maximum over the whole benchmark
    movie (a first pass over its chunks), or 1 if that is not positive.  The
    frames are then compared one pair at a time, so a ``MovieFile`` is
    read a chunk at a time and never held whole.

    Returns
    -------
    (rows, summary) : (list of MetricsRow, MetricsRow)
    """
    if len(movie) != len(benchmark):
        raise ValueError("movies must have the same number of frames")
    peak = max(float(chunk.max()) for chunk in benchmark.chunks())
    if peak <= 0:
        peak = 1.0
    rows = [MetricsRow(psnr=psnr(x, ref, peak), ssim=ssim(x, ref, peak), mae=mae(x, ref))
            for x, ref in zip(movie, benchmark)]
    summary = MetricsRow(
        psnr=float(np.mean([r.psnr for r in rows])),
        ssim=float(np.mean([r.ssim for r in rows])),
        mae=float(np.mean([r.mae for r in rows])),
    )
    return rows, summary
