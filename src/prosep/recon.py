"""From a recovered representation to a reconstructed movie, plus metrics.

The solver returns temporal coefficients Z and per-offset harmonic
coefficients beta.  Forming Psi = U Z gives the sampled temporal
functions; evaluating the harmonic expansion at arbitrary angles yields
a dense synthetic sinogram for any time instant.  Since synthesis and
FBP are linear, the movie is itself a partially separable image model:
FBP of the K+1 component sinograms gives spatial images phi_k, and the
P x W^2 movie matrix is the rank-(K+1) product Psi Phi, frame p being
sum_k psi_k(t_p) phi_k.  The caller names the output grid and the
synthesis angle count: ``cli`` resolves them once from the run
configuration.  Metrics compare two movies frame by frame on their
P x W x W arrays; the per-frame metrics take plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phantom import Movie
from .psmodel import HarmonicCoefficients, HarmonicOrder, real_trig_theta
# fbp is not called here; perfbench's tracer test wraps it at this import site
from .radon import DetectorGrid, Sinogram, fbp, fbp_stack  # noqa: F401
from .sampling import AngularScheme

__all__ = [
    "ProSepSolution",
    "MetricsRow",
    "synthesize_sinogram",
    "reconstruct_movie",
    "psnr",
    "ssim",
    "mae",
    "frame_metrics",
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


def synthesize_sinogram(solution: ProSepSolution, p: int, out_angles) -> Sinogram:
    """Model projections at frame index p for arbitrary view angles.

    Evaluates g(s_j, theta, t_p) = sum_n h_n(s_j, t_p) basis_n(theta) with
    h_n(s_j, t_p) = sum_k beta_{n,k}(s_j) psi_k(t_p) in the real
    trigonometric parameterization, so the output is exactly real.
    """
    if not 0 <= p < solution.P:
        raise IndexError(f"frame index {p} out of range [0, {solution.P})")
    out_angles = np.atleast_1d(np.asarray(out_angles, dtype=float))
    order = solution.model
    psi_p = (solution.U[p] @ solution.Z)  # (K+1,)
    # h[n, j] = sum_k beta[(n,k), j] * psi_p[k]
    B3 = solution.beta.beta.reshape(order.n_harmonics, order.n_temporal, solution.beta.J)
    h = np.einsum("nkj,k->nj", B3, psi_p)
    T = real_trig_theta(out_angles, order.N)  # A x (2N+1)
    values = (T @ h).T  # J x A
    return Sinogram(values=values, angles=out_angles, detector=solution.detector)


def reconstruct_movie(
    solution: ProSepSolution,
    fbp_angles_count: int,
    width: int,
    pixel_size: float,
) -> Movie:
    """FBP-reconstruct every frame of the fitted model on a dense angle set.

    The synthesized sinogram of frame p is sum_k psi_k(t_p) g_k with
    component sinograms g_k = T_dense beta[:, k, :], so the K+1 component
    sinograms are backprojected together (``fbp_stack``, one backprojector
    per view) into the images phi_k = FBP(g_k), and the whole movie is one
    product: the P x W^2 matrix Psi Phi, with Psi = U Z and Phi the
    (K+1) x W^2 matrix of the phi_k.  This equals FBP of
    ``synthesize_sinogram`` for every frame up to rounding.  The
    components are synthesized at ``fbp_angles_count`` uniform angles in
    [0, pi) and backprojected onto the ``width`` x ``width`` grid of
    ``pixel_size``.
    """
    angles = np.arange(fbp_angles_count) * (np.pi / fbp_angles_count)
    order = solution.model
    T = real_trig_theta(angles, order.N)  # A x (2N+1)
    B3 = solution.beta.beta.reshape(order.n_harmonics, order.n_temporal, solution.beta.J)
    components = np.einsum("an,nkj->jak", T, B3)  # J x A x (K+1)
    phi = fbp_stack(components, angles, solution.detector, width, pixel_size)  # (K+1) x W x W
    psi = solution.U @ solution.Z  # P x (K+1)
    movie = (psi @ phi.reshape(order.n_temporal, -1)).reshape(-1, *phi.shape[1:])
    return Movie(values=movie, pixel_size=pixel_size)


def psnr(x: np.ndarray, ref: np.ndarray, peak: float) -> float:
    """Peak signal-to-noise ratio in dB, capped at 200 dB for exact matches."""
    xv, rv = _aligned_values(x, ref)
    mse = float(np.mean((xv - rv) ** 2))
    if mse < peak**2 * 1e-20:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(peak**2 / mse))


def ssim(x: np.ndarray, ref: np.ndarray, data_range: float) -> float:
    """Structural similarity with an 11x11 Gaussian window, sigma 1.5.

    K1 = 0.01, K2 = 0.03.
    The local means and moments blur with the reflect-boundary Gaussian
    as a matrix product G X G^T (``_ssim_window``), which equals
    ``scipy.ndimage.gaussian_filter(X, 1.5, truncate=3.5, mode="reflect")``
    to rounding.
    """
    xv, rv = _aligned_values(x, ref)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    H, W = xv.shape
    rows = _ssim_window(H)
    cols = rows if W == H else _ssim_window(W)
    mu_x, mu_r, xx, rr, xr = rows @ np.stack([xv, rv, xv * xv, rv * rv, xv * rv]) @ cols.T
    var_x = xx - mu_x**2
    var_r = rr - mu_r**2
    cov = xr - mu_x * mu_r
    num = (2.0 * mu_x * mu_r + c1) * (2.0 * cov + c2)
    den = (mu_x**2 + mu_r**2 + c1) * (var_x + var_r + c2)
    return float(np.mean(num / den))


def _ssim_window(n: int) -> np.ndarray:
    """n x n matrix of the 1-D SSIM Gaussian with reflect boundaries.

    Row i holds the 11 taps around sample i; a tap that falls off the
    edge lands on its half-sample reflection (d c b a | a b c d | d c b a),
    reflected again as often as a frame narrower than the window needs.
    """
    x = np.arange(-_SSIM_RADIUS, _SSIM_RADIUS + 1)
    taps = np.exp(-0.5 / _SSIM_SIGMA**2 * x**2)
    taps /= taps.sum()
    src = np.mod(np.arange(n)[:, None] + x, 2 * n)
    src = np.where(src < n, src, 2 * n - 1 - src)
    rows = np.repeat(np.arange(n), x.size)
    return np.bincount(rows * n + src.ravel(), weights=np.tile(taps, n),
                       minlength=n * n).reshape(n, n)


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


def frame_metrics(x: np.ndarray, ref: np.ndarray, peak: float) -> MetricsRow:
    return MetricsRow(psnr=psnr(x, ref, peak), ssim=ssim(x, ref, data_range=peak), mae=mae(x, ref))


def movie_metrics(movie: Movie, benchmark: Movie, peak: float | None = None):
    """Per-frame metric rows plus their arithmetic mean.

    The PSNR/SSIM peak is global: the maximum over the whole benchmark
    movie, unless given explicitly.

    Returns
    -------
    (rows, summary) : (list of MetricsRow, MetricsRow)
    """
    if len(movie) != len(benchmark):
        raise ValueError("movies must have the same number of frames")
    if peak is None:
        peak = float(benchmark.values.max())
        if peak <= 0:
            peak = 1.0
    rows = [frame_metrics(x, ref, peak) for x, ref in zip(movie.values, benchmark.values)]
    summary = MetricsRow(
        psnr=float(np.mean([r.psnr for r in rows])),
        ssim=float(np.mean([r.ssim for r in rows])),
        mae=float(np.mean([r.mae for r in rows])),
    )
    return rows, summary
