"""Discrete parallel-beam Radon transform and ramp-filtered backprojection.

Conventions: the object lives on a square pixel grid whose support is the
inscribed disk of diameter ``D = width * pixel_size``; pixel values outside
that disk are zeroed at construction.  A projection at angle ``theta`` and
offset ``s`` integrates along the line ``s * (cos t, sin t) + u * (-sin t,
cos t)``, sampled with bilinear interpolation at steps of half a pixel.
All arithmetic is float64.

Both operators are built one view at a time as ``scipy.sparse`` CSR
matrices: the ray-driven projector of a view is J x W^2, the pixel-driven
linear-interpolation backprojector W^2 x J.  ``radon_project`` and
``fbp`` apply them to one frame or one sinogram.  ``fbp_stack`` backprojects
n sinograms on one angle set together: each view's backprojector is built
once and meets the view's J x n block.  ``project_fbp`` is the fused batch
for many frames on one grid: per view, one projector product over all P
frames, a ramp filter of the J x P block and one backprojector product
accumulated into the W^2 x P result, so no sinogram stack and no all-view
operator is ever held.  Both run the same per-view backprojection loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import CoverageError, InsufficientAnglesError

__all__ = [
    "Frame",
    "DetectorGrid",
    "Sinogram",
    "radon_project",
    "fbp",
    "fbp_stack",
    "project_fbp",
]


@dataclass(frozen=True)
class Frame:
    """A square image with physical pixel size, masked to its support disk."""

    values: np.ndarray
    pixel_size: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"frame must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("frame values must be finite")
        if self.pixel_size <= 0:
            raise ValueError("pixel_size must be positive")
        v = v * support_mask(v.shape[0], self.pixel_size)
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def support_radius(self) -> float:
        """Radius L of the inscribed support disk (diameter D = width * pixel_size)."""
        return 0.5 * self.width * self.pixel_size

    def norm2_sq(self) -> float:
        """Squared L2 norm with pixel-area quadrature."""
        return float(np.sum(self.values**2)) * self.pixel_size**2


def support_mask(width: int, pixel_size: float = 1.0) -> np.ndarray:
    """Boolean mask of pixel centers inside the inscribed disk."""
    x = (np.arange(width) - (width - 1) / 2.0) * pixel_size
    r2 = x[None, :] ** 2 + x[:, None] ** 2
    return r2 <= (0.5 * width * pixel_size) ** 2


def grid_coords(width: int, pixel_size: float = 1.0):
    """Physical (X, Y) coordinates of pixel centers, y increasing upward."""
    x = (np.arange(width) - (width - 1) / 2.0) * pixel_size
    return np.meshgrid(x, -x)


@dataclass(frozen=True)
class DetectorGrid:
    """Uniform detector with offsets s_j = (j - (J-1)/2) * spacing.

    The grid is symmetric about s = 0 by construction, so -s_j is always
    exactly the grid point at index J-1-j.
    """

    count: int
    spacing: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def offsets(self) -> np.ndarray:
        return (np.arange(self.count) - (self.count - 1) / 2.0) * self.spacing

    @property
    def width(self) -> float:
        return self.count * self.spacing

    def covers(self, frame: Frame) -> bool:
        return self.width >= 2.0 * frame.support_radius - 1e-12

    @classmethod
    def for_frame(cls, frame: Frame, count: int | None = None) -> "DetectorGrid":
        """Detector matching the frame grid: spacing = pixel_size, J = width + 1."""
        if count is None:
            count = frame.width + 1
        return cls(count=count, spacing=frame.pixel_size)


@dataclass(frozen=True)
class Sinogram:
    """Projection values on a (detector offset) x (view angle) grid."""

    values: np.ndarray
    angles: np.ndarray
    detector: DetectorGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        a = np.asarray(self.angles, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("sinogram values must be 2-D (J x A)")
        if a.ndim != 1 or a.size != v.shape[1]:
            raise ValueError("angles length must equal the number of columns")
        if v.shape[0] != self.detector.count:
            raise ValueError("row count must equal detector.count")
        if not np.all(np.isfinite(v)):
            raise ValueError("sinogram values must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "angles", a)


def _reduced_trig(angles: np.ndarray):
    """cos/sin of each angle via reduction to [0, pi).

    Computing trig on ``theta mod pi`` with an explicit sign makes the
    direction vectors of theta and theta + pi exact negations of each
    other, so the half-turn identity g(-s, theta) = g(s, theta + pi)
    holds to summation rounding rather than trig-argument rounding.
    """
    phi = np.mod(np.asarray(angles, dtype=float), 2.0 * np.pi)
    flip = phi >= np.pi
    phi = np.where(flip, phi - np.pi, phi)
    sign = np.where(flip, -1.0, 1.0)
    return sign * np.cos(phi), sign * np.sin(phi)


def _linear_weights(pos: np.ndarray, n: int):
    """Linear interpolation on the samples 0..n-1 at positions ``pos``.

    Returns ``(i, t, inside)``: the value at ``pos`` is ``(1 - t) v[i] +
    t v[i+1]`` where ``inside`` holds, and zero elsewhere, as in
    ``np.interp(left=0, right=0)`` and ``map_coordinates(order=1,
    mode="constant")``.  ``i`` is clipped to n-2, so ``pos = n-1`` takes
    its whole weight from the last sample and ``i+1`` is always a sample.
    """
    i = np.clip(np.floor(pos), 0, max(n - 2, 0))
    return i, pos - i, (pos >= 0.0) & (pos <= n - 1)


def _csr_rows(data: np.ndarray, indices: np.ndarray, n_cols: int) -> csr_array:
    """CSR matrix whose row r holds ``data[r]`` at columns ``indices[r]``.

    Every row has the same number of entries, so ``indptr`` is an
    arithmetic sequence and no sort is needed.  Rows may repeat a column
    and CSR products add the repeats; merging them takes a sort per view
    that costs about what it saves, even in a 128-frame product.
    """
    rows = data.shape[0]
    per_row = data.size // rows
    indptr = np.arange(rows + 1, dtype=np.int32) * per_row
    return csr_array((data.ravel(), indices.ravel(), indptr), shape=(rows, n_cols))


def _view_projector(cos_t: float, sin_t: float, width: int, pixel_size: float,
                    offsets: np.ndarray) -> csr_array:
    """J x W^2 matrix of one view: row j integrates the frame along ray s_j.

    Each ray is sampled at 2W+1 points ``pixel_size / 2`` apart over the
    support chord; each sample is a bilinear blend of its four
    neighbouring pixels, and the samples add up with weight ``pixel_size /
    2``.  Applied to ``frame.values.ravel()`` this is one column of
    ``radon_project``.
    """
    W, h = width, pixel_size
    M = 2 * W + 1
    du = 0.5 * h
    u = (np.arange(M) - (M - 1) / 2.0) * du
    c0 = (W - 1) / 2.0
    x = offsets[:, None] * cos_t + u[None, :] * (-sin_t)
    y = offsets[:, None] * sin_t + u[None, :] * cos_t
    r, tr, r_in = _linear_weights(c0 - y / h, W)
    k, tk, k_in = _linear_weights(x / h + c0, W)
    step = int(W > 1)  # a one-pixel frame has no neighbour
    weight = du * (r_in & k_in)
    above = weight * tr
    below = weight - above
    left = 1.0 - tk
    data = np.empty((offsets.size, 4, M))
    np.multiply(below, left, out=data[:, 0])
    np.multiply(below, tk, out=data[:, 1])
    np.multiply(above, left, out=data[:, 2])
    np.multiply(above, tk, out=data[:, 3])
    indices = np.empty((offsets.size, 4, M), dtype=np.int32)
    indices[:, 0] = r * W + k
    indices[:, 1] = indices[:, 0] + step
    indices[:, 2] = indices[:, 0] + step * W
    indices[:, 3] = indices[:, 2] + step
    return _csr_rows(data, indices, W * W)


def _view_backprojector(cos_t: float, sin_t: float, X: np.ndarray, Y: np.ndarray,
                        detector: DetectorGrid) -> csr_array:
    """W^2 x J matrix of one view: each pixel reads the projection at its offset.

    Pixel (x, y) takes the filtered projection linearly interpolated at
    ``s = x cos t + y sin t``, and zero beyond the detector ends.
    """
    J = detector.count
    pos = ((X * cos_t + Y * sin_t - detector.offsets[0]) / detector.spacing).ravel()
    i, t, inside = _linear_weights(pos, J)
    data = np.empty((pos.size, 2))
    data[:, 0] = inside * (1.0 - t)
    data[:, 1] = inside * t
    indices = np.empty((pos.size, 2), dtype=np.int32)
    indices[:, 0] = i
    indices[:, 1] = indices[:, 0] + int(J > 1)  # a one-bin detector has no neighbour
    return _csr_rows(data, indices, J)


def _require_coverage(detector: DetectorGrid, frame: Frame) -> None:
    if not detector.covers(frame):
        raise CoverageError(
            f"detector width {detector.width:g} does not cover support "
            f"diameter {2 * frame.support_radius:g}"
        )


def radon_project(frame: Frame, angles, detector: DetectorGrid) -> Sinogram:
    """Parallel-beam projections of ``frame`` at the given angles.

    Ray-driven line integrals: each ray is sampled at uniform steps of
    ``pixel_size / 2`` over the support chord, with bilinear interpolation
    of the pixel values.  Each view is one sparse matrix (J x W^2) applied
    to the frame, so the transform is linear in the frame by construction.

    Raises
    ------
    CoverageError
        If the detector is narrower than the support disk.
    """
    _require_coverage(detector, frame)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    cos_t, sin_t = _reduced_trig(angles)
    f = frame.values.ravel()
    out = np.empty((detector.count, angles.size))
    for a in range(angles.size):
        out[:, a] = _view_projector(cos_t[a], sin_t[a], frame.width, frame.pixel_size,
                                    detector.offsets) @ f
    return Sinogram(values=out, angles=angles, detector=detector)


def _ramlak_transfer(J: int, spacing: float) -> np.ndarray:
    """DFT of the discrete band-limited ramp kernel, zero-padded.

    Pad length is twice the next power of two >= J, which eliminates
    circular-convolution wrap for detector-limited projections.  The
    kernel is real and even, so its DFT is real and the non-negative
    frequencies (``npad // 2 + 1`` of them) determine it.
    """
    npad = 2 * (1 << max(int(np.ceil(np.log2(max(J, 2)))), 1))
    n = np.fft.fftfreq(npad, d=1.0 / npad).astype(np.int64)
    kern = np.zeros(npad)
    kern[0] = 1.0 / (4.0 * spacing**2)
    odd = (n % 2) != 0
    kern[odd] = -1.0 / (np.pi**2 * n[odd] ** 2 * spacing**2)
    return np.real(np.fft.rfft(kern))


def _ramp_filter(values: np.ndarray, transfer: np.ndarray, spacing: float) -> np.ndarray:
    """Ramp-filter every column of a J x n block with ``_ramlak_transfer``."""
    J = values.shape[0]
    npad = 2 * (transfer.size - 1)
    spectrum = np.fft.rfft(values, n=npad, axis=0) * transfer[:, None]
    return np.fft.irfft(spectrum, n=npad, axis=0)[:J, :] * spacing


def _require_two_angles(angles: np.ndarray) -> None:
    if angles.size < 2:
        raise InsufficientAnglesError("fbp needs at least 2 view angles")


def _backproject(filtered_views, angles: np.ndarray, detector: DetectorGrid, width: int,
                 pixel_size: float) -> np.ndarray:
    """(pi / A) sum_a B_a F_a over the ramp-filtered J x n blocks F_a, one per view.

    ``B_a`` is view a's backprojector (W^2 x J), built once per view;
    the result is W^2 x n.  ``fbp_stack`` and ``project_fbp`` both
    backproject through this loop.
    """
    X, Y = grid_coords(width, pixel_size)
    cos_t, sin_t = _reduced_trig(angles)
    acc = None
    for a, block in enumerate(filtered_views):
        view = _view_backprojector(cos_t[a], sin_t[a], X, Y, detector)
        if acc is None:
            acc = view @ block
        else:
            acc += view @ block  # the product is freed before the next view's
    acc *= np.pi / angles.size
    return acc


def fbp(sinogram: Sinogram, width: int | None = None, pixel_size: float | None = None) -> Frame:
    """Ramp-filtered backprojection of a sinogram.

    Angles are assumed to cover [0, pi) or [0, 2*pi) approximately
    uniformly; either span backprojects with the same pi / A scale thanks
    to the half-turn redundancy of parallel projections.  The output grid
    defaults to the one implied by the detector (width = J, pixel size =
    spacing).  Each view backprojects through one sparse matrix (W^2 x J).

    Raises
    ------
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    return fbp_stack(sinogram.values[:, :, None], sinogram.angles, sinogram.detector,
                     width=width, pixel_size=pixel_size)[0]


def fbp_stack(sinograms, angles, detector: DetectorGrid, width: int | None = None,
              pixel_size: float | None = None) -> list[Frame]:
    """``fbp`` of n sinograms that share one angle set and detector.

    ``sinograms`` is J x A x n.  All of them are ramp filtered at once,
    and each view's backprojector is built once and applied to the
    view's J x n block, so n sinograms cost one view loop.

    Raises
    ------
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    _require_two_angles(angles)
    values = np.asarray(sinograms, dtype=float)
    if values.ndim != 3 or values.shape[:2] != (detector.count, angles.size):
        raise ValueError(f"sinograms must be J x A x n = {detector.count} x {angles.size} "
                         f"x n, got shape {values.shape}")
    if width is None:
        width = detector.count
    if pixel_size is None:
        pixel_size = detector.spacing
    J, A, n = values.shape
    transfer = _ramlak_transfer(J, detector.spacing)
    filtered = _ramp_filter(values.reshape(J, A * n), transfer, detector.spacing)
    filtered = filtered.reshape(J, A, n)
    acc = _backproject((filtered[:, a] for a in range(A)), angles, detector, width,
                       pixel_size)
    return [Frame(values=acc[:, k].reshape(width, width), pixel_size=pixel_size)
            for k in range(n)]


def project_fbp(frames, angles, detector: DetectorGrid) -> list[Frame]:
    """``fbp(radon_project(f, angles, detector), f.width, f.pixel_size)`` of every frame.

    All frames share one grid, so every frame meets the same linear map.
    The frames are stacked as the columns of one W^2 x P array and the
    views are visited one at a time: the view's projector meets all P
    frames in one sparse product, the J x P block is ramp filtered, and
    the view's backprojector adds it into the W^2 x P result.  No
    sinogram stack and no all-view operator is held, so memory stays
    O(P W^2).

    Raises
    ------
    CoverageError
        If the detector is narrower than the support disk.
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    first = frames[0]
    if any((f.width, f.pixel_size) != (first.width, first.pixel_size) for f in frames):
        raise ValueError("frames must share one grid")
    _require_coverage(detector, first)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    _require_two_angles(angles)
    W, h = first.width, first.pixel_size
    stack = np.stack([f.values.ravel() for f in frames], axis=1)
    transfer = _ramlak_transfer(detector.count, detector.spacing)
    cos_t, sin_t = _reduced_trig(angles)
    filtered_views = (
        _ramp_filter(_view_projector(cos_t[a], sin_t[a], W, h, detector.offsets) @ stack,
                     transfer, detector.spacing)
        for a in range(angles.size)
    )
    acc = _backproject(filtered_views, angles, detector, W, h)
    del stack  # the P output frames below need its memory
    return [Frame(values=acc[:, p].reshape(W, W), pixel_size=h) for p in range(acc.shape[1])]

