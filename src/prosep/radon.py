"""Discrete parallel-beam Radon transform and ramp-filtered backprojection.

Conventions: the object lives on a square pixel grid whose support is the
inscribed disk of diameter ``D = width * pixel_size``; pixel values outside
that disk are zeroed at construction.  A projection at angle ``theta`` and
offset ``s`` integrates along the line ``s * (cos t, sin t) + u * (-sin t,
cos t)``, sampled with bilinear interpolation at steps of half a pixel.
All arithmetic is float64.

Both operators are built one view at a time as a pair of fixed-width
arrays ``(weights, indices)``: each output value is a weighted sum of a
fixed number of input values.  The ray-driven projector of a view has J
rays of 4(2W+1) entries, the pixel-driven linear-interpolation
backprojector W^2 pixels of 2.  A ray may repeat a pixel; its weights
add.
``radon_project`` applies the projector to one ``Frame`` as one numpy
gather.  For many columns at once, each view's operator is recast as
dense blocks on square tiles of the pixel grid (``_tiling``,
``_tile_blocks``): the pixels of one tile meet only a short run of
detector bins, so the view's map is a few dense matrix products per
tile, and a stack of columns stored tile by tile is read in place.  The
batched functions take and return plain n x W x W arrays, masked to the
support disk like a ``Frame``: ``fbp_stack`` backprojects n sinograms on
one angle set, and ``project_fbp`` is the fused batch for a movie of P
frames on one grid: per view, one projector pass over all P frames, a
ramp filter of the J x P block and one backprojector pass accumulated
into the W^2 x P result, so no sinogram stack and no all-view operator
is ever held.  ``fbp`` of one sinogram is ``fbp_stack`` with n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        object.__setattr__(self, "values", support_masked(self.values, self.pixel_size))

    @property
    def width(self) -> int:
        return self.values.shape[1]

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


def support_masked(values, pixel_size: float, ndim: int = 2) -> np.ndarray:
    """float64 copy of a W x W frame (or, with ``ndim`` 3, of P frames) zeroed off the disk."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != ndim or v.shape[-2:-1] != v.shape[-1:]:
        raise ValueError(f"frame must be square: expected {'P x ' * (ndim - 2)}W x W, "
                         f"got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("frame values must be finite")
    if pixel_size <= 0:
        raise ValueError("pixel_size must be positive")
    return v * support_mask(v.shape[-1], pixel_size)


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

    @classmethod
    def for_frame(cls, frame) -> "DetectorGrid":
        """Detector matching a frame's or movie's grid: spacing = pixel_size, J = width + 1."""
        return cls(count=frame.width + 1, spacing=frame.pixel_size)


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


def _view_projector(cos_t: float, sin_t: float, width: int, pixel_size: float,
                    offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One view's projector as J columns ``(weights, indices)`` of 4(2W+1) entries.

    Column j integrates the frame along ray s_j.  The ray is sampled at
    2W+1 points ``pixel_size / 2`` apart over the support chord; each
    sample is a bilinear blend of its four neighbouring pixels, and the
    samples add up with weight ``pixel_size / 2``.  Applied to
    ``frame.values.ravel()`` this is one column of ``radon_project``.
    The entries run down the columns, so summing over axis 0 adds each
    ray's entries in order with one vector add per entry.
    """
    W, h = width, pixel_size
    M = 2 * W + 1
    du = 0.5 * h
    u = (np.arange(M) - (M - 1) / 2.0) * du
    c0 = (W - 1) / 2.0
    x = offsets[None, :] * cos_t + u[:, None] * (-sin_t)
    y = offsets[None, :] * sin_t + u[:, None] * cos_t
    r, tr, r_in = _linear_weights(c0 - y / h, W)
    k, tk, k_in = _linear_weights(x / h + c0, W)
    step = int(W > 1)  # a one-pixel frame has no neighbour
    weight = du * (r_in & k_in)
    above = weight * tr
    below = weight - above
    left = 1.0 - tk
    weights = np.empty((4, M, offsets.size))
    np.multiply(below, left, out=weights[0])
    np.multiply(below, tk, out=weights[1])
    np.multiply(above, left, out=weights[2])
    np.multiply(above, tk, out=weights[3])
    indices = np.empty((4, M, offsets.size), dtype=np.intp)
    indices[0] = r * W + k
    indices[1] = indices[0] + step
    indices[2] = indices[0] + step * W
    indices[3] = indices[2] + step
    return weights.reshape(4 * M, offsets.size), indices.reshape(4 * M, offsets.size)


def _view_backprojector(cos_t: float, sin_t: float, X: np.ndarray, Y: np.ndarray,
                        detector: DetectorGrid) -> tuple[np.ndarray, np.ndarray]:
    """One view's backprojector as W^2 rows of 2 entries, stored 2 x W^2.

    Returns ``(weights, indices)``: pixel (x, y) reads the filtered
    projection linearly interpolated at ``s = x cos t + y sin t``, that is
    ``weights[0] * p[indices[0]] + weights[1] * p[indices[1]]``, and zero
    beyond the detector ends.
    """
    J = detector.count
    pos = ((X * cos_t + Y * sin_t - detector.offsets[0]) / detector.spacing).ravel()
    i, t, inside = _linear_weights(pos, J)
    weights = np.empty((2, pos.size))
    weights[0] = inside * (1.0 - t)
    weights[1] = inside * t
    indices = np.empty((2, pos.size), dtype=np.intp)
    indices[0] = i
    indices[1] = indices[0] + int(J > 1)  # a one-bin detector has no neighbour
    return weights, indices


def _require_coverage(detector: DetectorGrid, width: int, pixel_size: float) -> None:
    if detector.width < width * pixel_size - 1e-12:
        raise CoverageError(f"detector width {detector.width:g} does not cover support "
                            f"diameter {width * pixel_size:g}")


def radon_project(frame: Frame, angles, detector: DetectorGrid) -> Sinogram:
    """Parallel-beam projections of ``frame`` at the given angles.

    Ray-driven line integrals: each ray is sampled at uniform steps of
    ``pixel_size / 2`` over the support chord, with bilinear interpolation
    of the pixel values.  Each view is one fixed-width weighted gather (J
    rays of 4(2W+1) pixels) applied to the frame, so the transform is
    linear in the frame by construction.

    Raises
    ------
    CoverageError
        If the detector is narrower than the support disk.
    """
    _require_coverage(detector, frame.width, frame.pixel_size)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    cos_t, sin_t = _reduced_trig(angles)
    f = frame.values.ravel()
    out = np.empty((detector.count, angles.size))
    for a in range(angles.size):
        weights, indices = _view_projector(cos_t[a], sin_t[a], frame.width, frame.pixel_size,
                                           detector.offsets)
        # each ray's entries add in order, as in a CSR row product: the
        # sinogram keeps its last bit, which matters because the d > K+1
        # descent grows a 1e-16 change in it about 1e4-fold in Z
        out[:, a] = np.add.reduce(weights * f[indices], axis=0)
    return Sinogram(values=out, angles=angles, detector=detector)


def _ramp_matrix(J: int, spacing: float) -> np.ndarray:
    """J x J matrix of the discrete band-limited ramp (Ram-Lak) filter.

    ``H[i, j] = spacing * k(i - j)`` with ``k(0) = 1 / (4 spacing^2)``,
    ``k(n) = -1 / (pi^2 n^2 spacing^2)`` for odd n and 0 for even n != 0:
    the linear convolution of each detector column with the kernel,
    kept to the J bins of the detector.  ``H @ values`` filters every
    column of a J x n block.
    """
    n = np.arange(1 - J, J)
    kern = np.zeros(n.size)
    kern[J - 1] = 1.0 / (4.0 * spacing**2)
    odd = n % 2 != 0
    kern[odd] = -1.0 / (np.pi**2 * n[odd] ** 2 * spacing**2)
    i = np.arange(J)
    return spacing * kern[(J - 1) + i[:, None] - i[None, :]]


def _require_two_angles(angles: np.ndarray) -> None:
    if angles.size < 2:
        raise InsufficientAnglesError("fbp needs at least 2 view angles")


# pixels per side of the square tiles the batched operators are blocked
# by: in one view a tile meets 9 to 13 detector bins, so its blocks are at
# most 13 x 64 and dense
_TILE = 8
# result values per batched backprojection product (512 KiB of float64):
# at n = 256 columns a run of 4 tiles, whose temporaries stay in cache
_RUN_VALUES = 1 << 16


def _tiling(width: int) -> tuple[np.ndarray, int]:
    """Tile-major layout of a W x W grid cut into ``_TILE`` x ``_TILE`` tiles.

    Returns ``(slots, tiles)``: pixel i (row-major) is slot ``slots[i]``
    of ``tiles * _TILE**2``, and tile t holds the ``_TILE**2`` slots from
    ``t * _TILE**2`` on.  Tiles cut by the grid edge keep their missing
    pixels as empty slots.
    """
    n = -(-width // _TILE)
    r = np.arange(width)
    tile = (r[:, None] // _TILE) * n + r[None, :] // _TILE
    local = (r[:, None] % _TILE) * _TILE + r[None, :] % _TILE
    return (tile * _TILE**2 + local).ravel(), n * n


def _tile_blocks(bins: np.ndarray, slots: np.ndarray, weights: np.ndarray, tiles: int,
                 J: int) -> tuple[np.ndarray, np.ndarray]:
    """One view's map between J detector bins and the tiled pixels, as dense blocks.

    Entry e links bin ``bins[e]`` and pixel slot ``slots[e]`` with weight
    ``weights[e]``; repeated links add.  Returns ``(blocks, first)``,
    ``blocks`` of shape ``tiles x depth x _TILE**2``: ``blocks[t, r, l]``
    links bin ``first[t] + r`` and slot ``t * _TILE**2 + l``.  Every
    tile's bins lie in ``first[t] .. first[t] + depth - 1 <= J - 1``.
    """
    keep = weights != 0
    bins, slots, weights = bins[keep], slots[keep], weights[keep]
    tile = slots // _TILE**2
    first = np.full(tiles, J - 1)
    np.minimum.at(first, tile, bins)
    rows = bins - first[tile]
    depth = int(rows.max(initial=0)) + 1
    over = np.maximum(first - (J - depth), 0)  # lower a block that would pass bin J - 1
    if over.any():
        first -= over
        rows += over[tile]
    # slot t * 64 + l goes to cell (t * depth + row) * 64 + l
    flat = slots + (tile * (depth - 1) + rows) * _TILE**2
    blocks = np.bincount(flat, weights=weights, minlength=tiles * depth * _TILE**2)
    return blocks.reshape(tiles, depth, _TILE**2), first


def _backproject(filtered_views, angles: np.ndarray, detector: DetectorGrid, width: int,
                 pixel_size: float) -> np.ndarray:
    """(pi / A) sum_a B_a F_a over the ramp-filtered J x n blocks F_a, one per view.

    ``B_a`` is view a's backprojector (``_view_backprojector``), built
    once per view as tile blocks (``_tile_blocks``); each tile of the
    result adds its block's transpose times the tile's rows of F_a, for
    a run of about ``_RUN_VALUES / (64 n)`` tiles per batched product.
    The result is n x W x W, masked to the support disk as a ``Frame``
    is.  ``fbp_stack`` and ``project_fbp`` both backproject through this
    loop.
    """
    X, Y = grid_coords(width, pixel_size)
    cos_t, sin_t = _reduced_trig(angles)
    slots, tiles = _tiling(width)
    pixel_slots = np.tile(slots, 2)  # a pixel's two entries
    acc = None
    for a, block in enumerate(filtered_views):
        weights, indices = _view_backprojector(cos_t[a], sin_t[a], X, Y, detector)
        blocks, first = _tile_blocks(indices.ravel(), pixel_slots, weights.ravel(), tiles,
                                     detector.count)
        if acc is None:
            acc = np.zeros((tiles, _TILE**2, block.shape[1]))
            run = max(1, _RUN_VALUES // acc[0].size)
        rows = first[:, None] + np.arange(blocks.shape[1])
        blocks = blocks.transpose(0, 2, 1)
        for t in range(0, tiles, run):
            acc[t:t + run] += blocks[t:t + run] @ block[rows[t:t + run]]
    acc *= np.pi / angles.size
    out = acc.reshape(tiles * _TILE**2, -1)[slots]
    out *= support_mask(width, pixel_size).reshape(-1, 1)
    return out.T.reshape(-1, width, width)


def fbp(sinogram: Sinogram, width: int | None = None, pixel_size: float | None = None) -> Frame:
    """Ramp-filtered backprojection of a sinogram.

    Angles are assumed to cover [0, pi) or [0, 2*pi) approximately
    uniformly; either span backprojects with the same pi / A scale thanks
    to the half-turn redundancy of parallel projections.  The output grid
    defaults to the one implied by the detector (width = J, pixel size =
    spacing).  Each pixel reads each view's filtered projection through
    one two-entry linear interpolation, applied as dense blocks per tile
    of pixels.

    Raises
    ------
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    h = sinogram.detector.spacing if pixel_size is None else pixel_size
    values = fbp_stack(sinogram.values[:, :, None], sinogram.angles, sinogram.detector, width, h)
    return Frame(values=values[0], pixel_size=h)


def fbp_stack(sinograms, angles, detector: DetectorGrid, width: int | None = None,
              pixel_size: float | None = None) -> np.ndarray:
    """``fbp`` of n sinograms that share one angle set and detector, as n x W x W.

    ``sinograms`` is J x A x n.  All of them are ramp filtered at once,
    and each view's backprojector is built once and applied to the
    view's J x n block, so n sinograms cost one view loop.  Image k is
    ``fbp`` of sinogram k: masked to the support disk, on the grid of
    ``width`` and ``pixel_size`` (default: the detector's, as in ``fbp``).

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
    filtered = (_ramp_matrix(J, detector.spacing) @ values.reshape(J, A * n)).reshape(J, A, n)
    return _backproject((filtered[:, a] for a in range(A)), angles, detector, width,
                        pixel_size)


def project_fbp(frames, pixel_size: float, angles, detector: DetectorGrid) -> np.ndarray:
    """``fbp(radon_project(f, angles, detector), W, pixel_size)`` of every frame f.

    ``frames`` is a P x W x W array of images on one grid, already masked
    to the support disk (as ``phantom.Movie`` holds them); the result is
    the P x W x W array of their reconstructions.  Every frame meets the
    same linear map, so the frames are the columns of one W^2 x P array,
    stored tile by tile (``_tiling``), and the views are visited one at a
    time: the view's projector blocks (``_tile_blocks``) meet all P
    frames at once, the J x P block is ramp filtered, and the view's
    backprojector adds it into the W^2 x P result.  No sinogram stack and
    no all-view operator is held, so memory stays O(P W^2).

    Raises
    ------
    CoverageError
        If the detector is narrower than the support disk.
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[1] != frames.shape[2]:
        raise ValueError(f"frames must be P x W x W, got shape {frames.shape}")
    P, W = frames.shape[:2]
    _require_coverage(detector, W, pixel_size)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    _require_two_angles(angles)
    J = detector.count
    slots, tiles = _tiling(W)
    tiled = np.zeros((tiles * _TILE**2, P))
    tiled[slots] = frames.reshape(P, W * W).T
    tiled = tiled.reshape(tiles, _TILE**2, P)
    rays = np.tile(np.arange(J), 4 * (2 * W + 1))
    ramp = _ramp_matrix(J, detector.spacing)
    cos_t, sin_t = _reduced_trig(angles)

    def filtered_view(a):
        weights, indices = _view_projector(cos_t[a], sin_t[a], W, pixel_size, detector.offsets)
        blocks, first = _tile_blocks(rays, slots[indices].ravel(), weights.ravel(), tiles, J)
        depth = blocks.shape[1]
        sino = np.zeros((J, P))
        for t in range(tiles):
            sino[first[t]:first[t] + depth] += blocks[t] @ tiled[t]
        return ramp @ sino

    return _backproject((filtered_view(a) for a in range(angles.size)), angles, detector, W,
                        pixel_size)
