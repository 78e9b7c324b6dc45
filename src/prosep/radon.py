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
is ever held.  The projector of ``project_fbp`` visits only the tiles
that some frame occupies, and its tile-major copy of the frames holds
only those tiles: empty space adds nothing to a projection, so skipping
it changes no sum, and it builds only the ray samples whose bilinear
stencil reaches such a tile.  ``fbp`` of one sinogram is ``fbp_stack``
with n = 1.

A view loop takes every per-view array from one ``_Workspace`` per call
and fills it through ``out=``, so each array is allocated once per call
instead of once per view: arrays above the allocator's mmap threshold
(128 KiB in glibc) would otherwise be mapped and unmapped in every view,
and the page faults and the process's memory would depend on what ran
before.
"""

from __future__ import annotations

import math
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
        object.__setattr__(self, "values", support_masked(self.values))
        if self.pixel_size <= 0:
            raise ValueError("pixel_size must be positive")

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


def support_mask(width: int) -> np.ndarray:
    """Boolean mask of pixel centers inside the inscribed disk.

    In half-pixel units centre (i, j) lies at (2i - W + 1, 2j - W + 1) and
    the disk has radius W, so the test is exact integer arithmetic.  The
    two sides never tie: for odd W the sum of squares is even and W^2
    odd; for even W the sum is 2 mod 4 and W^2 is 0 mod 4.  So no pixel
    size moves a centre across the circle, and the mask takes none.
    """
    x = 2 * np.arange(width) - (width - 1)
    return x[None, :] ** 2 + x[:, None] ** 2 <= width**2


def support_masked(values, ndim: int = 2, copy: bool = True) -> np.ndarray:
    """float64 W x W frame (or, with ``ndim`` 3, P frames) zeroed off the disk.

    The result is a new array, unless ``copy`` is False and ``values`` is
    a float64 array already: then ``values`` itself is masked in place
    and returned, so it must be writable and no one else's.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != ndim or v.shape[-2:-1] != v.shape[-1:]:
        raise ValueError(f"frame must be square: expected {'P x ' * (ndim - 2)}W x W, "
                         f"got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("frame values must be finite")
    if copy:
        return v * support_mask(v.shape[-1])
    v *= support_mask(v.shape[-1])
    return v


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


class _Workspace:
    """Scratch arrays that one call of a view loop reuses from view to view.

    ``ws(name, shape, dtype)`` is an uninitialised array of ``shape`` that
    shares its memory with every earlier array of that name and dtype.
    The memory is allocated on the name's first use, and again only when
    a view needs more of it than any view before, so an array that a loop
    fills through ``out=`` is allocated once per call, not once per view.
    An array is valid until the next request for its name.
    """

    def __init__(self):
        self._buffers: dict = {}

    def __call__(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key, size = (name, np.dtype(dtype)), math.prod(shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[key] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _linear_weights(pos: np.ndarray, n: int, ws: _Workspace, name: str):
    """Linear interpolation on the samples 0..n-1 at positions ``pos``.

    Returns ``(i, t, inside)``: the value at ``pos`` is ``(1 - t) v[i] +
    t v[i+1]`` where ``inside`` holds, and zero elsewhere, as in
    ``np.interp(left=0, right=0)`` and ``map_coordinates(order=1,
    mode="constant")``.  ``i`` is clipped to n-2, so ``pos = n-1`` takes
    its whole weight from the last sample and ``i+1`` is always a sample.
    ``t`` is ``pos`` itself, overwritten; ``i`` and ``inside`` are the
    arrays ``name + ".i"`` and ``name + ".in"`` of ``ws``.
    """
    inside = np.greater_equal(pos, 0.0, out=ws(name + ".in", pos.shape, bool))
    inside &= np.less_equal(pos, n - 1, out=ws("cmp", pos.shape, bool))
    i = np.floor(pos, out=ws(name + ".i", pos.shape))
    np.clip(i, 0, max(n - 2, 0), out=i)
    pos -= i
    return i, pos, inside


def _ray_samples(cos_t: float, sin_t: float, width: int, pixel_size: float,
                 offsets: np.ndarray, ws: _Workspace):
    """Bilinear stencils of one view's ray samples, as (2W+1) x J arrays.

    Ray j is sampled at 2W+1 points ``pixel_size / 2`` apart over the
    support chord.  Returns ``(base, tr, tk, inside)``: sample (m, j)
    blends the pixels ``base``, ``base + 1``, ``base + W`` and ``base + W
    + 1`` (flat, row-major) with row fraction ``tr`` and column fraction
    ``tk``, and lies on the grid where ``inside`` holds.
    """
    W, h = width, pixel_size
    M = 2 * W + 1
    u = (np.arange(M) - (M - 1) / 2.0) * (0.5 * h)
    c0 = (W - 1) / 2.0
    x = np.add(offsets[None, :] * cos_t, u[:, None] * (-sin_t), out=ws("x", (M, offsets.size)))
    y = np.add(offsets[None, :] * sin_t, u[:, None] * cos_t, out=ws("y", (M, offsets.size)))
    y /= h
    r, tr, inside = _linear_weights(np.subtract(c0, y, out=y), W, ws, "row")
    x /= h
    x += c0
    k, tk, k_in = _linear_weights(x, W, ws, "col")
    inside &= k_in
    r *= W
    r += k
    base = ws("pixel", r.shape, np.intp)
    base[...] = r
    return base, tr, tk, inside


def _stencil(base, tr, tk, weight, width: int, ws: _Workspace, lookup=None):
    """The four bilinear entries of each ray sample, as 4 x (sample shape) arrays.

    ``base``, ``tr`` and ``tk`` are as ``_ray_samples`` returns them, and
    ``weight`` is each sample's quadrature weight (zero off the grid).
    Returns ``(weights, indices)``: corner c of a sample adds ``weights[c]``
    times pixel ``indices[c]`` (``lookup[pixel]`` when a ``lookup`` is
    given), corners in the order (r, k), (r, k+1), (r+1, k), (r+1, k+1).
    ``tk`` is overwritten.
    """
    step = int(width > 1)  # a one-pixel frame has no neighbour
    weights = ws("weights", (4, *tr.shape))
    below, right_below, above, right_above = weights
    np.multiply(weight, tr, out=above)
    np.subtract(weight, above, out=below)
    np.multiply(below, tk, out=right_below)
    np.multiply(above, tk, out=right_above)
    left = np.subtract(1.0, tk, out=tk)
    below *= left
    above *= left
    indices = ws("indices", (4, *tr.shape), np.intp)
    for corner, shift in zip(indices, (0, step, step * width, step * (width + 1))):
        if lookup is None:
            np.add(base, shift, out=corner)
        else:
            pixel = np.add(base, shift, out=ws("corner", base.shape, np.intp))
            np.take(lookup, pixel, out=corner, mode="clip")
    return weights, indices


def _view_projector(cos_t: float, sin_t: float, width: int, pixel_size: float,
                    offsets: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """One view's projector as J columns ``(weights, indices)`` of 4(2W+1) entries.

    Column j integrates the frame along ray s_j: each of its 2W+1
    samples (``_ray_samples``) is a bilinear blend of its four
    neighbouring pixels, and the samples add up with weight
    ``pixel_size / 2``.  Applied to ``frame.values.ravel()`` this is one
    column of ``radon_project``.  The entries run down the columns, so
    summing over axis 0 adds each ray's entries in order with one vector
    add per entry.
    """
    base, tr, tk, inside = _ray_samples(cos_t, sin_t, width, pixel_size, offsets, ws)
    weight = np.multiply(inside, 0.5 * pixel_size, out=ws("weight", inside.shape))
    weights, indices = _stencil(base, tr, tk, weight, width, ws)
    return weights.reshape(-1, offsets.size), indices.reshape(-1, offsets.size)


def _stencil_reach(pixels: np.ndarray, width: int) -> np.ndarray:
    """Per pixel p of a W x W grid (flat): whether a ray sample's stencil at p meets ``pixels``.

    The stencil at p is p, p + 1, p + W and p + W + 1 (``_stencil``); it
    is only ever based at a pixel with a right and a lower neighbour.
    """
    step = int(width > 1)
    reach = pixels.copy()
    for shift in {step, step * width, step * (width + 1)} - {0}:
        reach[:-shift] |= pixels[shift:]
    return reach


def _occupied_projector(cos_t: float, sin_t: float, width: int, pixel_size: float,
                        offsets: np.ndarray, reach: np.ndarray, slots: np.ndarray,
                        ws: _Workspace):
    """The entries of ``_view_projector`` whose samples ``reach`` marks, as flat arrays.

    Only the samples on the grid whose stencil base p has ``reach[p]``
    (``_stencil_reach``) are built.  Returns ``(weights, slots, rays)``:
    ``weights`` and ``slots`` are 4 x n (corner, sample), the corner's
    pixel p given as ``slots[p]``, and ``rays`` holds each sample's ray.
    The samples keep the C order of the (2W+1) x J arrays, so the entries
    of every ray come in the order of ``_view_projector``'s column with
    the others left out; a left-out sample either has weight zero or only
    pixels outside the set that ``reach`` was built from.
    """
    base, tr, tk, inside = _ray_samples(cos_t, sin_t, width, pixel_size, offsets, ws)
    inside &= np.take(reach, base, out=ws("reach", base.shape, bool), mode="clip")
    picks = np.flatnonzero(inside)  # the one array a view allocates: its kept samples

    def picked(name, values):
        return np.take(values.ravel(), picks, out=ws(name, picks.shape, values.dtype), mode="clip")

    weights, slots = _stencil(picked("picked.base", base), picked("picked.tr", tr),
                              picked("picked.tk", tk), 0.5 * pixel_size, width, ws, slots)
    return weights, slots, np.remainder(picks, offsets.size, out=picks)


def _view_backprojector(cos_t: float, sin_t: float, X: np.ndarray, Y: np.ndarray,
                        detector: DetectorGrid, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """One view's backprojector as W^2 rows of 2 entries, stored 2 x W^2.

    Returns ``(weights, indices)``: pixel (x, y) reads the filtered
    projection linearly interpolated at ``s = x cos t + y sin t``, that is
    ``weights[0] * p[indices[0]] + weights[1] * p[indices[1]]``, and zero
    beyond the detector ends.
    """
    J = detector.count
    pos = np.multiply(X, cos_t, out=ws("pos", X.shape))
    pos += np.multiply(Y, sin_t, out=ws("y sin", Y.shape))
    pos -= detector.offsets[0]
    pos /= detector.spacing
    i, t, inside = _linear_weights(pos.ravel(), J, ws, "bin")
    weights = ws("bp.weights", (2, t.size))
    np.subtract(1.0, t, out=weights[0])
    weights[0] *= inside
    np.multiply(inside, t, out=weights[1])
    indices = ws("bp.indices", (2, t.size), np.intp)
    indices[0] = i
    np.add(indices[0], int(J > 1), out=indices[1])  # a one-bin detector has no neighbour
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
    offsets = detector.offsets
    out = np.empty((detector.count, angles.size))
    ws = _Workspace()
    for a in range(angles.size):
        weights, indices = _view_projector(cos_t[a], sin_t[a], frame.width, frame.pixel_size,
                                           offsets, ws)
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
# result values per batched backprojection product (256 KiB of float64):
# at n = 128 columns a run of 4 tiles, whose temporaries stay in cache
_RUN_VALUES = 1 << 15


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


def _tile_blocks(bins: np.ndarray, slots: np.ndarray, weights: np.ndarray, tiles: int, J: int,
                 ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """One view's map between J detector bins and the tiled pixels, as dense blocks.

    ``slots`` and ``weights`` share one C-contiguous 2-D shape, and
    ``bins`` broadcasts to it; entry e (in C order) links bin ``bins[e]``
    and pixel slot ``slots[e]`` with weight ``weights[e]``.  Repeated
    links add in entry order, and entries of weight zero or of a slot
    past the last tile are dropped.  Returns ``(blocks, first)``,
    ``blocks`` of shape ``tiles x depth x _TILE**2``: ``blocks[t, r, l]``
    links bin ``first[t] + r`` and slot ``t * _TILE**2 + l``.  Every
    tile's bins lie in ``first[t] .. first[t] + depth - 1 <= J - 1``.
    Both are arrays of ``ws``.
    """
    shape = weights.shape
    bins = np.broadcast_to(bins, shape)
    dropped = np.equal(weights, 0.0, out=ws("dropped", shape, bool))
    dropped |= np.greater_equal(slots, tiles * _TILE**2, out=ws("cmp", shape, bool))
    # a dropped entry goes to tile ``tiles``, a spare row that is never returned
    tile = np.floor_divide(slots, _TILE**2, out=ws("tile", shape, np.intp))
    np.copyto(tile, tiles, where=dropped)
    first = ws("first", (tiles + 1,), np.intp)
    first.fill(J - 1)
    for tile_row, bins_row in zip(tile, bins):
        np.minimum.at(first, tile_row, bins_row)
    rows = ws("rows", shape, np.intp)
    np.subtract(bins, np.take(first, tile, out=rows, mode="clip"), out=rows)
    depth = int(rows.max(initial=0, where=np.logical_not(dropped, out=ws("cmp", shape, bool)))) + 1
    over = np.maximum(first - (J - depth), 0)  # lower a block that would pass bin J - 1
    over[tiles] = 0
    if over.any():
        first -= over
        np.subtract(bins, np.take(first, tile, out=rows, mode="clip"), out=rows)
    # slot t * 64 + l goes to cell (t * depth + row) * 64 + l, a dropped entry
    # to the one cell past the last block
    flat = tile
    flat *= depth - 1
    flat += rows
    flat *= _TILE**2
    flat += slots
    np.copyto(flat, tiles * depth * _TILE**2, where=dropped)
    blocks = ws("blocks", (tiles * depth * _TILE**2 + 1,))
    blocks.fill(0.0)
    np.add.at(blocks, flat.ravel(), weights.ravel())
    return blocks[:-1].reshape(tiles, depth, _TILE**2), first[:tiles]


def _backproject(filtered_views, acc: np.ndarray, angles: np.ndarray, detector: DetectorGrid,
                 width: int, pixel_size: float, ws: _Workspace) -> None:
    """(pi / A) sum_a B_a F_a over the ramp-filtered J x n blocks F_a, one per view, into ``acc``.

    ``B_a`` is view a's backprojector (``_view_backprojector``), built
    once per view as tile blocks (``_tile_blocks``); each tile of the
    result adds its block's transpose times the tile's rows of F_a, for
    a run of about ``_RUN_VALUES / (64 n)`` tiles per batched product.
    The result stays tile-major in the zeroed tiles x 64 x n ``acc``,
    for ``_untile``.  Every per-view array, the run's gathered rows and
    product too, comes from ``ws`` and is filled through ``out=``, so
    the loop allocates it once per call, whatever the number of views;
    a caller that builds F_a from ``ws`` as well gives it names of its
    own.  ``fbp_stack`` and ``project_fbp`` both backproject through
    this loop.
    """
    X, Y = grid_coords(width, pixel_size)
    cos_t, sin_t = _reduced_trig(angles)
    slots, tiles = _tiling(width)
    pixel_slots = np.stack([slots, slots])  # a pixel's two entries
    n = acc.shape[-1]
    run = min(tiles, max(1, _RUN_VALUES // acc[0].size))
    for a, block in enumerate(filtered_views):
        weights, indices = _view_backprojector(cos_t[a], sin_t[a], X, Y, detector, ws)
        blocks, first = _tile_blocks(indices, pixel_slots, weights, tiles, detector.count, ws)
        depth = blocks.shape[1]
        rows = np.add.outer(first, np.arange(depth), out=ws("bp.rows", (tiles, depth), np.intp))
        blocks = blocks.transpose(0, 2, 1)
        gathered, product = ws("gathered", (run, depth, n)), ws("product", (run, _TILE**2, n))
        for t in range(0, tiles, run):
            m = min(run, tiles - t)
            np.take(block, rows[t:t + m], axis=0, out=gathered[:m], mode="clip")
            acc[t:t + m] += np.matmul(blocks[t:t + m], gathered[:m], out=product[:m])
    acc *= np.pi / angles.size


def _untile(acc: np.ndarray, width: int) -> np.ndarray:
    """The n x W x W images of a tile-major ``_backproject`` result, masked as a ``Frame`` is.

    Each tile's 64 x n block is copied through its transpose into a
    C-order result, so the images are contiguous and no caller copies
    them again; callers release their own per-call arrays first.
    """
    n = -(-width // _TILE)
    out = np.empty((acc.shape[-1], width, width))
    for t, tile in enumerate(acc.reshape(-1, _TILE, _TILE, acc.shape[-1])):
        r, c = divmod(t, n)
        dest = out[:, r * _TILE:(r + 1) * _TILE, c * _TILE:(c + 1) * _TILE]
        dest[...] = tile[:dest.shape[1], :dest.shape[2]].transpose(2, 0, 1)
    out *= support_mask(width)
    return out


def fbp(sinogram: Sinogram, width: int, pixel_size: float) -> Frame:
    """Ramp-filtered backprojection of a sinogram onto a ``width`` x ``width`` grid.

    Angles are assumed to cover [0, pi) or [0, 2*pi) approximately
    uniformly; either span backprojects with the same pi / A scale thanks
    to the half-turn redundancy of parallel projections.  Each pixel
    reads each view's filtered projection through one two-entry linear
    interpolation, applied as dense blocks per tile of pixels.

    Raises
    ------
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    values = fbp_stack(sinogram.values[:, :, None], sinogram.angles, sinogram.detector, width,
                       pixel_size)
    return Frame(values=values[0], pixel_size=pixel_size)


def fbp_stack(sinograms, angles, detector: DetectorGrid, width: int,
              pixel_size: float) -> np.ndarray:
    """``fbp`` of n sinograms that share one angle set and detector, as n x W x W.

    ``sinograms`` is J x A x n.  All of them are ramp filtered at once,
    and each view's backprojector is built once and applied to the
    view's J x n block, so n sinograms cost one view loop.  Image k is
    ``fbp`` of sinogram k: masked to the support disk, on the grid of
    ``width`` and ``pixel_size``.  The stack is a C-order array.

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
    J, A, n = values.shape
    filtered = (_ramp_matrix(J, detector.spacing) @ values.reshape(J, A * n)).reshape(J, A, n)
    acc = np.zeros((_tiling(width)[1], _TILE**2, n))
    _backproject((filtered[:, a] for a in range(A)), acc, angles, detector, width, pixel_size,
                 _Workspace())
    del filtered
    return _untile(acc, width)


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
    no all-view operator is held, so memory stays O(P W^2): the result,
    the accumulator, the copy of the occupied tiles and one workspace of
    per-view arrays.

    The projector visits only the tiles that some frame occupies (has a
    nonzero pixel in), found in one pass over the frames, and the
    tile-major copy of the input holds only those tiles.  It builds only
    the ray samples whose stencil has a pixel in such a tile
    (``_occupied_projector``), in the order of the full projector.  A
    skipped tile or sample would add exact zeros, and each occupied
    tile's entries and products add in the same order, so the result is
    the same as projecting every tile; a movie that occupies every tile
    runs the same products.  The result is a C-order array.

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
    columns = frames.reshape(P, W * W)
    slots, tiles = _tiling(W)
    tile = slots // _TILE**2
    occupied = np.zeros(tiles, dtype=bool)
    occupied[tile[np.any(columns, axis=0)]] = True
    kept = int(occupied.sum())
    # the occupied tiles, renumbered in order, hold slots 0 .. spare - 1;
    # the pixels of the other tiles are zero in every frame and all go to
    # the one spare slot, which is never read
    spare = kept * _TILE**2
    renumbered = np.cumsum(occupied) - 1
    packed = np.where(occupied[tile], renumbered[tile] * _TILE**2 + slots % _TILE**2, spare)
    tiled = np.zeros((spare + 1, P))
    tiled[packed] = columns.T
    tiled = tiled[:spare].reshape(kept, _TILE**2, P)
    reach = _stencil_reach(packed < spare, W)
    ramp = _ramp_matrix(J, detector.spacing)
    cos_t, sin_t = _reduced_trig(angles)
    offsets = detector.offsets
    ws = _Workspace()

    def filtered_view(a):
        weights, slots, rays = _occupied_projector(cos_t[a], sin_t[a], W, pixel_size, offsets,
                                                   reach, packed, ws)
        # every corner of a sample links its slot to the sample's ray; the
        # entries of the spare slot, past the last tile, are dropped
        blocks, first = _tile_blocks(rays, slots, weights, kept, J, ws)
        depth = blocks.shape[1]
        sino, product = ws("sino", (J, P)), ws("tile product", (depth, P))
        sino.fill(0.0)
        for t in range(kept):
            sino[first[t]:first[t] + depth] += np.matmul(blocks[t], tiled[t], out=product)
        return np.matmul(ramp, sino, out=ws("filtered", (J, P)))

    acc = np.zeros((tiles, _TILE**2, P))
    _backproject((filtered_view(a) for a in range(angles.size)), acc, angles, detector, W,
                 pixel_size, ws)
    # the workspace goes first: freeing the tile copy, one mapped block,
    # raises glibc's trim threshold to its size, and heap memory freed
    # after that would stay resident through _untile
    del ws
    del tiled
    return _untile(acc, W)
