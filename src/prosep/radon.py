"""Discrete parallel-beam Radon transform and ramp-filtered backprojection.

Conventions: the object lives on a square pixel grid whose support is the
inscribed disk of diameter ``D = width * pixel_size``; pixel values outside
that disk are zeroed at construction.  A projection at angle ``theta`` and
offset ``s`` integrates along the line ``s * (cos t, sin t) + u * (-sin t,
cos t)``, sampled with bilinear interpolation at steps of half a pixel.
All arithmetic is float64.

Both operators are built one view at a time as flat entry arrays: each
output value is a weighted sum of input values.  The ray-driven projector
of a view (``_view_projector``) gives each ray sample the four entries of
its bilinear stencil, and the pixel-driven linear-interpolation
backprojector gives each pixel two.  A ray may repeat a pixel; its
weights add.  Empty space adds nothing to a projection, so the projector
builds only the samples whose stencil reaches a given set of pixels: the
nonzero pixels of the frame in ``project_sequence``, the tiles that some
frame occupies in ``project_fbp``.  A left-out sample adds exact zeros,
and the kept entries of every ray come in one fixed order, so both loops
give the sums of the whole projector.
``project_sequence`` projects frame p of a movie at its own angle p, the
time-sequential acquisition, adding each ray's entries in order;
``radon_project`` is that loop with one ``Frame`` in every view.  For
many columns at once, each view's operator is recast as dense blocks on
square tiles of the pixel grid (``_tiling``, ``_tile_blocks``): the
pixels of one tile meet only a short run of detector bins, so the view's
map is a few dense matrix products per tile, and a stack of columns
stored tile by tile is read in place.  ``fbp_stack`` backprojects n
sinograms on one angle set into a plain n x W x W array, masked to the
support disk like a ``Frame``; ``fbp`` of one sinogram is ``fbp_stack``
with n = 1.  ``project_fbp`` is the one entry point of the fused batch
for a movie of P frames on one grid (the benchmark movie,
``phantom.benchmark_movie``): the frames arrive in chunks (read back from
a tensor file, say), and per view there is one projector pass over all P
frames, a ramp filter of the J x P block and one backprojector pass
accumulated into the W^2 x P result, so no sinogram stack and no
all-view operator is ever held.  The result stays tile by tile
(``TiledImages``), to be copied out a chunk of images at a time.  Its
tile-major copy of the frames holds only the occupied tiles.

Every view loop builds a view's arrays fresh and releases them before
the next view builds its own, by building them in a per-view function
whose locals die at its return.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InsufficientAnglesError

__all__ = [
    "Frame",
    "DetectorGrid",
    "Sinogram",
    "radon_project",
    "project_sequence",
    "fbp",
    "fbp_stack",
    "project_fbp",
    "TiledImages",
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


@functools.lru_cache(maxsize=4)
def support_mask(width: int) -> np.ndarray:
    """Boolean mask of pixel centers inside the inscribed disk, read-only.

    In half-pixel units centre (i, j) lies at (2i - W + 1, 2j - W + 1) and
    the disk has radius W, so the test is exact integer arithmetic.  The
    two sides never tie: for odd W the sum of squares is even and W^2
    odd; for even W the sum is 2 mod 4 and W^2 is 0 mod 4.  So no pixel
    size moves a centre across the circle, and the mask takes none.  The
    mask is built once per width and shared by every frame and chunk
    masked on that grid.
    """
    x = 2 * np.arange(width) - (width - 1)
    mask = x[None, :] ** 2 + x[:, None] ** 2 <= width**2
    mask.flags.writeable = False
    return mask


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


@dataclass(frozen=True)
class Sinogram:
    """Projection values g(s_j, theta_a) on a (detector offset) x (view angle) grid.

    ``values`` is J x A, for J = ``detector.count`` and the A 1-D
    ``angles``.  The time-sequential sinogram (``project_sequence``) is
    one too: its column p is frame p seen at theta_p = ``angles[p]``.
    """

    values: np.ndarray
    angles: np.ndarray
    detector: DetectorGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        a = np.asarray(self.angles, dtype=np.float64)
        if a.ndim != 1 or v.shape != (self.detector.count, a.size):
            raise ValueError(f"values shape {v.shape} != (detector.count, angles.size) = "
                             f"({self.detector.count}, {a.size}) for angles of shape {a.shape}")
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
    ``t`` is ``pos`` itself, overwritten; ``i`` is 32-bit (every grid
    here has fewer than 2**31 pixels).
    """
    inside = (pos >= 0.0) & (pos <= n - 1)
    # floor(clip(pos)) = clip(floor(pos)), and the cast to an integer rounds
    # a clipped, nonnegative position down
    i = np.clip(pos, 0, max(n - 2, 0)).astype(np.int32)
    pos -= i
    return i, pos, inside


def _ray_samples(cos_t: float, sin_t: float, width: int, pixel_size: float,
                 offsets: np.ndarray):
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
    y = c0 - (offsets[None, :] * sin_t + u[:, None] * cos_t) / h
    base, tr, inside = _linear_weights(y, W)
    x = (offsets[None, :] * cos_t + u[:, None] * (-sin_t)) / h + c0
    k, tk, k_in = _linear_weights(x, W)
    inside &= k_in
    base *= W
    base += k
    return base, tr, tk, inside


def _stencil_reach(pixels: np.ndarray, width: int) -> np.ndarray:
    """Per pixel p of a W x W grid (flat): whether a ray sample's stencil at p meets ``pixels``.

    The stencil at p is p, p + 1, p + W and p + W + 1 (``_view_projector``);
    it is only ever based at a pixel with a right and a lower neighbour.
    """
    step = int(width > 1)
    reach = pixels.copy()
    for shift in {step, step * width, step * (width + 1)} - {0}:
        reach[:-shift] |= pixels[shift:]
    return reach


def _view_projector(cos_t: float, sin_t: float, width: int, pixel_size: float,
                    offsets: np.ndarray, reach: np.ndarray, slots: np.ndarray):
    """One view's projector entries for the ray samples that ``reach`` marks, as flat arrays.

    Ray j integrates the frame along s_j: each of its 2W+1 samples
    (``_ray_samples``) is a bilinear blend of its four neighbouring
    pixels, and the samples add up with weight ``pixel_size / 2``.  Only
    the samples on the grid whose stencil base p has ``reach[p]``
    (``_stencil_reach``) are built; a left-out sample either has weight
    zero or only pixels outside the set that ``reach`` was built from.
    Returns ``(weights, slots, rays)``: ``weights`` and ``slots`` are 4 x n
    (corner, sample), corner c of a sample adding ``weights[c]`` times
    its pixel p, given as ``slots[p]`` (of the type of ``slots``), corners
    in the order (r, k), (r, k+1), (r+1, k), (r+1, k+1); ``rays`` holds
    each sample's ray (32-bit, as ``_tile_blocks`` takes it).  The
    samples keep the C order of the (2W+1) x J sample arrays, so read
    corner by corner the entries of every ray come in one order, whatever
    ``reach`` leaves out.
    """
    base, tr, tk, inside = _ray_samples(cos_t, sin_t, width, pixel_size, offsets)
    inside &= np.take(reach, base, mode="clip")
    picks = np.flatnonzero(inside)
    base, tr, tk = (np.take(values.ravel(), picks, mode="clip") for values in (base, tr, tk))
    weight = 0.5 * pixel_size
    weights = np.empty((4, picks.size))
    below, right_below, above, right_above = weights
    np.multiply(weight, tr, out=above)
    np.subtract(weight, above, out=below)
    np.multiply(below, tk, out=right_below)
    np.multiply(above, tk, out=right_above)
    left = np.subtract(1.0, tk, out=tk)
    below *= left
    above *= left
    corners = np.empty((4, picks.size), slots.dtype)
    step = int(width > 1)  # a one-pixel frame has no neighbour
    for corner, shift in zip(corners, (0, step, step * width, step * (width + 1))):
        # base + shift is a pixel: base is at most W^2 - W - 2
        np.take(slots[shift:], base, out=corner, mode="clip")
    return weights, corners, (picks % offsets.size).astype(np.int32)


def _view_backprojector(cos_t: float, sin_t: float, X: np.ndarray, Y: np.ndarray,
                        detector: DetectorGrid) -> tuple[np.ndarray, np.ndarray]:
    """One view's backprojector as W^2 rows of 2 entries, stored 2 x W^2.

    Returns ``(weights, indices)``: pixel (x, y) reads the filtered
    projection linearly interpolated at ``s = x cos t + y sin t``, that is
    ``weights[0] * p[indices[0]] + weights[1] * p[indices[1]]``, and zero
    beyond the detector ends; ``indices`` are 32-bit.
    """
    J = detector.count
    pos = (X * cos_t + Y * sin_t - detector.offsets[0]) / detector.spacing
    i, t, inside = _linear_weights(pos.ravel(), J)
    weights = np.stack([(1.0 - t) * inside, inside * t])
    indices = np.stack([i, i + int(J > 1)])  # a one-bin detector has no neighbour
    return weights, indices


def _require_coverage(detector: DetectorGrid, width: int, pixel_size: float) -> None:
    if detector.width < width * pixel_size - 1e-12:
        raise CoverageError(f"detector width {detector.width:g} does not cover support "
                            f"diameter {width * pixel_size:g}")


def radon_project(frame: Frame, angles, detector: DetectorGrid) -> Sinogram:
    """Parallel-beam projections of ``frame`` at the given angles.

    Ray-driven line integrals: each ray is sampled at uniform steps of
    ``pixel_size / 2`` over the support chord, with bilinear interpolation
    of the pixel values.  This is ``project_sequence`` with ``frame`` in
    every view, so a column is a weighted sum of the frame's pixels and
    the transform is linear in the frame by construction.

    Raises
    ------
    CoverageError
        If the detector is narrower than the support disk.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    values = project_sequence(itertools.repeat(frame.values, angles.size), frame.pixel_size,
                              angles, detector)
    return Sinogram(values=values, angles=angles, detector=detector)


def project_sequence(frames, pixel_size: float, angles, detector: DetectorGrid) -> np.ndarray:
    """The J x P time-sequential sinogram: column p is frame p projected at ``angles[p]``.

    ``frames`` yields P W x W arrays, already masked to the support disk
    (a ``phantom.MovieFile`` does), in order.  Each view builds only the
    ray samples whose stencil reaches a nonzero pixel of its own frame
    (``_view_projector``), and each ray's entries add in order, starting
    from zero, as in a CSR row product: the sinogram keeps its last bit,
    which matters because the d > K+1 descent grows a 1e-16 change in it
    about 1e4-fold in Z.  A left-out sample adds only zeros, so no sum
    changes.

    Raises
    ------
    CoverageError
        If the detector is narrower than the support disk.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    cos_t, sin_t = _reduced_trig(angles)
    out = np.empty((detector.count, angles.size))
    count = 0
    for values in frames:
        if count == angles.size:
            raise ValueError(f"need one frame per view: more frames than {angles.size} angles")
        W = len(values)
        if count == 0:
            _require_coverage(detector, W, pixel_size)
            pixels = np.arange(W * W, dtype=np.int32)  # each pixel is its own slot
        out[:, count] = _project_view(values.ravel(), cos_t[count], sin_t[count], W, pixel_size,
                                      detector.offsets, pixels)
        count += 1
    if count != angles.size:
        raise ValueError(f"need one frame per view: {count} frames, {angles.size} angles")
    return out


def _project_view(f: np.ndarray, cos_t: float, sin_t: float, width: int, pixel_size: float,
                  offsets: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """The J projections of the flat frame ``f`` at one angle, each ray's entries added in order.

    The view's arrays die at return, before the next view builds its own.
    """
    weights, slots, rays = _view_projector(cos_t, sin_t, width, pixel_size, offsets,
                                           _stencil_reach(f != 0, width), pixels)
    bins = np.broadcast_to(rays, slots.shape).ravel()
    return np.bincount(bins, (f[slots] * weights).ravel(), minlength=offsets.size)


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


@functools.lru_cache(maxsize=4)
def _tiling(width: int) -> tuple[np.ndarray, int]:
    """Tile-major layout of a W x W grid cut into ``_TILE`` x ``_TILE`` tiles.

    Returns ``(slots, tiles)``: pixel i (row-major) is slot ``slots[i]``
    (32-bit) of ``tiles * _TILE**2``, and tile t holds the ``_TILE**2``
    slots from ``t * _TILE**2`` on.  Tiles cut by the grid edge keep
    their missing pixels as empty slots.  ``slots`` is read-only: the layout is built
    once per width and shared by every call, and every chunk that
    ``TiledImages`` copies out.
    """
    n = -(-width // _TILE)
    r = np.arange(width, dtype=np.int32)
    tile = (r[:, None] // _TILE) * n + r[None, :] // _TILE
    local = (r[:, None] % _TILE) * _TILE + r[None, :] % _TILE
    slots = (tile * _TILE**2 + local).ravel()
    slots.flags.writeable = False
    return slots, n * n


def _tile_blocks(bins: np.ndarray, slots: np.ndarray, weights: np.ndarray, tiles: int,
                 J: int) -> tuple[np.ndarray, np.ndarray]:
    """One view's map between J detector bins and the tiled pixels, as dense blocks.

    ``slots`` (32-bit integers) and ``weights`` share one C-contiguous 2-D
    shape, and ``bins`` (32-bit integers) broadcasts to it; entry e (in C
    order) links bin ``bins[e]`` and pixel slot ``slots[e]`` with weight
    ``weights[e]``.  Repeated links add in entry order, and entries of
    weight zero or of a slot past the last tile are dropped.  Returns
    ``(blocks, first)``, ``blocks`` of shape ``tiles x depth x
    _TILE**2``: ``blocks[t, r, l]`` links bin ``first[t] + r`` and slot
    ``t * _TILE**2 + l``.  Every tile's bins lie in ``first[t] ..
    first[t] + depth - 1 <= J - 1``.  A cell number stays below
    tiles * depth * 64 + 1, about 13 W^2, so it fits 32 bits as well.
    """
    bins = np.broadcast_to(bins, weights.shape)
    # ``dropped`` and ``rows`` are built in place: with a per-entry
    # temporary more, a view's arrays passed glibc's trim threshold at
    # W = 128 and went back to the kernel and faulted in every view
    dropped = weights == 0.0
    dropped |= slots >= tiles * _TILE**2
    # a dropped entry goes to tile ``tiles``, a spare row that is never returned
    tile = slots // _TILE**2
    np.copyto(tile, tiles, where=dropped)
    first = np.full(tiles + 1, J - 1, dtype=np.int32)  # as ``bins``: ufunc.at is slow across types
    for tile_row, bins_row in zip(tile, bins):
        np.minimum.at(first, tile_row, bins_row)
    rows = np.take(first, tile, mode="clip")
    np.subtract(bins, rows, out=rows)
    depth = int(rows.max(initial=0, where=~dropped)) + 1
    over = np.maximum(first - (J - depth), 0)  # lower a block that would pass bin J - 1
    over[tiles] = 0
    if over.any():
        first -= over
        np.take(first, tile, out=rows, mode="clip")
        np.subtract(bins, rows, out=rows)
    # slot t * 64 + l goes to cell (t * depth + row) * 64 + l, a dropped entry
    # to the one cell past the last block
    flat = tile
    flat *= depth - 1
    flat += rows
    flat *= _TILE**2
    flat += slots
    np.copyto(flat, tiles * depth * _TILE**2, where=dropped)
    blocks = np.zeros(tiles * depth * _TILE**2 + 1)
    np.add.at(blocks, flat.ravel(), weights.ravel())
    return blocks[:-1].reshape(tiles, depth, _TILE**2), first[:tiles]


def _backproject(filtered_view, acc: np.ndarray, angles: np.ndarray, detector: DetectorGrid,
                 width: int, pixel_size: float) -> None:
    """(pi / A) sum_a B_a F_a over the ramp-filtered J x n blocks F_a, into ``acc``.

    ``filtered_view(a)`` returns F_a, and ``B_a`` is view a's
    backprojector (``_view_backprojector``), built after F_a as tile
    blocks (``_tile_blocks``); each tile of the result adds its block's
    transpose times the tile's rows of F_a, for a run of about
    ``_RUN_VALUES / (64 n)`` tiles per batched product.  The result
    stays tile-major in the zeroed tiles x 64 x n ``acc``, for
    ``TiledImages``.  ``fbp_stack`` and ``project_fbp`` both backproject
    through this loop.
    """
    X, Y = grid_coords(width, pixel_size)
    cos_t, sin_t = _reduced_trig(angles)
    slots, tiles = _tiling(width)
    pixel_slots = np.broadcast_to(slots, (2, slots.size))  # a pixel's two entries
    run = min(tiles, max(1, _RUN_VALUES // acc[0].size))

    def add_view(a):
        # the view's arrays die at return, before the next view builds its own
        block = filtered_view(a)
        weights, indices = _view_backprojector(cos_t[a], sin_t[a], X, Y, detector)
        blocks, first = _tile_blocks(indices, pixel_slots, weights, tiles, detector.count)
        rows = np.add.outer(first, np.arange(blocks.shape[1]))
        blocks = blocks.transpose(0, 2, 1)
        for t in range(0, tiles, run):
            acc[t:t + run] += blocks[t:t + run] @ block[rows[t:t + run]]

    for a in range(angles.size):
        add_view(a)
    acc *= np.pi / angles.size


@dataclass(frozen=True)
class TiledImages:
    """n images on a W x W grid, held tile by tile as ``_backproject`` accumulates them.

    ``acc`` is the tiles x 64 x n accumulator (``_tiling``).  ``chunks``
    copies the images out a few at a time (as many as fit in
    ``_RUN_VALUES`` values, and at least one) and ``images`` all at once,
    both as C-order arrays masked as a ``Frame`` is, with the same
    values; neither changes ``acc``.
    """

    acc: np.ndarray
    width: int

    def __len__(self) -> int:
        return self.acc.shape[-1]

    def chunks(self):
        """The images in order, as n_chunk x W x W arrays (a generator)."""
        W, n = self.width, len(self)
        slots, mask = _tiling(W)[0], support_mask(W).ravel()
        columns = self.acc.reshape(-1, n)
        step = max(1, _RUN_VALUES // W**2)
        for start in range(0, n, step):
            out = np.empty((min(step, n - start), W, W))
            np.multiply(columns[:, start:start + len(out)][slots].T, mask,
                        out=out.reshape(len(out), -1))
            yield out

    def images(self) -> np.ndarray:
        """All n images as one n x W x W array, the ``chunks`` one after another.

        The array is allocated once and filled image by image, so besides
        it only one chunk is held (``np.concatenate`` would hold them all).
        """
        image = np.dtype((np.float64, (self.width, self.width)))
        return np.fromiter(itertools.chain.from_iterable(self.chunks()), image, len(self))


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
    ``width`` and ``pixel_size``.  The stack is a C-order array.  Memory
    is the filtered sinograms and the tile-major accumulator, then the
    accumulator and the stack, plus one view's arrays.

    Raises
    ------
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    _require_two_angles(angles)
    values = np.asarray(sinograms, dtype=float)
    if values.ndim != 3 or values.shape[:2] != (detector.count, angles.size) or not values.size:
        raise ValueError(f"sinograms must be J x A x n = {detector.count} x {angles.size} "
                         f"x n with n >= 1, got shape {values.shape}")
    J, A, n = values.shape
    filtered = (_ramp_matrix(J, detector.spacing) @ values.reshape(J, A * n)).reshape(J, A, n)
    acc = np.zeros((_tiling(width)[1], _TILE**2, n))
    _backproject(lambda a: filtered[:, a], acc, angles, detector, width, pixel_size)
    del filtered
    return TiledImages(acc, width).images()


def project_fbp(frame_chunks, shape, pixel_size: float, angles,
                detector: DetectorGrid) -> TiledImages:
    """``fbp(radon_project(f, angles, detector), W, pixel_size)`` of each of P frames f.

    ``shape`` is (P, W, W), and ``frame_chunks()`` returns a fresh
    iterable of C-order n x W x W arrays that hold the P frames in turn,
    already masked; it is called twice, so the frames may be read back
    from a file instead of held (``phantom.MovieFile``), and a whole
    array is the one chunk of ``lambda: (frames,)``.  Every frame
    meets the same linear map, so the frames are the columns of one
    W^2 x P array, stored tile by tile (``_tiling``), and the views are
    visited one at a time: the view's projector blocks (``_tile_blocks``)
    meet all P frames at once, the J x P block is ramp filtered, and the
    view's backprojector adds it into the W^2 x P result.  No sinogram
    stack, no all-view operator and no frame chunk is held during the
    view loop, so memory stays O(P W^2): the accumulator and the copy of
    the occupied tiles, plus one view's arrays.  The result is the
    accumulator, which ``TiledImages`` copies out a chunk at a time.

    The first pass over the chunks finds the tiles that some frame
    occupies (has a nonzero pixel in), and the second copies only those
    tiles.  The projector visits only them and builds only the ray
    samples whose stencil has a pixel in such a tile (``_view_projector``).
    A skipped tile or sample would add exact zeros, and each occupied
    tile's entries and products add in the same order, so the result is
    the same as projecting every tile; a movie that occupies every tile
    runs the same products.

    Raises
    ------
    CoverageError
        If the detector is narrower than the support disk.
    InsufficientAnglesError
        If fewer than 2 angles are supplied.
    """
    shape = tuple(shape)
    if len(shape) != 3 or shape[1] != shape[2] or math.prod(shape) == 0:
        raise ValueError(f"frames must be a nonempty P x W x W, got shape {shape}")
    P, W = shape[:2]
    _require_coverage(detector, W, pixel_size)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    _require_two_angles(angles)
    J = detector.count
    slots, tiles = _tiling(W)
    tile = slots // _TILE**2
    nonzero = np.zeros(W * W, dtype=bool)
    for chunk in frame_chunks():
        nonzero |= np.any(chunk.reshape(-1, W * W), axis=0)
    occupied = np.zeros(tiles, dtype=bool)
    occupied[tile[nonzero]] = True
    kept = int(occupied.sum())
    # the occupied tiles, renumbered in order, hold slots 0 .. spare - 1;
    # the pixels of the other tiles are zero in every frame and all go to
    # the one spare slot, which is never read
    spare = kept * _TILE**2
    renumbered = np.cumsum(occupied) - 1
    packed = np.where(occupied[tile], renumbered[tile] * _TILE**2 + slots % _TILE**2,
                      spare).astype(np.int32)
    tiled = np.zeros((spare + 1, P))
    p = 0
    for chunk in frame_chunks():
        n = len(chunk)
        tiled[packed, p:p + n] = chunk.reshape(n, W * W).T
        p += n
    if p != P:
        raise ValueError(f"the frame chunks hold {p} frames, not the {P} of shape {shape}")
    chunk = tile = None  # no frames and no per-pixel tile numbers stay through the view loop
    tiled = tiled[:spare].reshape(kept, _TILE**2, P)
    reach = _stencil_reach(packed < spare, W)
    ramp = _ramp_matrix(J, detector.spacing)
    cos_t, sin_t = _reduced_trig(angles)
    offsets = detector.offsets

    def filtered_view(a):
        weights, slots, rays = _view_projector(cos_t[a], sin_t[a], W, pixel_size, offsets, reach,
                                               packed)
        # every corner of a sample links its slot to the sample's ray; the
        # entries of the spare slot, past the last tile, are dropped
        blocks, first = _tile_blocks(rays, slots, weights, kept, J)
        depth = blocks.shape[1]
        sino = np.zeros((J, P))
        for t in range(kept):
            sino[first[t]:first[t] + depth] += blocks[t] @ tiled[t]
        return ramp @ sino

    acc = np.zeros((tiles, _TILE**2, P))
    _backproject(filtered_view, acc, angles, detector, W, pixel_size)
    return TiledImages(acc, W)
