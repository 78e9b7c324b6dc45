"""Dynamic ellipse phantoms and time-sequential acquisition.

A phantom is a sum of constant-intensity ellipses.  Motion is a global
affine warp built from smooth raised-cosine trajectories (scaling, then
rotation, then translation).  Frames are rendered analytically by
inverse-warping each pixel center, so the ground truth carries no
interpolation error.

Frame p of a P-frame movie or acquisition is the object at t_p = p / P
(``sampling.sample_times``); nothing stores the times, every function
indexes frames by p.  A single image is a ``radon.Frame``.  Ellipse and
motion parameters must be finite real numbers.

Each movie stage has one entry point.  ``render_chunks`` renders the
ground-truth movie a few frames at a time, so a caller can write it
without holding it.  ``simulate_acquisition`` takes one view of each
truth frame, and ``benchmark_movie`` reconstructs every truth frame from
a full angle set (``radon.project_fbp``) and leaves the result tile by
tile (``radon.TiledImages``), to be copied out a chunk at a time.  Both
take the truth as a ``Movie`` or a ``MovieFile``, through the length,
the frame iteration and the ``chunks`` that both have.  A ``MovieFile``
is a movie kept in a tensor file: it holds the path and the shape from
the header, and reads the frames back a chunk at a time
(``tensorio.read_chunks``), masking and checking each chunk as a
``Movie`` is masked and checked; ``cli`` passes one for the truth it
has written.  A ``Movie`` is one P x W x W array in memory, a masked
copy of the array it is given.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ProsepError, SupportError
from .radon import (
    DetectorGrid,
    Frame,
    TiledImages,
    grid_coords,
    project_fbp,
    project_sequence,
    support_masked,
)
from .sampling import AngularScheme, sample_times
from .tensorio import read_chunks, tensor_shape

__all__ = [
    "Ellipse",
    "PhantomSpec",
    "MotionSpec",
    "Movie",
    "MovieFile",
    "TimeSequentialSinogram",
    "motion_at",
    "render_frame",
    "render_chunks",
    "simulate_acquisition",
    "benchmark_movie",
    "example_phantom",
    "example_motion",
]


def _require_finite_reals(what: str, values) -> None:
    # abs(v) <= max is false for NaN, the infinities and integers too large for a float
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in values):
        raise ValueError(f"{what} must be finite real numbers, got {tuple(values)!r}")


@dataclass(frozen=True)
class Ellipse:
    """Constant-intensity ellipse: center, semi-axes, tilt angle, additive value."""

    center: tuple
    semi_axes: tuple
    angle: float = 0.0
    intensity: float = 1.0

    def __post_init__(self):
        if len(self.center) != 2 or len(self.semi_axes) != 2:
            raise ValueError("center and semi_axes must be length-2")
        _require_finite_reals("ellipse center, semi-axes, angle and intensity",
                              (*self.center, *self.semi_axes, self.angle, self.intensity))
        if min(self.semi_axes) <= 0:
            raise ValueError("semi-axes must be positive")


@dataclass(frozen=True)
class PhantomSpec:
    """Base ellipses plus the pixel grid they are rendered on."""

    ellipses: tuple
    width: int
    pixel_size: float

    def __post_init__(self):
        object.__setattr__(self, "ellipses", tuple(self.ellipses))
        if self.width < 2 or self.pixel_size <= 0:
            raise ValueError("invalid grid")

    @property
    def support_radius(self) -> float:
        return 0.5 * self.width * self.pixel_size


def _raised_cosine(amplitude: float, t) -> np.ndarray:
    """Smooth profile amplitude * (1 - cos(2 pi t)) / 2, zero at t = 0."""
    return amplitude * 0.5 * (1.0 - np.cos(2.0 * np.pi * np.asarray(t, dtype=float)))


@dataclass(frozen=True)
class MotionSpec:
    """Raised-cosine affine motion: scaling, then rotation, then translation.

    ``translation`` and ``scaling`` hold per-axis amplitudes; ``rotation``
    the peak angle in radians.  Scale factors are 1 + amplitude * profile
    and must stay positive.
    """

    translation: tuple = (0.0, 0.0)
    rotation: float = 0.0
    scaling: tuple = (0.0, 0.0)

    def __post_init__(self):
        if len(self.translation) != 2 or len(self.scaling) != 2:
            raise ValueError("translation and scaling must be length-2")
        _require_finite_reals("translation, rotation and scaling",
                              (*self.translation, self.rotation, *self.scaling))
        if min(self.scaling) <= -1.0:
            raise ValueError("scaling amplitude must keep scale factors positive")


def motion_at(motion: MotionSpec, t):
    """Affine forward map (A, b) at normalized time t in [0, 1].

    A point x of the nominal object moves to A @ x + b, where A composes
    the time-t scaling and rotation (in that order) and b is the time-t
    translation.  For an array of times, A and b gain its shape in front
    (... x 2 x 2 and ... x 2); each entry is computed as for a single t.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError("t must be in [0, 1]")
    s1 = 1.0 + _raised_cosine(motion.scaling[0], t)
    s2 = 1.0 + _raised_cosine(motion.scaling[1], t)
    th = _raised_cosine(motion.rotation, t)
    c, s = np.cos(th), np.sin(th)
    rotation = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    scale = np.zeros(rotation.shape)
    scale[..., 0, 0], scale[..., 1, 1] = s1, s2
    A = rotation @ scale
    b = np.stack([_raised_cosine(motion.translation[0], t),
                  _raised_cosine(motion.translation[1], t)], axis=-1)
    return A, b


def _check_support(spec: PhantomSpec, A: np.ndarray, b: np.ndarray):
    """Verify every warped ellipse stays inside the support disk at every time.

    ``A`` and ``b`` are the n x 2 x 2 and n x 2 motions of n times; the
    first ellipse to leave, earliest time first, is reported.
    """
    L = spec.support_radius
    extents = []
    for e in spec.ellipses:
        center = A @ np.asarray(e.center, dtype=float) + b
        phi = e.angle
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        M = A @ R @ np.diag(e.semi_axes)
        extents.append(np.linalg.norm(center, axis=-1) + np.linalg.norm(M, ord=2, axis=(-2, -1)))
    extent = np.stack(extents, axis=-1)  # time x ellipse
    leaving = np.argwhere(extent > L * (1.0 + 1e-12))
    if leaving.size:
        p, i = leaving[0]
        raise SupportError(
            f"ellipse at {spec.ellipses[i].center} leaves the support disk (extent "
            f"{extent[p, i]:.4g} > {L:.4g})"
        )


# pixel values per rendering chunk: the chunk's six float64 scratch arrays
# (128 KiB each) stay small next to the movie
_RENDER_VALUES = 1 << 14


def _render(spec: PhantomSpec, motion: MotionSpec, times: np.ndarray):
    """Analytic rasterization of the warped phantom at ``times``, unmasked, in chunks.

    Each pixel center is pulled back through the inverse affine map and
    tested for containment in the base ellipses; containing intensities
    add up.  The motions are checked (``_check_support``) and inverted
    for all times at once, before this returns; the returned generator
    then renders ``_RENDER_VALUES`` pixels at a time, a few frames per
    chunk, through scratch arrays allocated once, and yields each chunk
    as a new array.
    """
    A, b = motion_at(motion, times)
    _check_support(spec, A, b)
    return _rasterize(spec, np.linalg.inv(A)[:, :, :, None, None], b[:, :, None, None])


def _rasterize(spec: PhantomSpec, Ainv: np.ndarray, b: np.ndarray):
    """The chunks of ``_render``, from the inverted motions (``Ainv``, ``b``) of its times."""
    X, Y = grid_coords(spec.width, spec.pixel_size)
    chunk = max(1, _RENDER_VALUES // X.size)
    scratch = np.empty((6, min(chunk, len(b)), *X.shape))
    contained = np.empty(scratch.shape[1:], dtype=bool)
    for p in range(0, len(b), chunk):
        q = min(p + chunk, len(b))
        x, y, ux, uy, t1, t2 = scratch[:, :q - p]
        inside, values = contained[:q - p], np.zeros((q - p, *X.shape))
        np.subtract(X, b[p:q, 0], out=x)
        np.subtract(Y, b[p:q, 1], out=y)
        np.multiply(x, Ainv[p:q, 0, 0], out=ux)
        ux += np.multiply(y, Ainv[p:q, 0, 1], out=t1)
        np.multiply(x, Ainv[p:q, 1, 0], out=uy)
        uy += np.multiply(y, Ainv[p:q, 1, 1], out=t1)
        for e in spec.ellipses:
            dx = np.subtract(ux, e.center[0], out=x)
            dy = np.subtract(uy, e.center[1], out=y)
            c, s = np.cos(e.angle), np.sin(e.angle)
            v1 = np.multiply(dx, c, out=t1)  # (c dx + s dy) / a
            v1 += np.multiply(dy, s, out=t2)
            v1 /= e.semi_axes[0]
            v1 *= v1
            v2 = np.multiply(dx, -s, out=t2)  # (-s dx + c dy) / b
            v2 += np.multiply(dy, c, out=dx)
            v2 /= e.semi_axes[1]
            v2 *= v2
            v1 += v2
            np.less_equal(v1, 1.0, out=inside)
            values += np.multiply(inside, e.intensity, out=t1)
        yield values


def render_frame(spec: PhantomSpec, motion: MotionSpec, t: float) -> Frame:
    """Analytic rasterization of the warped phantom at time t, as ``render_chunks`` renders it."""
    values = next(_render(spec, motion, np.array([t], dtype=float)))
    return Frame(values=values[0], pixel_size=spec.pixel_size)


@dataclass(frozen=True)
class Movie:
    """P square frames on one grid, frame p at t_p = p / P.

    ``values`` is the P x W x W float64 array of frames, a copy of the
    given array masked to the support disk exactly as ``Frame`` masks
    one image.
    """

    values: np.ndarray
    pixel_size: float = 1.0

    def __post_init__(self):
        _check_movie_shape(np.shape(self.values))
        object.__setattr__(self, "values", support_masked(self.values, ndim=3))
        if self.pixel_size <= 0:
            raise ValueError("pixel_size must be positive")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        """The frames in order, each a W x W view of ``values``."""
        return iter(self.values)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def chunks(self):
        """The frames as C-order chunks of consecutive frames: here one chunk, ``values``."""
        return iter((self.values,))


def _check_movie_shape(shape: tuple) -> None:
    """A movie is a nonempty P x W x W array; the messages are those of ``Movie``."""
    if math.prod(shape) == 0:
        raise ValueError(f"movie is empty, shape {shape}")
    if len(shape) != 3 or shape[1] != shape[2]:
        raise ValueError(f"frame must be square: expected P x W x W, got shape {shape}")


@dataclass(frozen=True)
class MovieFile:
    """A movie in a tensor file, read back a chunk of frames at a time.

    The shape comes from the file's header when the ``MovieFile`` is
    made, before any payload is read; ``chunks`` reads the frames in
    C-order chunks of ``tensorio.CHUNK_VALUES`` values, each masked in
    place and checked as ``Movie`` masks and checks its array.  A file
    that is not a movie tensor is a ``ProsepError`` that names the path;
    one whose header or payload length is broken is the reader's
    ``TensorFormatError``, which names it too.
    """

    path: str
    pixel_size: float = 1.0
    shape: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "path", os.fspath(self.path))
        object.__setattr__(self, "shape", tensor_shape(self.path))
        try:
            _check_movie_shape(self.shape)
        except ValueError as e:
            raise self._not_a_movie(e) from None
        if self.pixel_size <= 0:
            raise ValueError("pixel_size must be positive")

    def _not_a_movie(self, e: ValueError) -> ProsepError:
        return ProsepError(f"{self.path}: not a movie tensor: {e}")

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        """The frames in order, each a W x W view of its chunk."""
        for chunk in self.chunks():
            yield from chunk

    @property
    def width(self) -> int:
        return self.shape[1]

    def chunks(self):
        """The frames as masked C-order chunks of consecutive frames, read from the file."""
        for chunk in read_chunks(self.path):
            try:
                support_masked(chunk, ndim=3, copy=False)
            except ValueError as e:
                raise self._not_a_movie(e) from None
            yield chunk


@dataclass(frozen=True)
class TimeSequentialSinogram:
    """One projection column per time instant: values[j, p] = g(s_j, theta_p, t_p)."""

    values: np.ndarray
    scheme: AngularScheme
    detector: DetectorGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise ValueError("values must be J x P")
        if v.shape != (self.detector.count, self.scheme.P):
            raise ValueError(
                f"values shape {v.shape} != (J={self.detector.count}, P={self.scheme.P})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("sinogram values must be finite")

    @property
    def P(self) -> int:
        return self.scheme.P


def render_chunks(spec: PhantomSpec, motion: MotionSpec, P: int):
    """Ground-truth movie: analytic frames at t_p = p / P, as chunks of a few frames.

    Each chunk is masked as a ``Movie`` is.  The motion is checked for
    all P times before this returns; the frames are rendered as the
    returned generator is read, so the movie is never held whole
    (``cli`` writes it straight to its tensor file).
    """
    chunks = _render(spec, motion, sample_times(P))
    return (support_masked(chunk, ndim=3, copy=False) for chunk in chunks)


def simulate_acquisition(
    truth: Movie | MovieFile,
    scheme: AngularScheme,
    detector: DetectorGrid,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> TimeSequentialSinogram:
    """Time-sequential acquisition: one view angle theta_p per time t_p.

    Column p is the single-angle projection of the truth frame at t_p
    (``radon.project_sequence``); the object is treated as static within
    each sampling instant.  The frames are visited in order, so a
    ``MovieFile`` truth is read once, a chunk at a time.  Optional iid Gaussian noise with standard
    deviation ``noise_sigma * max|g|`` is added last, seeded for
    reproducibility.
    """
    if len(truth) != scheme.P:
        raise ValueError(f"need one frame per view: {len(truth)} frames, P = {scheme.P}")
    columns = project_sequence(truth, truth.pixel_size, scheme.angles, detector)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        scale = noise_sigma * np.abs(columns).max()
        columns = columns + rng.normal(0.0, scale, size=columns.shape)
    return TimeSequentialSinogram(values=columns, scheme=scheme, detector=detector)


def benchmark_movie(
    truth: Movie | MovieFile,
    fbp_angles_count: int,
    detector: DetectorGrid,
) -> TiledImages:
    """Accuracy reference: per-frame FBP from a full simultaneous angle set, tile by tile.

    Each truth frame is projected at ``fbp_angles_count`` uniform angles
    in [0, pi) and reconstructed with FBP on its own grid, i.e. the
    reference uses P * fbp_angles_count projections in total.  Every
    frame shares the geometry, so ``radon.project_fbp`` applies each
    view's projector and backprojector to all P frames at once; it reads
    the truth's chunks twice and holds none of them during its view
    loop.  ``TiledImages.chunks`` of the result gives the frames a few at
    a time, and ``TiledImages.images`` all at once.
    """
    angles = np.arange(fbp_angles_count) * (np.pi / fbp_angles_count)
    return project_fbp(truth.chunks, truth.shape, truth.pixel_size, angles, detector)


def example_phantom(width: int = 64, support_diameter: float = 2.0) -> PhantomSpec:
    """Default test object: four ellipses well inside the support disk."""
    r = support_diameter / 2.0
    ells = (
        Ellipse(center=(0.0, 0.0), semi_axes=(0.58 * r, 0.50 * r), angle=0.35, intensity=1.0),
        Ellipse(center=(0.20 * r, 0.12 * r), semi_axes=(0.16 * r, 0.11 * r), angle=-0.5, intensity=0.6),
        Ellipse(center=(-0.25 * r, -0.15 * r), semi_axes=(0.12 * r, 0.18 * r), angle=0.9, intensity=-0.4),
        Ellipse(center=(-0.04 * r, 0.26 * r), semi_axes=(0.09 * r, 0.07 * r), angle=0.0, intensity=0.8),
    )
    return PhantomSpec(ellipses=ells, width=width, pixel_size=support_diameter / width)


def example_motion(width: int = 64, support_diameter: float = 2.0) -> MotionSpec:
    """Default smooth motion: ~3 px translation, pi/16 rotation, mild scaling."""
    px = support_diameter / width
    return MotionSpec(
        translation=(2.2 * px, -2.0 * px),
        rotation=np.pi / 16.0,
        scaling=(0.05, -0.04),
    )
