"""Dynamic ellipse phantoms and time-sequential acquisition.

A phantom is a sum of constant-intensity ellipses.  Motion is a global
affine warp built from smooth raised-cosine trajectories (scaling, then
rotation, then translation).  Frames are rendered analytically by
inverse-warping each pixel center, so the ground truth carries no
interpolation error.

A ``Movie`` is one P x W x W array, masked to the support disk once when
it is built; tensor files, ``radon.project_fbp`` and the metrics take it
as it is.  A single image is a ``radon.Frame``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SupportError
from .radon import DetectorGrid, Frame, grid_coords, project_fbp, radon_project, support_masked
from .sampling import AngularScheme

__all__ = [
    "Ellipse",
    "PhantomSpec",
    "MotionSpec",
    "Movie",
    "TimeSequentialSinogram",
    "motion_at",
    "render_frame",
    "render_movie",
    "simulate_acquisition",
    "benchmark_movie",
    "example_phantom",
    "example_motion",
]


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
        for e in self.ellipses:
            if not np.isfinite(e.intensity):
                raise ValueError("ellipse intensities must be finite")

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
        if min(self.scaling) <= -1.0:
            raise ValueError("scaling amplitude must keep scale factors positive")


def motion_at(motion: MotionSpec, t: float):
    """Affine forward map (A, b) at normalized time t in [0, 1].

    A point x of the nominal object moves to A @ x + b, where A composes
    the time-t scaling and rotation (in that order) and b is the time-t
    translation.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must be in [0, 1]")
    s1 = 1.0 + _raised_cosine(motion.scaling[0], t)
    s2 = 1.0 + _raised_cosine(motion.scaling[1], t)
    th = _raised_cosine(motion.rotation, t)
    c, s = np.cos(th), np.sin(th)
    A = np.array([[c, -s], [s, c]]) @ np.diag([s1, s2])
    b = np.array([_raised_cosine(motion.translation[0], t), _raised_cosine(motion.translation[1], t)])
    return A, b


def _check_support(spec: PhantomSpec, A: np.ndarray, b: np.ndarray):
    """Verify every warped ellipse stays inside the support disk."""
    L = spec.support_radius
    for e in spec.ellipses:
        center = A @ np.asarray(e.center, dtype=float) + b
        phi = e.angle
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        M = A @ R @ np.diag(e.semi_axes)
        sigma_max = np.linalg.norm(M, ord=2)
        if np.linalg.norm(center) + sigma_max > L * (1.0 + 1e-12):
            raise SupportError(
                f"ellipse at {e.center} leaves the support disk (extent "
                f"{np.linalg.norm(center) + sigma_max:.4g} > {L:.4g})"
            )


def render_frame(spec: PhantomSpec, motion: MotionSpec, t: float) -> Frame:
    """Analytic rasterization of the warped phantom at time t.

    Each pixel center is pulled back through the inverse affine map and
    tested for containment in the base ellipses; containing intensities
    add up.
    """
    A, b = motion_at(motion, t)
    _check_support(spec, A, b)
    X, Y = grid_coords(spec.width, spec.pixel_size)
    Ainv = np.linalg.inv(A)
    ux = Ainv[0, 0] * (X - b[0]) + Ainv[0, 1] * (Y - b[1])
    uy = Ainv[1, 0] * (X - b[0]) + Ainv[1, 1] * (Y - b[1])
    values = np.zeros_like(X)
    for e in spec.ellipses:
        dx = ux - e.center[0]
        dy = uy - e.center[1]
        c, s = np.cos(e.angle), np.sin(e.angle)
        v1 = (c * dx + s * dy) / e.semi_axes[0]
        v2 = (-s * dx + c * dy) / e.semi_axes[1]
        values += e.intensity * (v1 * v1 + v2 * v2 <= 1.0)
    return Frame(values=values, pixel_size=spec.pixel_size)


@dataclass(frozen=True)
class Movie:
    """P square frames on one grid at uniform, increasing times.

    ``values`` is the P x W x W float64 array of frames, masked to the
    support disk at construction exactly as ``Frame`` masks one image.
    ``times`` defaults to t_p = p / P.
    """

    values: np.ndarray
    times: np.ndarray = None
    pixel_size: float = 1.0

    def __post_init__(self):
        if np.size(self.values) == 0:
            raise ValueError(f"movie is empty, shape {np.shape(self.values)}")
        v = support_masked(self.values, self.pixel_size, ndim=3)
        times = np.asarray(sample_times(len(v)) if self.times is None else self.times, dtype=float)
        if times.shape != (len(v),):
            raise ValueError("need one time per frame")
        if len(v) > 1:
            dt = np.diff(times)
            if np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
                raise ValueError("times must be strictly increasing and uniform")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def width(self) -> int:
        return self.values.shape[1]


def sample_times(P: int) -> np.ndarray:
    """Normalized acquisition times t_p = p / P."""
    return np.arange(P) / float(P)


@dataclass(frozen=True)
class TimeSequentialSinogram:
    """One projection column per time instant: values[j, p] = g(s_j, theta_p, t_p)."""

    values: np.ndarray
    scheme: AngularScheme
    detector: DetectorGrid
    times: np.ndarray = field(default=None)

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
        times = self.times if self.times is not None else sample_times(self.scheme.P)
        object.__setattr__(self, "times", np.asarray(times, dtype=float))

    @property
    def P(self) -> int:
        return self.scheme.P


def render_movie(spec: PhantomSpec, motion: MotionSpec, P: int) -> Movie:
    """Ground-truth movie: analytic frames at t_p = p / P."""
    times = sample_times(P)
    values = np.stack([render_frame(spec, motion, t).values for t in times])
    return Movie(values=values, times=times, pixel_size=spec.pixel_size)


def simulate_acquisition(
    truth: Movie,
    scheme: AngularScheme,
    detector: DetectorGrid,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> TimeSequentialSinogram:
    """Time-sequential acquisition: one view angle theta_p per time t_p.

    Column p is the single-angle projection of the truth frame at t_p;
    the object is treated as static within each sampling instant.
    Optional iid Gaussian noise with standard deviation ``noise_sigma *
    max|g|`` is added, seeded for reproducibility.
    """
    if len(truth) != scheme.P:
        raise ValueError(f"need one frame per view: {len(truth)} frames, P = {scheme.P}")
    columns = np.empty((detector.count, scheme.P))
    for p, (values, theta) in enumerate(zip(truth.values, scheme.angles)):
        frame = Frame(values=values, pixel_size=truth.pixel_size)
        columns[:, p] = radon_project(frame, [theta], detector).values[:, 0]
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        scale = noise_sigma * np.abs(columns).max()
        columns = columns + rng.normal(0.0, scale, size=columns.shape)
    return TimeSequentialSinogram(values=columns, scheme=scheme, detector=detector,
                                  times=truth.times)


def benchmark_movie(
    truth: Movie,
    fbp_angles_count: int = 180,
    detector: DetectorGrid | None = None,
) -> Movie:
    """Accuracy reference: per-frame FBP from a full simultaneous angle set.

    Each truth frame is projected at ``fbp_angles_count`` uniform angles
    in [0, pi) and reconstructed with FBP on its own grid, i.e. the
    reference uses P * fbp_angles_count projections in total.  Every frame
    shares the geometry, so ``project_fbp`` applies each view's projector
    and backprojector to the whole P x W x W array at once.  The detector
    defaults to ``DetectorGrid.for_frame``.
    """
    angles = np.arange(fbp_angles_count) * (np.pi / fbp_angles_count)
    det = detector if detector is not None else DetectorGrid.for_frame(truth)
    return Movie(values=project_fbp(truth.values, truth.pixel_size, angles, det),
                 times=truth.times, pixel_size=truth.pixel_size)


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
