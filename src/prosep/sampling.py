"""View-angle sampling schemes and sample times for time-sequential acquisition.

Frame p of a P-frame acquisition is the object at t_p = p / P
(``sample_times``), seen from one view angle theta_p.  Three schemes are
supported: a progressive sweep, uniform random draws, and the
bit-reversed order, which is defined for every P (at P = 2^m it is the
progressive sweep permuted by bit reversal of the index).  The angular
span is ``pi`` when the half-turn symmetry of parallel-beam projections
is exploited downstream, and ``2*pi`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AngularScheme",
    "progressive",
    "random_scheme",
    "bit_reversed",
    "span_for",
    "sample_times",
]


def _has_repeats(angles: np.ndarray) -> bool:
    """Whether two angles are equal (0.0 and -0.0 are), by one sort.

    ``np.unique`` would do, but in numpy 2.4 it imports ``numpy.ma`` on
    first use, a cost every CLI process would pay.
    """
    return bool(np.any(np.diff(np.sort(angles)) == 0))


@dataclass(frozen=True)
class AngularScheme:
    """An ordered sequence of view angles theta_p in [0, span)."""

    angles: np.ndarray
    span: float
    kind: str

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        object.__setattr__(self, "angles", angles)
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("angles must be a non-empty 1-D array")
        if self.span <= 0:
            raise ValueError("span must be positive")
        if not np.all((angles >= 0) & (angles < self.span)):  # also rejects NaN
            raise ValueError("angles must lie in [0, span)")
        if _has_repeats(angles):
            raise ValueError("angles must be distinct")

    @property
    def P(self) -> int:
        return self.angles.size


def sample_times(P: int) -> np.ndarray:
    """Normalized acquisition times t_p = p / P of the P frames."""
    return np.arange(P) / float(P)


def span_for(symmetric: bool) -> float:
    """Angular span to use: [0, pi) with half-turn symmetry, else [0, 2*pi)."""
    return np.pi if symmetric else 2.0 * np.pi


def progressive(P: int, span: float) -> AngularScheme:
    """Progressive sweep theta_p = p * span / P."""
    if P < 1:
        raise ValueError("P must be >= 1")
    angles = np.arange(P) * (span / P)
    return AngularScheme(angles=angles, span=span, kind="progressive")


def random_scheme(P: int, span: float, seed: int) -> AngularScheme:
    """Angles drawn iid uniform over [0, span), deterministic given seed.

    Exact duplicates (possible in floating point, probability ~0) are
    re-drawn so that all angles are distinct.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, span, size=P)
    while _has_repeats(angles):
        uniq, counts = np.unique(angles, return_counts=True)
        for val in uniq[counts > 1]:
            idx = np.flatnonzero(angles == val)[1:]
            angles[idx] = rng.uniform(0.0, span, size=idx.size)
    return AngularScheme(angles=angles, span=span, kind="random")


def bit_reversed(P: int, span: float) -> AngularScheme:
    """span times the first P terms of the base-2 van der Corput sequence.

    Term p is the radical inverse of p, its binary digits mirrored about
    the point: sum_b bit_b(p) 2^-(b+1).  Every prefix of the sequence is
    spread over [0, 1) with no repeat, so any P >= 1 works; at P = 2^m
    the angles are the progressive sweep's in bit-reversed order.  Each
    term is a dyadic fraction built exactly by doubling the sequence
    (the second half is the first shifted by half its spacing), so the
    angles are span times exact values.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    phi = np.zeros(1)
    while phi.size < P:
        phi = np.concatenate([phi, phi + 0.5 / phi.size])
    return AngularScheme(angles=span * phi[:P], span=span, kind="bit_reversed")
