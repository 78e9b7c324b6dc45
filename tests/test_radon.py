import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import area_disk, fbp_loop, indicator_disk, project_loop, random_masked_frame
from prosep.errors import CoverageError, InsufficientAnglesError
from prosep.radon import (
    DetectorGrid,
    Frame,
    Sinogram,
    TiledImages,
    _occupied_projector,
    _reduced_trig,
    _stencil_reach,
    _tiling,
    _view_projector,
    _Workspace,
    fbp,
    fbp_stack,
    project_fbp,
    project_sequence,
    radon_project,
    support_mask,
)
from prosep.recon import psnr


def test_frame_masked_to_support_disk():
    W = 32
    f = Frame(values=np.ones((W, W)), pixel_size=1.0)
    # corners lie outside the inscribed disk and must be zeroed
    assert f.values[0, 0] == 0.0
    assert f.values[W // 2, W // 2] == 1.0


def test_frame_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        Frame(values=np.ones((4, 5)))
    bad = np.ones((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Frame(values=bad)


def test_detector_offsets_symmetric():
    for J in (64, 65):
        det = DetectorGrid(count=J, spacing=0.03)
        assert np.array_equal(-det.offsets[::-1], det.offsets)


def test_unit_disk_chord_value():
    W = 256
    f = indicator_disk(W, 2.0 / W, radius=1.0)
    det = DetectorGrid.for_frame(f)
    g = radon_project(f, [0.3], det)
    j0 = np.argmin(np.abs(det.offsets))  # s = 0 bin
    assert g.values[j0, 0] == pytest.approx(2.0, rel=2e-2)
    # general chord length at another offset
    j = np.argmin(np.abs(det.offsets - 0.5))
    assert g.values[j, 0] == pytest.approx(2 * np.sqrt(1 - det.offsets[j] ** 2), rel=2e-2)


def test_zero_frame_projects_to_zero():
    f = Frame(values=np.zeros((32, 32)), pixel_size=1 / 16)
    det = DetectorGrid.for_frame(f)
    g = radon_project(f, np.linspace(0, np.pi, 7), det)
    assert np.all(g.values == 0.0)


def test_superposition_of_two_disks(rng):
    W = 96
    h = 2.0 / W
    a = indicator_disk(W, h, radius=0.3, center=(0.35, 0.1))
    b = indicator_disk(W, h, radius=0.25, center=(-0.3, -0.2))
    both = Frame(values=a.values + b.values, pixel_size=h)
    det = DetectorGrid.for_frame(both)
    angles = rng.uniform(0, 2 * np.pi, 5)
    g_sum = radon_project(a, angles, det).values + radon_project(b, angles, det).values
    g_both = radon_project(both, angles, det).values
    assert np.allclose(g_both, g_sum, rtol=1e-12, atol=1e-12 * np.abs(g_sum).max())


def test_linearity(rng):
    f1 = random_masked_frame(rng)
    f2 = random_masked_frame(rng)
    comb = Frame(values=2.5 * f1.values - 1.25 * f2.values, pixel_size=f1.pixel_size)
    det = DetectorGrid.for_frame(f1)
    angles = [0.2, 1.9, 4.0]
    lhs = radon_project(comb, angles, det).values
    rhs = (2.5 * radon_project(f1, angles, det).values
           - 1.25 * radon_project(f2, angles, det).values)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())


def test_flip_symmetry(rng):
    """g(-s, theta) == g(s, theta + pi) for arbitrary frames and angles."""
    f = random_masked_frame(rng, width=64)
    det = DetectorGrid.for_frame(f)
    thetas = rng.uniform(0, 2 * np.pi, 6)
    g = radon_project(f, np.concatenate([thetas, thetas + np.pi]), det)
    direct = g.values[:, : len(thetas)]
    flipped = g.values[::-1, len(thetas):]
    scale = np.abs(direct).max()
    assert np.allclose(flipped, direct, rtol=0, atol=1e-12 * scale)


def test_mass_conservation_across_angles(rng):
    """Total projected mass is angle-independent up to quadrature error.

    The ray-driven quadrature makes the projected mass angle-dependent at
    the 1e-4 relative level; exact conservation would need an
    area-weighted (pixel-driven) projector.
    """
    f = indicator_disk(96, 2.0 / 96, radius=0.55, center=(0.2, -0.1))
    det = DetectorGrid.for_frame(f)
    angles = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    g = radon_project(f, angles, det)
    mass = g.values.sum(axis=0) * det.spacing
    assert (mass.max() - mass.min()) / mass.mean() < 1e-3


def test_coverage_error():
    f = indicator_disk(64, 2.0 / 64, radius=0.5)
    with pytest.raises(CoverageError):
        radon_project(f, [0.0], DetectorGrid(count=16, spacing=f.pixel_size))


def test_fbp_requires_two_angles():
    f = indicator_disk(32, 2.0 / 32, radius=0.5)
    det = DetectorGrid.for_frame(f)
    g = radon_project(f, [0.1], det)
    with pytest.raises(InsufficientAnglesError):
        fbp(g, width=f.width, pixel_size=f.pixel_size)


def test_fbp_zero_sinogram_is_zero_frame():
    det = DetectorGrid(count=65, spacing=1 / 32)
    g = Sinogram(values=np.zeros((65, 12)), angles=np.linspace(0, np.pi, 12, endpoint=False),
                 detector=det)
    assert np.all(fbp(g, width=64, pixel_size=1 / 32).values == 0.0)


def test_fbp_disk_quality_against_analytic_reference():
    """FBP of the analytic chord-length sinogram vs the area-rasterized disk."""
    W = 128
    h = 2.0 / W
    det = DetectorGrid(count=W + 1, spacing=h)
    angles = np.arange(180) * np.pi / 180
    chord = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - det.offsets**2))
    sino = Sinogram(values=np.tile(chord[:, None], (1, 180)), angles=angles, detector=det)
    rec = fbp(sino, width=W, pixel_size=h)
    ref = area_disk(W, h, radius=1.0)
    assert psnr(rec.values, ref.values, peak=1.0) >= 28.0


def test_fbp_roundtrip_improves_with_angle_count():
    W = 128
    h = 2.0 / W
    f = area_disk(W, h, radius=0.6, center=(0.1, -0.15))
    det = DetectorGrid.for_frame(f)
    scores = []
    for A in (45, 90, 180):
        angles = np.arange(A) * np.pi / A
        rec = fbp(radon_project(f, angles, det), width=W, pixel_size=h)
        scores.append(psnr(rec.values, f.values, peak=f.values.max()))
    assert scores[0] < scores[1] < scores[2]


def test_fbp_deterministic():
    W = 64
    f = indicator_disk(W, 2.0 / W, radius=0.5, center=(0.1, 0.0))
    det = DetectorGrid.for_frame(f)
    angles = np.arange(90) * np.pi / 90
    g = radon_project(f, angles, det)
    r1 = fbp(g, width=W, pixel_size=f.pixel_size)
    r2 = fbp(g, width=W, pixel_size=f.pixel_size)
    assert np.array_equal(r1.values, r2.values)


def _projection_energy(frame, angle):
    """(sum_j |Rf(s_j, angle)|^2 * spacing, 2 * L * ||f||^2) for one angle."""
    det = DetectorGrid.for_frame(frame)
    g = radon_project(frame, [angle], det).values[:, 0]
    return float(np.sum(g**2)) * det.spacing, 2.0 * frame.support_radius * frame.norm2_sq()


def test_energy_check_zero_frame():
    f = Frame(values=np.zeros((32, 32)), pixel_size=1 / 16)
    lhs, rhs = _projection_energy(f, 0.7)
    assert lhs == 0.0 and rhs == 0.0


def test_energy_check_unit_disk_closed_form():
    """lhs -> int (2 sqrt(1-s^2))^2 ds = 16/3; rhs -> 2 * L * pi = 2 pi."""
    W = 256
    f = indicator_disk(W, 2.0 / W, radius=1.0)
    lhs, rhs = _projection_energy(f, 1.1)
    assert lhs == pytest.approx(16.0 / 3.0, rel=1e-2)
    assert rhs == pytest.approx(2.0 * np.pi, rel=1e-2)
    assert lhs <= rhs


# ---------------------------------------------------------------- loop oracles

# (width, detector count, detector spacing / pixel size): odd and even widths,
# the frame-matched detector and wider ones with a different spacing, and the
# degenerate one-pixel frame with a one-bin detector and two-pixel frame
GEOMETRIES = [(1, 1, 1.0), (2, 3, 1.0), (31, 32, 1.0), (32, 33, 1.0), (33, 40, 1.37),
              (24, 60, 0.55)]


def oracle_angles(rng):
    """Angles in [0, 2 pi): random pairs theta, theta + pi and the axis directions."""
    theta = rng.uniform(0, np.pi, 5)
    return np.concatenate([theta, theta + np.pi, np.arange(4) * (np.pi / 2)])


def rel_err(x, ref):
    return np.abs(x - ref).max() / max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize("W, J, ratio", GEOMETRIES)
def test_projector_matches_map_coordinates_loop(rng, W, J, ratio):
    f = random_masked_frame(rng, width=W)
    det = DetectorGrid(count=J, spacing=ratio * f.pixel_size)
    angles = oracle_angles(rng)
    assert rel_err(radon_project(f, angles, det).values, project_loop(f, angles, det)) < 1e-12
    single = radon_project(f, angles[:1], det).values
    assert single.shape == (J, 1)
    assert rel_err(single, project_loop(f, angles[:1], det)) < 1e-12


@pytest.mark.parametrize("W, J, ratio", GEOMETRIES)
def test_fbp_matches_interp_loop(rng, W, J, ratio):
    h = 2.0 / W
    det = DetectorGrid(count=J, spacing=ratio * h)
    angles = oracle_angles(rng)
    sino = Sinogram(values=rng.standard_normal((J, angles.size)), angles=angles, detector=det)
    for width, pixel in ((J, det.spacing), (W, h), (W + 3, 0.9 * h)):
        out = fbp(sino, width=width, pixel_size=pixel)
        assert out.width == width and out.pixel_size == pixel
        ref = fbp_loop(sino, width, pixel) * support_mask(width)
        assert rel_err(out.values, ref) < 1e-12


@pytest.mark.parametrize("W, J, ratio", GEOMETRIES)
def test_fbp_stack_matches_interp_loop_per_sinogram(rng, W, J, ratio):
    h = 2.0 / W
    det = DetectorGrid(count=J, spacing=ratio * h)
    angles = oracle_angles(rng)
    stack = rng.standard_normal((J, angles.size, 3))
    for width, pixel in ((J, det.spacing), (W + 3, 0.9 * h)):
        outs = fbp_stack(stack, angles, det, width=width, pixel_size=pixel)
        assert outs.shape == (3, width, width)
        for k, out in enumerate(outs):
            sino = Sinogram(values=stack[:, :, k], angles=angles, detector=det)
            ref = fbp_loop(sino, width, pixel) * support_mask(width)
            assert rel_err(out, ref) < 1e-12


def test_fbp_stack_rejects_mismatched_shapes_and_one_angle(rng):
    det = DetectorGrid(count=9, spacing=0.25)
    with pytest.raises(ValueError, match="J x A x n"):
        fbp_stack(rng.standard_normal((9, 4)), np.arange(4.0), det, 8, 0.25)
    with pytest.raises(ValueError, match="J x A x n"):
        fbp_stack(rng.standard_normal((9, 5, 2)), np.arange(4.0), det, 8, 0.25)
    with pytest.raises(InsufficientAnglesError):
        fbp_stack(rng.standard_normal((9, 1, 2)), [0.0], det, 8, 0.25)


@pytest.mark.parametrize("W, J, ratio", GEOMETRIES)
def test_project_fbp_equals_per_frame_fbp_of_projections(rng, W, J, ratio):
    frames = [random_masked_frame(rng, width=W) for _ in range(3)]
    h = frames[0].pixel_size
    det = DetectorGrid(count=J, spacing=ratio * h)
    angles = oracle_angles(rng)
    stack = np.stack([f.values for f in frames])
    batch = project_fbp(lambda: (stack,), stack.shape, h, angles, det).images()
    assert batch.shape == (3, W, W)
    for f, out in zip(frames, batch):
        ref = fbp(radon_project(f, angles, det), width=W, pixel_size=h)
        assert rel_err(out, ref.values) < 1e-12


def test_project_fbp_peak_memory_in_movie_sizes(rng):
    """On the symm-d4-w64 grid (P = 128, W = 64) project_fbp allocates under 3 movies.

    Its tile-major input and accumulator are one movie each, and the
    tiled input is released before the result is gathered (measured 2.67
    movies, most of the rest the per-view workspace).
    """
    P, W = 128, 64
    frames = rng.standard_normal((P, W, W))
    det = DetectorGrid(count=W + 1, spacing=1.0)
    angles = np.linspace(0.0, np.pi, P, endpoint=False)
    tracemalloc.start()
    try:
        project_fbp(lambda: (frames,), frames.shape, 1.0, angles, det).images()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * frames.nbytes, peak / frames.nbytes


def partly_occupied(rng, P, W, windows):
    """P masked frames, zero except where ``windows`` put random values.

    Each window is ``(frames, rows, cols)``, three slices.
    """
    frames = np.zeros((P, W, W))
    for f, r, c in windows:
        frames[f, r, c] = rng.standard_normal(frames[f, r, c].shape)
    return frames * support_mask(W)


# (W, windows): a blob in one corner of the disk; a tile that only frame 1
# occupies; W = 33, whose last row and column of tiles the grid edge cuts
# to one pixel, with the blob in them
PARTLY_OCCUPIED = {
    "corner": (64, [(slice(None), slice(8, 20), slice(9, 18))]),
    "one-frame-tile": (32, [(slice(None), slice(12, 20), slice(12, 20)),
                            (1, slice(3, 6), slice(20, 23))]),
    "edge-cut-tiles": (33, [(slice(None), slice(24, 33), slice(12, 33))]),
}


@pytest.mark.parametrize("case", PARTLY_OCCUPIED)
def test_project_fbp_of_partly_occupied_movies_equals_per_frame_fbp(rng, case):
    W, windows = PARTLY_OCCUPIED[case]
    frames = partly_occupied(rng, 3, W, windows)
    h = 2.0 / W
    angles = oracle_angles(rng)
    for det in (DetectorGrid(count=W + 1, spacing=h), DetectorGrid(count=W + 7, spacing=1.37 * h)):
        batch = project_fbp(lambda: (frames,), frames.shape, h, angles, det).images()
        for values, out in zip(frames, batch):
            f = Frame(values=values, pixel_size=h)
            ref = fbp(radon_project(f, angles, det), width=W, pixel_size=h)
            assert rel_err(out, ref.values) < 1e-12


def test_project_fbp_of_uneven_chunks_equals_one_chunk(rng):
    """Frames that arrive in uneven chunks give the one-chunk result byte for byte.

    The chunks (4, 1, 6 and 2 frames) cut the frames at different
    columns of the tile-major copy; chunks that hold fewer frames than
    the shape says are a ValueError.
    """
    W = 33
    frames = partly_occupied(rng, 13, W, [(slice(None), slice(4, 30), slice(6, 27))])
    h = 2.0 / W
    det, angles = DetectorGrid(count=W + 3, spacing=1.1 * h), oracle_angles(rng)
    whole = project_fbp(lambda: (frames,), frames.shape, h, angles, det)
    bounds = [(0, 4), (4, 5), (5, 11), (11, 13)]
    split = project_fbp(lambda: (frames[p:q] for p, q in bounds), frames.shape, h, angles, det)
    assert split.acc.tobytes() == whole.acc.tobytes()
    assert split.images().tobytes() == whole.images().tobytes()
    with pytest.raises(ValueError, match="the frame chunks hold 11 frames, not the 13"):
        project_fbp(lambda: (frames[p:q] for p, q in bounds[:3]), frames.shape, h, angles, det)


def test_project_fbp_of_a_zero_movie_is_zero(rng):
    W = 33
    det = DetectorGrid(count=W + 1, spacing=1.0)
    zeros = np.zeros((4, W, W))
    out = project_fbp(lambda: (zeros,), zeros.shape, 1.0, oracle_angles(rng), det).images()
    assert out.shape == (4, W, W) and np.all(out == 0.0)


def test_batched_results_are_c_order_and_equal_the_row_gather(rng):
    """``project_fbp``'s images and ``fbp_stack`` are C-contiguous stacks.

    Their values equal, bit for bit, the images gathered row-wise from
    the tile-major accumulator and masked, as an untiled copy would be.
    """
    for W in (1, 2, 31, 33, 64):
        slots, tiles = _tiling(W)
        acc = rng.standard_normal((tiles, 64, 5))
        gathered = acc.reshape(-1, 5)[slots] * support_mask(W).reshape(-1, 1)
        out = TiledImages(acc, W).images()
        assert out.flags.c_contiguous
        assert np.array_equal(out, gathered.T.reshape(5, W, W))
    frames = np.stack([random_masked_frame(rng, width=33).values for _ in range(3)])
    det = DetectorGrid(count=34, spacing=2.0 / 33)
    angles = oracle_angles(rng)
    batch = project_fbp(lambda: (frames,), frames.shape, 2.0 / 33, angles, det)
    assert batch.images().flags.c_contiguous
    sinograms = rng.standard_normal((34, angles.size, 3))
    assert fbp_stack(sinograms, angles, det, 33, 2.0 / 33).flags.c_contiguous


def test_project_fbp_peak_memory_of_a_quarter_occupied_movie(rng):
    """At P = 128, W = 64 with 16 of the 64 tiles occupied, under 2.3 movies.

    Only the occupied tiles are copied (a quarter of a movie); the
    accumulator and the result are a movie each (measured 2.07 movies).
    """
    P, W = 128, 64
    frames = partly_occupied(rng, P, W, [(slice(None), slice(16, 48), slice(16, 48))])
    det = DetectorGrid(count=W + 1, spacing=1.0)
    angles = np.linspace(0.0, np.pi, P, endpoint=False)
    tracemalloc.start()
    try:
        project_fbp(lambda: (frames,), frames.shape, 1.0, angles, det).images()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * frames.nbytes, peak / frames.nbytes


@pytest.mark.parametrize("occupied", ["all", "quarter"])
def test_project_fbp_and_fbp_stack_peak_memory_by_part(rng, occupied):
    """Each batched call holds its result, its accumulator and its input copy, plus O(W^2).

    ``project_fbp`` (P = 128, W = 64) holds the accumulator with either
    the copy of the occupied tiles or the result, and ``fbp_stack`` the
    filtered sinograms; the per-view arrays come from one workspace,
    allocated once per call, with 32-bit indices and the backprojector's
    arrays in the projector's memory: measured 75 (``project_fbp``, 101
    with 64-bit indices and separate arrays) and 37 (``fbp_stack``)
    float64 per pixel.
    """
    P, W = 128, 64
    windows = [(slice(None), slice(None), slice(None))] if occupied == "all" else \
        [(slice(None), slice(16, 48), slice(16, 48))]
    frames = partly_occupied(rng, P, W, windows)
    det = DetectorGrid(count=W + 1, spacing=1.0)
    angles = np.linspace(0.0, np.pi, P, endpoint=False)
    slots, tiles = _tiling(W)
    kept = len(np.unique(slots[np.any(frames.reshape(P, -1), axis=0)] // 64))
    movie = frames.nbytes
    per_pixel = W * W * 8
    tracemalloc.start()
    try:
        project_fbp(lambda: (frames,), frames.shape, 1.0, angles, det).images()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sinograms = rng.standard_normal((W + 1, P, 6))
        stack = fbp_stack(sinograms, angles, det, W, 1.0)
        stack_peak = tracemalloc.get_traced_memory()[1] - base - sinograms.nbytes
    finally:
        tracemalloc.stop()
    acc, copy = tiles * 64 * P * 8, kept * 64 * P * 8
    held = acc + max(copy, movie)
    assert peak < held + 80 * per_pixel, (peak - held) / per_pixel
    assert stack_peak < 2 * stack.nbytes + sinograms.nbytes + 45 * per_pixel, \
        (stack_peak - 2 * stack.nbytes - sinograms.nbytes) / per_pixel


def test_occupied_projector_keeps_the_full_projector_entries_in_order(rng):
    """The entries built for occupied pixels are the full projector's, in its order.

    ``project_fbp`` adds a view's projector entries into tile blocks in
    entry order, so building only the samples whose stencil reaches an
    occupied pixel keeps every sum bit for bit if no other entry has a
    nonzero weight on an occupied pixel and the kept ones keep their
    order and values.
    """
    W, J, h = 33, 40, 2.0 / 33
    offsets = DetectorGrid(count=J, spacing=0.9 * h).offsets
    occupied = rng.random(W * W) < 0.2
    slots = np.where(occupied, np.arange(W * W), W * W)  # W^2 marks an empty pixel
    reach = _stencil_reach(occupied, W)
    for angle in rng.uniform(0.0, 2.0 * np.pi, 6):
        cos_t, sin_t = _reduced_trig([angle])
        full_w, full_i = (a.reshape(4, -1).copy() for a in _view_projector(
            cos_t[0], sin_t[0], W, h, offsets, _Workspace()))
        rays = np.broadcast_to(np.arange(J), (4, 2 * W + 1, J)).reshape(4, -1)
        want = (full_w != 0) & occupied[full_i]
        w, s, r = _occupied_projector(cos_t[0], sin_t[0], W, h, offsets, reach, slots,
                                      _Workspace())
        got = (w != 0) & (s < W * W)
        assert w[got].tobytes() == full_w[want].tobytes()
        assert np.array_equal(s[got], full_i[want])
        assert np.array_equal(np.broadcast_to(r, w.shape)[got], rays[want])


def test_project_fbp_rejects_mixed_grids_and_narrow_detectors(rng):
    a = random_masked_frame(rng, width=16)
    h = a.pixel_size
    frames, cut = a.values[None], a.values[None, :, 1:]
    with pytest.raises(ValueError, match="P x W x W"):
        project_fbp(lambda: (cut,), cut.shape, h, [0.0, 1.0], DetectorGrid.for_frame(a))
    with pytest.raises(CoverageError):
        project_fbp(lambda: (frames,), frames.shape, h, [0.0, 1.0],
                    DetectorGrid(count=4, spacing=h))
    with pytest.raises(InsufficientAnglesError):
        project_fbp(lambda: (frames,), frames.shape, h, [0.0], DetectorGrid.for_frame(a))


# ---------------------------------------------------------------- properties

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def geometries(draw, min_angles=1):
    """A seeded rng for random frames, a covering detector and angles in [0, 2 pi)."""
    W = draw(st.integers(6, 24))
    h = 2.0 / W
    spacing = draw(st.floats(0.5, 1.6)) * h
    count = max(int(np.ceil(W * h / spacing)) + 1, W + 1) + draw(st.integers(0, 6))
    angles = draw(st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True),
                           min_size=min_angles, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, W, h, DetectorGrid(count=count, spacing=spacing), np.array(angles)


coefficients = st.floats(-4.0, 4.0, allow_subnormal=False)


@PROPERTY
@given(geometries(), coefficients, coefficients)
def test_projection_is_linear(geometry, a, b):
    rng, W, h, det, angles = geometry
    f1 = random_masked_frame(rng, width=W, pixel_size=h)
    f2 = random_masked_frame(rng, width=W, pixel_size=h)
    comb = Frame(values=a * f1.values + b * f2.values, pixel_size=h)
    g1 = radon_project(f1, angles, det).values
    g2 = radon_project(f2, angles, det).values
    scale = abs(a) * np.abs(g1).max() + abs(b) * np.abs(g2).max()
    lhs = radon_project(comb, angles, det).values
    assert np.abs(lhs - (a * g1 + b * g2)).max() <= 1e-12 * max(scale, 1e-300)


@PROPERTY
@given(geometries())
def test_half_turn_identity(geometry):
    """g(-s_j, theta) = g(s_j, theta + pi) on the symmetric detector grid.

    Each pair is (phi - pi, phi) for phi in [pi, 2 pi), so both angles
    reduce to the same float.  A pair built as (theta, theta + pi) can
    round to directions one ulp apart; near the axes a sample on the grid
    edge then moves in or out of it and the columns differ by O(1)
    (theta = 2 pi - 1 ulp, W = 6: 6 to 24 % of the column peak on random frames).
    """
    rng, W, h, det, angles = geometry
    f = random_masked_frame(rng, width=W, pixel_size=h)
    phi = np.pi + np.mod(angles, np.pi)
    g = radon_project(f, np.concatenate([phi - np.pi, phi]), det).values
    direct, turned = g[:, : angles.size], g[::-1, angles.size:]
    assert np.abs(turned - direct).max() <= 1e-12 * np.abs(direct).max()


@PROPERTY
@given(geometries(min_angles=2), coefficients, coefficients)
def test_fbp_is_linear(geometry, a, b):
    rng, W, h, det, angles = geometry
    g1, g2 = (rng.standard_normal((det.count, angles.size)) for _ in range(2))
    r1, r2, rc = (
        fbp(Sinogram(values=g, angles=angles, detector=det), width=W, pixel_size=h).values
        for g in (g1, g2, a * g1 + b * g2)
    )
    scale = abs(a) * np.abs(r1).max() + abs(b) * np.abs(r2).max()
    assert np.abs(rc - (a * r1 + b * r2)).max() <= 1e-12 * max(scale, 1e-300)


def test_project_sequence_is_radon_project_frame_by_frame(rng):
    """Column p is, bit for bit, frame p projected alone at angle p; counts must match."""
    W = 24
    frames = [random_masked_frame(rng, width=W) for _ in range(5)]
    det = DetectorGrid(count=W + 3, spacing=1.1 * frames[0].pixel_size)
    angles = rng.uniform(0.0, 2.0 * np.pi, 5)
    columns = project_sequence((f.values for f in frames), frames[0].pixel_size, angles, det)
    for f, theta, column in zip(frames, angles, columns.T):
        assert column.tobytes() == radon_project(f, [theta], det).values[:, 0].tobytes()
    for count in (4, 6):
        with pytest.raises(ValueError, match="one frame per view"):
            project_sequence((frames[p % 5].values for p in range(count)), frames[0].pixel_size,
                             angles, det)
