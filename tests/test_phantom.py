import numpy as np
import pytest

from conftest import movie_of, naive_fbp
from prosep.errors import ProsepError, SupportError
from prosep.phantom import (
    Ellipse,
    MotionSpec,
    Movie,
    MovieFile,
    PhantomSpec,
    benchmark_movie,
    example_motion,
    example_phantom,
    motion_at,
    render_chunks,
    render_frame,
    simulate_acquisition,
)
from prosep.radon import DetectorGrid, Frame, Sinogram, fbp, radon_project
from prosep.recon import psnr
from prosep.sampling import bit_reversed, progressive
from prosep.tensorio import write_tensor


def test_motion_at_identity_at_t0():
    A, b = motion_at(example_motion(), 0.0)
    assert np.allclose(A, np.eye(2), atol=1e-15)
    assert np.allclose(b, 0.0, atol=1e-15)


def test_motion_pure_translation():
    m = MotionSpec(translation=(2.0, 0.0))
    A, b = motion_at(m, 0.5)  # profile peaks at t = 1/2 with value = amplitude
    assert np.allclose(A, np.eye(2))
    assert np.allclose(b, [2.0, 0.0])


def test_motion_pure_rotation():
    m = MotionSpec(rotation=np.pi / 8)
    A, b = motion_at(m, 0.5)
    th = np.pi / 8
    want = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert np.allclose(A, want)
    assert np.allclose(b, 0.0)


def test_motion_composition_order():
    # scaling applied before rotation: A = R @ S
    m = MotionSpec(rotation=np.pi / 2, scaling=(1.0, 0.0))
    A, _ = motion_at(m, 0.5)  # scale x by 2, then rotate 90 degrees
    assert np.allclose(A @ np.array([1.0, 0.0]), [0.0, 2.0], atol=1e-12)


def test_static_phantom_constant_in_time():
    spec = example_phantom(width=48)
    f0 = render_frame(spec, MotionSpec(), 0.0)
    f1 = render_frame(spec, MotionSpec(), 0.63)
    assert np.array_equal(f0.values, f1.values)


def test_translation_by_whole_pixels_is_exact_shift():
    W = 64
    spec = PhantomSpec(
        ellipses=(Ellipse(center=(0.0, 0.0), semi_axes=(0.3, 0.2), intensity=1.0),),
        width=W,
        pixel_size=2.0 / W,
    )
    k = 3
    m = MotionSpec(translation=(k * spec.pixel_size, 0.0))
    shifted = render_frame(spec, m, 0.5)  # shift right by k pixels
    base = render_frame(spec, MotionSpec(), 0.0)
    assert np.array_equal(shifted.values[:, k:], base.values[:, :-k])


def test_rotation_of_centered_circle_is_exact():
    W = 64
    spec = PhantomSpec(
        ellipses=(Ellipse(center=(0.0, 0.0), semi_axes=(0.5, 0.5), intensity=1.0),),
        width=W,
        pixel_size=2.0 / W,
    )
    m = MotionSpec(rotation=np.pi / 5)
    frames = [render_frame(spec, m, t) for t in np.linspace(0, 1, 7)]
    for f in frames[1:]:
        assert np.array_equal(f.values, frames[0].values)


def test_mass_under_rotation_nearly_constant():
    """Pixel-center rasterization keeps rotated mass constant to ~1e-3.

    The continuum mass is exactly invariant; the discrete sum wobbles by
    the boundary-pixel discretization, which for this grid stays below
    0.5% relative.
    """
    W = 128
    spec = PhantomSpec(
        ellipses=(Ellipse(center=(0.15, 0.1), semi_axes=(0.4, 0.25), angle=0.3),),
        width=W,
        pixel_size=2.0 / W,
    )
    m = MotionSpec(rotation=np.pi / 4)
    masses = [
        render_frame(spec, m, t).values.sum() * spec.pixel_size**2
        for t in np.linspace(0, 1, 9)
    ]
    masses = np.asarray(masses)
    assert (masses.max() - masses.min()) / masses.mean() < 5e-3


def test_support_violation_raises():
    spec = PhantomSpec(
        ellipses=(Ellipse(center=(0.6, 0.0), semi_axes=(0.3, 0.2)),),
        width=32,
        pixel_size=2.0 / 32,
    )
    m = MotionSpec(translation=(0.3, 0.0))
    render_frame(spec, m, 0.0)  # fine at t=0
    with pytest.raises(SupportError):
        render_frame(spec, m, 0.5)


def test_movie_masks_each_frame_as_frame_does(rng):
    """Movie.values is, byte for byte, the stack of the frames' masked values."""
    values = rng.standard_normal((3, 9, 9))
    values[1, 0, 0] = -2.0  # a negative corner outside the disk
    movie = Movie(values=values, pixel_size=0.3)
    want = np.stack([Frame(values=v, pixel_size=0.3).values for v in values])
    assert movie.values.dtype == np.float64 and movie.values.shape == (3, 9, 9)
    assert movie.values.tobytes() == want.tobytes()
    assert movie.values[1, 0, 0] == 0.0 and values[1, 0, 0] == -2.0  # input untouched
    assert len(movie) == 3 and movie.width == 9


_MALFORMED_MOVIES = [
    (np.zeros((0, 4, 4)), "empty"),
    (np.zeros((2, 0, 0)), "empty"),
    (np.zeros((2, 4, 5)), "frame must be square"),
    (np.zeros((4, 4)), "frame must be square"),
    (np.full((2, 4, 4), np.inf), "finite"),
    (np.where(np.arange(32).reshape(2, 4, 4) == 5, np.nan, 0.0), "finite"),
]


# explicit ids keep each case's established name
@pytest.mark.parametrize("values, match", _MALFORMED_MOVIES, ids=[
    f"values{i}-times{i}-{match}" for i, (_, match) in enumerate(_MALFORMED_MOVIES)])
def test_movie_rejects_malformed_input(values, match):
    with pytest.raises(ValueError, match=match):
        Movie(values=values)


@pytest.mark.parametrize("pixel_size", [0.0, -0.5])
def test_movie_and_frame_reject_nonpositive_pixel_size(pixel_size):
    with pytest.raises(ValueError, match="pixel_size must be positive"):
        Movie(values=np.zeros((2, 4, 4)), pixel_size=pixel_size)
    with pytest.raises(ValueError, match="pixel_size must be positive"):
        Frame(values=np.zeros((4, 4)), pixel_size=pixel_size)


def test_render_movie_equals_its_frames_and_checks_every_time():
    """The chunked renderer gives, byte for byte, the frames of ``render_frame``."""
    spec, motion = example_phantom(width=24), example_motion(width=24)
    P = 37  # more frames than one chunk holds, and a partial last chunk
    movie = np.concatenate(list(render_chunks(spec, motion, P)))
    want = np.stack([render_frame(spec, motion, p / P).values for p in range(P)])
    assert movie.tobytes() == want.tobytes()
    # a motion that leaves the disk only late in the movie fails the whole movie
    late = MotionSpec(translation=(0.6, 0.0))
    render_frame(spec, late, 0.02)
    with pytest.raises(SupportError, match="leaves the support disk"):
        render_chunks(spec, late, 8)


def test_motion_at_takes_an_array_of_times():
    motion = example_motion()
    times = np.linspace(0.0, 1.0, 7)
    A, b = motion_at(motion, times)
    assert A.shape == (7, 2, 2) and b.shape == (7, 2)
    for t, A_t, b_t in zip(times, A, b):
        A1, b1 = motion_at(motion, float(t))
        assert A_t.tobytes() == A1.tobytes() and b_t.tobytes() == b1.tobytes()
    with pytest.raises(ValueError, match=r"t must be in \[0, 1\]"):
        motion_at(motion, np.array([0.5, 1.5]))


@pytest.mark.parametrize("kwargs", [
    {"center": (np.nan, 0.0), "semi_axes": (0.3, 0.2)},
    {"center": (0.0, 0.0), "semi_axes": (np.inf, 0.2)},
    {"center": ("a", 0.0), "semi_axes": (0.3, 0.2)},
    {"center": (0.0, 0.0), "semi_axes": (0.3, 0.2), "angle": np.nan},
    {"center": (0.0, 0.0), "semi_axes": (0.3, 0.2), "intensity": -np.inf},
    {"center": (True, 0.0), "semi_axes": (0.3, 0.2)},
])
def test_ellipse_rejects_entries_that_are_not_finite_reals(kwargs):
    with pytest.raises(ValueError, match="finite real numbers"):
        Ellipse(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"translation": ("a", 0.0)},
    {"translation": (0.0, np.inf)},
    {"rotation": np.nan},
    {"scaling": (np.nan, 0.0)},
    {"scaling": (0.0, None)},
    {"translation": (10**400, 0.0)},
])
def test_motion_rejects_entries_that_are_not_finite_reals(kwargs):
    with pytest.raises(ValueError, match="finite real numbers"):
        MotionSpec(**kwargs)


def test_simulate_acquisition_deterministic():
    spec = example_phantom(width=32)
    motion = example_motion(width=32)
    sch = bit_reversed(16, span=np.pi)
    det = DetectorGrid(count=33, spacing=spec.pixel_size)
    truth = movie_of(render_chunks(spec, motion, 16), spec.pixel_size)
    a = simulate_acquisition(truth, sch, det, noise_sigma=0.05, seed=11)
    b = simulate_acquisition(truth, sch, det, noise_sigma=0.05, seed=11)
    assert np.array_equal(a.values, b.values)
    c = simulate_acquisition(truth, sch, det, noise_sigma=0.05, seed=12)
    assert not np.array_equal(a.values, c.values)


def test_acquired_column_is_single_angle_projection():
    spec = example_phantom(width=32)
    motion = example_motion(width=32)
    sch = progressive(8, span=np.pi)
    det = DetectorGrid(count=33, spacing=spec.pixel_size)
    truth = movie_of(render_chunks(spec, motion, 8), spec.pixel_size)
    data = simulate_acquisition(truth, sch, det)
    p = 5
    frame = render_frame(spec, motion, p / 8)
    col = radon_project(frame, [sch.angles[p]], det).values[:, 0]
    assert np.array_equal(data.values[:, p], col)


def test_static_acquisition_consistent_with_static_ct():
    """With no motion the time-sequential set is an ordinary sinogram."""
    W = 48
    spec = example_phantom(width=W)
    motion = MotionSpec()
    P = 64
    sch = bit_reversed(P, span=np.pi)
    det = DetectorGrid(count=W + 1, spacing=spec.pixel_size)
    data = simulate_acquisition(movie_of(render_chunks(spec, motion, P), spec.pixel_size),
                                sch, det)
    rec = fbp(
        Sinogram(values=data.values, angles=sch.angles, detector=det),
        width=W, pixel_size=spec.pixel_size,
    )
    still = movie_of(render_chunks(spec, motion, 1), spec.pixel_size)
    bench = benchmark_movie(still, fbp_angles_count=P, detector=det).images()[0]
    rms = np.sqrt(np.mean((rec.values - bench) ** 2))
    assert rms < 1e-6


def test_simulate_acquisition_needs_one_frame_per_view():
    spec = example_phantom(width=16)
    det = DetectorGrid(count=17, spacing=spec.pixel_size)
    with pytest.raises(ValueError, match="one frame per view"):
        simulate_acquisition(movie_of(render_chunks(spec, example_motion(width=16), 4),
                                      spec.pixel_size), progressive(8, span=np.pi), det)


def test_benchmark_movie_equals_per_frame_fbp_of_projections():
    """Oracle: the batched reference is fbp(radon_project(truth)) frame by frame."""
    spec = example_phantom(width=24)
    truth = movie_of(render_chunks(spec, example_motion(width=24), 5), spec.pixel_size)
    det = DetectorGrid(count=29, spacing=1.1 * spec.pixel_size)
    count = 20
    angles = np.arange(count) * (np.pi / count)
    movie = benchmark_movie(truth, fbp_angles_count=count, detector=det)
    assert len(movie) == 5 and movie.width == 24
    for values, out in zip(truth.values, movie.images()):
        f = Frame(values=values, pixel_size=truth.pixel_size)
        ref = fbp(radon_project(f, angles, det), width=f.width, pixel_size=f.pixel_size)
        assert np.abs(out - ref.values).max() <= 1e-12 * np.abs(ref.values).max()


def test_benchmark_movie_static_frames_identical():
    spec = example_phantom(width=32)
    truth = movie_of(render_chunks(spec, MotionSpec(), 4), spec.pixel_size)
    movie = benchmark_movie(truth, fbp_angles_count=24,
                            detector=DetectorGrid.for_frame(truth)).images()
    ref = movie[0]
    for f in movie[1:]:
        assert np.allclose(f, ref, atol=1e-12 * max(np.abs(ref).max(), 1))


def test_benchmark_quality_and_angle_monotonicity():
    """Benchmark movie reaches 28 dB vs the analytic frames at 128 grid."""
    spec = example_phantom(width=128)
    motion = example_motion(width=128)
    truth = movie_of(render_chunks(spec, motion, 2), spec.pixel_size)
    peak = truth.values.max()
    scores = {}
    for A in (180, 360):
        movie = benchmark_movie(truth, fbp_angles_count=A, detector=DetectorGrid.for_frame(truth))
        scores[A] = np.mean([psnr(x, t, peak) for x, t in zip(movie.images(), truth.values)])
    assert scores[180] >= 28.0
    assert scores[360] >= scores[180] - 0.1  # doubling angles must not hurt


def test_naive_fbp_of_moving_object_is_much_worse_than_benchmark():
    """Time-sequential inconsistency costs >= 5 dB against the benchmark."""
    W = 64
    spec = example_phantom(width=W)
    motion = example_motion(width=W)
    P = 256
    sch = bit_reversed(P, span=np.pi)
    det = DetectorGrid(count=W + 1, spacing=spec.pixel_size)
    data = simulate_acquisition(movie_of(render_chunks(spec, motion, P), spec.pixel_size),
                                sch, det)
    naive = naive_fbp(data, width=W, pixel_size=spec.pixel_size)

    truth = movie_of(render_chunks(spec, motion, 8), spec.pixel_size)
    bench = benchmark_movie(truth, fbp_angles_count=P, detector=DetectorGrid.for_frame(truth))
    peak = truth.values.max()
    psnr_bench = np.mean([psnr(x, t, peak) for x, t in zip(bench.images(), truth.values)])
    psnr_naive = np.mean([psnr(naive.values, t, peak) for t in truth.values])
    assert psnr_naive <= psnr_bench - 5.0


def test_render_chunks_are_the_frames_of_render_movie():
    """Chunks of 28 frames and a short last one, each masked; the motion is checked first."""
    spec, motion = example_phantom(width=24), example_motion(width=24)
    chunks = list(render_chunks(spec, motion, 37))
    assert [len(c) for c in chunks] == [28, 9]
    for chunk in chunks:
        assert chunk.flags.c_contiguous and chunk.tobytes() == Movie(chunk).values.tobytes()
    with pytest.raises(SupportError, match="leaves the support disk"):
        render_chunks(spec, MotionSpec(translation=(0.6, 0.0)), 8)  # before any frame


def test_movie_file_reads_back_the_movie_it_holds(tmp_path):
    """A MovieFile has a Movie's shape, frames and chunks, and the same benchmark and sinogram."""
    spec, motion = example_phantom(width=24), example_motion(width=24)
    truth = movie_of(render_chunks(spec, motion, 37), spec.pixel_size)
    path = tmp_path / "truth.tensor"
    write_tensor(path, truth.values)
    stored = MovieFile(path, pixel_size=spec.pixel_size)
    assert stored.shape == truth.shape and len(stored) == 37 and stored.width == 24
    assert np.array_equal(np.stack(list(stored)), truth.values)
    assert [len(c) for c in stored.chunks()] == [28, 9]
    det = DetectorGrid.for_frame(truth)
    bench = benchmark_movie(stored, 20, det)
    assert np.concatenate(list(bench.chunks())).tobytes() == \
        benchmark_movie(truth, 20, det).images().tobytes()
    scheme = progressive(37, span=np.pi)
    assert np.array_equal(simulate_acquisition(stored, scheme, det).values,
                          simulate_acquisition(truth, scheme, det).values)


@pytest.mark.parametrize("values, match", _MALFORMED_MOVIES)
def test_movie_file_makes_the_checks_of_a_movie(tmp_path, values, match):
    """A malformed movie tensor is a ProsepError naming the file, with Movie's message."""
    path = tmp_path / "bad.tensor"
    write_tensor(path, values)
    with pytest.raises(ProsepError, match=f"bad.tensor: not a movie tensor: .*{match}"):
        list(MovieFile(path).chunks())
