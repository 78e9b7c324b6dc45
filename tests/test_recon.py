import numpy as np
import pytest

from conftest import Movie, exact_model_scheme, l1_2p, make_exact_model_data
from prosep.psmodel import HarmonicCoefficients, real_trig_theta
from prosep.radon import fbp
from prosep import recon
from prosep.recon import (
    MetricsRow,
    ProSepSolution,
    mae,
    movie_chunks,
    movie_factors,
    movie_metrics,
    psnr,
    ssim,
    synthesize_sinogram,
)
from prosep.sampling import sample_times
from prosep.solver import SolverConfig, solve


import functools


@functools.lru_cache(maxsize=None)
def _solved_solution_cached(P, K, N, d, J, seed, static, max_iters):
    psi0 = np.ones((P, 1)) / np.sqrt(P) if static else None
    data, U, Z0, beta0, order = make_exact_model_data(P=P, K=K, N=N, d=d, J=J, seed=seed, psi0=psi0)
    Z, beta, report = solve(data, order, U, SolverConfig(max_iters=max_iters, restarts=2, seed=0),
                            symmetric=True)
    sol = ProSepSolution(
        Z=Z, U=U, beta=beta, model=order, scheme=exact_model_scheme(P),
        detector=data.detector, times=sample_times(P), symmetric=True,
    )
    return sol, data, U, Z0, beta0, order


def _detector_grid(sol):
    """The grid of the detector's J bins: width J, pixel size the bin spacing."""
    return sol.detector.count, sol.detector.spacing


def solved_solution(P=64, K=2, N=6, d=4, J=24, seed=3, psi0=None, max_iters=3000):
    # tests only read the cached objects, so sharing them is safe
    return _solved_solution_cached(P, K, N, d, J, seed, psi0 is not None, max_iters)


# ---------------------------------------------------------------- temporal

def test_solution_rejects_non_orthonormal_factors():
    """ProSepSolution is where Psi = U Z is checked: U and Z need orthonormal columns."""
    data, U, Z0, beta0, order = make_exact_model_data(P=16, K=1, N=2, d=3, J=4, seed=1)
    beta = HarmonicCoefficients(beta=beta0, order=order)
    fields = dict(beta=beta, model=order, scheme=exact_model_scheme(16), detector=data.detector,
                  times=sample_times(16))
    ProSepSolution(Z=Z0, U=U, **fields)
    for bad in ({"Z": Z0, "U": 2.0 * U}, {"Z": 2.0 * Z0, "U": U}):
        with pytest.raises(ValueError, match="not orthonormal"):
            ProSepSolution(**bad, **fields)


# ---------------------------------------------------------------- synthesis

def test_synthesize_matches_fitted_values_at_acquired_points():
    sol, data, *_ = solved_solution()
    fitted = l1_2p(data.angles, sol.model.N, sol.U, sol.Z, True) @ sol.beta.beta  # 2P x J
    P = sol.P
    for p in (0, 5, P - 1):
        g = synthesize_sinogram(sol, p, [data.angles[p]])
        assert np.allclose(g.values[:, 0], fitted[p, :], rtol=1e-10, atol=1e-10)


def test_synthesize_bandlimited_in_angle():
    sol, *_ = solved_solution()
    A = 256
    angles = np.arange(A) * (2 * np.pi / A)
    g = synthesize_sinogram(sol, 3, angles)
    spec = np.fft.rfft(g.values, axis=1) / A
    # no Fourier content above harmonic N
    hi = np.abs(spec[:, sol.model.N + 1:])
    assert hi.max() < 1e-10 * max(np.abs(g.values).max(), 1.0)


def test_synthesize_matches_dense_ground_truth():
    """Recovered model reproduces the dense true-model sinogram (oracle)."""
    sol, data, U, Z0, beta0, order = solved_solution()
    angles = np.arange(90) * np.pi / 90
    T = real_trig_theta(angles, order.N)
    Psi0 = U @ Z0
    worst = 0.0
    B3 = beta0.reshape(order.n_harmonics, order.n_temporal, -1)
    for p in (0, 17, 40):
        # direct evaluation: g(s_j, theta, t_p) = sum_nk T[a,n] beta[(n,k),j] psi_k(t_p)
        h = np.einsum("nkj,k->nj", B3, Psi0[p])
        g_true = (T @ h).T
        g_model = synthesize_sinogram(sol, p, angles).values
        rms = np.sqrt(np.mean((g_model - g_true) ** 2))
        worst = max(worst, rms / np.abs(g_true).max())
    assert worst < 1e-3


def test_synthesize_inherits_half_turn_symmetry():
    sol, *_ = solved_solution()
    thetas = np.array([0.3, 1.2, 2.0])
    g = synthesize_sinogram(sol, 7, np.concatenate([thetas, thetas + np.pi]))
    direct = g.values[:, :3]
    flipped = g.values[::-1, 3:]
    assert np.allclose(flipped, direct, atol=1e-10 * np.abs(direct).max())


def test_synthesize_index_out_of_range():
    sol, *_ = solved_solution(P=32, K=1, N=3, d=3, J=12, max_iters=300)
    with pytest.raises(IndexError):
        synthesize_sinogram(sol, 32, [0.0])


# ---------------------------------------------------------------- movie

def test_movie_chunks_static_is_time_constant():
    P, d = 64, 3
    psi0 = np.ones((P, 1)) / np.sqrt(P)
    sol, *_ = solved_solution(P=P, K=0, N=5, d=d, J=16, seed=6, psi0=psi0)
    movie = np.concatenate(list(movie_chunks(*movie_factors(sol, 32, *_detector_grid(sol)))))
    ref = movie[0]
    scale = max(np.abs(ref).max(), 1e-30)
    for f in movie[1:]:
        rms = np.sqrt(np.mean((f - ref) ** 2))
        assert rms < 1e-6 * scale


def test_movie_factors_shape_contract():
    sol, *_ = solved_solution(P=32, K=1, N=3, d=3, J=12, max_iters=300)
    W, h = sol.detector.count - 1, 1.1 * sol.detector.spacing
    psi, phi = movie_factors(sol, fbp_angles_count=16, width=W, pixel_size=h)
    K1 = sol.model.n_temporal
    assert psi.shape == (sol.P, K1) and phi.shape == (K1, W, W)
    chunks = list(movie_chunks(psi, phi))
    assert all(len(c) >= 2 and c.shape[1:] == (W, W) and c.flags.c_contiguous for c in chunks)
    assert sum(map(len, chunks)) == sol.P


def test_movie_chunks_equal_per_frame_synthesis_fbp():
    """Oracle: the K+1 component images rebuild FBP of every synthesized frame."""
    sol, *_ = solved_solution()
    count = 48
    angles = np.arange(count) * (np.pi / count)
    W, h = _detector_grid(sol)
    movie = np.concatenate(list(movie_chunks(*movie_factors(sol, count, W, h))))
    assert len(movie) == sol.P
    for p in range(sol.P):
        ref = fbp(synthesize_sinogram(sol, p, angles), width=W, pixel_size=h)
        assert np.abs(movie[p] - ref.values).max() < 1e-12


def test_movie_chunks_match_truth_fbp():
    """Exact-model data: the reconstruction matches FBP of the true sinograms."""
    sol, data, U, Z0, beta0, order = solved_solution()
    angles = np.arange(64) * np.pi / 64
    T = real_trig_theta(angles, order.N)
    Psi0 = U @ Z0
    W, pixel = _detector_grid(sol)
    movie = np.concatenate(list(movie_chunks(*movie_factors(sol, 64, W, pixel))))
    from prosep.radon import Sinogram

    peaks = []
    scores = []
    B3 = beta0.reshape(order.n_harmonics, order.n_temporal, -1)
    for p in (0, 20, 50):
        h = np.einsum("nkj,k->nj", B3, Psi0[p])
        g_true = (T @ h).T
        bench = fbp(Sinogram(values=g_true, angles=angles, detector=data.detector), W, pixel)
        peaks.append(bench.values.max())
        scores.append((movie[p], bench))
    peak = max(peaks)
    for rec_frame, bench in scores:
        assert psnr(rec_frame, bench.values, peak) >= 35.0


# ---------------------------------------------------------------- metrics

def test_metrics_exact_match():
    x = np.random.default_rng(0).random((32, 32))
    assert psnr(x, x, peak=1.0) == 200.0
    assert ssim(x, x, data_range=x.max()) == pytest.approx(1.0, abs=1e-12)
    assert mae(x, x) == 0.0


def test_psnr_constant_offset_closed_form():
    ref = np.zeros((16, 16))
    x = ref + 0.1
    assert psnr(x, ref, peak=1.0) == pytest.approx(20.0, abs=1e-12)
    assert mae(x, ref) == pytest.approx(0.1, abs=1e-15)


def test_psnr_symmetric_in_arguments(rng):
    a = rng.random((20, 20))
    b = rng.random((20, 20))
    assert psnr(a, b, peak=2.0) == pytest.approx(psnr(b, a, peak=2.0), rel=1e-12)


def test_metrics_grid_mismatch():
    with pytest.raises(ValueError):
        mae(np.zeros((4, 4)), np.zeros((5, 5)))


def test_metrics_row_validation():
    with pytest.raises(ValueError):
        MetricsRow(psnr=10.0, ssim=0.5, mae=-1.0)


@pytest.mark.parametrize("W", [1, 2, 3, 5, 11, 64])
def test_ssim_window_blur_matches_gaussian_filter(rng, W):
    """G X G^T is scipy's reflect-boundary Gaussian; W < 5 reflects more than once."""
    from scipy.ndimage import gaussian_filter

    X = rng.standard_normal((W, W))
    G = recon._ssim_window(W)
    ref = gaussian_filter(X, sigma=1.5, truncate=3.5, mode="reflect")
    assert np.abs(G @ X @ G.T - ref).max() <= 1e-14 * np.abs(ref).max()
    Y = rng.standard_normal((W, W + 3))
    ref = gaussian_filter(Y, sigma=1.5, truncate=3.5, mode="reflect")
    blurred = G @ Y @ recon._ssim_window(W + 3).T
    assert np.abs(blurred - ref).max() <= 1e-14 * np.abs(ref).max()


def test_movie_metrics_rejects_grid_mismatch():
    a = Movie(values=np.ones((1, 8, 8)))
    b = Movie(values=np.ones((1, 6, 6)))
    with pytest.raises(ValueError, match="grid mismatch"):
        movie_metrics(a, b)


def test_movie_metrics_average_convention():
    rng = np.random.default_rng(7)
    h = 1 / 8
    bench = rng.random((4, 16, 16))
    test = bench + 0.01 * rng.standard_normal((4, 16, 16))
    rows, summary = movie_metrics(Movie(values=test, pixel_size=h),
                                  Movie(values=bench, pixel_size=h))
    assert len(rows) == 4
    assert summary.psnr == pytest.approx(np.mean([r.psnr for r in rows]), rel=1e-12)
    assert summary.ssim == pytest.approx(np.mean([r.ssim for r in rows]), rel=1e-12)
    assert summary.mae == pytest.approx(np.mean([r.mae for r in rows]), rel=1e-12)
