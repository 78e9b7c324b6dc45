import numpy as np
import pytest

from conftest import make_exact_model_data, max_principal_angle
from prosep.phantom import TimeSequentialSinogram
from prosep.psmodel import HarmonicCoefficients, HarmonicOrder, spline_interpolator
from prosep.radon import DetectorGrid
from prosep.recon import ProSepSolution, reconstruct_movie, synthesize_sinogram
from prosep.sampling import bit_reversed, random_scheme
from prosep.solver import (
    SolverConfig,
    VarproProblem,
    _adam_descent,
    _polar_orthonormalize,
    inner_beta,
    solve,
    stacked_data,
)


def small_problem(rng, P=24, N=3, K=1, d=3, symmetric=True):
    scheme = random_scheme(P, span=np.pi, seed=int(rng.integers(2**31)))
    order = HarmonicOrder(N=N, K=K, d=d)
    U = spline_interpolator(P, d)
    problem = VarproProblem(scheme, U, order, symmetric=symmetric)
    return scheme, order, U, problem


def random_Z(rng, d, K):
    return np.linalg.qr(rng.standard_normal((d, K + 1)))[0]


# ---------------------------------------------------------------- data columns

def test_stacked_data_single_bin_layout():
    P = 4
    scheme = bit_reversed(P, span=np.pi)
    det = DetectorGrid(count=1, spacing=1.0)
    vals = np.zeros((1, P))
    vals[0, 0] = 1.0  # g_hat(s_1) = e_1 (+ its mirror copy e_{P+1})
    data = TimeSequentialSinogram(values=vals, scheme=scheme, detector=det)
    e1 = np.zeros((P, 1))
    e1[0] = 1.0
    assert np.array_equal(stacked_data(data, symmetric=False), e1)
    assert np.array_equal(stacked_data(data, symmetric=True), np.vstack([e1, e1]))


def test_stacked_data_rank_bounded_by_model_size():
    P, K, N = 64, 2, 4
    data, *_ = make_exact_model_data(P=P, K=K, N=N, d=4, J=40, seed=1)
    s = np.linalg.svd(stacked_data(data, symmetric=True), compute_uv=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    assert rank <= (2 * N + 1) * (K + 1)


# ---------------------------------------------------------------- inner beta

def test_inner_beta_recovers_consistent_solution(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    L1 = problem.l1(Z)
    beta0 = rng.standard_normal(order.cols)
    ghat = L1 @ beta0
    assert np.allclose(inner_beta(L1, ghat), beta0, rtol=1e-10, atol=1e-10)


def test_inner_beta_zero_rhs(rng):
    _, order, _, problem = small_problem(rng)
    L1 = problem.l1(random_Z(rng, order.d, order.K))
    assert np.all(inner_beta(L1, np.zeros(L1.shape[0])) == 0.0)


def test_inner_beta_orthogonal_rhs_gives_zero(rng):
    _, order, _, problem = small_problem(rng)
    L1 = problem.l1(random_Z(rng, order.d, order.K))
    Q, _ = np.linalg.qr(L1)
    g = rng.standard_normal(L1.shape[0])
    g_perp = g - Q @ (Q.T @ g)
    beta = inner_beta(L1, g_perp)
    assert np.linalg.norm(beta) < 1e-10 * np.linalg.norm(g_perp)
    resid = np.linalg.norm(g_perp - L1 @ beta)
    assert resid == pytest.approx(np.linalg.norm(g_perp), rel=1e-10)


# ---------------------------------------------------------------- objective

def objective(problem, Z, G):
    return problem.objective_and_gradient_from_data(Z, G)[0]


def test_objective_zero_for_in_range_data(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    L1 = problem.l1(Z)
    G = L1 @ rng.standard_normal((order.cols, 5))
    assert objective(problem, Z, G) <= 1e-10 * np.sum(G**2)


def test_objective_zero_for_square_full_rank_L1(rng):
    # (2N+1)(K+1) = 6 = 2P with P = 3: L1 is square and a.s. full rank
    scheme = random_scheme(3, span=np.pi, seed=8)
    order = HarmonicOrder(N=1, K=1, d=2)
    U = spline_interpolator(3, 2)
    problem = VarproProblem(scheme, U, order, symmetric=True)
    Z = random_Z(rng, 2, 1)
    G = np.eye(6)
    assert objective(problem, Z, G) <= 1e-10 * 6


@pytest.mark.parametrize("d", [2, 3])
def test_objective_with_fewer_rows_than_columns(rng, d):
    """rows(L1) < (2N+1)(K+1): R is not square, and a full-row-rank L1 fits any G."""
    _, order, _, problem = small_problem(rng, P=8, N=6, K=1, d=d, symmetric=False)
    assert problem.rows < order.cols
    G = rng.standard_normal((problem.rows, 5))
    F, g = problem.objective_and_gradient_from_data(random_Z(rng, d, 1), G)
    assert abs(F) < 1e-10 * np.sum(G**2)
    assert np.linalg.norm(g) < 1e-10 * np.sum(G**2)


def test_objective_matches_brute_force_residual(rng):
    _, order, _, problem = small_problem(rng, P=20, N=2, K=2, d=4)
    Z = random_Z(rng, order.d, order.K)
    G = rng.standard_normal((problem.rows, 9))
    F = objective(problem, Z, G)
    L1 = problem.l1(Z)
    beta = inner_beta(L1, G)
    brute = float(np.sum((G - L1 @ beta) ** 2))
    assert F == pytest.approx(brute, rel=1e-10)


def test_objective_bounds_and_range_invariance(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    G = rng.standard_normal((problem.rows, 7))
    F = objective(problem, Z, G)
    assert 0.0 <= F <= np.sum(G**2) * (1 + 1e-12)
    # right-multiplying Z by an orthogonal matrix preserves range(L1)
    O = np.linalg.qr(rng.standard_normal((order.K + 1, order.K + 1)))[0]
    F2 = objective(problem, Z @ O, G)
    assert F2 == pytest.approx(F, rel=1e-10)


def test_z_not_unique_when_d_equals_k_plus_1():
    """With d = K+1 every invertible Z spans the same range(L1): same fit."""
    data, U, *_, order = make_exact_model_data(P=32, K=1, N=3, d=2, J=12, seed=11)
    r = np.random.default_rng(17)
    noisy = TimeSequentialSinogram(
        values=data.values + 0.05 * np.abs(data.values).max()
        * r.standard_normal(data.values.shape),
        scheme=data.scheme,
        detector=data.detector,
    )
    problem = VarproProblem(noisy.scheme, U, order, symmetric=True)
    G = stacked_data(noisy, symmetric=True)
    G /= np.linalg.norm(G)
    Za, Zb = random_Z(r, order.d, order.K), random_Z(r, order.d, order.K)
    Fa, ga = problem.objective_and_gradient_from_data(Za, G)
    Fb, gb = problem.objective_and_gradient_from_data(Zb, G)
    assert Fa > 1e-4  # the noisy data do not fit exactly
    assert Fb == pytest.approx(Fa, rel=1e-10)
    assert max(np.linalg.norm(ga), np.linalg.norm(gb)) < 1e-12
    sinos = []
    for Z in (Za, Zb):
        beta = HarmonicCoefficients(beta=inner_beta(problem.l1(Z), G), order=order)
        sol = ProSepSolution(Z=Z, U=U, beta=beta, model=order, scheme=noisy.scheme,
                             detector=noisy.detector, times=noisy.times)
        angles = np.arange(48) * np.pi / 48
        sinos.append(np.stack([synthesize_sinogram(sol, p, angles).values
                               for p in (0, 13, 31)]))
    assert np.linalg.norm(sinos[1] - sinos[0]) < 1e-12 * np.linalg.norm(sinos[0])


# ---------------------------------------------------------------- gradient

def _penalized(problem, Z, G, mu):
    return objective(problem, Z, G) + mu * np.sum((Z.T @ Z - np.eye(Z.shape[1])) ** 2)


def _fd_gradient(problem, Z, G, mu, h=1e-6):
    g = np.zeros_like(Z)
    for a in range(Z.shape[0]):
        for b in range(Z.shape[1]):
            Zp = Z.copy()
            Zp[a, b] += h
            Zm = Z.copy()
            Zm[a, b] -= h
            g[a, b] = (_penalized(problem, Zp, G, mu) - _penalized(problem, Zm, G, mu)) / (2 * h)
    return g


def test_gradient_matches_finite_differences(rng):
    """20 random instances on the trace-normalized problem, rel err < 1e-5."""
    for trial in range(20):
        r = np.random.default_rng(500 + trial)
        _, order, _, problem = small_problem(r, P=16, N=2, K=1, d=3)
        Z = random_Z(r, order.d, order.K) + 0.1 * r.standard_normal((order.d, order.K + 1))
        G = r.standard_normal((problem.rows, 6))
        G /= np.linalg.norm(G)
        mu = 1.0
        g = problem.objective_and_gradient_from_data(Z, G, mu)[1]
        g_fd = _fd_gradient(problem, Z, G, mu)
        rel = np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd)
        assert rel < 1e-5, f"trial {trial}: rel err {rel:.2e}"


def test_gradient_zero_at_exact_solution(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    G = problem.l1(Z) @ rng.standard_normal((order.cols, 8))
    g = problem.objective_and_gradient_from_data(Z, G, 1.0)[1]
    assert np.linalg.norm(g) < 1e-8 * np.sum(G**2)


def test_penalty_gradient_zero_on_stiefel(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    G = np.zeros((problem.rows, 1))
    g = problem.objective_and_gradient_from_data(Z, G, 3.0)[1]  # objective part vanishes with G = 0
    assert np.linalg.norm(g) < 1e-12


# ---------------------------------------------------------------- solve

def test_solve_exact_model_recovery_small():
    data, U, Z0, beta0, order = make_exact_model_data(P=64, K=2, N=6, d=4, J=24, seed=3)
    config = SolverConfig(max_iters=3000, restarts=2, seed=0)
    Z, beta, report = solve(data, order, U, config)
    assert report.final_objective < 1e-8  # normalized by tr(Xi)
    assert max_principal_angle(U @ Z, U @ Z0) < 1e-3
    # recovered coefficients reproduce the data
    G = stacked_data(data, symmetric=True)
    problem = VarproProblem(data.scheme, U, order, symmetric=True)
    resid = G - problem.l1(Z) @ beta.beta
    assert np.linalg.norm(resid) ** 2 < 1e-8 * np.sum(G**2)


def test_solve_static_k0_constant_temporal_function():
    P, d = 64, 3
    U = spline_interpolator(P, d)
    psi0 = np.ones((P, 1)) / np.sqrt(P)
    data, U, Z0, _, order = make_exact_model_data(P=P, K=0, N=5, d=d, J=16, seed=6, psi0=psi0)
    Z, _, report = solve(data, order, U, SolverConfig(max_iters=2000, restarts=2, seed=1))
    psi = (U @ Z)[:, 0]
    corr = abs(float(psi @ np.ones(P) / np.sqrt(P)))
    assert corr > 1 - 1e-6
    assert report.final_objective < 1e-8


def test_solve_deterministic():
    data, U, *_ , order = make_exact_model_data(P=32, K=1, N=3, d=3, J=12, seed=9)
    cfg = SolverConfig(max_iters=500, restarts=2, seed=42)
    Z1, b1, r1 = solve(data, order, U, cfg)
    Z2, b2, r2 = solve(data, order, U, cfg)
    assert np.array_equal(Z1, Z2)
    assert np.array_equal(b1.beta, b2.beta)
    assert np.array_equal(r1.raw_objective_trace, r2.raw_objective_trace)


def test_solve_warns_when_underdetermined():
    data, U, *_ , order = make_exact_model_data(P=32, K=1, N=3, d=3, J=12, seed=9)
    big = HarmonicOrder(N=20, K=2, d=3)  # (41)(3) = 123 > 2P = 64
    with pytest.warns(UserWarning, match="full column rank"):
        solve(data, big, U, SolverConfig(max_iters=5, restarts=1, seed=0))


def test_solve_report_contract():
    data, U, *_ , order = make_exact_model_data(P=32, K=1, N=3, d=3, J=12, seed=5)
    Z, beta, report = solve(data, order, U, SolverConfig(max_iters=800, restarts=3, seed=2))
    # orthonormality after polar finalization
    assert report.final_orthonormality_defect < 1e-8
    assert np.linalg.norm(Z.T @ Z - np.eye(order.n_temporal)) < 1e-8
    # incumbent trace is non-increasing (monotone trend, any smoothing window)
    assert np.all(np.diff(report.objective_trace) <= 0.0)
    assert 0 <= report.chosen_restart < 3
    assert report.iterations_used == report.raw_objective_trace.size
    assert len(report.restart_objectives) == 3
    assert report.z_identifiable is True  # d = 3 > K+1 = 2
    assert report.rank_margin == 2 * 32 - 7 * 2
    # final objective equals the best incumbent up to the polar correction
    assert report.final_objective <= report.objective_trace[-1] + 1e-10


def test_solve_consistency_of_reported_objective():
    """Re-assembled residuals reproduce the reported objective."""
    data, U, *_ , order = make_exact_model_data(P=64, K=1, N=4, d=3, J=20, seed=13)
    # perturb the data so the fit is not exact
    noisy = TimeSequentialSinogram(
        values=data.values + 0.05 * np.abs(data.values).max()
        * np.random.default_rng(0).standard_normal(data.values.shape),
        scheme=data.scheme,
        detector=data.detector,
    )
    Z, beta, report = solve(noisy, order, U, SolverConfig(max_iters=1500, restarts=2, seed=3))
    G = stacked_data(noisy, symmetric=True)
    problem = VarproProblem(noisy.scheme, U, order, symmetric=True)
    resid = float(np.sum((G - problem.l1(Z) @ beta.beta) ** 2)) / np.sum(G**2)
    assert resid == pytest.approx(report.final_objective, rel=1e-8)


def noisy_exact_data(P, K, N, d, J, seed, sigma=0.05):
    data, U, *_, order = make_exact_model_data(P=P, K=K, N=N, d=d, J=J, seed=seed)
    r = np.random.default_rng(seed + 100)
    noisy = TimeSequentialSinogram(
        values=data.values + sigma * np.abs(data.values).max()
        * r.standard_normal(data.values.shape),
        scheme=data.scheme,
        detector=data.detector,
    )
    return noisy, U, order


def _solution(data, U, Z, beta, order, symmetric):
    return ProSepSolution(Z=Z, U=U, beta=beta, model=order, scheme=data.scheme,
                          detector=data.detector, times=data.times, symmetric=symmetric)


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("seed", [2, 7])
def test_closed_form_matches_adam_when_d_equals_k_plus_1(symmetric, seed):
    """Oracle: Adam + polar + inner_beta, the path d = K+1 no longer takes."""
    data, U, order = noisy_exact_data(P=32, K=2, N=3, d=3, J=12, seed=seed)
    config = SolverConfig(restarts=1, seed=seed)
    problem = VarproProblem(data.scheme, U, order, symmetric=symmetric)
    G = stacked_data(data, symmetric)
    G_n = G / np.linalg.norm(G)
    Z0 = _polar_orthonormalize(np.random.default_rng(seed).standard_normal((3, 3)))
    Z_adam = _polar_orthonormalize(_adam_descent(problem, G_n, Z0, config)[0])
    beta_adam = HarmonicCoefficients(beta=inner_beta(problem.l1(Z_adam), G), order=order)
    f_adam = problem.objective_and_gradient_from_data(Z_adam, G_n)[0]

    Z, beta, report = solve(data, order, U, config, symmetric=symmetric)
    assert report.final_objective > 1e-4  # the noisy data do not fit exactly
    assert report.final_objective == pytest.approx(f_adam, rel=1e-10)
    ours = _solution(data, U, Z, beta, order, symmetric)
    oracle = _solution(data, U, Z_adam, beta_adam, order, symmetric)
    angles = np.arange(40) * np.pi / 40
    for p in (0, 11, 31):
        assert _rel(synthesize_sinogram(ours, p, angles).values,
                    synthesize_sinogram(oracle, p, angles).values) < 1e-10
    movie = reconstruct_movie(ours, fbp_angles_count=24).as_array()
    assert _rel(movie, reconstruct_movie(oracle, fbp_angles_count=24).as_array()) < 1e-10


def test_solve_closed_form_report_contract(monkeypatch):
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=2, J=12, seed=4)
    calls = []
    evaluate = VarproProblem.objective_and_gradient_from_data

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(VarproProblem, "objective_and_gradient_from_data", counted)
    # a cap of one iteration cannot be reached: no descent runs
    Z, beta, report = solve(data, order, U, SolverConfig(max_iters=1, restarts=3))
    assert np.array_equal(Z, np.eye(2))
    assert report.converged and report.iterations_used == 0
    assert report.restart_objectives == [] and report.aborted_restarts == []
    assert report.final_orthonormality_defect == 0.0
    assert report.objective_trace.tolist() == [report.final_objective]
    assert report.raw_objective_trace.tolist() == [report.final_objective]
    assert report.z_identifiable is False
    assert report.rank_margin == 2 * 32 - 7 * 2
    assert len(calls) == 1
    # beta is the least-squares fit on L1(I), and the objective is its residual
    G = stacked_data(data, symmetric=True)
    problem = VarproProblem(data.scheme, U, order, symmetric=True)
    assert np.array_equal(beta.beta, inner_beta(problem.l1(np.eye(2)), G))
    resid = float(np.sum((G - problem.l1(Z) @ beta.beta) ** 2)) / np.sum(G**2)
    assert resid == pytest.approx(report.final_objective, rel=1e-10)


@pytest.mark.parametrize("d", [2, 4])
def test_solve_zero_data_is_exact_without_descent(d):
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=d, J=12, seed=1)
    zero = TimeSequentialSinogram(values=np.zeros_like(data.values), scheme=data.scheme,
                                  detector=data.detector)
    Z, beta, report = solve(zero, order, U, SolverConfig(restarts=2), symmetric=False)
    assert np.array_equal(Z, np.eye(d)[:, :2])
    assert np.all(beta.beta == 0.0)
    assert report.final_objective == 0.0 and report.converged
    assert report.iterations_used == 0
    assert report.z_identifiable is (d > 2)
    assert report.rank_margin == 32 - 7 * 2


@pytest.mark.parametrize("value", [-8.9e-16, 0.0, 3.0e-4])
def test_descent_stops_on_a_flat_objective_of_any_sign(value):
    """A constant objective stalls after 350 steps, also when it rounds below 0."""

    class Flat:
        def objective_and_gradient_from_data(self, Z, G, mu):
            return value, np.zeros_like(Z)

    _, best_f, raw, _, converged = _adam_descent(
        Flat(), None, np.eye(3)[:, :2], SolverConfig(max_iters=2000))
    assert converged and best_f == value
    assert raw.size == 351
