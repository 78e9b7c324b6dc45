import json
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import (
    data_2p,
    inner_beta,
    l1_2p,
    make_exact_model_data,
    max_principal_angle,
    objective_and_gradient_2p,
    rotate_rows,
)
from prosep.cli import main
from prosep.phantom import TimeSequentialSinogram
from prosep.psmodel import (
    HarmonicCoefficients,
    HarmonicOrder,
    face_split,
    harmonic_blocks,
    spline_interpolator,
)
from prosep.radon import DetectorGrid
from prosep.recon import ProSepSolution, movie_chunks, movie_factors, synthesize_sinogram
from prosep import solver as solver_module
from prosep.sampling import AngularScheme, bit_reversed, random_scheme, sample_times
from prosep.solver import (
    SolverConfig,
    VarproProblem,
    _adam_descent,
    _polar_orthonormalize,
    _truncated_lstsq,
    solve,
    stacked_data,
)


def small_problem(rng, P=24, N=3, K=1, d=3, symmetric=True):
    scheme = random_scheme(P, span=np.pi, seed=int(rng.integers(2**31)))
    order = HarmonicOrder(N=N, K=K, d=d)
    U = spline_interpolator(P, d)
    problem = VarproProblem(scheme, U, order, symmetric=symmetric)
    return scheme, order, U, problem


def duplicated_angles():
    """16 angles doubled 1e-14 apart (P = 32): tall blocks of L1 with rank 16."""
    base = np.linspace(0.05, np.pi - 0.05, 16)
    return AngularScheme(angles=np.sort(np.concatenate([base, base + 1e-14])), span=np.pi,
                         kind="custom")


def random_Z(rng, d, K):
    return np.linalg.qr(rng.standard_normal((d, K + 1)))[0]


def random_blocks(rng, problem, m):
    """Random data blocks shaped like the problem's blocks of L1 (P x m each)."""
    return [rng.standard_normal((b.theta.shape[0], m)) for b in problem.blocks]


def l1_blocks(problem, Z):
    """The blocks of L1(Z) at full P rows, one per entry of ``problem.blocks``."""
    return [face_split(b.theta, b.V @ Z) for b in problem.blocks]


def in_range_blocks(rng, problem, Z, m):
    """Data blocks in range(L1(Z)), block by block."""
    return [L @ rng.standard_normal((L.shape[1], m)) for L in l1_blocks(problem, Z)]


def normalized(G):
    norm = np.sqrt(sum(np.sum(Gb**2) for Gb in G))
    return [Gb / norm for Gb in G]


def total_sq(G):
    return sum(float(np.sum(Gb**2)) for Gb in G)


def solve_fit(problem, Z, data, symmetric):
    """(beta, objective) of ``fit`` the way ``solve`` runs it: on the data scaled
    to unit norm, beta scaled back."""
    G = stacked_data(data, symmetric)
    norm = np.sqrt(total_sq(G))
    beta, F, _, _ = problem.fit(Z, problem.reduce([Gb / norm for Gb in G]), data.values.shape[0])
    return beta * norm, F


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
    (plain,) = stacked_data(data, symmetric=False)
    assert np.array_equal(plain, e1)
    # the only bin is its own mirror: [e1; e1] rotates to (sqrt2 e1, 0), weight 1
    even, odd = stacked_data(data, symmetric=True)
    assert np.allclose(even, np.sqrt(2.0) * e1, rtol=0, atol=1e-15)
    assert np.array_equal(odd, 0.0 * e1)


@pytest.mark.parametrize("J", [6, 7])
def test_stacked_data_folds_the_rotated_2p_data(J):
    """Oracle: rotate the 2P x J columns [g(s_j); g(-s_j)], then keep ceil(J/2) bins."""
    scheme = random_scheme(10, span=np.pi, seed=3)
    vals = np.random.default_rng(J).standard_normal((J, 10))
    data = TimeSequentialSinogram(values=vals, scheme=scheme,
                                  detector=DetectorGrid(count=J, spacing=0.1))
    half = (J + 1) // 2
    j = np.arange(half)
    weights = np.where(j == J - 1 - j, 1.0, np.sqrt(2.0))  # a middle bin is its own mirror
    for sign, got, rotated in zip((1.0, -1.0), stacked_data(data, symmetric=True),
                                  rotate_rows(data_2p(data, True), True)):
        assert got.shape == (10, half)
        # bin J-1-j carries bin j's even part and its odd part negated
        assert np.allclose(rotated[:, ::-1], sign * rotated, rtol=0, atol=1e-15)
        assert np.allclose(got, rotated[:, :half] * weights, rtol=1e-15, atol=1e-15)


def test_stacked_data_rank_bounded_by_model_size():
    P, K, N = 64, 2, 4
    data, *_ = make_exact_model_data(P=P, K=K, N=N, d=4, J=40, seed=1)
    for harmonics, block in zip(harmonic_blocks(N, True), stacked_data(data, symmetric=True)):
        s = np.linalg.svd(block, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert rank <= harmonics.size * (K + 1)


# ---------------------------------------------------------------- inner beta

def test_inner_beta_recovers_consistent_solution(rng):
    scheme, order, U, _ = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    L1 = l1_2p(scheme, order.N, U, Z, True)
    beta0 = rng.standard_normal(order.cols)
    ghat = L1 @ beta0
    assert np.allclose(inner_beta(L1, ghat), beta0, rtol=1e-10, atol=1e-10)


def test_inner_beta_zero_rhs(rng):
    scheme, order, U, _ = small_problem(rng)
    L1 = l1_2p(scheme, order.N, U, random_Z(rng, order.d, order.K), True)
    assert np.all(inner_beta(L1, np.zeros(L1.shape[0])) == 0.0)


def test_inner_beta_orthogonal_rhs_gives_zero(rng):
    scheme, order, U, _ = small_problem(rng)
    L1 = l1_2p(scheme, order.N, U, random_Z(rng, order.d, order.K), True)
    Q, _ = np.linalg.qr(L1)
    g = rng.standard_normal(L1.shape[0])
    g_perp = g - Q @ (Q.T @ g)
    beta = inner_beta(L1, g_perp)
    assert np.linalg.norm(beta) < 1e-10 * np.linalg.norm(g_perp)
    resid = np.linalg.norm(g_perp - L1 @ beta)
    assert resid == pytest.approx(np.linalg.norm(g_perp), rel=1e-10)


def test_block_truncation_is_relative_to_the_whole_L1():
    """A block whose singular values are all below 1e-10 of the other block's is truncated.

    Oracle: inner_beta on the block-diagonal stack, which sees one spectrum.
    """
    r = np.random.default_rng(2)
    strong = np.linalg.qr(r.standard_normal((6, 3)))[0] * [3.0, 2.0, 1.0]
    weak = np.linalg.qr(r.standard_normal((5, 2)))[0] * [4e-11, 1e-11]
    G = [r.standard_normal((6, 4)), r.standard_normal((5, 4))]
    got, _, truncated = _truncated_lstsq([strong, weak], G)
    stacked = np.zeros((11, 5))
    stacked[:6, :3], stacked[6:, 3:] = strong, weak
    want = inner_beta(stacked, np.vstack(G))
    assert np.all(got[1] == 0.0) and truncated == 2
    assert np.allclose(np.vstack(got), want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- objective

def objective(problem, Z, G):
    return problem.objective_and_gradient_from_data(Z, problem.reduce(G))[0]


def test_objective_zero_for_in_range_data(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    G = in_range_blocks(rng, problem, Z, 5)
    assert objective(problem, Z, G) <= 1e-10 * total_sq(G)


def test_objective_zero_for_square_full_rank_L1(rng):
    # (2N+1)(K+1) = 6 = P without the symmetry: L1 is square and a.s. full rank
    order = HarmonicOrder(N=1, K=1, d=2)
    problem = VarproProblem(random_scheme(6, span=2 * np.pi, seed=8), spline_interpolator(6, 2),
                            order, symmetric=False)
    Z = random_Z(rng, 2, 1)
    assert objective(problem, Z, [np.eye(6)]) <= 1e-10 * 6


def test_objective_on_square_rank_deficient_symmetric_L1(rng):
    """2P = 6 = (2N+1)(K+1), but the odd block has 4 columns on P = 3 rows.

    So the square 2P-row L1 has rank 5, and G = I leaves one unit of
    residual, as on the 2P-row oracle.
    """
    order = HarmonicOrder(N=1, K=1, d=2)
    scheme, U = random_scheme(3, span=np.pi, seed=8), spline_interpolator(3, 2)
    problem = VarproProblem(scheme, U, order, symmetric=True)
    Z = random_Z(rng, 2, 1)
    F = objective(problem, Z, rotate_rows(np.eye(6), True))
    F_ref = objective_and_gradient_2p(scheme, 1, U, Z, np.eye(6), 1, True)[0]
    assert F_ref == pytest.approx(1.0, rel=1e-10)
    assert F == pytest.approx(F_ref, rel=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_objective_with_fewer_rows_than_columns(rng, d):
    """rows(L1) < (2N+1)(K+1): R is not square, and a full-row-rank L1 fits any G."""
    _, order, _, problem = small_problem(rng, P=8, N=6, K=1, d=d, symmetric=False)
    (block,) = problem.blocks
    assert block.theta.shape[0] < order.cols
    G = random_blocks(rng, problem, 5)
    F, g = problem.objective_and_gradient_from_data(random_Z(rng, d, 1), problem.reduce(G))
    assert abs(F) < 1e-10 * total_sq(G)
    assert np.linalg.norm(g) < 1e-10 * total_sq(G)


def test_objective_matches_brute_force_residual(rng):
    scheme, order, U, problem = small_problem(rng, P=20, N=2, K=2, d=4)
    Z = random_Z(rng, order.d, order.K)
    G = rng.standard_normal((40, 9))  # any 2P-row data, rotated into the blocks
    F = objective(problem, Z, rotate_rows(G, True))
    L1 = l1_2p(scheme, order.N, U, Z, True)
    beta = inner_beta(L1, G)
    brute = float(np.sum((G - L1 @ beta) ** 2))
    assert F == pytest.approx(brute, rel=1e-10)


def step_branches(monkeypatch):
    """Counters of the descent step's fallbacks: (QR or SVD, SVD); both stay empty
    when the step takes the normal equations."""
    return (count_calls(monkeypatch, solver_module, "_qr_or_truncated_lstsq"),
            count_calls(monkeypatch, solver_module, "_truncated_lstsq"))


def test_objective_is_the_residual_of_beta_on_a_rank_deficient_tall_L1(monkeypatch):
    """16 angles doubled 1e-14 apart: both blocks are tall (32 rows) but have rank 16.

    F and its gradient are those of the residual of the truncated
    least-squares beta, as on the 2P-row oracle.  ||G||^2 - ||Q^T G||^2
    from a QR would count the numerically null directions as fitted.
    Each A_b (32 x 42) is wide, so the step falls back, past the QR, to
    the truncated SVD.
    """
    scheme = duplicated_angles()
    U = spline_interpolator(32, 2)
    problem = VarproProblem(scheme, U, HarmonicOrder(N=20, K=0, d=2), symmetric=True)
    Z = random_Z(np.random.default_rng(0), 2, 0)
    G = np.random.default_rng(5).standard_normal((64, 7))
    Y = problem.reduce(rotate_rows(G, True))
    fallbacks, svds = step_branches(monkeypatch)
    F, g = problem.objective_and_gradient_from_data(Z, Y)
    assert len(fallbacks) == len(svds) == 1
    F_ref, g_ref = objective_and_gradient_2p(scheme, 20, U, Z, G, 0, True)
    assert F == pytest.approx(F_ref, rel=1e-10)
    assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)


def test_objective_is_never_negative_on_exact_model_data():
    """An exact fit leaves a residual of rounding size, a sum of squares, not below 0."""
    for seed in range(120):
        data, U, Z0, _, order = make_exact_model_data(P=32, K=1, N=3, d=3, J=12, seed=seed)
        problem = VarproProblem(data.scheme, U, order, symmetric=True)
        G = normalized(stacked_data(data, symmetric=True))
        assert 0.0 <= objective(problem, Z0, G) < 1e-20, seed


def test_objective_bounds_and_range_invariance(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    G = random_blocks(rng, problem, 7)
    F = objective(problem, Z, G)
    assert 0.0 <= F <= total_sq(G) * (1 + 1e-12)
    # right-multiplying Z by an orthogonal matrix preserves range(L1)
    O = np.linalg.qr(rng.standard_normal((order.K + 1, order.K + 1)))[0]
    F2 = objective(problem, Z @ O, G)
    assert F2 == pytest.approx(F, rel=1e-10)
    # so does any invertible Q: L1(ZQ) = L1(Z) (I (x) Q) block by block.  F(ZQ) = F(Z)
    # for all Z, so by the chain rule g(ZQ) = g(Z) Q^-T.  d > K+1, mu = 0.
    for symmetric in (True, False):
        _, order, _, problem = small_problem(rng, K=2, d=4, symmetric=symmetric)
        assert order.d > order.K + 1
        Z = random_Z(rng, order.d, order.K)
        G = random_blocks(rng, problem, 7)
        O1, O2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        Q = O1 @ np.diag([1.0, 2.5, 8.0]) @ O2
        assert 5.0 < np.linalg.cond(Q) <= 10.0
        F, g = problem.objective_and_gradient_from_data(Z, problem.reduce(G), mu=0.0)
        FQ, gQ = problem.objective_and_gradient_from_data(Z @ Q, problem.reduce(G), mu=0.0)
        assert F > 1e-2 * total_sq(G)  # random data: a residual well above rounding
        assert FQ == pytest.approx(F, rel=1e-10)
        want = g @ np.linalg.inv(Q).T
        assert np.linalg.norm(gQ - want) <= 1e-10 * np.linalg.norm(want)


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
    G = normalized(stacked_data(noisy, symmetric=True))
    Za, Zb = random_Z(r, order.d, order.K), random_Z(r, order.d, order.K)
    Fa, ga = problem.objective_and_gradient_from_data(Za, problem.reduce(G))
    Fb, gb = problem.objective_and_gradient_from_data(Zb, problem.reduce(G))
    assert Fa > 1e-4  # the noisy data do not fit exactly
    assert Fb == pytest.approx(Fa, rel=1e-10)
    assert max(np.linalg.norm(ga), np.linalg.norm(gb)) < 1e-12
    sinos = []
    for Z in (Za, Zb):
        L1 = l1_2p(noisy.scheme, order.N, U, Z, True)
        beta = HarmonicCoefficients(beta=inner_beta(L1, data_2p(noisy, True)), order=order)
        sol = ProSepSolution(Z=Z, U=U, beta=beta, model=order, scheme=noisy.scheme,
                             detector=noisy.detector, times=sample_times(noisy.P))
        angles = np.arange(48) * np.pi / 48
        sinos.append(np.stack([synthesize_sinogram(sol, p, angles).values
                               for p in (0, 13, 31)]))
    assert np.linalg.norm(sinos[1] - sinos[0]) < 1e-12 * np.linalg.norm(sinos[0])


def _random_sinogram(P, J, seed, symmetric):
    span = np.pi if symmetric else 2 * np.pi
    vals = np.random.default_rng(seed).standard_normal((J, P))
    return TimeSequentialSinogram(values=vals, scheme=random_scheme(P, span=span, seed=seed),
                                  detector=DetectorGrid(count=J, spacing=2.0 / J))


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("J", [12, 13])
def test_objective_and_gradient_match_2p_oracle(symmetric, J):
    """The block sums equal the unsplit L1 on the unfolded data, odd and even J."""
    P, N, K, d = 64, 4, 2, 5
    data = _random_sinogram(P, J, seed=J, symmetric=symmetric)
    U = spline_interpolator(P, d)
    problem = VarproProblem(data.scheme, U, HarmonicOrder(N=N, K=K, d=d), symmetric)
    G = stacked_data(data, symmetric)
    r = np.random.default_rng(3)
    for _ in range(3):
        Z = random_Z(r, d, K) + 0.1 * r.standard_normal((d, K + 1))
        F, g = problem.objective_and_gradient_from_data(Z, problem.reduce(G))
        F_ref, g_ref = objective_and_gradient_2p(data.scheme, N, U, Z, data_2p(data, symmetric),
                                                 K, symmetric)
        assert F == pytest.approx(F_ref, rel=1e-12)
        assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


@pytest.mark.parametrize("P, N, K, d, symmetric, fallbacks", [
    (64, 4, 2, 5, True, 0),  # kappa(A) kappa(Z) <= 1e3: normal equations
    (16, 3, 1, 4, False, 1),  # A is 16 x 28, wider than tall: QR of the 16 x 14 L~
    (16, 0, 0, 2, True, 0),  # N = 0: the odd block has no harmonics, A_odd is 16 x 0
])
def test_objective_and_gradient_match_2p_oracle_on_each_step_branch(monkeypatch, P, N, K, d,
                                                                    symmetric, fallbacks):
    """The reduced step on either branch equals the unsplit L1, Z off the Stiefel manifold.

    The third branch, truncated least squares, is the rank-deficient tall
    L1 above.
    """
    data = _random_sinogram(P, 12, seed=P, symmetric=symmetric)
    U = spline_interpolator(P, d)
    problem = VarproProblem(data.scheme, U, HarmonicOrder(N=N, K=K, d=d), symmetric)
    Y = problem.reduce(stacked_data(data, symmetric))
    qr, svd = step_branches(monkeypatch)
    r = np.random.default_rng(4)
    for step in range(1, 4):
        Z = random_Z(r, d, K) @ np.diag(np.geomspace(1.0, 0.2, K + 1)) \
            + 0.1 * r.standard_normal((d, K + 1))
        F, g = problem.objective_and_gradient_from_data(Z, Y)
        assert (len(qr), len(svd)) == (step * fallbacks, 0)
        F_ref, g_ref = objective_and_gradient_2p(data.scheme, N, U, Z, data_2p(data, symmetric),
                                                 K, symmetric)
        assert F == pytest.approx(F_ref, rel=1e-10)
        assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)


@pytest.mark.parametrize("symmetric", [True, False])
def test_reduced_l1_condition_is_bounded_by_kappa_A_times_kappa_Z(symmetric):
    """sigma_min(A (I (x) Z)) >= sigma_min(A) sigma_min(Z): the bound the step's branch rule uses.

    Per block, and for the block-diagonal L~ against the problem's kappa(A)
    over all blocks; random Z, orthonormal and with columns scaled over
    three decades.
    """
    r = np.random.default_rng(11)
    for P, N, K, d in [(40, 3, 1, 4), (64, 4, 2, 5), (24, 1, 0, 3), (30, 2, 3, 6)]:
        scheme = random_scheme(P, span=np.pi if symmetric else 2 * np.pi, seed=P)
        problem = VarproProblem(scheme, spline_interpolator(P, d), HarmonicOrder(N=N, K=K, d=d),
                                symmetric)
        QR, kappa_A = problem.qr, problem.kappa_A
        for Z in (random_Z(r, d, K), r.standard_normal((d, K + 1)),
                  r.standard_normal((d, K + 1)) @ np.diag(np.geomspace(1.0, 1e-3, K + 1))):
            kappa_Z = np.linalg.cond(Z)
            blocks = []
            for (_, R), b in zip(QR, problem.blocks):
                L = R @ np.kron(np.eye(b.harmonics.size), Z)
                assert np.linalg.cond(L) <= np.linalg.cond(R) * kappa_Z * (1 + 1e-12)
                blocks.append(L)
            s = np.concatenate([np.linalg.svd(L, compute_uv=False) for L in blocks])
            assert s.max() / s.min() <= kappa_A * kappa_Z * (1 + 1e-12)


def _duplicated_angle_sinogram(J, seed):
    """Random data on ``duplicated_angles()`` (P = 32)."""
    vals = np.random.default_rng(seed).standard_normal((J, 32))
    return TimeSequentialSinogram(values=vals, scheme=duplicated_angles(),
                                  detector=DetectorGrid(count=J, spacing=2.0 / J))


# (P, N, K, d, symmetric) of each shape of L1 the fit must handle
FIT_CASES = {
    "tall-symmetric": (40, 5, 2, 4, True),
    "tall": (48, 5, 2, 4, False),  # A is tall too, (2N+1)d = 44: data outside range(Q)
    "wide": (16, 3, 2, 3, False),  # P = 16 < (2N+1)(K+1) = 21
    "duplicated-angles": (32, 20, 0, 2, True),  # rank-deficient, tall
    "no-odd-harmonics": (16, 0, 0, 2, True),  # N = 0: the odd block has no columns
}


@pytest.mark.parametrize("random_z", [False, True])
@pytest.mark.parametrize("case", FIT_CASES)
def test_fit_matches_inner_beta_on_2p_oracle(case, random_z):
    """fit on the reduced data equals lstsq on the unsplit L1 and the unfolded data.

    Z = I and a random Z off the Stiefel manifold.  beta is the
    minimum-norm truncated fit, and F its residual sum of squares.
    """
    P, N, K, d, symmetric = FIT_CASES[case]
    J = 13
    data = (_duplicated_angle_sinogram(J, seed=P) if case == "duplicated-angles"
            else _random_sinogram(P, J, seed=P + N, symmetric=symmetric))
    U = spline_interpolator(P, d)
    problem = VarproProblem(data.scheme, U, HarmonicOrder(N=N, K=K, d=d), symmetric)
    Z = (np.random.default_rng(N).standard_normal((d, K + 1)) if random_z
         else np.eye(d)[:, :K + 1])
    beta, F, _, _ = problem.fit(Z, problem.reduce(stacked_data(data, symmetric)), J)
    L1, G = l1_2p(data.scheme, N, U, Z, symmetric), data_2p(data, symmetric)
    want = inner_beta(L1, G)
    assert np.abs(beta - want).max() <= 1e-10 * np.abs(want).max()
    assert abs(F - np.sum((G - L1 @ want) ** 2)) <= 1e-10 * np.sum(G**2)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("J", [12, 13])
@pytest.mark.parametrize("d", [3, 4])
def test_solve_beta_matches_inner_beta_on_2p_oracle(symmetric, J, d):
    """beta scattered from the blocks equals pinv of the unsplit L1 on the unfolded data."""
    P, N, K = 40, 5, 2
    data = _random_sinogram(P, J, seed=J + d, symmetric=symmetric)
    U = spline_interpolator(P, d)
    Z, beta, _ = solve(data, HarmonicOrder(N=N, K=K, d=d), U,
                       SolverConfig(max_iters=50, restarts=1), symmetric=symmetric)
    want = inner_beta(l1_2p(data.scheme, N, U, Z, symmetric), data_2p(data, symmetric))
    assert np.abs(beta.beta - want).max() <= 1e-10 * np.abs(want).max()
    if symmetric:
        # bin J-1-j is bin j times (-1)^n: even rows mirror-symmetric, odd antisymmetric
        B = beta.beta.reshape(2 * N + 1, K + 1, J)
        even, odd = harmonic_blocks(N, True)
        assert np.array_equal(B[even], B[even][:, :, ::-1])
        assert np.array_equal(B[odd], -B[odd][:, :, ::-1])


@pytest.mark.parametrize("d", [1, 2])
def test_solve_with_no_odd_harmonics(d):
    """N = 0 under the symmetry: the odd block of L1 has no columns, with and without descent."""
    P, K, J = 16, 0, 12
    data = _random_sinogram(P, J, seed=d, symmetric=True)
    U = spline_interpolator(P, d)
    Z, beta, report = solve(data, HarmonicOrder(N=0, K=K, d=d), U,
                            SolverConfig(max_iters=50, restarts=1), symmetric=True)
    assert report.iterations_used == (0 if d == K + 1 else 50)
    want = inner_beta(l1_2p(data.scheme, 0, U, Z, True), data_2p(data, True))
    assert np.abs(beta.beta - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("P, warns, block_margin", [(185, True, -1), (186, False, 0)])
def test_solve_rank_condition_is_per_block(P, warns, block_margin):
    """N = 30, K = 5: 2P >= (2N+1)(K+1) = 366 at both P, but full rank needs P >= 186."""
    data = _random_sinogram(P, 4, seed=P, symmetric=True)
    order = HarmonicOrder(N=30, K=5, d=6)
    assert order.solvable(P, symmetric=True) is not warns
    U = spline_interpolator(P, 6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, _, report = solve(data, order, U, SolverConfig(), symmetric=True)
    assert any("full column rank" in str(w.message) for w in caught) is warns
    assert report.rank_margin == 2 * P - 366
    assert report.block_rank_margin == block_margin
    s = np.linalg.svd(l1_2p(data.scheme, 30, U, np.eye(6), True), compute_uv=False)
    assert bool(s[-1] / s[0] < 1e-12) is warns  # the unsplit L1 is singular exactly then


def test_solve_warns_when_underdetermined_without_symmetry():
    """P = 32 < (2N+1)(K+1) = 35 without the symmetry (2P = 64 would pass)."""
    data = _random_sinogram(32, 4, seed=1, symmetric=False)
    order = HarmonicOrder(N=3, K=4, d=5)
    with pytest.warns(UserWarning, match="full column rank"):
        _, _, report = solve(data, order, spline_interpolator(32, 5), SolverConfig(),
                                 symmetric=False)
    assert report.rank_margin == report.block_rank_margin == -3


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
        G = normalized(random_blocks(r, problem, 6))
        mu = 1.0
        g = problem.objective_and_gradient_from_data(Z, problem.reduce(G), mu)[1]
        g_fd = _fd_gradient(problem, Z, G, mu)
        rel = np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd)
        assert rel < 1e-5, f"trial {trial}: rel err {rel:.2e}"


def test_gradient_zero_at_exact_solution(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    G = in_range_blocks(rng, problem, Z, 8)
    g = problem.objective_and_gradient_from_data(Z, problem.reduce(G), 1.0)[1]
    assert np.linalg.norm(g) < 1e-8 * total_sq(G)


def test_penalty_gradient_zero_on_stiefel(rng):
    _, order, _, problem = small_problem(rng)
    Z = random_Z(rng, order.d, order.K)
    G = [np.zeros((b.theta.shape[0], 1)) for b in problem.blocks]
    # objective part vanishes with G = 0
    g = problem.objective_and_gradient_from_data(Z, problem.reduce(G), 3.0)[1]
    assert np.linalg.norm(g) < 1e-12


# ---------------------------------------------------------------- solve

@pytest.mark.parametrize("field, bad", [("max_iters", 0), ("restarts", 0), ("seed", -1)])
def test_solver_config_rejects_out_of_range_values(field, bad):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: bad})


def test_solve_exact_model_recovery_small():
    data, U, Z0, beta0, order = make_exact_model_data(P=64, K=2, N=6, d=4, J=24, seed=3)
    config = SolverConfig(max_iters=3000, restarts=2, seed=0)
    Z, beta, report = solve(data, order, U, config, symmetric=True)
    assert report.final_objective < 1e-8  # normalized by tr(Xi)
    assert max_principal_angle(U @ Z, U @ Z0) < 1e-3
    # recovered coefficients reproduce the data
    G = data_2p(data, True)
    resid = G - l1_2p(data.scheme, order.N, U, Z, True) @ beta.beta
    assert np.linalg.norm(resid) ** 2 < 1e-8 * np.sum(G**2)


def test_solve_static_k0_constant_temporal_function():
    P, d = 64, 3
    U = spline_interpolator(P, d)
    psi0 = np.ones((P, 1)) / np.sqrt(P)
    data, U, Z0, _, order = make_exact_model_data(P=P, K=0, N=5, d=d, J=16, seed=6, psi0=psi0)
    Z, _, report = solve(data, order, U, SolverConfig(max_iters=2000, restarts=2, seed=1),
                         symmetric=True)
    psi = (U @ Z)[:, 0]
    corr = abs(float(psi @ np.ones(P) / np.sqrt(P)))
    assert corr > 1 - 1e-6
    assert report.final_objective < 1e-8


def test_solve_deterministic():
    data, U, *_ , order = make_exact_model_data(P=32, K=1, N=3, d=3, J=12, seed=9)
    cfg = SolverConfig(max_iters=500, restarts=2, seed=42)
    Z1, b1, r1 = solve(data, order, U, cfg, symmetric=True)
    Z2, b2, r2 = solve(data, order, U, cfg, symmetric=True)
    assert np.array_equal(Z1, Z2)
    assert np.array_equal(b1.beta, b2.beta)
    assert np.array_equal(r1.raw_objective_trace, r2.raw_objective_trace)


def test_solve_warns_when_underdetermined():
    data, U, *_ , order = make_exact_model_data(P=32, K=1, N=3, d=3, J=12, seed=9)
    big = HarmonicOrder(N=20, K=2, d=3)  # (41)(3) = 123 > 2P = 64
    with pytest.warns(UserWarning, match="full column rank"):
        solve(data, big, U, SolverConfig(max_iters=5, restarts=1, seed=0), symmetric=True)


def test_solve_report_contract():
    data, U, *_ , order = make_exact_model_data(P=32, K=1, N=3, d=3, J=12, seed=5)
    Z, beta, report = solve(data, order, U, SolverConfig(max_iters=800, restarts=3, seed=2),
                            symmetric=True)
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
    assert report.block_rank_margin == 32 - 4 * 2
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
    Z, beta, report = solve(noisy, order, U, SolverConfig(max_iters=1500, restarts=2, seed=3),
                            symmetric=True)
    G = data_2p(noisy, True)
    L1 = l1_2p(noisy.scheme, order.N, U, Z, True)
    resid = float(np.sum((G - L1 @ beta.beta) ** 2)) / np.sum(G**2)
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
                          detector=data.detector, times=sample_times(data.P),
                          symmetric=symmetric)


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("seed", [2, 7])
def test_closed_form_matches_adam_when_d_equals_k_plus_1(symmetric, seed):
    """Oracle: Adam + polar + inner_beta, the path d = K+1 no longer takes."""
    data, U, order = noisy_exact_data(P=32, K=2, N=3, d=3, J=12, seed=seed)
    config = SolverConfig(restarts=1, seed=seed)
    problem = VarproProblem(data.scheme, U, order, symmetric=symmetric)
    G_n = normalized(stacked_data(data, symmetric))
    Z0 = _polar_orthonormalize(np.random.default_rng(seed).standard_normal((3, 3)))
    Z_adam = _polar_orthonormalize(_adam_descent(problem, problem.reduce(G_n), Z0, config)[0])
    L1 = l1_2p(data.scheme, order.N, U, Z_adam, symmetric)
    beta_adam = HarmonicCoefficients(beta=inner_beta(L1, data_2p(data, symmetric)), order=order)
    f_adam = problem.objective_and_gradient_from_data(Z_adam, problem.reduce(G_n))[0]

    Z, beta, report = solve(data, order, U, config, symmetric=symmetric)
    assert report.final_objective > 1e-4  # the noisy data do not fit exactly
    assert report.final_objective == pytest.approx(f_adam, rel=1e-10)
    ours = _solution(data, U, Z, beta, order, symmetric)
    oracle = _solution(data, U, Z_adam, beta_adam, order, symmetric)
    angles = np.arange(40) * np.pi / 40
    for p in (0, 11, 31):
        assert _rel(synthesize_sinogram(ours, p, angles).values,
                    synthesize_sinogram(oracle, p, angles).values) < 1e-10
    grid = (24, data.detector.count, data.detector.spacing)
    movies = [np.concatenate(list(movie_chunks(*movie_factors(s, *grid)))) for s in (ours, oracle)]
    assert _rel(*movies) < 1e-10


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that appends to the returned list per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_solve_closed_form_report_contract(monkeypatch):
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=2, J=12, seed=4)
    calls = count_calls(monkeypatch, VarproProblem, "objective_and_gradient_from_data")
    fits = count_calls(monkeypatch, solver_module, "_truncated_lstsq")
    # a cap of one iteration cannot be reached: no descent runs
    Z, beta, report = solve(data, order, U, SolverConfig(max_iters=1, restarts=3), symmetric=True)
    assert np.array_equal(Z, np.eye(2))
    assert report.converged and report.iterations_used == 0
    assert report.restart_objectives == [] and report.aborted_restarts == []
    assert report.final_orthonormality_defect == 0.0
    assert report.objective_trace.tolist() == [report.final_objective]
    assert report.raw_objective_trace.tolist() == [report.final_objective]
    assert report.z_identifiable is False
    assert report.rank_margin == 2 * 32 - 7 * 2
    assert report.block_rank_margin == 32 - 4 * 2  # P - (N+1)(K+1)
    assert len(calls) == 0 and len(fits) == 1
    # beta is the least-squares fit on L1(I), and the objective is its residual
    problem = VarproProblem(data.scheme, U, order, symmetric=True)
    fitted, F = solve_fit(problem, np.eye(2), data, True)
    assert np.array_equal(beta.beta, fitted)
    assert report.final_objective == F
    G = data_2p(data, True)
    L1 = l1_2p(data.scheme, order.N, U, np.eye(2), True)
    want = inner_beta(L1, G)
    assert np.abs(beta.beta - want).max() <= 1e-10 * np.abs(want).max()
    resid = float(np.sum((G - L1 @ beta.beta) ** 2)) / np.sum(G**2)
    assert resid == pytest.approx(report.final_objective, rel=1e-10)


# the settings of the benchmark's lifted-d6-w32 workload: d > K+1, random angles, noiseless
LIFTED_D6_W32 = {
    "P": 128, "grid": {"width": 32}, "scheme": {"kind": "random", "seed": 7},
    "symmetric": True, "model": {"K": 3, "N": 12, "d": 6},
    "noise_sigma": 0.0, "solver": {"restarts": 1},
}


def test_lifted_d6_w32_descent_takes_the_normal_equations_at_every_step(monkeypatch, tmp_path):
    """kappa(A) kappa(Z) stays below 1e3 along the whole descent, so no step falls back to QR."""
    config = tmp_path / "lifted.json"
    config.write_text(json.dumps(LIFTED_D6_W32))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    calls = count_calls(monkeypatch, VarproProblem, "objective_and_gradient_from_data")
    fallbacks = count_calls(monkeypatch, solver_module, "_qr_or_truncated_lstsq")
    assert main(["reconstruct", "--input", str(run)]) == 0
    report = json.loads((run / "solver_report.json").read_text())
    assert report["converged"] and report["iterations_used"] == len(calls) > 0
    assert len(fallbacks) == 0
    assert report["truncated_singular_values"] == 0


# the settings of the benchmark's symm-d4-w64 workload at seed 0: d = K+1, bit-reversed angles
SYMM_D4_W64 = {
    "P": 128, "grid": {"width": 64}, "scheme": {"kind": "bit_reversed"},
    "symmetric": True, "model": {"K": 3, "N": 24, "d": 4},
    "noise_sigma": 0.01, "seed": 0, "solver": {"restarts": 1, "seed": 0},
}


def test_symm_d4_w64_fit_truncates_nothing(tmp_path):
    config = tmp_path / "symm.json"
    config.write_text(json.dumps(SYMM_D4_W64))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    assert main(["reconstruct", "--input", str(run)]) == 0
    report = json.loads((run / "solver_report.json").read_text())
    assert report["kappa_L1"] is not None and report["truncated_singular_values"] == 0


def test_solve_reports_the_singular_values_its_fit_truncated():
    """16 angles doubled 1e-11 apart: kappa_L1 is finite, yet the fit drops 5 of 37.

    N = 18, K = 0: the blocks hold 19 even and 18 odd harmonics on 32 rows.
    A gap of 1e-10 keeps every singular value above the 1e-10 cut-off.
    """
    base = np.linspace(0.05, np.pi - 0.05, 16)
    vals = np.random.default_rng(0).standard_normal((12, 32))
    order, U = HarmonicOrder(N=18, K=0, d=1), spline_interpolator(32, 1)
    for gap, truncated in ((1e-11, 5), (1e-10, 0)):
        scheme = AngularScheme(angles=np.sort(np.concatenate([base, base + gap])), span=np.pi,
                               kind="custom")
        data = TimeSequentialSinogram(values=vals, scheme=scheme,
                                      detector=DetectorGrid(count=12, spacing=2.0 / 12))
        _, _, report = solve(data, order, U, SolverConfig(), symmetric=True)
        assert report.kappa_L1 is not None and report.kappa_L1 > 1e9
        assert report.truncated_singular_values == truncated, gap


def test_descent_trace_grows_with_the_iterations_run():
    """A cap far beyond memory: the same descent as a cap of 5000, which it stops before."""
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=3, J=12, seed=5)
    _, beta, report = solve(data, order, U, SolverConfig(max_iters=5000, restarts=1),
                            symmetric=True)
    assert report.converged and report.iterations_used < 5000
    _, beta_big, big = solve(data, order, U, SolverConfig(max_iters=10**14, restarts=1),
                               symmetric=True)
    assert big.converged and big.iterations_used == report.iterations_used
    assert np.array_equal(big.raw_objective_trace, report.raw_objective_trace)
    assert big.final_objective == report.final_objective
    assert np.array_equal(beta_big.beta, beta.beta)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("d", [2, 3])
def test_solve_reports_kappa_of_the_fitted_l1(symmetric, d):
    """kappa_L1 is np.linalg.cond of the block-diagonal L1(Z) that beta was fitted on."""
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=d, J=12, seed=8)
    Z, _, report = solve(data, order, U, SolverConfig(max_iters=60, restarts=1),
                         symmetric=symmetric)
    stacked = block_diag(*l1_blocks(VarproProblem(data.scheme, U, order, symmetric), Z))
    assert report.kappa_L1 == pytest.approx(np.linalg.cond(stacked), rel=1e-10)
    # the parity rotation is orthogonal: the unsplit 2P-row L1 has the same kappa
    assert report.kappa_L1 == pytest.approx(np.linalg.cond(l1_2p(data.scheme, order.N, U, Z,
                                                                 symmetric)), rel=1e-10)


def test_solve_reports_no_kappa_when_a_block_is_wide():
    """P = 32 < (2N+1)(K+1) = 35 without the symmetry: L1 has no full column rank."""
    data = _random_sinogram(32, 4, seed=1, symmetric=False)
    with pytest.warns(UserWarning, match="full column rank"):
        _, _, report = solve(data, HarmonicOrder(N=3, K=4, d=5), spline_interpolator(32, 5),
                             SolverConfig(), symmetric=False)
    assert report.kappa_L1 is None


@pytest.mark.parametrize("symmetric", [True, False])
def test_solve_descent_evaluates_the_objective_once_per_iteration(monkeypatch, symmetric):
    """d > K+1, one restart: the objective runs only inside Adam, and F is the fit's residual."""
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=3, J=12, seed=5)
    calls = count_calls(monkeypatch, VarproProblem, "objective_and_gradient_from_data")
    Z, beta, report = solve(data, order, U, SolverConfig(max_iters=40, restarts=1),
                            symmetric=symmetric)
    assert report.z_identifiable and report.iterations_used == 40
    assert len(calls) == report.iterations_used
    fitted, F = solve_fit(VarproProblem(data.scheme, U, order, symmetric), Z, data, symmetric)
    assert np.array_equal(beta.beta, fitted)
    assert report.final_objective == F


def test_solve_picks_the_first_lowest_finite_restart(monkeypatch):
    """An aborted restart reads inf; the winner is the first argmin of the objectives."""
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=3, J=12, seed=6)
    results = iter([None, (np.eye(3)[:, :2], 2.0, np.array([3.0, 2.0]), True),
                    (np.eye(3)[:, 1:], 1.0, np.array([1.0]), False),
                    (np.eye(3)[:, :2], 1.0, np.array([1.0]), True)])
    monkeypatch.setattr(solver_module, "_adam_descent", lambda *args: next(results))
    Z, _, report = solve(data, order, U, SolverConfig(restarts=4), symmetric=True)
    assert report.restart_objectives == [np.inf, 2.0, 1.0, 1.0]
    assert report.aborted_restarts == [0]
    assert report.chosen_restart == 2 and not report.converged
    assert np.array_equal(Z, np.eye(3)[:, 1:])
    assert report.raw_objective_trace.tolist() == [1.0] and report.iterations_used == 1


def test_solve_raises_when_every_restart_aborts(monkeypatch):
    data, U, order = noisy_exact_data(P=32, K=1, N=3, d=3, J=12, seed=6)
    monkeypatch.setattr(solver_module, "_adam_descent", lambda *args: None)
    with pytest.raises(RuntimeError, match="all restarts diverged"):
        solve(data, order, U, SolverConfig(restarts=2), symmetric=True)


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
    assert report.block_rank_margin == 32 - 7 * 2


@pytest.mark.parametrize("value", [0.0, 3.0e-4])
def test_descent_stops_on_a_flat_objective_of_any_sign(value):
    """A constant objective stalls after 350 steps, also at an exact fit (F = 0)."""

    class Flat:
        def objective_and_gradient_from_data(self, Z, Y, mu):
            return value, np.zeros_like(Z)

    _, best_f, raw, converged = _adam_descent(
        Flat(), None, np.eye(3)[:, :2], SolverConfig(max_iters=2000))
    assert converged and best_f == value
    assert raw.size == 351
