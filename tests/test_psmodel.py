import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import build_A, build_L2, l1_2p, vec
from prosep.psmodel import (
    HarmonicCoefficients,
    HarmonicOrder,
    _bspline_design,
    _fix_column_signs,
    block_kappa,
    build_theta,
    condition_number,
    face_split,
    harmonic_blocks,
    harmonic_parity,
    l1_blocks,
    l2_row_factors,
    legendre_basis,
    real_trig_theta,
    real_trig_theta_hat,
    spline_interpolator,
)
from prosep.sampling import AngularScheme, bit_reversed, progressive, random_scheme


def scheme_of(angles, span=2 * np.pi):
    return AngularScheme(angles=np.asarray(angles, dtype=float), span=span, kind="custom")


# ---------------------------------------------------------------- theta

def test_theta_single_angle_zero():
    theta_hat = build_theta(scheme_of([0.0]), N=1)
    assert theta_hat.shape == (2, 3)
    assert np.allclose(theta_hat[:1], [[1.0, 1.0, 1.0]])


def test_theta_bar_parity_exact():
    theta_hat = build_theta(scheme_of([0.3, 2.2, 4.0]), N=1)
    signs = np.array([-1.0, 1.0, -1.0])  # (-1)^n for n = -1, 0, 1
    assert np.array_equal(theta_hat[3:], theta_hat[:3] * signs[None, :])


def test_theta_unit_modulus():
    theta_hat = build_theta(random_scheme(32, span=2 * np.pi, seed=5), N=7)
    assert np.allclose(np.abs(theta_hat), 1.0, atol=1e-14)


def test_theta_hat_row_norms():
    theta_hat = build_theta(random_scheme(16, span=2 * np.pi, seed=2), N=6)
    norms = np.linalg.norm(theta_hat, axis=1) ** 2
    assert np.allclose(norms, 2 * 6 + 1, rtol=1e-12)


def test_augmentation_matches_shifted_angles():
    """Rows P+p of theta_hat equal the theta rows of the angles + pi."""
    angles = np.array([0.13, 1.01, 2.4])
    N = 9
    theta_hat = build_theta(scheme_of(angles), N)
    theta_shift = build_theta(scheme_of((angles + np.pi) % (2 * np.pi)), N)[:3]
    assert np.allclose(theta_hat[3:], theta_shift, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- face split

def test_face_split_single_row():
    out = face_split(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    assert np.array_equal(out, [[3.0, 4.0, 6.0, 8.0]])


def test_face_split_with_ones_column_is_identity():
    A = np.arange(12.0).reshape(4, 3)
    out = face_split(A, np.ones((4, 1)))
    assert np.array_equal(out, A)


def test_face_split_rejects_row_mismatch():
    with pytest.raises(ValueError):
        face_split(np.ones((3, 2)), np.ones((4, 2)))


def test_face_split_gram_identity(rng):
    """(A . B)(A . B)^H == (A A^H) hadamard (B B^H)."""
    A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    B = rng.standard_normal((5, 2))
    M = face_split(A, B.astype(complex))
    lhs = M @ M.conj().T
    rhs = (A @ A.conj().T) * (B @ B.T)
    assert np.allclose(lhs, rhs, rtol=1e-12)


# ---------------------------------------------------------------- interpolators

def test_spline_full_dimension_is_complete_basis():
    U = spline_interpolator(32, 32)
    s = np.linalg.svd(U, compute_uv=False)
    assert abs(s[-1] - 1.0) < 1e-10 and abs(s[0] - 1.0) < 1e-10


def test_spline_d1_constant_column():
    U = spline_interpolator(100, 1)
    assert np.allclose(np.abs(U[:, 0]), 1.0 / 10.0, rtol=1e-12)


def test_spline_contains_cubics():
    P, d = 256, 4
    U = spline_interpolator(P, d)
    t = np.arange(P) / P
    target = 1.2 - 0.7 * t + 0.3 * t**2 + 2.1 * t**3
    resid = target - U @ (U.T @ target)
    assert np.linalg.norm(resid) < 1e-8


def test_spline_orthonormal_and_shape():
    for P, d in [(64, 8), (128, 5), (50, 2)]:
        U = spline_interpolator(P, d)
        assert U.shape == (P, d)
        assert np.linalg.norm(U.T @ U - np.eye(d)) < 1e-12


@pytest.mark.parametrize("d", range(1, 21))
def test_bspline_design_matches_scipy_oracle(d):
    """The Cox-de Boor design equals scipy's BSpline.design_matrix (extrapolate=False)."""
    from scipy.interpolate import BSpline

    degree = min(3, d - 1)
    knots = np.concatenate([np.zeros(degree + 1),
                            np.linspace(0.0, 1.0, d - degree + 1)[1:-1], np.ones(degree + 1)])
    for P in sorted({d, 10, 33, 64, 128, 300, 512} - set(range(d))):
        t = np.arange(P) / P
        want = BSpline.design_matrix(t, knots, degree, extrapolate=False).toarray()
        assert np.abs(_bspline_design(t, knots, degree) - want).max() <= 1e-14


def test_spline_rejects_d_greater_than_P():
    with pytest.raises(ValueError):
        spline_interpolator(8, 9)


def test_legendre_k0():
    Psi = legendre_basis(64, 0)
    assert np.allclose(Psi[:, 0], 1.0 / 8.0, rtol=1e-12)


def test_legendre_k1_is_centered_ramp():
    Psi = legendre_basis(129, 1)
    ramp = np.linspace(-1, 1, 129)
    ramp /= np.linalg.norm(ramp)
    corr = abs(float(Psi[:, 1] @ ramp))
    assert corr > 1 - 1e-12


def test_legendre_orthonormal():
    Psi = legendre_basis(512, 5)
    assert np.linalg.norm(Psi.T @ Psi - np.eye(6)) < 1e-12


# ---------------------------------------------------------------- L1 / A_i / L2

def _setup(rng, P=16, N=3, K=2, d=4, J=6, span=np.pi):
    scheme = bit_reversed(P, span=span)
    order = HarmonicOrder(N=N, K=K, d=d)
    theta_hat = build_theta(scheme, N)
    U = spline_interpolator(P, d)
    Z = np.linalg.qr(rng.standard_normal((d, K + 1)))[0]
    beta = rng.standard_normal((order.cols, J))
    return scheme, order, theta_hat, U, Z, beta


def test_L1_dims_and_k0_column_space(rng):
    scheme, order, theta_hat, U, Z, _ = _setup(rng, K=0, d=1)
    psi_hat = np.vstack([U @ Z, U @ Z])
    L1 = face_split(theta_hat, psi_hat.astype(complex))
    assert L1.shape == (2 * scheme.P, order.cols)
    # K = 0: L1 columns are theta_hat columns scaled by the single psi column
    want = theta_hat * psi_hat[:, 0][:, None]
    assert np.allclose(L1, want)


def test_L1_row_identity_vs_kron_form(rng):
    """Row i of L1(Z) equals vec(Z)^T (A_i kron u_hat_i^T)."""
    scheme, order, theta_hat, U, Z, _ = _setup(rng)
    u_hat = np.vstack([U, U])
    psi_hat = u_hat @ Z
    L1 = face_split(theta_hat, psi_hat.astype(complex))
    z = vec(Z)
    rows = np.random.default_rng(0).choice(2 * scheme.P, size=20, replace=False)
    for i in rows:
        A_i = build_A(theta_hat, int(i), order.K)
        row = z @ np.kron(A_i, u_hat[i][:, None])
        assert np.allclose(row, L1[i], rtol=1e-12, atol=1e-12)


def test_A_i_scaled_unitary(rng):
    scheme, order, theta_hat, *_ = _setup(rng, N=5, K=3)
    for i in (0, 7, 2 * scheme.P - 1):
        A_i = build_A(theta_hat, i, order.K)
        gram = A_i @ A_i.conj().T
        assert np.allclose(gram, (2 * order.N + 1) * np.eye(order.K + 1), rtol=1e-12)


def test_A_i_degenerate_orders(rng):
    scheme = bit_reversed(8, span=np.pi)
    theta0 = build_theta(scheme, N=0)
    A_i = build_A(theta0, 3, K=2)
    assert np.allclose(A_i, theta0[3, 0] * np.eye(3))
    theta_hat = build_theta(scheme, N=4)
    A_row = build_A(theta_hat, 5, K=0)
    assert np.allclose(A_row, theta_hat[5][None, :])


def test_L2_consistency_with_L1(rng):
    """L1(Z) beta(s), stacked bin-major per row block, equals L2(beta) vec(Z)."""
    scheme, order, theta_hat, U, Z, beta = _setup(rng)
    u_hat = np.vstack([U, U])
    L1 = face_split(theta_hat, (u_hat @ Z).astype(complex))
    G = L1 @ beta  # rows x J
    stacked = G.reshape(-1)  # row i block, then s_j within
    L2 = build_L2(beta, theta_hat, u_hat, order=order)
    assert L2.shape == (2 * scheme.P * beta.shape[1], order.d * (order.K + 1))
    pred = L2 @ vec(Z)
    assert np.allclose(pred, stacked, rtol=1e-12, atol=1e-12 * np.abs(stacked).max())


def test_l2_row_factors_match_the_harmonic_sum(rng):
    """C[i, j, k] = sum_n theta_hat[i, n] beta[(n, k), j], by loops over n."""
    scheme, order, theta_hat, _, _, beta = _setup(rng)
    C = l2_row_factors(beta, theta_hat, order)
    B3 = beta.reshape(order.n_harmonics, order.n_temporal, -1)
    want = sum(theta_hat[:, n, None, None] * B3[n].T[None] for n in range(order.n_harmonics))
    assert C.shape == (theta_hat.shape[0], beta.shape[1], order.n_temporal)
    assert np.allclose(C, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_L2_zero_beta_is_zero(rng):
    scheme, order, theta_hat, U, _, beta = _setup(rng)
    u_hat = np.vstack([U, U])
    L2 = build_L2(np.zeros_like(beta), theta_hat, u_hat, order=order)
    assert np.all(L2 == 0)


# ---------------------------------------------------------------- real trig form

def test_real_trig_n0_is_ones():
    T = real_trig_theta(random_scheme(8, span=2 * np.pi, seed=1), N=0)
    assert np.array_equal(T, np.ones((8, 1)))


def _real_trig_loop(angles, N):
    """The real trigonometric matrix filled one order at a time."""
    T = np.empty((angles.size, 2 * N + 1))
    T[:, 0] = 1.0
    for n in range(1, N + 1):
        T[:, 2 * n - 1] = np.sqrt(2.0) * np.cos(n * angles)
        T[:, 2 * n] = np.sqrt(2.0) * np.sin(n * angles)
    return T


@pytest.mark.parametrize("N", [0, 1, 5, 28, 48])
@pytest.mark.parametrize("P", [1, 16, 512])
def test_real_trig_equals_the_per_order_loop(P, N):
    """Bit for bit, on progressive, bit-reversed and random angles over both spans."""
    for span in (np.pi, 2 * np.pi):
        for scheme in (progressive(P, span), bit_reversed(P, span),
                       random_scheme(P, span, seed=P + N)):
            T = real_trig_theta(scheme, N)
            assert T.flags.c_contiguous
            assert np.array_equal(T, _real_trig_loop(scheme.angles, N)), (scheme.kind, span)


def test_real_trig_row_norms():
    T = real_trig_theta(random_scheme(32, span=2 * np.pi, seed=4), N=6)
    assert np.allclose(np.linalg.norm(T, axis=1), np.sqrt(13.0), rtol=1e-12)


def test_real_trig_spectrum_matches_complex(rng):
    """Unitary column equivalence: identical singular spectra of the products."""
    P, N, K = 64, 4, 2
    scheme = random_scheme(P, span=2 * np.pi, seed=9)
    Psi = legendre_basis(P, K)
    Tc = build_theta(scheme, N)[:P]
    Tr = real_trig_theta(scheme, N)
    s_c = np.linalg.svd(face_split(Tc, Psi.astype(complex)), compute_uv=False)
    s_r = np.linalg.svd(face_split(Tr, Psi), compute_uv=False)
    assert np.allclose(s_c, s_r, rtol=1e-10)


def test_real_trig_hat_parity_consistency():
    """Bottom block of the augmented matrix equals evaluation at theta + pi."""
    sch = random_scheme(12, span=np.pi, seed=3)
    N = 5
    That = real_trig_theta_hat(sch, N)
    shifted = AngularScheme(angles=sch.angles + np.pi, span=2 * np.pi, kind="custom")
    T_shift = real_trig_theta(shifted, N)
    assert np.allclose(That[12:], T_shift, atol=1e-12)
    assert np.array_equal(That[:12] * harmonic_parity(N)[None, :], That[12:])


def _harmonic_parity_loop(N):
    s = np.empty(2 * N + 1)
    s[0] = 1.0
    for n in range(1, N + 1):
        s[2 * n - 1] = s[2 * n] = (-1.0) ** n
    return s


def _fix_column_signs_loop(Q):
    Q = Q.copy()
    for k in range(Q.shape[1]):
        col = Q[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if nz.size and col[nz[0]] < 0:
            Q[:, k] = -col
    return Q


def test_harmonic_parity_equals_loop_form():
    for N in range(40):
        got, want = harmonic_parity(N), _harmonic_parity_loop(N)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_fix_column_signs_equals_loop_form(rng):
    """Bit for bit, signed zeros included, on zero, tiny and leading-zero columns."""
    for _ in range(200):
        Q = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 6)))
        Q[rng.random(Q.shape) < 0.3] = 0.0
        Q[rng.random(Q.shape) < 0.1] = -0.0
        Q[rng.random(Q.shape) < 0.1] *= 1e-14  # below the column's nonzero threshold
        Q[:, rng.random(Q.shape[1]) < 0.2] = 0.0
        got, want = _fix_column_signs(Q), _fix_column_signs_loop(Q)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    Q, _ = np.linalg.qr(rng.standard_normal((32, 5)))  # as _orthonormalize calls it
    assert _fix_column_signs(Q).tobytes() == _fix_column_signs_loop(Q).tobytes()


# ---------------------------------------------------------------- types

def test_harmonic_order_validation():
    with pytest.raises(ValueError):
        HarmonicOrder(N=1, K=2, d=2)  # d < K + 1
    order = HarmonicOrder(N=28, K=5, d=8)
    assert order.cols == 57 * 6
    assert order.shortfall(512, True) is None
    assert order.shortfall(100, True) == "P = 100 < (N+1)(K+1) = 174"


@pytest.mark.parametrize("symmetric, P_min", [(True, 186), (False, 366)])
def test_shortfall_needs_every_block_tall(symmetric, P_min):
    """N = 30, K = 5: P >= (N+1)(K+1) = 186 with the symmetry, (2N+1)(K+1) = 366 without."""
    order = HarmonicOrder(N=30, K=5, d=6)
    rule = "(N+1)(K+1)" if symmetric else "(2N+1)(K+1)"
    assert order.shortfall(P_min - 1, symmetric) == f"P = {P_min - 1} < {rule} = {P_min}"
    assert order.shortfall(P_min, symmetric) is None
    for P in (P_min - 1, P_min):
        blocks = l1_blocks(random_scheme(P, span=np.pi, seed=1), 30, np.eye(P)[:, :6],
                           symmetric)
        assert [A.shape[0] for A in blocks] == [P] * len(blocks)
        margin = min(r - c for r, c in (A.shape for A in blocks))
        assert order.block_margin(P, symmetric) == margin == P - P_min


def test_harmonic_blocks_partition_by_parity():
    for N in (0, 1, 4, 5):
        even, odd = harmonic_blocks(N, True)
        assert np.array_equal(np.sort(np.concatenate([even, odd])), np.arange(2 * N + 1))
        assert np.all(harmonic_parity(N)[even] == 1) and np.all(harmonic_parity(N)[odd] == -1)
        assert max(even.size, odd.size) == N + 1
        (whole,) = harmonic_blocks(N, False)
        assert np.array_equal(whole, np.arange(2 * N + 1))


@pytest.mark.parametrize("P, N, K", [(64, 6, 2), (256, 30, 5), (512, 28, 5)])
@pytest.mark.parametrize("symmetric", [True, False])
def test_block_spectra_match_2p_oracle(P, N, K, symmetric):
    """The union of the block spectra is the spectrum of the unsplit L1."""
    scheme = random_scheme(P, span=np.pi if symmetric else 2 * np.pi, seed=P)
    Psi = legendre_basis(P, K)
    blocks = l1_blocks(scheme, N, Psi, symmetric)
    s = np.sort(np.concatenate([np.linalg.svd(A, compute_uv=False) for A in blocks]))[::-1]
    want = np.linalg.svd(l1_2p(scheme, N, Psi, np.eye(K + 1), symmetric), compute_uv=False)
    assert s.shape == want.shape
    assert np.all(np.abs(s - want) <= 1e-12 * want)


def _singular_values(blocks):
    return np.concatenate([np.linalg.svd(B, compute_uv=False) for B in blocks])


def test_condition_number_is_cond_of_the_block_diagonal_matrix(rng):
    """Blocks of different scales, one of them without columns, which holds no value."""
    blocks = [rng.standard_normal((7, 3)) * 5.0, rng.standard_normal((4, 2)) * 0.1,
              np.zeros((3, 0))]
    got = condition_number(_singular_values(blocks), 5)
    assert got == pytest.approx(np.linalg.cond(block_diag(*blocks)), rel=1e-10)


def test_condition_number_is_inf_for_a_wide_block(rng):
    """A 2 x 4 block gives 2 singular values for 4 columns, though all are well above 0."""
    blocks = [rng.standard_normal((6, 3)), rng.standard_normal((2, 4))]
    assert condition_number(_singular_values(blocks), 7) == np.inf


@pytest.mark.parametrize("s, reason", [
    ([1.0, 1e-320], "the smallest singular value underflows"),
    ([1.0, 0.0], "a singular value is 0"),
    ([1.0, 0.99e-15], "kappa is above 1e15"),
])
def test_condition_number_is_inf_beyond_double_precision(s, reason):
    assert condition_number(np.array(s), 2) == np.inf, reason


def test_condition_number_keeps_kappa_up_to_1e15():
    assert condition_number(np.array([1.0, 1e-15]), 2) == pytest.approx(1e15, rel=1e-15)


@pytest.mark.parametrize("symmetric", [True, False])
def test_block_kappa_of_l1_blocks_is_the_kappa_of_the_2p_row_l1(symmetric):
    """Against np.linalg.cond of the unsplit L1 (2P rows with the symmetry), V = U, Z = I."""
    P, N, K = 48, 5, 2
    scheme = random_scheme(P, span=np.pi if symmetric else 2 * np.pi, seed=5)
    U = spline_interpolator(P, K + 1)
    want = np.linalg.cond(l1_2p(scheme, N, U, np.eye(K + 1), symmetric))
    assert block_kappa(l1_blocks(scheme, N, U, symmetric)) == pytest.approx(want, rel=1e-10)


def test_block_kappa_is_inf_for_a_wide_block(rng):
    """The tall block alone has a finite kappa; a 3 x 5 block beside it makes it inf."""
    tall = rng.standard_normal((8, 3))
    assert block_kappa([tall]) == pytest.approx(np.linalg.cond(tall), rel=1e-12)
    assert block_kappa([tall, rng.standard_normal((3, 5))]) == np.inf


def test_block_kappa_with_no_odd_harmonics():
    """N = 0 with the symmetry: the odd block has no columns and adds no singular value."""
    P, K = 16, 1
    scheme = random_scheme(P, span=np.pi, seed=2)
    Psi = legendre_basis(P, K)
    even, odd = l1_blocks(scheme, 0, Psi, True)
    assert even.shape == (P, K + 1) and odd.shape == (P, 0)
    want = np.linalg.cond(l1_2p(scheme, 0, Psi, np.eye(K + 1), True))
    assert block_kappa([even, odd]) == pytest.approx(want, rel=1e-12)
    assert block_kappa([even, odd]) == pytest.approx(np.linalg.cond(even), rel=1e-12)


def test_harmonic_coefficients_shape_guard():
    order = HarmonicOrder(N=2, K=1, d=2)
    with pytest.raises(ValueError):
        HarmonicCoefficients(beta=np.zeros((9, 4)), order=order)  # needs 10 rows
    hc = HarmonicCoefficients(beta=np.zeros((10, 4)), order=order)
    assert hc.J == 4
