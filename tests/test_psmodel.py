import numpy as np
import pytest

from conftest import build_A, l1_2p, vec
from prosep.psmodel import (
    HarmonicCoefficients,
    HarmonicOrder,
    _bspline_design,
    build_L2,
    build_theta,
    face_split,
    harmonic_blocks,
    harmonic_parity,
    l1_factors,
    legendre_basis,
    real_trig_theta,
    real_trig_theta_hat,
    spline_interpolator,
)
from prosep.sampling import AngularScheme, bit_reversed, random_scheme


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
    theta_hat = build_theta(random_scheme(32, seed=5), N=7)
    assert np.allclose(np.abs(theta_hat), 1.0, atol=1e-14)


def test_theta_hat_row_norms():
    theta_hat = build_theta(random_scheme(16, seed=2), N=6)
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


def test_L2_zero_beta_is_zero(rng):
    scheme, order, theta_hat, U, _, beta = _setup(rng)
    u_hat = np.vstack([U, U])
    L2 = build_L2(np.zeros_like(beta), theta_hat, u_hat, order=order)
    assert np.all(L2 == 0)


# ---------------------------------------------------------------- real trig form

def test_real_trig_n0_is_ones():
    T = real_trig_theta(random_scheme(8, seed=1), N=0)
    assert np.array_equal(T, np.ones((8, 1)))


def test_real_trig_row_norms():
    T = real_trig_theta(random_scheme(32, seed=4), N=6)
    assert np.allclose(np.linalg.norm(T, axis=1), np.sqrt(13.0), rtol=1e-12)


def test_real_trig_spectrum_matches_complex(rng):
    """Unitary column equivalence: identical singular spectra of the products."""
    P, N, K = 64, 4, 2
    scheme = random_scheme(P, seed=9)
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


# ---------------------------------------------------------------- types

def test_harmonic_order_validation():
    with pytest.raises(ValueError):
        HarmonicOrder(N=1, K=2, d=2)  # d < K + 1
    order = HarmonicOrder(N=28, K=5, d=8)
    assert order.cols == 57 * 6
    assert order.solvable(512, True) and not order.solvable(100, True)


@pytest.mark.parametrize("symmetric, P_min", [(True, 186), (False, 366)])
def test_solvable_needs_every_block_tall(symmetric, P_min):
    """N = 30, K = 5: P >= (N+1)(K+1) = 186 with the symmetry, (2N+1)(K+1) = 366 without."""
    order = HarmonicOrder(N=30, K=5, d=6)
    assert not order.solvable(P_min - 1, symmetric) and order.solvable(P_min, symmetric)
    for P in (P_min - 1, P_min):
        blocks = l1_factors(random_scheme(P, span=np.pi, seed=1), 30, np.eye(P)[:, :6],
                            symmetric)
        shapes = [face_split(b.theta, b.V).shape for b in blocks]
        assert order.block_margin(P, symmetric) == min(r - c for r, c in shapes) == P - P_min


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
    blocks = l1_factors(scheme, N, Psi, symmetric)
    s = np.sort(np.concatenate([np.linalg.svd(face_split(b.theta, b.V), compute_uv=False)
                                for b in blocks]))[::-1]
    want = np.linalg.svd(l1_2p(scheme, N, Psi, np.eye(K + 1), symmetric), compute_uv=False)
    assert s.shape == want.shape
    assert np.all(np.abs(s - want) <= 1e-12 * want)


def test_harmonic_coefficients_shape_guard():
    order = HarmonicOrder(N=2, K=1, d=2)
    with pytest.raises(ValueError):
        HarmonicCoefficients(beta=np.zeros((9, 4)), order=order)  # needs 10 rows
    hc = HarmonicCoefficients(beta=np.zeros((10, 4)), order=order)
    assert hc.J == 4
