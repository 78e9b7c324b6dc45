import math
import warnings

import numpy as np
import pytest

from conftest import complex_l1, indicator_disk, random_masked_frame
from prosep.analysis import (
    MotionBoundSpec,
    cond_L1,
    cond_L2,
    rank_check_L1,
    rotation_bound,
    table1,
    theorem1_check,
    theorem3_sweep,
    translation_bound,
)
from prosep.psmodel import (
    HarmonicOrder,
    build_L2,
    build_theta,
    face_split,
    l1_factors,
    legendre_basis,
)
from prosep.radon import Frame, grid_coords
from prosep.sampling import AngularScheme, bit_reversed, progressive, random_scheme


# ------------------------------------------------- condition numbers (L1)

def test_cond_L1_bit_reversed_reference_values():
    """The conditioning study's deterministic entries: 11.7 and 3.0."""
    K, N, P = 5, 28, 512
    k_nosym = cond_L1(bit_reversed(P, 2 * np.pi), K, N, symmetric=False)
    k_sym = cond_L1(bit_reversed(P, np.pi), K, N, symmetric=True)
    assert abs(k_nosym - 11.7) / 11.7 < 0.15
    assert abs(k_sym - 3.0) / 3.0 < 0.15


def test_cond_L1_progressive_is_singular():
    K, N, P = 5, 28, 512
    for symmetric, span in ((False, 2 * np.pi), (True, np.pi)):
        k = cond_L1(progressive(P, span), K, N, symmetric=symmetric)
        assert k >= 1e12 or np.isinf(k)


def _complex_kappa(scheme, K, N, symmetric):
    L1 = complex_l1(scheme.angles, N, legendre_basis(scheme.P, K), symmetric)
    s = np.linalg.svd(L1, compute_uv=False)
    kappa = s[0] / s[-1] if s[-1] >= 1e-300 else np.inf
    return np.inf if kappa > 1e15 else kappa


@pytest.mark.parametrize("symmetric", [False, True])
def test_cond_L1_matches_complex_oracle_on_study_dims(symmetric):
    """The real-trig kappa(L1) equals the complex-exponential one; inf stays inf."""
    K, N, P = 5, 28, 512
    span = np.pi if symmetric else 2 * np.pi
    schemes = [progressive(P, span), bit_reversed(P, span)]
    schemes += [random_scheme(P, span, seed=s) for s in (0, 1, 2)]
    for scheme in schemes:
        got = cond_L1(scheme, K, N, symmetric=symmetric)
        want = _complex_kappa(scheme, K, N, symmetric)
        if np.isinf(want):
            assert np.isinf(got), scheme.kind
        else:
            assert abs(got - want) <= 1e-10 * want, (scheme.kind, got, want)
    assert np.isinf(cond_L1(progressive(P, span), K, N, symmetric=symmetric))


# ------------------------------------------------- condition numbers (L2)

def test_cond_L2_reference_band():
    """kappa(L2) at the study dims sits in the reported ~1.2 regime."""
    res = cond_L2(K=5, N=28, P=512, d=8, J=128, seed=0)
    assert 1.05 <= res.kappa_L2 <= 2.0
    assert np.isinf(res.kappa_Gamma)  # J < (2N+1)(K+1): Gamma singular, flagged


def _full_kappa_L2(K, N, P, d, J, seed, orthonormal_u):
    """cond_L2's draws, with kappa(L2) from the SVD of the full build_L2."""
    scheme = random_scheme(P, span=np.pi, seed=seed)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((2 * P, d))
    if orthonormal_u:
        U, _ = np.linalg.qr(U)
    order = HarmonicOrder(N=N, K=K, d=d)
    beta = rng.standard_normal((order.cols, J))
    s = np.linalg.svd(build_L2(beta, build_theta(scheme, N), U, order), compute_uv=False)
    return scheme, s[0] / s[-1]


@pytest.mark.parametrize("K, N, P, d, J", [(1, 2, 16, 3, 1), (3, 2, 16, 5, 2), (2, 3, 20, 4, 9),
                                           (5, 6, 64, 8, 40)])
@pytest.mark.parametrize("orthonormal_u", [False, True])
def test_cond_L2_matches_full_svd(K, N, P, d, J, orthonormal_u):
    """kappa(L2) from the per-row R factors equals the full L2's, also for J < K+1."""
    scheme, want = _full_kappa_L2(K, N, P, d, J, seed=5, orthonormal_u=orthonormal_u)
    got = cond_L2(K=K, N=N, P=P, d=d, J=J, seed=5, scheme=scheme,
                  orthonormal_u=orthonormal_u).kappa_L2
    assert abs(got - want) <= 1e-12 * want


def test_cond_L2_rank_one_gamma_still_finite():
    res = cond_L2(K=1, N=2, P=16, d=3, J=1, seed=2)
    assert np.isinf(res.kappa_Gamma)
    assert np.isfinite(res.kappa_L2)


def test_theorem3_bound_holds_on_random_instances():
    passes, worst = theorem3_sweep(trials=100, seed=0)
    assert passes == 100
    assert worst <= 1.0 + 1e-9


# ------------------------------------------------- rank checks

def test_rank_check_full_rank_when_solvable():
    # (N+1)(K+1) = 33 <= P = 64
    assert rank_check_L1(P=64, K=2, N=10, trials=100, seed=0) == 100


def _complex_rank_passes(P, K, N, trials, seed):
    """rank_check_L1's draws, each tested on the complex-exponential L1."""
    passes = 0
    for ss in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(ss)
        scheme = random_scheme(P, span=np.pi, seed=rng.integers(2**63))
        Psi, _ = np.linalg.qr(rng.standard_normal((P, K + 1)))
        L1 = complex_l1(scheme.angles, N, Psi, symmetric=True)
        if L1.shape[0] < L1.shape[1]:
            continue
        s = np.linalg.svd(L1, compute_uv=False)
        passes += bool(s[-1] / s[0] > 1e-12)
    return passes


@pytest.mark.filterwarnings("ignore:P = ")
@pytest.mark.parametrize("P,K,N", [(64, 2, 10), (11, 2, 3), (16, 2, 10)])
def test_rank_check_matches_complex_oracle(P, K, N):
    assert rank_check_L1(P=P, K=K, N=N, trials=30, seed=4) == _complex_rank_passes(P, K, N, 30, 4)


def test_rank_check_fails_by_dimension_count():
    # (N+1)(K+1) = 33 > P = 16
    with pytest.warns(UserWarning):
        assert rank_check_L1(P=16, K=2, N=10, trials=100, seed=0) == 0


@pytest.mark.parametrize("P, passes", [(185, 0), (186, 4)])
def test_rank_check_needs_P_at_least_N_plus_1_times_K_plus_1(P, passes):
    """N = 30, K = 5: 2P >= (2N+1)(K+1) = 366 at both P, but the L1 of P = 185 is singular."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert rank_check_L1(P=P, K=5, N=30, trials=4, seed=0) == passes
    assert any("full column rank" in str(w.message) for w in caught) is (passes == 0)
    assert _complex_rank_passes(P, 5, 30, 4, 0) == passes


def test_rank_collapses_for_duplicated_angles():
    """Near-duplicate angles degrade the Vandermonde factor to singularity.

    A static model (K = 0) makes L1 the harmonic matrix itself: 16 distinct
    angles cannot carry the 21 even and 20 odd harmonics of N = 20, although
    32 well-spread angles can (both blocks are tall, P >= (N+1)(K+1) = 21).
    """
    Psi = legendre_basis(32, 0)

    def ratio(angles):
        sch = AngularScheme(angles=np.sort(angles), span=np.pi, kind="custom")
        s = np.concatenate([np.linalg.svd(face_split(b.theta, b.V), compute_uv=False)
                            for b in l1_factors(sch, 20, Psi, symmetric=True)])
        return s.min() / s.max()

    base = np.linspace(0.05, np.pi - 0.05, 16)
    assert ratio(np.linspace(0.05, np.pi - 0.05, 32)) > 1e-6
    assert ratio(np.concatenate([base, base + 1e-14])) < 1e-12


# ------------------------------------------------- projection energy bound

def test_theorem1_zero_residual():
    f = Frame(values=np.zeros((24, 24)), pixel_size=1 / 12)
    res = theorem1_check(f, np.linspace(0, 2 * np.pi, 8, endpoint=False))
    assert res.lhs == 0.0 and res.rhs == 0.0


def test_theorem1_per_angle_bound_random_residuals(rng):
    for _ in range(20):
        f = random_masked_frame(rng, width=32)
        res = theorem1_check(f, rng.uniform(0, 2 * np.pi, 4))
        assert np.all(res.per_angle_ratio <= 1.05)


def test_theorem1_integrated_ratio_between_constants():
    """Integrated lhs lies between the stated bound and its doubled form.

    The per-angle inequality integrates over a full turn to lhs <= 2 rhs;
    the integrated report is informational and no tighter constant is
    asserted.
    """
    f = indicator_disk(128, 2.0 / 128, radius=0.8)
    res = theorem1_check(f, np.linspace(0, 2 * np.pi, 16, endpoint=False))
    assert 0 < res.lhs <= 2.0 * res.rhs * 1.05
    assert np.all(res.per_angle_ratio <= 1.05)


def test_theorem1_unit_disk_closed_form():
    f = indicator_disk(256, 2.0 / 256, radius=1.0)
    res = theorem1_check(f, [1.1])
    per_angle_lhs = res.per_angle_ratio[0] * 2.0 * f.support_radius * f.norm2_sq()
    assert per_angle_lhs == pytest.approx(16.0 / 3.0, rel=1e-2)
    assert 2.0 * f.support_radius * f.norm2_sq() == pytest.approx(2 * np.pi, rel=1e-2)


# ------------------------------------------------- motion bounds

def test_translation_bound_closed_form():
    spec = MotionBoundSpec(B=1.0, c_max=1.0, K=3)
    assert translation_bound(spec) == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_translation_bound_monotone_beyond_threshold():
    B, c = 2.0, 1.7
    vals = [translation_bound(MotionBoundSpec(B=B, c_max=c, K=K)) for K in range(30)]
    start = math.ceil(B * c - 1) + 1
    assert all(vals[k + 1] < vals[k] for k in range(start, 29))


def test_taylor_remainder_inequality_on_grid():
    """|e^{jx} - sum_{k<=K} (jx)^k / k!| <= |x|^{K+1} / (K+1)! pointwise."""
    xs = np.linspace(-5.0, 5.0, 101)
    for K in range(13):
        partial = np.zeros_like(xs, dtype=complex)
        for k in range(K + 1):
            partial += (1j * xs) ** k / math.factorial(k)
        lhs = np.abs(np.exp(1j * xs) - partial)
        rhs = np.abs(xs) ** (K + 1) / math.factorial(K + 1)
        assert np.all(lhs <= rhs + 1e-12)


def test_rotation_bound_closed_form_and_zero():
    assert rotation_bound(MotionBoundSpec(B=2.0, L=0.5, theta_max=1.0, K=3)) == pytest.approx(1 / 24)
    assert all(
        rotation_bound(MotionBoundSpec(B=3.0, L=1.0, theta_max=0.0, K=K)) == 0.0
        for K in range(8)
    )


def test_rotation_bound_dominates_empirical_truncation():
    """SVD truncation error of a rotating smooth blob decays within the bound."""
    W = 64
    X, Y = grid_coords(W, 2.0 / W)
    sig = 0.15
    theta_max = np.pi / 32
    P = 96
    cols = []
    for t in np.arange(P) / P:
        th = theta_max * 0.5 * (1 - np.cos(2 * np.pi * t))
        xr = np.cos(-th) * X - np.sin(-th) * Y
        yr = np.sin(-th) * X + np.cos(-th) * Y
        cols.append(np.exp(-((xr - 0.45) ** 2 + (yr - 0.1) ** 2) / (2 * sig**2)).ravel())
    M = np.array(cols).T
    s = np.linalg.svd(M, compute_uv=False)
    tot = float(np.sum(s**2))
    tails = np.sqrt(np.cumsum((s**2)[::-1])[::-1] / tot)
    # effective bandwidth: Gaussian spectrum is ~3e-4 beyond |w| = 4 / sigma
    B = 4.0 / sig
    errs, bounds = [], []
    for K in range(13):
        err = tails[K + 1] if K + 1 < tails.size else 0.0
        bound = rotation_bound(MotionBoundSpec(B=B, L=1.0, theta_max=theta_max, K=K))
        errs.append(err)
        bounds.append(bound)
        assert err <= bound + 1e-10
    assert all(errs[k + 1] <= errs[k] + 1e-15 for k in range(12))


# ------------------------------------------------- table

def test_table1_structure_and_determinism():
    rows = table1(P=128, K=2, N=8, random_trials=5, seed=1, d=4, J=32)
    assert len(rows) == 7
    kinds = [(r.scheme_kind, r.symmetric) for r in rows[:6]]
    assert kinds == [
        ("progressive", False), ("random", False), ("bit_reversed", False),
        ("progressive", True), ("random", True), ("bit_reversed", True),
    ]
    assert rows[6].kappa_L2 is not None
    again = table1(P=128, K=2, N=8, random_trials=5, seed=1, d=4, J=32)
    assert [r.kappa_L1 for r in rows[:6]] == [r.kappa_L1 for r in again[:6]]
    assert rows[6].kappa_L2 == again[6].kappa_L2
