import math
import warnings

import numpy as np
import pytest

from conftest import (
    build_L2,
    complex_l1,
    energy_bound,
    indicator_disk,
    random_masked_frame,
    theorem1_check,
)
from prosep import analysis
from prosep.analysis import (
    GRAM_MARGIN,
    GRAM_TRUST_LIMIT,
    _best_random_kappa,
    _cannot_win,
    _trig_grams,
    bounds_table,
    cond_L1,
    cond_L2,
    rank_check_L1,
    rotation_bound,
    table1,
    theorem3_sweep,
    translation_bound,
)
from prosep.psmodel import (
    HarmonicOrder,
    build_theta,
    gram_kappa,
    l1_blocks,
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


def test_cond_L1_bit_reversed_at_a_p_that_is_not_a_power_of_two():
    """P = 384 with the study's orders, the symmetric kappa the paper's Table 1 would list."""
    kappa = cond_L1(bit_reversed(384, np.pi), 5, 28, symmetric=True)
    assert kappa == pytest.approx(5.019204589604617, rel=1e-6)


def test_cond_L1_progressive_is_singular():
    K, N, P = 5, 28, 512
    for symmetric, span in ((False, 2 * np.pi), (True, np.pi)):
        k = cond_L1(progressive(P, span), K, N, symmetric=symmetric)
        assert np.isinf(k)


def _complex_kappa(scheme, K, N, symmetric):
    L1 = complex_l1(scheme.angles, N, legendre_basis(scheme.P, K), symmetric)
    s = np.linalg.svd(L1, compute_uv=False)
    return np.inf if s[-1] <= 1e-10 * s[0] else s[0] / s[-1]  # the solver's fit cut-off


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


def _trial_schemes(P, span, trials, seed):
    """table1's random schemes: one seeded draw per spawned seed."""
    return [random_scheme(P, span, seed=int(np.random.default_rng(s).integers(2**63)))
            for s in np.random.SeedSequence(seed).spawn(trials)]


def _ata(blocks):
    """The Gram matrices A^T A of the nonempty blocks, the certificate's input."""
    return [A.T @ A for A in blocks if A.size]


def _blocks_with_spectra(rng, spectra, m=40):
    """L1 blocks whose Gram matrices are Q diag(lam) Q^T, one block per spectrum."""
    blocks = []
    for lam in spectra:
        n = lam.size
        U, _ = np.linalg.qr(rng.standard_normal((m, n)))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        blocks.append((U * np.sqrt(lam)) @ Q.T)
    return blocks


def _spectrum(kappa, n, gap=1.0):
    """n eigenvalues from 7 down to 7 / kappa^2; the second is at most 7 gap."""
    lam = np.geomspace(1.0, 1.0 / kappa**2, n)
    lam[1:] = np.minimum(lam[1:], gap)
    return 7.0 * lam


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("kappa", [1.0, 1.5, 10.0, 30.0])
def test_cannot_win_never_rejects_a_kappa_at_or_below_the_threshold(rng, kappa, split):
    """Known spectra, kappa below the threshold by 1e-9 relative at the closest."""
    lam = _spectrum(kappa, 20)
    spectra = [lam[:10], lam[10:]] if split else [lam]
    for rel in (1e-9, 1e-6, GRAM_MARGIN, 1.0):
        blocks = _blocks_with_spectra(rng, spectra)
        assert not _cannot_win(_ata(blocks), kappa * (1.0 + rel)), (kappa, rel)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("threshold", [1.5, 10.0, 100.0, 1e3])
def test_cannot_win_rejects_twice_the_threshold(rng, threshold, split):
    """A kappa of 2 or 10 times the threshold, the second eigenvalue 0.3 of the first."""
    for factor in (2.0, 10.0):
        lam = _spectrum(factor * threshold, 20, gap=0.3)
        spectra = [lam[:10], lam[10:]] if split else [lam]
        assert _cannot_win(_ata(_blocks_with_spectra(rng, spectra)), threshold), (threshold, factor)
    singular = _spectrum(10.0, 20)
    singular[-1] = 0.0
    assert _cannot_win(_ata(_blocks_with_spectra(rng, [singular])), threshold)


def test_cannot_win_agrees_with_svd_kappa_where_trusted():
    """Against each trial's SVD kappa: never rejected at (1 + margin) kappa, always at kappa / 2."""
    checked = 0
    for P, K, N in ((64, 1, 6), (33, 2, 10), (128, 2, 8)):
        Psi = legendre_basis(P, K)
        for symmetric in (False, True):
            span = np.pi if symmetric else 2 * np.pi
            for scheme in _trial_schemes(P, span, 6, seed=P):
                kappa = cond_L1(scheme, K, N, symmetric=symmetric)
                if kappa <= GRAM_TRUST_LIMIT:
                    blocks = l1_blocks(scheme, N, Psi, symmetric)
                    assert not _cannot_win(_ata(blocks), (1.0 + GRAM_MARGIN) * kappa), (P, kappa)
                    assert _cannot_win(_ata(blocks), kappa / 2), (P, kappa)
                    checked += 1
    assert checked >= 24
    Psi = legendre_basis(32, 1)
    Psi[:, 1] = 0.0  # a zero temporal function: L1 has zero columns
    scheme = random_scheme(32, np.pi, seed=1)
    assert _cannot_win(_ata(l1_blocks(scheme, 3, Psi, True)), GRAM_TRUST_LIMIT)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("P, K, N", [
    (512, 5, 28),  # the study's dims
    (64, 2, 8),
    (33, 2, 10),  # odd P
    (16, 1, 0),  # N = 0: with the symmetry the odd-harmonic block is empty
    (40, 0, 5),  # K = 0
    (9, 1, 6),  # P below the column count of every block
])
def test_trig_grams_equal_ata_of_l1_blocks(P, K, N, symmetric):
    """The certificate's Gram matrices are A^T A of the nonempty blocks of l1_blocks."""
    Psi = legendre_basis(P, K)
    grams = _trig_grams(N, Psi, symmetric)
    span = np.pi if symmetric else 2 * np.pi
    for scheme in _trial_schemes(P, span, 3, seed=P):
        want = _ata(l1_blocks(scheme, N, Psi, symmetric))
        got = grams(scheme.angles)
        assert [G.shape for G in got] == [G.shape for G in want]
        lam_max = max(np.linalg.eigvalsh(G)[-1] for G in want)
        for G, W in zip(got, want):
            assert np.array_equal(G, G.T)
            assert np.abs(G - W).max() <= 1e-14 * lam_max


@pytest.mark.parametrize("symmetric", [False, True])
def test_trig_grams_fill_the_same_buffers_on_every_call(symmetric):
    """Each call's Gram matrices are A^T A of its own angles, written over the last call's.

    ``_cannot_win`` shifts them in place and back: it leaves them as they
    were up to two roundings of each diagonal entry.
    """
    P, K, N = 64, 2, 8
    Psi = legendre_basis(P, K)
    grams = _trig_grams(N, Psi, symmetric)
    span = np.pi if symmetric else 2 * np.pi
    first, second = _trial_schemes(P, span, 2, seed=3)
    got_first = grams(first.angles)
    kept = [G.copy() for G in got_first]
    assert not _cannot_win(got_first, 10 * GRAM_TRUST_LIMIT)
    lam_max = max(np.linalg.eigvalsh(G)[-1] for G in kept)
    assert all(np.abs(G - H).max() <= 2.3e-16 * lam_max for G, H in zip(got_first, kept))
    got_second = grams(second.angles)
    assert all(G is H for G, H in zip(got_first, got_second))
    for got, scheme in ((kept, first), (got_second, second)):
        want = _ata(l1_blocks(scheme, N, Psi, symmetric))
        lam_max = max(np.linalg.eigvalsh(G)[-1] for G in want)
        for G, W in zip(got, want):
            assert np.abs(G - W).max() <= 1e-14 * lam_max


# the relative error bound of a Gram estimate of kappa at most GRAM_TRUST_LIMIT (table1)
GRAM_KAPPA_RTOL = 3.6e-5


@pytest.mark.parametrize("symmetric", [False, True])
def test_gram_kappa_within_its_bound_of_the_svd_kappa(symmetric):
    """At the study's dims every estimate the screen would use is within 3.6e-5 of cond_L1."""
    P, K, N = 512, 5, 28
    grams = _trig_grams(N, legendre_basis(P, K), symmetric)
    span = np.pi if symmetric else 2 * np.pi
    checked = 0
    for scheme in _trial_schemes(P, span, 12, seed=0):
        estimate = gram_kappa(grams(scheme.angles))
        if estimate <= GRAM_TRUST_LIMIT:
            kappa = cond_L1(scheme, K, N, symmetric=symmetric)
            assert abs(estimate - kappa) <= GRAM_KAPPA_RTOL * kappa, (estimate, kappa)
            checked += 1
    assert checked >= 9


def test_gram_kappa_of_a_wide_or_singular_block_is_never_trusted():
    """P = 16 < (2N+1)(K+1) = 21: the Gram matrix is singular, and so is an all-zero one."""
    scheme = random_scheme(16, 2 * np.pi, seed=1)
    assert gram_kappa(_trig_grams(10, legendre_basis(16, 0), False)(scheme.angles)) > 1e5
    assert gram_kappa([np.zeros((3, 3))]) == math.inf


@pytest.mark.parametrize("symmetric", [False, True])
def test_cannot_win_same_answer_on_trig_and_ata_grams(symmetric):
    """At the study's dims the certificate decides alike on both Gram matrices."""
    P, K, N = 512, 5, 28
    Psi = legendre_basis(P, K)
    grams = _trig_grams(N, Psi, symmetric)
    span = np.pi if symmetric else 2 * np.pi
    for scheme in _trial_schemes(P, span, 12, seed=7):
        kappa = cond_L1(scheme, K, N, symmetric=symmetric)
        blocks = l1_blocks(scheme, N, Psi, symmetric)
        for threshold in ((1.0 + GRAM_MARGIN) * kappa, 1.5 * kappa, kappa / 2):
            assert (_cannot_win(grams(scheme.angles), threshold)
                    == _cannot_win(_ata(blocks), threshold)), (kappa, threshold)


def _counting_cannot_win(monkeypatch):
    """Patch ``_cannot_win`` to count its calls and its True answers."""
    counts = {"calls": 0, "skipped": 0}
    real = analysis._cannot_win

    def counted(grams, kappa):
        skip = real(grams, kappa)
        counts["calls"] += 1
        counts["skipped"] += skip
        return skip

    monkeypatch.setattr(analysis, "_cannot_win", counted)
    return counts


def _recording_cond_l1(monkeypatch):
    """Patch ``cond_L1`` to record the angles of each scheme it is called on."""
    seen = []
    real = analysis.cond_L1

    def recorded(scheme, *args, **kwargs):
        seen.append(scheme.angles)
        return real(scheme, *args, **kwargs)

    monkeypatch.setattr(analysis, "cond_L1", recorded)
    return seen


@pytest.mark.parametrize("P, K, N, symmetric, seed, screened", [
    (64, 1, 6, False, 0, True), (64, 1, 6, False, 1, True), (64, 1, 6, False, 2, True),
    (64, 1, 6, True, 0, True), (64, 1, 6, True, 1, True), (64, 1, 6, True, 2, True),
    # P = (N+1)(K+1): square even-parity block, every kappa above the trust limit
    (33, 2, 10, True, 0, False),
])
def test_screened_random_kappa_is_the_exhaustive_minimum(monkeypatch, P, K, N, symmetric,
                                                         seed, screened):
    """The screen returns exactly min(cond_L1) over every trial, on both of its paths."""
    trials = 8
    span = np.pi if symmetric else 2 * np.pi
    kappas = [cond_L1(s, K, N, symmetric=symmetric)
              for s in _trial_schemes(P, span, trials, seed)]
    want = min(kappas)
    assert np.isfinite(want)
    assert (want <= GRAM_TRUST_LIMIT) == screened
    counts = _counting_cannot_win(monkeypatch)
    assert _best_random_kappa(P, K, N, symmetric, trials, seed) == want
    if screened:
        assert counts["skipped"] >= 1
    else:
        assert counts["calls"] == 0


@pytest.mark.parametrize("symmetric", [False, True])
def test_screened_random_kappa_with_no_harmonics(symmetric):
    """N = 0: with the symmetry the odd-harmonic block is empty."""
    P, K, trials = 16, 1, 6
    span = np.pi if symmetric else 2 * np.pi
    want = min(cond_L1(s, K, 0, symmetric=symmetric)
               for s in _trial_schemes(P, span, trials, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _best_random_kappa(P, K, 0, symmetric, trials, seed=0) == want


@pytest.mark.parametrize("symmetric", [False, True])
def test_screened_random_kappa_at_study_dims(monkeypatch, symmetric):
    """At P = 512, K = 5, N = 28 the screen skips trials and still finds the minimum."""
    P, K, N, trials = 512, 5, 28, 12
    span = np.pi if symmetric else 2 * np.pi
    want = min(cond_L1(s, K, N, symmetric=symmetric)
               for s in _trial_schemes(P, span, trials, seed=0))
    counts = _counting_cannot_win(monkeypatch)
    svds = _recording_cond_l1(monkeypatch)
    assert _best_random_kappa(P, K, N, symmetric, trials, seed=0) == want
    assert counts["skipped"] >= 1
    assert len(svds) <= 1


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("gap", [0.0, 1e-13])
def test_tied_estimates_each_get_the_svd(monkeypatch, symmetric, gap):
    """The best trial's angles drawn again, or 1e-13 apart: both get cond_L1, and the least wins."""
    P, K, N, trials = 64, 1, 6, 8
    span = np.pi if symmetric else 2 * np.pi
    schemes = _trial_schemes(P, span, trials, seed=0)
    kappas = [cond_L1(s, K, N, symmetric=symmetric) for s in schemes]
    best = schemes[int(np.argmin(kappas))]
    assert min(kappas) <= GRAM_TRUST_LIMIT
    twin = AngularScheme(angles=best.angles + gap, span=span, kind="random")
    want = min(kappas + [cond_L1(twin, K, N, symmetric=symmetric)])
    draws = iter(schemes + [twin])
    monkeypatch.setattr(analysis, "random_scheme", lambda P, span, seed: next(draws))
    svds = _recording_cond_l1(monkeypatch)
    assert _best_random_kappa(P, K, N, symmetric, trials + 1, seed=0) == want
    assert len(svds) == 2
    assert all(np.array_equal(a, best.angles) or np.array_equal(a, twin.angles) for a in svds)


# ------------------------------------------------- condition numbers (L2)

def test_cond_L2_reference_band():
    """kappa(L2) at the study dims sits in the reported ~1.2 regime."""
    res = cond_L2(K=5, N=28, P=512, d=8, J=128, seed=0)
    assert 1.05 <= res.kappa_L2 <= 2.0
    assert np.isinf(res.sqrt_kappa_Gamma)  # J < (2N+1)(K+1): Gamma singular, flagged


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
                                           (5, 6, 64, 8, 40), (2, 3, 100, 4, 9)])
@pytest.mark.parametrize("orthonormal_u", [False, True])
def test_cond_L2_matches_full_svd(K, N, P, d, J, orthonormal_u):
    """kappa(L2) from the per-row R factors equals the full L2's, also for J < K+1.

    2P = 200 is more than one block of rows and not a multiple of it.
    """
    scheme, want = _full_kappa_L2(K, N, P, d, J, seed=5, orthonormal_u=orthonormal_u)
    got = cond_L2(K=K, N=N, P=P, d=d, J=J, seed=5, scheme=scheme,
                  orthonormal_u=orthonormal_u).kappa_L2
    assert abs(got - want) <= 1e-12 * want


def test_cond_L2_gamma_term_is_the_sqrt_of_kappa_gamma():
    """sqrt(cond(Gamma)) of cond_L2's own draw of beta, with J >= (2N+1)(K+1)."""
    K, N, P, d, J = 1, 2, 16, 3, 20
    rng = np.random.default_rng(3)
    rng.standard_normal((2 * P, d))  # the interpolator, drawn first
    beta = rng.standard_normal(((2 * N + 1) * (K + 1), J))
    got = cond_L2(K=K, N=N, P=P, d=d, J=J, seed=3).sqrt_kappa_Gamma
    assert got == pytest.approx(np.sqrt(np.linalg.cond(beta @ beta.T)), rel=1e-10)


def test_cond_L2_rank_one_gamma_still_finite():
    res = cond_L2(K=1, N=2, P=16, d=3, J=1, seed=2)
    assert np.isinf(res.sqrt_kappa_Gamma)
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
        passes += bool(s[-1] > 1e-10 * s[0])  # the solver's fit cut-off
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
        s = np.concatenate([np.linalg.svd(A, compute_uv=False)
                            for A in l1_blocks(sch, 20, Psi, symmetric=True)])
        return s.min() / s.max()

    base = np.linspace(0.05, np.pi - 0.05, 16)
    assert ratio(np.linspace(0.05, np.pi - 0.05, 32)) > 1e-6
    assert ratio(np.concatenate([base, base + 1e-14])) < 1e-12


# ------------------------------------------------- projection energy bound

def test_theorem1_zero_residual():
    f = Frame(values=np.zeros((24, 24)), pixel_size=1 / 12)
    res = theorem1_check(f, np.linspace(0, 2 * np.pi, 8, endpoint=False))
    assert res.lhs == 0.0 and res.rhs == 0.0
    res = theorem1_check(Frame(values=np.zeros((32, 32)), pixel_size=1 / 16), [0.7])
    assert res.lhs == 0.0 and res.rhs == 0.0


def test_theorem1_per_angle_bound_random_residuals(rng):
    for _ in range(20):
        f = random_masked_frame(rng, width=32)
        res = theorem1_check(f, rng.uniform(0, 2 * np.pi, 4))
        assert np.all(res.per_angle_ratio <= 1.05)


def test_theorem1_per_angle_bound_on_100_random_frames(rng):
    """Per-angle energy inequality with <= 5% quadrature slack, 100 draws."""
    for _ in range(100):
        f = random_masked_frame(rng, width=40)
        res = theorem1_check(f, rng.uniform(0, 2 * np.pi))
        assert res.per_angle_ratio[0] <= 1.05


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
    """lhs -> int (2 sqrt(1-s^2))^2 ds = 16/3; rhs -> 2 * L * pi = 2 pi."""
    f = indicator_disk(256, 2.0 / 256, radius=1.0)
    res = theorem1_check(f, [1.1])
    per_angle_lhs = res.per_angle_ratio[0] * energy_bound(f)
    assert per_angle_lhs == pytest.approx(16.0 / 3.0, rel=1e-2)
    assert energy_bound(f) == pytest.approx(2 * np.pi, rel=1e-2)
    assert res.per_angle_ratio[0] <= 1.0  # lhs <= rhs


# ------------------------------------------------- motion bounds

def test_translation_bound_closed_form():
    assert translation_bound(1.0, 1.0, 3) == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_motion_bounds_saturate_to_inf_beyond_the_float_range():
    """(B c_max)^2 / 2 = 5e599 is finite in the parameters but not as a float."""
    assert translation_bound(1e300, 1.0, 0) == pytest.approx(1e300, rel=1e-12)
    assert translation_bound(1e300, 1.0, 1) == math.inf
    assert rotation_bound(1e200, 1e100, 1.0, 1) == math.inf
    assert translation_bound(1e200, 1e200, 0) == math.inf  # the product itself overflows
    # K = 19: 1e30^20 / 20! = 4.1e581 is beyond the range, 1e15^20 / 20! = 4.1e281 is not
    assert translation_bound(1e30, 1.0, 19) == math.inf
    assert translation_bound(1e15, 1.0, 19) == pytest.approx(1e300 / math.factorial(20),
                                                             rel=1e-12)


def test_bounds_table_rows_are_the_two_bounds_for_each_order():
    assert bounds_table() == [(K, translation_bound(1.0, 1.0, K), rotation_bound(1.0, 1.0, 1.0, K))
                              for K in range(13)]
    assert bounds_table(bandwidth=2.5, cmax=0.3, L=1.7, thetamax=0.4, kmax=3) == [
        (K, translation_bound(2.5, 0.3, K), rotation_bound(2.5, 1.7, 0.4, K)) for K in range(4)
    ]


def test_translation_bound_monotone_beyond_threshold():
    B, c = 2.0, 1.7
    vals = [translation_bound(B, c, K) for K in range(30)]
    start = math.ceil(B * c - 1) + 1
    assert all(vals[k + 1] < vals[k] for k in range(start, 29))


@pytest.mark.parametrize("bound, args", [
    (translation_bound, (-1.0, 1.0, 2)),
    (translation_bound, (1.0, -0.1, 2)),
    (translation_bound, (1.0, 1.0, -1)),
    (rotation_bound, (-1.0, 1.0, 1.0, 2)),
    (rotation_bound, (1.0, -1.0, 1.0, 2)),
    (rotation_bound, (1.0, 1.0, -0.5, 2)),
    (rotation_bound, (1.0, 1.0, 1.0, -1)),
])
def test_motion_bounds_reject_negative_inputs(bound, args):
    with pytest.raises(ValueError, match="nonnegative"):
        bound(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bound, n_params", [(translation_bound, 2), (rotation_bound, 3)])
def test_motion_bounds_reject_non_finite_inputs(bound, n_params, bad):
    """Each float parameter in turn; ``min(...) < 0`` let NaN through as a NaN bound."""
    for i in range(n_params):
        args = [1.0] * n_params
        args[i] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            bound(*args, 2)


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
    assert rotation_bound(2.0, 0.5, 1.0, 3) == pytest.approx(1 / 24)
    assert all(
        rotation_bound(3.0, 1.0, 0.0, K) == 0.0
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
        bound = rotation_bound(B, 1.0, theta_max, K)
        errs.append(err)
        bounds.append(bound)
        assert err <= bound + 1e-10
    assert all(errs[k + 1] <= errs[k] + 1e-15 for k in range(12))


# ------------------------------------------------- table

def test_table1_structure_and_determinism():
    rows = table1(P=128, K=2, N=8, trials=5, seed=1, d=4, J=32)
    assert [row[:3] for row in rows] == [
        ("kappa_L1", "progressive", False), ("kappa_L1", "random", False),
        ("kappa_L1", "bit_reversed", False), ("kappa_L1", "progressive", True),
        ("kappa_L1", "random", True), ("kappa_L1", "bit_reversed", True),
        ("kappa_L2", "bit_reversed", True),
    ]
    assert all(isinstance(row[3], float) and row[3] >= 1.0 for row in rows)
    assert table1(P=128, K=2, N=8, trials=5, seed=1, d=4, J=32) == rows
