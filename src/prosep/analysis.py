"""Numerical stability analysis: condition numbers, rank checks, and bounds.

Reproduces the view-angle sampling study (condition numbers of the two
linearized subproblems for progressive, random, and bit-reversed
schemes), validates the full-rank and conditioning guarantees on random
instances, and evaluates the truncation bounds for translational and
rotational motion of a bandlimited object.

Each study of ``prosep analyze`` is one function here, whose parameters
are the command's flags for that study and whose defaults are theirs:
``table1`` (``--table1``), ``rank_check_L1`` (``--thm2``),
``theorem3_sweep`` (``--thm3``) and ``bounds_table`` (``--bounds``, the
translation and rotation bounds for K = 0..kmax).

kappa(L1) and the rank check are computed on the real trigonometric L1
the solver fits with (``psmodel.l1_blocks``); the complex-exponential
form is a unitary column transform of it with the same spectrum.  With
the half-turn symmetry L1 is held as two column-disjoint P-row blocks,
one per harmonic parity, and its spectrum is the union of theirs
(``psmodel.block_kappa``); full column rank then needs P >= (N+1)(K+1)
(``HarmonicOrder.shortfall``).  Only the kappa(L2) study uses
the complex harmonics, because its random coefficients are drawn on the
complex coordinates; its singular values come from per-row QR factors
instead of the full L2 (``cond_L2``), taken a block of rows at a time.

The study reports only the smallest kappa(L1) over its random trials.
Each trial's block Gram matrices are assembled from the sums
sum_p cos(m phi_p) V_pk V_pk' and sum_p sin(m phi_p) V_pk V_pk', m <= 2N
(``_trig_grams``), not formed as A^T A, into buffers reused by every
trial.  ``table1`` skips each trial that one Cholesky factorization per
block shows cannot beat the least kappa so far (``_cannot_win``): the
trial's kappa exceeds it by more than a relative margin of 1e-3 when some
block's Gram matrix, shifted down by rho / kappa^2 with rho <= lambda_max,
is not positive definite.  A trial that passes gets its kappa from the
eigenvalues of the same Gram matrices (``psmodel.gram_kappa``), trusted
while at most 1e3; beyond that the trial gets the SVD (``cond_L1``).  At
the end only the trusted trials whose estimate ties the least one, within
a relative 1e-4 that the estimate's error bound proves enough, get the
SVD.  The reported value is the SVD kappa of the exhaustive minimum
either way (``table1`` gives the proof).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .psmodel import (
    HarmonicOrder,
    block_kappa,
    build_theta,
    component_projections,
    condition_number,
    gram_kappa,
    harmonic_blocks,
    l1_blocks,
    legendre_basis,
)
from .sampling import AngularScheme, bit_reversed, progressive, random_scheme, span_for

__all__ = [
    "CondL2Result",
    "cond_L1",
    "cond_L2",
    "rank_check_L1",
    "theorem3_sweep",
    "translation_bound",
    "rotation_bound",
    "bounds_table",
    "table1",
]

# table1's screen: a trial is skipped when its kappa certainly exceeds the
# least kappa so far by GRAM_MARGIN (relative), while that least is at most
# the trust limit, which also bounds the Gram estimates of kappa that are
# used; trusted estimates within GRAM_TIE_MARGIN (relative) of the least one
# get the SVD.  The certificate's lower estimate of lambda_max takes
# _POWER_STEPS power steps
GRAM_TRUST_LIMIT = 1e3
GRAM_MARGIN = 1e-3
GRAM_TIE_MARGIN = 1e-4
_POWER_STEPS = 3
# rows of theta_hat whose L2 row factors cond_L2 forms and factors at once
_L2_QR_ROWS = 128
# rounding allowance of theorem3_sweep's test kappa(L2) <= sqrt(kappa(Gamma))
THEOREM3_SLACK = 1e-9


def cond_L1(scheme: AngularScheme, K: int, N: int, symmetric: bool = False) -> float:
    """Condition number of Theta_hat * Psi_hat (or Theta * Psi without symmetry).

    Psi is the orthonormalized Legendre basis of degree 0..K.  With the
    symmetry the spectrum is the union of the two parity blocks'
    (``psmodel.l1_blocks``, ``psmodel.block_kappa``).  Returns the +inf
    sentinel when the model is numerically singular, i.e. when the
    solver's fit would drop a singular value (kappa >= 1e10,
    ``psmodel.RANK_RTOL``), or when a block has fewer rows than columns.
    """
    return block_kappa(l1_blocks(scheme, N, legendre_basis(scheme.P, K), symmetric))


class CondL2Result(NamedTuple):
    kappa_L2: float
    sqrt_kappa_Gamma: float


def cond_L2(
    K: int,
    N: int,
    P: int,
    d: int,
    J: int,
    seed: int = 0,
    scheme: AngularScheme | None = None,
    orthonormal_u: bool = False,
) -> CondL2Result:
    """kappa(L2(beta)) and sqrt(kappa(Gamma)), Gamma = sum_j beta(s_j) beta(s_j)^T.

    Both the 2P x d interpolator entries and the coefficient vectors
    beta(s_j) are drawn iid standard normal, seeded.  With
    ``orthonormal_u`` the interpolator is orthonormalized first, which is
    the premise of the Theorem 3 bound kappa(L2) <= sqrt(kappa(Gamma));
    the raw Gaussian draw matches the conditioning study setup.
    sqrt(kappa(Gamma)) is ``psmodel.gram_kappa`` of Gamma, the +inf
    sentinel when Gamma is numerically singular (it needs J >=
    (2N+1)(K+1)); kappa(L2) is still computed and reported.

    L2 is not built: its row block i is kron(C_i, u_i), with the
    J x (K+1) factor C_i of ``psmodel.component_projections``.  C_i =
    Q_i R_i, and the orthonormal Q_i drop out of the singular values, so
    the SVD runs on the stacked kron(R_i, u_i), 2P min(J, K+1) rows
    instead of 2P J.
    """
    order = HarmonicOrder(N=N, K=K, d=d)
    if scheme is None:
        scheme = bit_reversed(P, span=span_for(True))
    theta_hat = build_theta(scheme, N)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((2 * P, d))
    if orthonormal_u:
        U, _ = np.linalg.qr(U)
    beta_cols = rng.standard_normal((order.cols, J))
    # the QR of each row's J x (K+1) factor is independent: a block of rows at
    # a time bounds the complex factor stack at _L2_QR_ROWS rows
    R = np.concatenate([
        np.linalg.qr(component_projections(beta_cols, theta_hat[i:i + _L2_QR_ROWS], order),
                     mode="r")
        for i in range(0, theta_hat.shape[0], _L2_QR_ROWS)
    ])
    reduced = (R[:, :, :, None] * U[:, None, None, :]).reshape(-1, order.n_temporal * d)
    s = np.linalg.svd(reduced, compute_uv=False)
    kappa_L2 = condition_number(s, reduced.shape[1])
    # Gamma is the Gram matrix of beta^T, so gram_kappa gives sqrt(kappa(Gamma))
    return CondL2Result(kappa_L2, gram_kappa([beta_cols @ beta_cols.T]))


def rank_check_L1(P: int = 64, K: int = 2, N: int = 10, trials: int = 100, seed: int = 0) -> int:
    """Count full-column-rank draws of L1 with random Psi and random angles.

    Each trial draws P distinct angles uniform in [0, pi) and Psi
    uniformly from the Stiefel manifold (orthonormal factor of a Gaussian
    matrix); L1 is the half-turn augmented product, held as its two
    parity blocks.  A trial passes when its ``block_kappa`` is finite,
    i.e. when the solver's fit would drop no singular value
    (``psmodel.RANK_RTOL``).  Full column rank requires every
    block to have at least as many rows as columns, P >= (N+1)(K+1)
    (``HarmonicOrder.shortfall``); otherwise it is impossible by
    dimension count and every trial fails.
    """
    shortfall = HarmonicOrder(N=N, K=K, d=K + 1).shortfall(P, symmetric=True)
    if shortfall:
        warnings.warn(f"{shortfall}: full column rank is impossible by dimension count",
                      stacklevel=2)
        return 0
    passes = 0
    seeds = np.random.SeedSequence(seed).spawn(trials)
    for t in range(trials):
        rng = np.random.default_rng(seeds[t])
        scheme = random_scheme(P, span=span_for(True), seed=rng.integers(2**63))
        Psi, _ = np.linalg.qr(rng.standard_normal((P, K + 1)))
        if np.isfinite(block_kappa(l1_blocks(scheme, N, Psi, symmetric=True))):
            passes += 1
    return passes


def theorem3_sweep(
    trials: int = 100,
    K: int = 1,
    N: int = 2,
    P: int = 16,
    d: int = 3,
    J: int | None = None,
    seed: int = 0,
):
    """Check kappa(L2) <= sqrt(kappa(Gamma)) on random instances with Gamma > 0.

    J defaults to twice the coefficient count so Gamma is positive
    definite; the interpolator is orthonormalized, matching the
    guarantee's premise.  A trial passes when the ratio kappa(L2) /
    sqrt(kappa(Gamma)) is at most ``1 + THEOREM3_SLACK``.  Returns
    (passes, worst_ratio).
    """
    order = HarmonicOrder(N=N, K=K, d=d)
    if J is None:
        J = 2 * order.cols
    if J < order.cols:
        raise ValueError("need J >= (2N+1)(K+1) for Gamma > 0")
    passes = 0
    worst = 0.0
    for t in range(trials):
        res = cond_L2(K=K, N=N, P=P, d=d, J=J, seed=seed + t,
                      scheme=random_scheme(P, span=span_for(True), seed=seed + t),
                      orthonormal_u=True)
        if not np.isfinite(res.sqrt_kappa_Gamma):
            continue
        ratio = res.kappa_L2 / res.sqrt_kappa_Gamma
        worst = max(worst, ratio)
        if ratio <= 1.0 + THEOREM3_SLACK:
            passes += 1
    return passes, worst


def _taylor_remainder(x: float, K: int) -> float:
    """|x|^{K+1} / (K+1)!, evaluated stably through lgamma; inf beyond the float range."""
    x = abs(x)
    if x == 0.0:
        return 0.0
    try:
        return math.exp((K + 1) * math.log(x) - math.lgamma(K + 2))
    except OverflowError:
        return math.inf


def translation_bound(B: float, c_max: float, K: int) -> float:
    """Temporal truncation bound |B c_max|^{K+1} / (K+1)! for translation."""
    if not all(0 <= x < math.inf for x in (B, c_max, K)):  # False for NaN
        raise ValueError("all bound parameters must be finite and nonnegative")
    return _taylor_remainder(B * c_max, K)


def rotation_bound(B: float, L: float, theta_max: float, K: int) -> float:
    """Truncation bound |B L theta_max|^{K+1} / (K+1)! for rotation.

    B * L is the angular bandlimit of the object in its polar
    representation.
    """
    if not all(0 <= x < math.inf for x in (B, L, theta_max, K)):  # False for NaN
        raise ValueError("all bound parameters must be finite and nonnegative")
    return _taylor_remainder(B * L * theta_max, K)


def bounds_table(bandwidth: float = 1.0, cmax: float = 1.0, L: float = 1.0,
                 thetamax: float = 1.0, kmax: int = 12) -> list:
    """The rows of ``bounds.csv``: (K, translation bound, rotation bound) for K = 0..kmax.

    ``bandwidth`` is B, ``cmax`` the largest translation and ``thetamax``
    the largest rotation angle of an object of support radius ``L``.
    """
    return [(K, translation_bound(bandwidth, cmax, K), rotation_bound(bandwidth, L, thetamax, K))
            for K in range(kmax + 1)]


def _trig_grams(N: int, V: np.ndarray, symmetric: bool):
    """The Gram matrices A^T A of the nonempty ``l1_blocks`` A, as a function of the angles.

    Returns ``grams(angles)``, for P = V.shape[0] angles.  Column c of a
    block's theta is s Re(w_c e^{i n_c phi}) with n_c = (c + 1) // 2,
    w_c = 1, sqrt2 or -i sqrt2 for the constant, cosine and sine columns,
    and s = sqrt2 with the symmetry (else 1).  Since Re(a) Re(b) =
    (Re(a b) + Re(a conj b)) / 2, the Gram entry
    sum_p theta_pc theta_pc' V_pk V_pk' is s^2 |w_c w_c'| / 2 times a signed
    C or S sum at m = n_c + n_c' plus one at m = |n_c - n_c'|, where
    C_m + i S_m = sum_p e^{i m phi_p} V_pk V_pk'.  So a Gram costs one
    product of the 2N + 1 rows e^{i m phi} (a doubling recurrence) with
    V_pk V_pk' (k <= k', built once) and one gather per block,
    O(P N K^2) instead of the O(P N^2 K^2) of A^T A.  The gather tables
    and every buffer are built once, here: each call fills the same
    arrays, so the Gram matrices it returns are overwritten by the next
    call.  Every G is exactly symmetric.
    """
    K1 = V.shape[1]
    k_lo, k_hi = np.triu_indices(K1)
    # complex once here, so the product with e^{i m phi} casts nothing per call
    VV = (V[:, k_lo] * V[:, k_hi]).astype(complex)
    pair = np.empty((K1, K1), dtype=np.intp)
    pair[k_lo, k_hi] = pair[k_hi, k_lo] = np.arange(k_lo.size)
    scale2 = 2.0 if symmetric else 1.0
    tables = []
    for h in harmonic_blocks(N, symmetric):
        if not h.size:
            continue  # the odd-harmonic block is empty when N = 0
        n = (h + 1) // 2
        sine = ((h > 0) & (h % 2 == 0)).astype(int)
        varying = (h > 0).astype(int)
        mag = scale2 * np.array([0.5, math.sqrt(0.5), 1.0])[varying[:, None] + varying[None, :]]
        # w_c w_c' and w_c conj(w_c') are mag times (-i)^j; a negative order
        # conjugates e^{i m phi}, which negates j
        m_dif = n[:, None] - n[None, :]
        j_dif = sine[:, None] - sine[None, :]
        terms = ((n[:, None] + n[None, :], sine[:, None] + sine[None, :]),
                 (np.abs(m_dif), np.where(m_dif < 0, -j_dif, j_dif)))
        idx, coef = [], []
        for m, j in terms:
            j = j % 4
            # Re((-i)^j (C + i S)) is C, S, -C, -S for j = 0..3; C and S
            # alternate in the float view of the complex (2N+1) x pairs sums
            flat = (m[:, None, :, None] * k_lo.size + pair[None, :, None, :]) * 2
            flat += j[:, None, :, None] % 2
            idx.append(flat.ravel())
            sign = np.where(j >= 2, -1.0, 1.0)[:, None, :, None]
            coef.append(np.broadcast_to(sign * mag[:, None, :, None], flat.shape).ravel())
        n_cols = h.size * K1
        # the index and coefficient tables, the gathered terms, and the Gram matrix
        tables.append((np.stack(idx), np.stack(coef), np.empty((2, n_cols**2)),
                       np.empty((n_cols, n_cols))))
    E = np.empty((2 * N + 1, V.shape[0]), dtype=complex)
    E[0] = 1.0
    sums = np.empty((2 * N + 1, k_lo.size), dtype=complex)
    flat_sums = sums.view(float).ravel()

    def grams(angles: np.ndarray) -> list:
        if N:
            np.exp(1j * angles, out=E[1])
        # e^{i (r + l) phi} = e^{i l phi} e^{i r phi}: rows r+1..2r from rows 1..r
        r = 1
        while r < 2 * N:
            top = min(2 * r, 2 * N)
            np.multiply(E[1:top - r + 1], E[r], out=E[r + 1:top + 1])
            r = top
        np.matmul(E, VV, out=sums)
        for idx, coef, t, G in tables:
            np.take(flat_sums, idx, out=t)
            t *= coef
            np.add(t[0], t[1], out=G.reshape(-1))
        return [G for *_, G in tables]

    return grams


def _cannot_win(grams, kappa: float) -> bool:
    """Whether kappa(L1) certainly exceeds ``kappa``, by one Cholesky per block Gram matrix.

    ``grams`` are the blocks' Gram matrices G = A^T A (A a block of
    ``l1_blocks``).  rho is the largest Rayleigh quotient
    x^T G x / x^T x over them, with x a few power steps from G 1; any x
    gives rho <= lambda_max, the largest squared singular value of L1.
    Each G is shifted down by s = rho / kappa^2 in place for its
    factorization and back after it, which leaves G as it was up to the
    two roundings of each diagonal entry (at most 2u lambda_max).  The
    answer is True exactly when a Cholesky factorization fails: then some
    lambda_min(G) is below s plus a rounding floor, so kappa(L1)^2 =
    lambda_max / lambda_min exceeds about kappa^2.  ``table1`` says how
    much that floor can matter.
    """
    rho = 0.0
    for G in grams:
        x = G.sum(axis=1)
        for _ in range(_POWER_STEPS):
            x = G @ (x / np.linalg.norm(x))
        rho = max(rho, float(x @ G @ x / (x @ x)))
    shift = rho / kappa**2
    for G in grams:
        G.flat[::G.shape[0] + 1] -= shift
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return True
        finally:
            G.flat[::G.shape[0] + 1] += shift
    return False


def _best_random_kappa(P: int, K: int, N: int, symmetric: bool, trials: int,
                       seed: int) -> float:
    """Least kappa(L1) (``cond_L1``) over ``trials`` seeded random schemes.

    One pass keeps ``best``, the least kappa so far.  While it is at most
    ``GRAM_TRUST_LIMIT``, a trial that ``_cannot_win`` against
    (1 + ``GRAM_MARGIN``) best is skipped.  Every other trial gets the
    Gram estimate ``gram_kappa`` from the same Gram matrices
    (``_trig_grams``); where that is at most the trust limit the trial is
    kept as a candidate, by its scheme, else it gets ``cond_L1``.  Either
    value updates ``best``.  At the end the candidates whose estimate is
    within a relative ``GRAM_TIE_MARGIN`` of the least estimate get
    ``cond_L1``, and the least of all the ``cond_L1`` values is returned.
    ``table1`` says why this is the exhaustive minimum.
    """
    span = span_for(symmetric)
    grams = _trig_grams(N, legendre_basis(P, K), symmetric)
    best, exact, candidates = math.inf, [], []
    for s in np.random.SeedSequence(seed).spawn(trials):
        scheme = random_scheme(P, span, seed=int(np.random.default_rng(s).integers(2**63)))
        G = grams(scheme.angles)
        if best <= GRAM_TRUST_LIMIT and _cannot_win(G, (1.0 + GRAM_MARGIN) * best):
            continue
        kappa = gram_kappa(G)
        if kappa <= GRAM_TRUST_LIMIT:
            candidates.append((kappa, scheme))
        else:
            kappa = cond_L1(scheme, K, N, symmetric=symmetric)
            exact.append(kappa)
        best = min(best, kappa)
    tie = (1.0 + GRAM_TIE_MARGIN) * min((k for k, _ in candidates), default=math.inf)
    exact += [cond_L1(scheme, K, N, symmetric=symmetric) for k, scheme in candidates if k <= tie]
    return min(exact, default=math.inf)


def table1(
    P: int = 512,
    K: int = 5,
    N: int = 28,
    trials: int = 1000,
    seed: int = 0,
    d: int = 8,
    J: int = 128,
):
    """The conditioning study: kappa(L1) per scheme and symmetry, plus kappa(L2).

    Deterministic schemes are evaluated once; the random-scheme entries
    take the best (smallest) kappa over ``trials`` seeded draws.
    Returns the seven rows of ``table1.csv`` as (quantity, scheme,
    symmetric, value) tuples: the six kappa(L1) rows, then the kappa(L2)
    row, which is computed for bit-reversed sampling with the symmetry.

    The random rows are the exact SVD kappa (``cond_L1``) of the best
    trial, found in one pass (``_best_random_kappa``).  At the default
    512 x 342 block a trial costs one product of trig rows with temporal
    products, a gather into buffers reused by every trial, and one
    Cholesky factorization per block (``_trig_grams``, ``_cannot_win``).
    A trial that the screen passes adds one symmetric eigenvalue solve
    per block (``gram_kappa``, about a third of an SVD), and each random
    row ends with one SVD, more only when Gram estimates tie.

    Why the result is the SVD kappa of the exhaustive minimum.  The Gram
    error: G is assembled from the trig sums C_m, S_m (m <= 2N), not as
    A^T A, where A is the block whose SVD ``cond_L1`` takes.  Each entry
    is at most two of them times at most s^2 (the symmetric block scale,
    2), and it carries the recurrence error of e^{i m phi}, about m u,
    plus the error of the P-term sum.  With orthonormal V,
    sum_p |V_pk V_pk'| <= 1, and lambda_max >= max G_ii >= s^2 (the
    constant harmonic), so G is within about n 2(P + 2N + 2) u lambda_max
    = 4.3e-11 lambda_max of the Gram of the exact trig values, n = 342.
    The A that the SVD sees rounds each phase n phi (at most 2 pi N u),
    which moves its A^T A by at most n 8 pi N u lambda_max = 2.7e-11
    lambda_max more (measured: the two differ by at most 5e-15 lambda_max
    over 60 trials per symmetry at 512 x 342).  By Weyl the Gram spectrum
    agrees with the SVD's to eps = 7e-11 lambda_max.

    The estimate: one that is used is at most 1e3, so lambda_min(G) >=
    1e-6 lambda_max and lambda_min errs by at most eps / 1e-6 = 7e-5
    relative; kappa, the square root of the ratio, errs by at most
    delta = 3.6e-5 relative, which leaves room for the eigenvalue
    solver's own rounding (about n u lambda_max).  A wide block has
    lambda_min(A^T A) = 0, below ``gram_kappa``'s floor of 1e-12
    lambda_max once rounded, so its estimate is +inf and never used.

    The screen: let kappa* be the least SVD kappa over the trials.  While
    best <= 1e3 it is a trusted estimate or an SVD kappa of some trial,
    so best >= (1 - delta) kappa*, and the threshold t = 1.001 best >=
    1.00096 kappa*.  The certificate shifts each block's G down by
    s = rho / t^2 <= lambda_max / t^2.  Cholesky of G - s I fails only if
    lambda_min(G) < s + O(n^2 u max G_ii) (Demmel 1989; Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 10): n(n+1) u = 1.3e-11,
    and max G_ii <= lambda_max.  The minimizing trial has
    lambda_min >= lambda_max / kappa*^2 with kappa* <= best / (1 - delta)
    <= 1000.04, so lambda_min - s >= (1 - 1 / 1.00096^2) lambda_max /
    kappa*^2 >= 1.9e-9 lambda_max, about 20 times the floor and the Gram
    error together: its Cholesky succeeds, and it is never skipped.

    The ties: if the minimizing trial's estimate is used, it is at most
    (1 + delta) kappa*, while the least estimate is at least
    (1 - delta) kappa*, so it lies within (1 + delta) / (1 - delta) <
    1 + 7.3e-5 of the least, inside the tie margin 1e-4, and gets
    ``cond_L1``; otherwise it got ``cond_L1`` when it was met.  Above the
    trust limit every trial gets ``cond_L1``, as without the certificate.
    """
    rows = []
    for symmetric in (False, True):
        span = span_for(symmetric)
        for kind in ("progressive", "random", "bit_reversed"):
            if kind == "progressive":
                kappa = cond_L1(progressive(P, span), K, N, symmetric=symmetric)
            elif kind == "bit_reversed":
                kappa = cond_L1(bit_reversed(P, span), K, N, symmetric=symmetric)
            else:
                kappa = _best_random_kappa(P, K, N, symmetric, trials, seed)
            rows.append(("kappa_L1", kind, symmetric, kappa))
    kappa_L2 = cond_L2(K=K, N=N, P=P, d=d, J=J, seed=seed).kappa_L2
    rows.append(("kappa_L2", "bit_reversed", True, kappa_L2))
    return rows
