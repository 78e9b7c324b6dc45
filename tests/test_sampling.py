import numpy as np
import pytest

from prosep.sampling import (
    AngularScheme,
    bit_reversed,
    progressive,
    random_scheme,
    span_for,
)


def test_progressive_p4_full_turn():
    sch = progressive(4, span=2 * np.pi)
    assert np.allclose(sch.angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_progressive_p2_half_turn():
    sch = progressive(2, span=np.pi)
    assert np.allclose(sch.angles, [0.0, np.pi / 2])


def test_progressive_uniform_spacing():
    sch = progressive(512, span=2 * np.pi)
    d = np.diff(sch.angles)
    assert np.allclose(d, 2 * np.pi / 512)


def test_random_scheme_deterministic_and_seed_sensitive():
    a = random_scheme(64, span=2 * np.pi, seed=7)
    b = random_scheme(64, span=2 * np.pi, seed=7)
    c = random_scheme(64, span=2 * np.pi, seed=8)
    assert np.array_equal(a.angles, b.angles)
    assert not np.array_equal(a.angles, c.angles)


def test_random_scheme_mean_within_3_sigma():
    P = 10_000
    sch = random_scheme(P, span=2 * np.pi, seed=3)
    # mean of U[0, 2pi) is pi with std (2pi/sqrt(12))/sqrt(P)
    sigma = 2 * np.pi / np.sqrt(12.0) / np.sqrt(P)
    assert abs(sch.angles.mean() - np.pi) < 3 * sigma


def test_bit_reversed_p8_exact():
    sch = bit_reversed(8, span=2 * np.pi)
    want = np.array([0, 4, 2, 6, 1, 5, 3, 7]) * (2 * np.pi / 8)
    assert np.array_equal(sch.angles, want)


def test_bit_reversed_p2():
    sch = bit_reversed(2, span=np.pi)
    assert np.allclose(sch.angles, [0.0, np.pi / 2])


def _bit_reversal_angles(P, span):
    """Oracle at P = 2^m: index p with its m bits reversed, times span / P."""
    m = P.bit_length() - 1
    idx = np.arange(P)
    rev = np.zeros(P, dtype=np.int64)
    for b in range(m):
        rev |= ((idx >> b) & 1) << (m - 1 - b)
    return rev * (span / P)


@pytest.mark.parametrize("span", [np.pi, 2 * np.pi], ids=["pi", "2pi"])
def test_bit_reversed_is_the_bit_reversal_permutation_at_powers_of_two(span):
    for m in range(15):
        got = bit_reversed(2**m, span).angles
        assert got.tobytes() == _bit_reversal_angles(2**m, span).tobytes(), m


@pytest.mark.parametrize("span", [np.pi, 2 * np.pi], ids=["pi", "2pi"])
def test_bit_reversed_any_p_is_a_prefix_of_one_sequence(span):
    """Every P >= 1 gets P distinct angles in [0, span), the first P of the one sequence."""
    sequence = bit_reversed(2048, span).angles
    for P in range(1, 1101):
        angles = bit_reversed(P, span).angles
        assert angles.tobytes() == sequence[:P].tobytes(), P
        assert np.all((angles >= 0) & (angles < span)) and np.unique(angles).size == P, P
    with pytest.raises(ValueError, match="P must be >= 1"):
        bit_reversed(0, span)


def test_bit_reversed_is_permutation_of_progressive():
    prog = progressive(256, span=np.pi)
    rev = bit_reversed(256, span=np.pi)
    assert set(rev.angles.tolist()) == set(prog.angles.tolist())


@pytest.mark.parametrize("maker,kwargs", [
    (progressive, {}),
    (bit_reversed, {}),
    (random_scheme, {"seed": 0}),
])
def test_angles_inside_span(maker, kwargs):
    for span in (np.pi, 2 * np.pi):
        sch = maker(64, span=span, **kwargs)
        assert np.all(sch.angles >= 0) and np.all(sch.angles < span)
        assert len(np.unique(sch.angles)) == sch.P


def test_span_rule():
    assert span_for(True) == np.pi
    assert span_for(False) == 2 * np.pi


def test_scheme_rejects_duplicates():
    with pytest.raises(ValueError):
        AngularScheme(angles=np.array([0.1, 0.1]), span=np.pi, kind="custom")


@pytest.mark.parametrize("angles", [[0.0, -0.0], [-0.0, 0.0], [0.3, 0.1, 0.2, 0.1]])
def test_scheme_rejects_signed_zeros_and_unsorted_duplicates(angles):
    with pytest.raises(ValueError, match="distinct"):
        AngularScheme(angles=np.array(angles), span=np.pi, kind="custom")


def test_random_scheme_redraws_repeated_angles(monkeypatch):
    """A first draw with repeats (0.5 twice, 0.0 and -0.0) keeps one of each."""
    real = np.random.default_rng(0)
    draws = [np.array([0.5, 0.0, 0.5, 1.0, -0.0])]

    class Rng:
        def uniform(self, low, high, size):
            return draws.pop(0) if draws else real.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Rng())
    sch = random_scheme(5, span=np.pi, seed=0)
    assert np.array_equal(sch.angles[[0, 1, 3]], [0.5, 0.0, 1.0])
    assert np.unique(sch.angles).size == 5


@pytest.mark.parametrize("bad", [-0.1, np.pi, np.nan])
def test_scheme_rejects_angles_outside_the_span(bad):
    with pytest.raises(ValueError, match=r"\[0, span\)"):
        AngularScheme(angles=np.array([0.1, bad]), span=np.pi, kind="custom")
