"""Truncated Poincare series, Koszul cancellation, and the page bookkeeping.

Series produced by the module are checked against brute-force generator
counting written here: a coefficient at t^d is the number of exponent
tuples whose weighted sum is d, which needs no polynomial arithmetic.
"""

import time

import pytest

from liegauge.liealg import make_classical, invariant_polynomial_dimension
from liegauge.relcoh import cartan_complement, relative_ce_cohomology
from liegauge.series import (
    PoincareSeries,
    e1_page_series,
    koszul_cancellation,
    series_graded_algebra,
    survivor_degrees,
    transgression_pairs,
)


def count_monomials(odd_degrees, even_degrees, d):
    """Number of products of distinct odd generators and arbitrary even
    powers with total degree d, counted by direct recursion."""
    def walk(remaining, gens):
        if remaining == 0:
            return 1
        if not gens:
            return 0
        (deg, repeatable), rest = gens[0], gens[1:]
        total = walk(remaining, rest)                      # exponent 0
        if repeatable:
            if deg <= remaining:
                total += walk(remaining - deg, gens)       # exponent >= 1
        elif deg <= remaining:
            total += walk(remaining - deg, rest)           # exponent exactly 1
        return total

    gens = [(deg, False) for deg in odd_degrees]
    gens += [(deg, True) for deg in even_degrees]
    return walk(d, tuple(gens))


# -- basic series ------------------------------------------------------------------


def test_single_odd_generator():
    s = series_graded_algebra([3], [], 5)
    assert s.coeffs == (1, 0, 0, 1, 0, 0)


def test_single_even_generator():
    s = series_graded_algebra([], [4], 12)
    assert s.coeffs == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_mixed_algebra_against_counting_oracle():
    odd, even = [3, 5], [2, 4]
    s = series_graded_algebra(odd, even, 14)
    for d in range(15):
        assert s[d] == count_monomials(odd, even, d)


def test_series_validation():
    with pytest.raises(ValueError, match="truncation"):
        series_graded_algebra([], [2], 0)
    with pytest.raises(ValueError, match="positive"):
        series_graded_algebra([0], [], 5)
    with pytest.raises(ValueError, match="truncation"):
        PoincareSeries(3, (1, 0))
    with pytest.raises(ValueError, match="negative"):
        PoincareSeries(1, (1, -2))


def test_series_str_and_getitem():
    s = series_graded_algebra([3], [2], 4)
    assert s[0] == 1 and s[2] == 1 and s[3] == 1
    assert str(s) == "1 + 1*t^2 + 1*t^3 + 1*t^4"


# -- transgression bookkeeping -----------------------------------------------------


def test_pair_and_survivor_tables():
    assert transgression_pairs(3) == [(5, 6)]
    assert transgression_pairs(5) == [(5, 6), (9, 10)]
    assert transgression_pairs(7) == [(5, 6), (9, 10), (13, 14)]
    assert survivor_degrees(3) == [4]
    assert survivor_degrees(5) == [4, 8]
    assert survivor_degrees(7) == [4, 8, 12]


@pytest.mark.parametrize("n", [3, 5, 7])
def test_koszul_cancellation_matches_survivor_algebra(n):
    out = koszul_cancellation(e1_page_series(n, 40), transgression_pairs(n))
    direct = series_graded_algebra([], survivor_degrees(n), 40)
    assert out.coeffs == direct.coeffs
    for d in range(41):
        assert out[d] == count_monomials([], survivor_degrees(n), d)


def test_koszul_cancellation_empty_is_constant():
    out = koszul_cancellation(series_graded_algebra([], [], 10), [])
    assert out.coeffs == (1,) + (0,) * 10


def test_koszul_cancellation_rejects_bad_pairs():
    page = series_graded_algebra([], [], 10)
    with pytest.raises(ValueError, match="raise degree by one"):
        koszul_cancellation(page, [(5, 7)])
    with pytest.raises(ValueError, match="positive"):
        koszul_cancellation(page, [(0, 1)])


# -- the first page ----------------------------------------------------------------


def test_e1_series_n3_hand_expansion():
    s = e1_page_series(3, 10)
    for d in range(11):
        assert s[d] == count_monomials([5], [4, 6], d)
    assert s.coeffs == (1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1)


def computed_page(n, truncation):
    """The first page with its exterior factor replaced by the computed
    Betti numbers of sl(n)/so(n): coefficient d sums betti[k] times the
    even-generator monomials of degree d - k."""
    pair = cartan_complement(make_classical("sl", n), make_classical("so", n))
    betti = relative_ce_cohomology(pair)
    even = [2 * i for i in range(2, n + 1)]
    return tuple(sum(b * count_monomials([], even, d - k)
                     for k, b in enumerate(betti[:d + 1]))
                 for d in range(truncation + 1))


def test_e1_series_closed_form_matches_computed_betti():
    assert e1_page_series(3, 12).coeffs == computed_page(3, 12)


def test_e1_series_guards():
    with pytest.raises(ValueError, match="odd n >= 3"):
        e1_page_series(4, 10)
    with pytest.raises(ValueError, match="odd n >= 3"):
        e1_page_series(1, 10)
    # sl5/so5 is symmetric, so its computed Betti numbers need only the
    # invariant wedges: (1 + t^5)(1 + t^9), the closed form's factor
    t0 = time.monotonic()
    assert computed_page(5, 16) == e1_page_series(5, 16).coeffs
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"sl5/so5 series took {elapsed:.1f}s (budget 60s)"
    # sl7/so7 has a 27-dimensional complement, over the wedge ceiling
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="wedge degree 5 needs 80730"):
        computed_page(7, 10)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"sl7/so7 refusal took {elapsed:.2f}s (budget 1s)"


# -- degenerations ------------------------------------------------------------------


def test_abelian_point_series():
    # rank-one abelian degeneration: one polynomial generator in degree 2
    s = series_graded_algebra([], [2], 9)
    assert s.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    gl1 = make_classical("gl", 1)
    for d in range(5):
        assert s[2 * d] == invariant_polynomial_dimension(gl1, d) == 1
