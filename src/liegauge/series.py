"""Poincare series of graded algebras and the transgression bookkeeping.

The spectral-page model used here: the first page is an exterior algebra on
odd generators tensored with a polynomial algebra on even generators.  Each
transgressive pair (odd degree h, even degree h+1) contributes a Koszul
complex whose cohomology is one-dimensional, so its series factor
(1 + t^h)/(1 - t^(h+1)) collapses to 1.  The cancellation routine performs
that division on truncated series and independently rebuilds the survivor
algebra's series, asserting the two routes agree; consumers therefore never
see a cancellation that was merely assumed.

All coefficients are integers and all arithmetic is truncated polynomial
arithmetic, so equality checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .liealg import make_classical
from .relcoh import cartan_complement, relative_ce_cohomology

__all__ = [
    "PoincareSeries",
    "check_series_size",
    "series_graded_algebra",
    "koszul_cancellation",
    "e1_page_series",
    "survivor_degrees",
    "transgression_pairs",
    "abelian_point_series",
    "even_case_report",
]

# bound on the coefficient updates of one `series` command; see
# check_series_size
SERIES_CEILING = 2_000_000


@dataclass(frozen=True)
class PoincareSeries:
    """Integer coefficients of t^0 .. t^truncation for a graded space."""

    truncation: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError("coefficient list does not match truncation")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("graded dimensions cannot be negative")

    def __getitem__(self, d: int) -> int:
        return self.coeffs[d]

    def __str__(self):
        parts = [f"{c}*t^{d}" if d else str(c)
                 for d, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        for j, bj in enumerate(b):
            if i + j > n:
                break
            out[i + j] += ai * bj
    return out


# In-place O(truncation) updates of a truncated series a(t) by one factor.
# Multiplying by 1 +- t^d runs top down, so each a[i - d] read is still the
# old coefficient; 1/(1 - t^d) and 1/(1 + t^d) run bottom up, so each read
# is already the new one (b = a / (1 + t^d) solves b[i] = a[i] - b[i - d]).


def _times_binomial(a: list[int], d: int, sign: int) -> None:
    """a(t) *= 1 + sign * t^d."""
    for i in range(len(a) - 1, d - 1, -1):
        a[i] += sign * a[i - d]


def _over_binomial(a: list[int], d: int, sign: int) -> None:
    """a(t) /= 1 - sign * t^d."""
    for i in range(d, len(a)):
        a[i] += sign * a[i - d]


def series_graded_algebra(odd_degrees, even_degrees, truncation: int
                          ) -> PoincareSeries:
    """Series of an exterior algebra on the odd generators tensored with a
    polynomial algebra on the even generators."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    for d in list(odd_degrees) + list(even_degrees):
        if d < 1:
            raise ValueError(f"generator degree {d} must be positive")
    out = [1] + [0] * truncation
    for d in odd_degrees:
        _times_binomial(out, d, 1)
    for d in even_degrees:
        _over_binomial(out, d, 1)
    return PoincareSeries(truncation, tuple(out))


def koszul_cancellation(pairs, survivors, truncation: int) -> PoincareSeries:
    """Collapse transgressive pairs out of the page series, two ways.

    pairs: (odd degree h, even degree h+1) couples; survivors: the even
    generator degrees that remain.  Route one divides the full page series
    by each pair's Koszul factor; route two builds the survivor polynomial
    algebra directly.  The routes must agree coefficient for coefficient.
    """
    pairs = list(pairs)
    for h, c in pairs:
        if c != h + 1:
            raise ValueError(
                f"transgression must raise degree by one, got ({h}, {c})")
        if h < 1:
            raise ValueError(f"odd generator degree {h} must be positive")
    full = series_graded_algebra(
        [h for h, _ in pairs],
        [c for _, c in pairs] + list(survivors),
        truncation)
    divided = list(full.coeffs)
    for h, c in pairs:
        _times_binomial(divided, c, -1)
        _over_binomial(divided, h, -1)
    direct = series_graded_algebra([], survivors, truncation)
    if tuple(divided) != direct.coeffs:
        raise AssertionError(
            "Koszul cancellation mismatch between the divided page series "
            f"and the survivor algebra: {tuple(divided)} vs {direct.coeffs}")
    return direct


def check_series_size(n: int, truncation: int) -> None:
    """Fail fast when the `series` command for rank n - 1 is too large.

    The command lists each first-page generator (2i for 2 <= i <= n, 2i - 1
    for odd 3 <= i <= n) a bounded number of times, and every series it
    builds is at most two O(truncation) factor passes per generator of
    degree <= truncation.  Every generator, whatever its degree, also costs
    list entries, loop steps and report text, measured at about four
    coefficient updates.  The work, truncation times one more than the
    generators of degree <= truncation, plus four per generator, must stay
    within SERIES_CEILING.
    """
    def generators(top: int) -> int:
        return max(0, top - 1) + len(range(3, top + 1, 2))

    within = generators(min(n, (truncation + 1) // 2))
    work = truncation * (1 + within) + 4 * generators(n)
    if work > SERIES_CEILING:
        raise ValueError(
            f"truncate {truncation} at n = {n} needs about {work} "
            f"coefficient updates, over the ceiling {SERIES_CEILING}")


def transgression_pairs(n: int) -> list[tuple[int, int]]:
    """Odd generator degrees 2i-1 with their even partners 2i, for odd
    i from 3 to n."""
    return [(2 * i - 1, 2 * i) for i in range(3, n + 1, 2)]


def survivor_degrees(n: int) -> list[int]:
    """Even generator degrees 2i for even i up to n: 4, 8, ..., 2*2*(n//2)."""
    return [2 * i for i in range(2, n + 1, 2)]


def e1_page_series(n: int, truncation: int,
                   from_computed_betti: bool = False) -> PoincareSeries:
    """First-page series for the rank n-1 special linear family, odd n >= 3.

    Closed form: exterior generators of degree 2i-1 for odd i in 3..n,
    polynomial generators of degree 2i for i in 2..n.  With
    from_computed_betti=True the odd-generator factor is replaced by the
    Betti polynomial of the computed relative cohomology (feasible for
    n = 3; larger ranks hit the resource guard).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("closed form needs odd n >= 3")
    even = [2 * i for i in range(2, n + 1)]
    if not from_computed_betti:
        odd = [2 * i - 1 for i in range(3, n + 1, 2)]
        return series_graded_algebra(odd, even, truncation)
    if n > 3:
        raise ValueError(
            f"computed Betti numbers for n = {n} exceed the resource budget")
    pair = cartan_complement(make_classical("sl", n), make_classical("so", n))
    betti = relative_ce_cohomology(pair)
    poly = [0] * (truncation + 1)
    for q, b in enumerate(betti):
        if q <= truncation:
            poly[q] = b
    out = _mul(poly, series_graded_algebra([], even, truncation).coeffs,
               truncation)
    return PoincareSeries(truncation, tuple(out))


def abelian_point_series(truncation: int) -> PoincareSeries:
    """Rank-one abelian degeneration: all symmetric invariants survive and
    the page series is that of one polynomial generator in degree 2."""
    return series_graded_algebra([], [2], truncation)


def even_case_report(n: int = 4) -> dict:
    """Ground truth versus closed form for an even rank, not suppressed.

    Computes the invariant-wedge Betti numbers of the special linear /
    special orthogonal pair and compares them with the odd-rank closed form
    (exterior generators 2i-1, odd i in 3..n); returns the computed
    coefficients, the predicted ones, and the list of degrees where they
    disagree.
    """
    if n % 2:
        raise ValueError("this report is for even n")
    pair = cartan_complement(make_classical("sl", n), make_classical("so", n))
    betti = relative_ce_cohomology(pair)
    m = pair.p_dim
    odd = [2 * i - 1 for i in range(3, n + 1, 2)]
    predicted = series_graded_algebra(odd, [], m).coeffs
    discrepancies = [
        {"degree": q, "computed": betti[q], "closed_form": predicted[q]}
        for q in range(m + 1) if betti[q] != predicted[q]]
    return {
        "n": n,
        "computed": list(betti),
        "closed_form": list(predicted),
        "discrepancies": discrepancies,
    }
