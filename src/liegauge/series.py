"""Poincare series of graded algebras and the transgression bookkeeping.

The spectral-page model used here: the first page is an exterior algebra on
odd generators tensored with a polynomial algebra on even generators.  Each
transgressive pair (odd degree h, even degree h+1) contributes a Koszul
complex whose cohomology is one-dimensional, so its series factor
(1 + t^h)/(1 - t^(h+1)) collapses to 1.  The cancellation routine divides
a given first page by those factors on truncated series; callers compare
the quotient with the survivor algebra's series built directly, so the
page they report is checked against the survivors rather than assumed.

All coefficients are integers and all arithmetic is truncated polynomial
arithmetic, so equality checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PoincareSeries",
    "check_series_size",
    "series_graded_algebra",
    "koszul_cancellation",
    "e1_page_series",
    "survivor_degrees",
    "transgression_pairs",
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


def koszul_cancellation(page: PoincareSeries, pairs) -> PoincareSeries:
    """Collapse transgressive pairs out of a page series by division.

    pairs: (odd degree h, even degree h+1) couples.  The page is divided by
    each pair's Koszul factor (1 + t^h)/(1 - t^(h+1)).  Callers check the
    quotient coefficient for coefficient against the polynomial algebra on
    the page's unpaired even generators, built by series_graded_algebra.
    """
    pairs = list(pairs)
    for h, c in pairs:
        if c != h + 1:
            raise ValueError(
                f"transgression must raise degree by one, got ({h}, {c})")
        if h < 1:
            raise ValueError(f"odd generator degree {h} must be positive")
    divided = list(page.coeffs)
    for h, c in pairs:
        _times_binomial(divided, c, -1)
        _over_binomial(divided, h, -1)
    # no sign check: a faulty division is a failed match, not bad input
    out = PoincareSeries.__new__(PoincareSeries)
    out.__dict__.update(truncation=page.truncation, coeffs=tuple(divided))
    return out


def check_series_size(n: int, truncation: int) -> None:
    """Fail fast when the `series` command for rank n - 1 is too large.

    The command lists each first-page generator (2i for 2 <= i <= n, 2i - 1
    for odd 3 <= i <= n) a bounded number of times.  It builds the first
    page, divides it by the Koszul factors and builds the survivor algebra,
    so each generator of degree <= truncation costs two O(truncation)
    factor passes: one on the page, and one in the division or in the
    survivor algebra.  Every generator, whatever its degree, also costs
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


def e1_page_series(n: int, truncation: int) -> PoincareSeries:
    """First-page series for the rank n-1 special linear family, odd n >= 3.

    Closed form: exterior generators of degree 2i-1 for odd i in 3..n,
    polynomial generators of degree 2i for i in 2..n.  The exterior factor
    is the relative cohomology of sl(n)/so(n); the tests compare the two.
    The `series` command reports this page and divides it by the Koszul
    factors of transgression_pairs(n).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("closed form needs odd n >= 3")
    odd = [2 * i - 1 for i in range(3, n + 1, 2)]
    even = [2 * i for i in range(2, n + 1)]
    return series_graded_algebra(odd, even, truncation)

