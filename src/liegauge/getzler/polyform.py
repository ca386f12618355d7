"""Polynomial differential forms on R^m with symbolic Lie-dual generators.

A PolyForm is a finite sum of terms

    coefficient * Omega^alpha * x^beta * dx_S

where Omega^a are formal generators dual to a Lie algebra basis (each of
degree two), x^beta is a monomial on the ambient space, and dx_S is an
increasing wedge of coordinate differentials.  Coefficients are floats;
every operation below is plain polynomial arithmetic, so the only rounding
comes from float multiplication and addition, never from truncation.

The grading used throughout: a term's polynomial degree is
2*|alpha| + |S|; the x-exponents do not contribute.

Each term is stored under one packed int key.  The low m bits are the dx
bitmask (bit i set when dx_i occurs); above them come m fields for the
x-exponents and then g_dim fields for the Omega-exponents, each
EXPONENT_BITS wide plus one guard bit on top.  So multiplying two terms
adds their keys (the dx masks are disjoint whenever the product is
nonzero, and each exponent sum fits in its field with the guard bit),
multiplying by one variable adds that field's unit, and the wedge signs
come from tables indexed by dx masks, built once per (g_dim, m).  Every
exponent lies in 0 .. EXPONENT_LIMIT - 1: the constructor rejects any
other, and an operation whose result would reach EXPONENT_LIMIT raises
ValueError instead of carrying into the next field.  The public `terms`
view decodes the keys to (omega, x, dx) tuples in insertion order.

Terms are validated once, in the public constructor: exponent lengths
match the dimensions, exponents are in range and each dx index set is
strictly increasing and in range.  Every operation below builds its
result from keys and float coefficients of already-valid forms, so
results skip that check and only drop zero coefficients.
"""

from __future__ import annotations

import operator
from functools import cache, cached_property, reduce

__all__ = ["EXPONENT_LIMIT", "PolyForm"]

EXPONENT_BITS = 7
EXPONENT_LIMIT = 1 << EXPONENT_BITS
_FIELD_BITS = EXPONENT_BITS + 1
_VALUE_MASK = EXPONENT_LIMIT - 1


def _integer(v, what: str) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer") from None


class _Layout:
    """Field positions and dx sign tables for one (g_dim, m)."""

    def __init__(self, g_dim: int, m: int):
        self.m = m
        self.dx_mask = (1 << m) - 1
        self.x_shifts = tuple(m + i * _FIELD_BITS for i in range(m))
        self.omega_shift = m + m * _FIELD_BITS
        self.omega_shifts = tuple(self.omega_shift + a * _FIELD_BITS
                                  for a in range(g_dim))
        self.x_units = tuple(1 << s for s in self.x_shifts)
        self.omega_units = tuple(1 << s for s in self.omega_shifts)
        self.guard = sum(u << EXPONENT_BITS
                         for u in self.x_units + self.omega_units)
        self.below_omega = (1 << self.omega_shift) - 1
        self.dx_tuples = tuple(
            tuple(i for i in range(m) if mask >> i & 1)
            for mask in range(1 << m))
        # insert_sign[mask][i]: sign of dx_i ^ dx_mask, 0 when i is in mask
        self.insert_sign = tuple(
            tuple(0 if mask >> i & 1
                  else (-1 if (mask & ((1 << i) - 1)).bit_count() % 2 else 1)
                  for i in range(m))
            for mask in range(1 << m))
        # slots[mask]: (i, bit, sign) of the t-th factor of dx_mask, (-1)^t
        self.slots = tuple(
            tuple((i, 1 << i, -1 if t % 2 else 1)
                  for t, i in enumerate(self.dx_tuples[mask]))
            for mask in range(1 << m))

    @cached_property
    def wedge_sign(self) -> list:
        """wedge_sign[(left << m) | right]: sign of dx_left ^ dx_right, 0
        when they overlap.  4^m entries, built on first use."""
        m = self.m
        table = []
        for left in range(1 << m):
            for right in range(1 << m):
                if left & right:
                    table.append(0)
                    continue
                # each factor of `right` jumps over the larger factors of
                # `left`
                swaps = sum((left >> (j + 1)).bit_count()
                            for j in range(m) if right >> j & 1)
                table.append(-1 if swaps % 2 else 1)
        return table

    def exponents(self, key: int, shifts) -> list:
        return [(key >> s) & _VALUE_MASK for s in shifts]

    def check(self, terms: dict) -> dict:
        """terms, after checking that no exponent reached the limit."""
        if reduce(operator.or_, terms, 0) & self.guard:
            raise ValueError(f"an exponent reached {EXPONENT_LIMIT}, the "
                             "limit of the packed key fields")
        return terms


@cache
def _layout(g_dim: int, m: int) -> _Layout:
    return _Layout(g_dim, m)


def _nonzero_rows(rows, n: int, units) -> list:
    """Per row i, the (unit, float entry) pairs of its nonzero entries."""
    out = []
    for row in rows:
        pairs = []
        for j in range(n):
            v = float(row[j])
            if v != 0.0:
                pairs.append((units[j], v))
        out.append(pairs)
    return out


def _expand_power(layout: _Layout, exps, rows) -> dict:
    """Expansion of prod_i (sum_j rows[i][j] y_j)^exps[i] in the y-monomials,
    packed exponent field -> coefficient; rows as from _nonzero_rows."""
    acc = {0: 1.0}
    for e, row in zip(exps, rows):
        for _ in range(e):
            out: dict = {}
            for key, c in acc.items():
                for unit, cj in row:
                    k = key + unit
                    out[k] = out.get(k, 0.0) + c * cj
            acc = layout.check({k: v for k, v in out.items() if v != 0.0})
    return acc


def _expand_wedge(layout: _Layout, mask: int, rows) -> dict:
    """Expansion of the wedge over i in dx_mask of sum_j B[i][j] dx_j,
    dx mask -> coefficient with the wedge signs; rows as from
    _nonzero_rows with units 1 << j."""
    signs = layout.wedge_sign
    m = layout.m
    acc: dict[int, float] = {0: 1.0}
    for i in layout.dx_tuples[mask]:
        nxt: dict[int, float] = {}
        for partial, f in acc.items():
            base = partial << m
            for bit, bij in rows[i]:
                sign = signs[base | bit]
                if not sign:
                    continue
                k = partial | bit
                nxt[k] = nxt.get(k, 0.0) + f * bij * sign
        acc = nxt
    return acc


class PolyForm:
    __slots__ = ("g_dim", "m", "_layout", "_terms")

    def __init__(self, g_dim: int, m: int, terms: dict | None = None):
        self.g_dim = g_dim
        self.m = m
        layout = self._layout = _layout(g_dim, m)
        clean = {}
        for key, coeff in (terms or {}).items():
            omega, x, dx = key
            if len(omega) != g_dim or len(x) != m:
                raise ValueError("term exponents do not match the dimensions")
            dx = [_integer(i, "differential index") for i in dx]
            if dx != sorted(set(dx)) or any(i < 0 or i >= m for i in dx):
                raise ValueError(f"bad differential index set {tuple(dx)}")
            packed = sum(1 << i for i in dx)
            for exps, shifts in ((x, layout.x_shifts),
                                 (omega, layout.omega_shifts)):
                for e, s in zip(exps, shifts):
                    e = _integer(e, "exponent")
                    if not 0 <= e < EXPONENT_LIMIT:
                        raise ValueError(
                            f"exponent {e} outside 0..{EXPONENT_LIMIT - 1}")
                    packed += e << s
            if coeff != 0.0:
                clean[packed] = float(coeff)
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g_dim: int, m: int) -> "PolyForm":
        return cls(g_dim, m)

    @classmethod
    def constant(cls, g_dim: int, m: int, value: float) -> "PolyForm":
        key = ((0,) * g_dim, (0,) * m, ())
        return cls(g_dim, m, {key: value})

    @classmethod
    def term(cls, g_dim: int, m: int, coeff: float, omega_exp=None,
             x_exp=None, dx=()) -> "PolyForm":
        omega = tuple(omega_exp) if omega_exp is not None else (0,) * g_dim
        x = tuple(x_exp) if x_exp is not None else (0,) * m
        return cls(g_dim, m, {(omega, x, tuple(dx)): coeff})

    @property
    def terms(self) -> dict:
        """The terms as (omega, x, dx) tuple keys, in insertion order."""
        layout = self._layout
        return {(tuple(layout.exponents(k, layout.omega_shifts)),
                 tuple(layout.exponents(k, layout.x_shifts)),
                 layout.dx_tuples[k & layout.dx_mask]): c
                for k, c in self._terms.items()}

    # -- linear structure ---------------------------------------------------

    def _like(self, terms: dict) -> "PolyForm":
        """A form over the same dimensions that takes over a fresh dict of
        packed terms with float coefficients; only zeros are dropped."""
        out = PolyForm.__new__(PolyForm)
        out.g_dim = self.g_dim
        out.m = self.m
        out._layout = self._layout
        if 0.0 in terms.values():
            terms = {k: c for k, c in terms.items() if c != 0.0}
        out._terms = terms
        return out

    def _check_compatible(self, other: "PolyForm") -> None:
        if self._layout is not other._layout:
            raise ValueError("forms live over different dimensions")

    def __add__(self, other: "PolyForm") -> "PolyForm":
        self._check_compatible(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0.0) + c
        return self._like(out)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        self._check_compatible(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0.0) - c
        return self._like(out)

    def scale(self, c: float) -> "PolyForm":
        c = float(c)
        if c == 1.0:
            return self
        return self._like({k: v * c for k, v in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def norm(self) -> float:
        """Largest absolute coefficient; the residual measure used in checks."""
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyForm)
                and self._layout is other._layout
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.g_dim, self.m, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "PolyForm(0)"
        bits = []
        for (omega, x, dx), c in sorted(self.terms.items()):
            factors = [f"{c:g}"]
            factors += [f"O{a}^{e}" for a, e in enumerate(omega) if e]
            factors += [f"x{i}^{e}" for i, e in enumerate(x) if e]
            factors += [f"dx{i}" for i in dx]
            bits.append("*".join(factors))
        return "PolyForm(" + " + ".join(bits) + ")"

    # -- grading -----------------------------------------------------------

    def degrees(self) -> set[int]:
        """Polynomial degrees 2|Omega| + |dx| present among the terms."""
        return {2 * sum(omega) + len(dx) for omega, _, dx in self.terms}

    def twist(self, l: int) -> "PolyForm":
        """Multiply each term by (-1)^(l * degree); the cup-product sign."""
        if l % 2 == 0:
            return self
        dx_mask = self._layout.dx_mask
        return self._like({k: -c if (k & dx_mask).bit_count() % 2 else c
                           for k, c in self._terms.items()})

    # -- multiplicative structure -------------------------------------------

    def wedge(self, other: "PolyForm") -> "PolyForm":
        self._check_compatible(other)
        layout = self._layout
        signs = layout.wedge_sign
        m, dx_mask = layout.m, layout.dx_mask
        right = [(k, k & dx_mask, c) for k, c in other._terms.items()]
        out: dict = {}
        for k1, c1 in self._terms.items():
            base = (k1 & dx_mask) << m
            for k2, s2, c2 in right:
                sign = signs[base | s2]
                if not sign:
                    continue
                key = k1 + k2
                out[key] = out.get(key, 0.0) + sign * c1 * c2
        return self._like(layout.check(out))

    def multiply_omega(self, a: int) -> "PolyForm":
        """Product with the generator Omega^a."""
        unit = self._layout.omega_units[a]
        return self._like(self._layout.check(
            {k + unit: c for k, c in self._terms.items()}))

    def multiply_omega_linear(self, coeffs) -> "PolyForm":
        """Product with the linear generator combination sum_a coeffs[a] Omega^a."""
        layout = self._layout
        (row,) = _nonzero_rows((coeffs,), self.g_dim, layout.omega_units)
        out: dict = {}
        for k, c in self._terms.items():
            for unit, ca in row:
                key = k + unit
                out[key] = out.get(key, 0.0) + c * ca
        return self._like(layout.check(out))

    # -- calculus ------------------------------------------------------------

    def exterior_d(self) -> "PolyForm":
        """Exterior derivative in the x-variables; exact on polynomials."""
        layout = self._layout
        fields = tuple(zip(range(self.m), layout.x_shifts, layout.x_units))
        insert_sign, dx_mask = layout.insert_sign, layout.dx_mask
        out: dict = {}
        for k, c in self._terms.items():
            signs = insert_sign[k & dx_mask]
            for i, shift, unit in fields:
                e = (k >> shift) & _VALUE_MASK
                if e == 0:
                    continue
                sign = signs[i]
                if not sign:
                    continue
                key = k - unit + (1 << i)
                out[key] = out.get(key, 0.0) + c * e * sign
        return self._like(out)

    def contract_linear_field(self, V) -> "PolyForm":
        """Interior product with the vector field x -> V x (an m-by-m matrix):
        each dx_i becomes the linear polynomial (V x)_i, extended as an
        antiderivation over the wedge factors."""
        layout = self._layout
        rows = _nonzero_rows(V, self.m, layout.x_units)
        slots, dx_mask = layout.slots, layout.dx_mask
        out: dict = {}
        for k, c in self._terms.items():
            for i, bit, slot_sign in slots[k & dx_mask]:
                rest = k - bit
                for unit, vij in rows[i]:
                    key = rest + unit
                    out[key] = out.get(key, 0.0) + c * vij * slot_sign
        return self._like(layout.check(out))

    # -- substitutions --------------------------------------------------------

    def substitute_omega(self, M) -> "PolyForm":
        """Replace each generator: Omega^a -> sum_b M[a][b] Omega^b."""
        layout = self._layout
        shift, below = layout.omega_shift, layout.below_omega
        rows = _nonzero_rows(M, self.g_dim, layout.omega_units)
        out: dict = {}
        expansions: dict = {}
        for k, c in self._terms.items():
            omega = k >> shift
            acc = expansions.get(omega)
            if acc is None:
                acc = expansions[omega] = _expand_power(
                    layout, layout.exponents(k, layout.omega_shifts), rows)
            rest = k & below
            for new_omega, factor in acc.items():
                key = rest + new_omega
                out[key] = out.get(key, 0.0) + c * factor
        return self._like(out)

    def pullback_linear(self, B) -> "PolyForm":
        """Pull back along the linear map x -> B x: substitute the monomials
        and expand each dx_i into sum_j B[i][j] dx_j with wedge signs."""
        layout = self._layout
        m, dx_mask = self.m, layout.dx_mask
        omega_part = ~layout.below_omega
        x_part = layout.below_omega ^ dx_mask
        x_rows = _nonzero_rows(B, m, layout.x_units)
        dx_rows = _nonzero_rows(B, m, tuple(1 << j for j in range(m)))
        out: dict = {}
        x_expansions: dict = {}
        dx_expansions: dict = {}
        for k, c in self._terms.items():
            x = k & x_part
            xacc = x_expansions.get(x)
            if xacc is None:
                xacc = x_expansions[x] = _expand_power(
                    layout, layout.exponents(k, layout.x_shifts), x_rows)
            dx = k & dx_mask
            dxacc = dx_expansions.get(dx)
            if dxacc is None:
                dxacc = dx_expansions[dx] = _expand_wedge(layout, dx, dx_rows)
            omega = k & omega_part
            for new_x, xf in xacc.items():
                base = omega + new_x
                for new_dx, df in dxacc.items():
                    key = base + new_dx
                    out[key] = out.get(key, 0.0) + c * xf * df
        return self._like(out)
