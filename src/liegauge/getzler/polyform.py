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

Terms are validated once, in the public constructor: exponent lengths
match the dimensions and each dx index set is strictly increasing and in
range.  Every operation below builds its result from keys and float
coefficients of already-valid forms, so results skip that check and only
drop zero coefficients.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["PolyForm"]


# a pure function of two index sets, at most 4^m distinct pairs; the bound
# keeps the memo small for large ambient dimensions
@lru_cache(maxsize=4096)
def _merge_dx(left: tuple, right: tuple):
    """Sign and result of dx_left wedge dx_right; None when they overlap."""
    if set(left) & set(right):
        return None
    sign = 1
    for i in left:
        # each element of `right` smaller than i must jump over it
        sign *= -1 if sum(1 for j in right if j < i) % 2 else 1
    return sign, tuple(sorted(left + right))


def _insert_dx(i: int, dx: tuple):
    """Sign and result of dx_i wedge dx_S; None when i already occurs."""
    if i in dx:
        return None
    below = sum(1 for j in dx if j < i)
    return (-1 if below % 2 else 1), tuple(sorted(dx + (i,)))


def _bump(exp: tuple, i: int, by: int = 1) -> tuple:
    return exp[:i] + (exp[i] + by,) + exp[i + 1:]


def _expand_linear_power(acc: dict, row, nvars: int) -> dict:
    """Multiply an exponent-keyed expansion by the linear form sum_j row[j] y_j."""
    out: dict = {}
    for exp, c in acc.items():
        for j in range(nvars):
            cj = float(row[j])
            if cj == 0.0:
                continue
            key = _bump(exp, j)
            out[key] = out.get(key, 0.0) + c * cj
    return {k: v for k, v in out.items() if v != 0.0}


def _expand_power(exp: tuple, rows, nvars: int) -> dict:
    """Expansion of prod_i (sum_j rows[i][j] y_j)^exp[i] in the y-monomials,
    exponent tuple -> coefficient."""
    acc = {(0,) * nvars: 1.0}
    for i, e in enumerate(exp):
        for _ in range(e):
            acc = _expand_linear_power(acc, rows[i], nvars)
    return acc


def _expand_wedge(dx: tuple, B, m: int) -> dict:
    """Expansion of the wedge over i in dx of sum_j B[i][j] dx_j, increasing
    index set -> coefficient with the wedge signs."""
    acc: dict[tuple, float] = {(): 1.0}
    for i in dx:
        nxt: dict[tuple, float] = {}
        for partial, f in acc.items():
            for j in range(m):
                bij = float(B[i][j])
                if bij == 0.0:
                    continue
                merged = _merge_dx(partial, (j,))
                if merged is None:
                    continue
                sign, new_dx = merged
                nxt[new_dx] = nxt.get(new_dx, 0.0) + f * bij * sign
        acc = nxt
    return acc


class PolyForm:
    __slots__ = ("g_dim", "m", "terms")

    def __init__(self, g_dim: int, m: int, terms: dict | None = None):
        self.g_dim = g_dim
        self.m = m
        clean = {}
        for key, coeff in (terms or {}).items():
            omega, x, dx = key
            if len(omega) != g_dim or len(x) != m:
                raise ValueError("term exponents do not match the dimensions")
            if (list(dx) != sorted(set(dx))
                    or any(i < 0 or i >= m for i in dx)):
                raise ValueError(f"bad differential index set {dx}")
            if coeff != 0.0:
                clean[(tuple(omega), tuple(x), tuple(dx))] = float(coeff)
        self.terms = clean

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

    # -- linear structure ---------------------------------------------------

    def _like(self, terms: dict) -> "PolyForm":
        """A form over the same dimensions from canonical terms (tuple keys
        of valid shape, float coefficients); only zeros are dropped."""
        out = PolyForm.__new__(PolyForm)
        out.g_dim = self.g_dim
        out.m = self.m
        out.terms = {k: c for k, c in terms.items() if c != 0.0}
        return out

    def _check_compatible(self, other: "PolyForm") -> None:
        if (self.g_dim, self.m) != (other.g_dim, other.m):
            raise ValueError("forms live over different dimensions")

    def __add__(self, other: "PolyForm") -> "PolyForm":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return self._like(out)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "PolyForm":
        c = float(c)
        return self._like({k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        """Largest absolute coefficient; the residual measure used in checks."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyForm)
                and (self.g_dim, self.m) == (other.g_dim, other.m)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.g_dim, self.m, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
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
        out = {}
        for key, c in self.terms.items():
            omega, _, dx = key
            deg = 2 * sum(omega) + len(dx)
            out[key] = -c if deg % 2 else c
        return self._like(out)

    # -- multiplicative structure -------------------------------------------

    def wedge(self, other: "PolyForm") -> "PolyForm":
        self._check_compatible(other)
        out: dict = {}
        for (o1, x1, s1), c1 in self.terms.items():
            for (o2, x2, s2), c2 in other.terms.items():
                merged = _merge_dx(s1, s2)
                if merged is None:
                    continue
                sign, dx = merged
                omega = tuple(a + b for a, b in zip(o1, o2))
                x = tuple(a + b for a, b in zip(x1, x2))
                key = (omega, x, dx)
                out[key] = out.get(key, 0.0) + sign * c1 * c2
        return self._like(out)

    def multiply_omega_linear(self, coeffs) -> "PolyForm":
        """Product with the linear generator combination sum_a coeffs[a] Omega^a."""
        out: dict = {}
        for (omega, x, dx), c in self.terms.items():
            for a in range(self.g_dim):
                ca = float(coeffs[a])
                if ca == 0.0:
                    continue
                key = (_bump(omega, a), x, dx)
                out[key] = out.get(key, 0.0) + c * ca
        return self._like(out)

    # -- calculus ------------------------------------------------------------

    def exterior_d(self) -> "PolyForm":
        """Exterior derivative in the x-variables; exact on polynomials."""
        out: dict = {}
        for (omega, x, dx), c in self.terms.items():
            for i in range(self.m):
                if x[i] == 0:
                    continue
                inserted = _insert_dx(i, dx)
                if inserted is None:
                    continue
                sign, new_dx = inserted
                key = (omega, _bump(x, i, -1), new_dx)
                out[key] = out.get(key, 0.0) + c * x[i] * sign
        return self._like(out)

    def contract_linear_field(self, V) -> "PolyForm":
        """Interior product with the vector field x -> V x (an m-by-m matrix):
        each dx_i becomes the linear polynomial (V x)_i, extended as an
        antiderivation over the wedge factors."""
        out: dict = {}
        for (omega, x, dx), c in self.terms.items():
            for t, i in enumerate(dx):
                rest = dx[:t] + dx[t + 1:]
                slot_sign = -1 if t % 2 else 1
                for j in range(self.m):
                    vij = float(V[i][j])
                    if vij == 0.0:
                        continue
                    key = (omega, _bump(x, j), rest)
                    out[key] = out.get(key, 0.0) + c * vij * slot_sign
        return self._like(out)

    # -- substitutions --------------------------------------------------------

    def substitute_omega(self, M) -> "PolyForm":
        """Replace each generator: Omega^a -> sum_b M[a][b] Omega^b."""
        out: dict = {}
        expansions: dict = {}
        for (omega, x, dx), c in self.terms.items():
            acc = expansions.get(omega)
            if acc is None:
                acc = expansions[omega] = _expand_power(omega, M, self.g_dim)
            for new_omega, factor in acc.items():
                key = (new_omega, x, dx)
                out[key] = out.get(key, 0.0) + c * factor
        return self._like(out)

    def pullback_linear(self, B) -> "PolyForm":
        """Pull back along the linear map x -> B x: substitute the monomials
        and expand each dx_i into sum_j B[i][j] dx_j with wedge signs."""
        out: dict = {}
        x_expansions: dict = {}
        dx_expansions: dict = {}
        for (omega, x, dx), c in self.terms.items():
            xacc = x_expansions.get(x)
            if xacc is None:
                xacc = x_expansions[x] = _expand_power(x, B, self.m)
            dxacc = dx_expansions.get(dx)
            if dxacc is None:
                dxacc = dx_expansions[dx] = _expand_wedge(dx, B, self.m)
            for new_x, xf in xacc.items():
                for new_dx, df in dxacc.items():
                    key = (omega, new_x, new_dx)
                    out[key] = out.get(key, 0.0) + c * xf * df
        return self._like(out)
