"""Sparse multivariate polynomials keyed by exponent tuples.

A polynomial in n variables is a map from exponent tuples (one nonnegative
integer per variable) to nonzero float coefficients; the zero polynomial has
an empty term map.  Values are treated as immutable after construction and can
be shared freely between threads.

Exponents are ordered graded-lexicographically (total degree first, then tuple
order), which fixes the canonical iteration order used for printing, dumps and
golden tests throughout the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping

import numpy as np

Exponent = tuple[int, ...]

NEG_INF = float("-inf")


def total_degree(alpha: Exponent) -> int:
    return sum(alpha)


def grlex_key(alpha: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing graded lexicographic order."""
    return (sum(alpha), alpha)


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _check_exponent(alpha, dim: int) -> None:
    if len(alpha) != dim or not all(isinstance(a, (int, np.integer)) and a >= 0 for a in alpha):
        raise ValueError(f"exponent {alpha} needs {dim} nonnegative integer entries")


def exponent_rows(exponents, dim: int) -> np.ndarray:
    """The (k, dim) int64 array of an iterable of exponent tuples or of an
    integer array.  Rows of another width (which a reshape would split or
    join), negative entries and non-integers raise ``ValueError``."""
    rows = np.asarray(exponents if isinstance(exponents, np.ndarray) else list(exponents))
    if rows.shape == (0,):
        return rows.astype(np.int64).reshape(0, dim)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(f"exponents need {dim} entries each, the dimension; got shape {rows.shape}")
    if rows.dtype.kind not in "iu" or rows.min(initial=0) < 0:
        raise ValueError("exponents need nonnegative integer entries")
    return rows.astype(np.int64, copy=False)


class GrlexRadix:
    """Radix keys of the exponents in ``dim`` variables of total degree <= top.

    A key, ``alpha @ weights``, has a leading digit for the degree, then one
    digit per variable, first variable most significant, all in base top +
    1.  Keys add like exponents (within top) and sort like ``grlex_key``;
    ``decode`` inverts ``keys``.  No key overflows: past int64 the digits
    are Python ints in an object array.
    """

    def __init__(self, dim: int, top: int) -> None:
        base = int(top) + 1
        dtype = np.int64 if base ** (dim + 1) <= 2**63 else object
        digits = np.array([base**k for k in range(dim, -1, -1)], dtype=dtype)
        self.dim, self.top = dim, int(top)
        self.degree_unit = digits[0]  # a key // degree_unit is its degree
        self.digits = digits[1:]
        self.weights = self.digits + digits[0]

    def keys(self, exponents) -> np.ndarray:
        """Keys of an iterable of exponent tuples, or of an (k, dim) array."""
        return exponent_rows(exponents, self.dim) @ self.weights

    def exponents(self, keys: np.ndarray) -> np.ndarray:
        """The (k, dim) exponent array of the keys."""
        return keys[:, None] // self.digits % (self.top + 1)

    def decode(self, keys: np.ndarray) -> list[Exponent]:
        return list(map(tuple, self.exponents(keys).tolist()))

    def table(self, exponents) -> np.ndarray:
        """Sorted distinct keys of the exponents of total degree <= top; the
        others have no key."""
        within = [alpha for alpha in exponents if sum(alpha) <= self.top]
        return np.unique(self.keys(within))


def monomial_basis(dim: int, max_degree: int) -> tuple[Exponent, ...]:
    """All exponents in `dim` variables with total degree <= max_degree, graded-lex sorted."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if max_degree < 0:
        return ()
    basis: list[Exponent] = []
    for deg in range(max_degree + 1):
        level = []
        for combo in combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for i in combo:
                alpha[i] += 1
            level.append(tuple(alpha))
        # index multisets in lex order count out exponents in reverse lex order
        basis.extend(reversed(level))
    return tuple(basis)


def default_names(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


def monomial_str(alpha: Exponent, names: tuple[str, ...] | None = None) -> str:
    """Render one monomial, e.g. () -> "1", (2,1,0) -> "x1^2*x2"."""
    if names is None:
        names = default_names(len(alpha))
    parts = []
    for name, a in zip(names, alpha):
        if a == 1:
            parts.append(name)
        elif a > 1:
            parts.append(f"{name}^{a}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial: dimension plus a term map with nonzero coefficients."""

    dim: int
    terms: Mapping[Exponent, float]

    def __post_init__(self) -> None:
        for alpha, c in self.terms.items():
            _check_exponent(alpha, self.dim)
            if c == 0.0:
                raise ValueError(f"stored coefficient for {alpha} is zero")
            if not math.isfinite(c):
                raise ValueError(f"coefficient for {alpha} is not finite: {c!r}")

    @classmethod
    def _valid(cls, dim: int, terms: dict[Exponent, float]) -> Polynomial:
        """Wrap terms already known to be valid (the result of arithmetic on
        valid polynomials) without the per-term checks of construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> Polynomial:
        return Polynomial(dim, {})

    @staticmethod
    def constant(dim: int, value: float) -> Polynomial:
        if value == 0.0:
            return Polynomial.zero(dim)
        return Polynomial(dim, {(0,) * dim: float(value)})

    @staticmethod
    def from_terms(dim: int, terms: Mapping[Exponent, float]) -> Polynomial:
        """Build a polynomial, dropping exact-zero coefficients."""
        return Polynomial(dim, {a: float(c) for a, c in terms.items() if c != 0.0})

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> float:
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(a) for a in self.terms)

    def coefficient(self, alpha: Exponent) -> float:
        return self.terms.get(alpha, 0.0)

    def sorted_terms(self) -> list[tuple[Exponent, float]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in addition")
        acc = dict(self.terms)
        for alpha, c in other.terms.items():
            s = acc.get(alpha, 0.0) + c
            if s == 0.0:
                acc.pop(alpha, None)
            else:
                acc[alpha] = s
        return Polynomial._valid(self.dim, acc)

    def __neg__(self) -> Polynomial:
        return Polynomial._valid(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial | float | int) -> Polynomial:
        if isinstance(other, (int, float)):
            if other == 0:
                return Polynomial.zero(self.dim)
            scaled = {a: c * other for a, c in self.terms.items()}
            return Polynomial._valid(self.dim, {a: c for a, c in scaled.items() if c != 0.0})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in multiplication")
        acc: dict[Exponent, float] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = exp_add(a, b)
                s = acc.get(key, 0.0) + ca * cb
                if s == 0.0:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return Polynomial._valid(self.dim, acc)

    def __rmul__(self, other: float | int) -> Polynomial:
        return self.__mul__(other)

    def differentiate(self, index: int) -> Polynomial:
        """Partial derivative with respect to variable `index`."""
        if not 0 <= index < self.dim:
            raise ValueError(f"variable index {index} out of range")
        acc: dict[Exponent, float] = {}
        for alpha, c in self.terms.items():
            a = alpha[index]
            if a == 0:
                continue
            beta = alpha[:index] + (a - 1,) + alpha[index + 1:]
            acc[beta] = acc.get(beta, 0.0) + a * c
        return Polynomial._valid(self.dim, {b: c for b, c in acc.items() if c != 0.0})

    def __call__(self, points) -> float | np.ndarray:
        """The value at one point, a float, or at each row of a (k, dim) array.
        The terms add in grlex order, each its coefficient times its powers."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.dim:
            raise ValueError(f"points have shape {pts.shape}, expected ({self.dim},) or (k, {self.dim})")
        values = np.zeros(pts.shape[:-1])
        for alpha, c in self.sorted_terms():
            term = np.full(pts.shape[:-1], c)
            for i, a in enumerate(alpha):
                if a:
                    term *= pts[..., i] ** a
            values += term
        return float(values) if pts.ndim == 1 else values

    # -- rendering ---------------------------------------------------------

    def to_string(self, names: tuple[str, ...] | None = None) -> str:
        """Canonical text form, graded-lex from the highest term downwards."""
        if not self.terms:
            return "0"
        if names is None:
            names = default_names(self.dim)
        pieces: list[str] = []
        for alpha, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
            mono = monomial_str(alpha, names)
            mag = abs(c)
            if mono == "1":
                body = repr(mag)
            elif mag == 1.0:
                body = mono
            else:
                body = f"{mag!r}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:  # deterministic, sorted
        inner = ", ".join(f"{a}: {c!r}" for a, c in self.sorted_terms())
        return f"Polynomial(dim={self.dim}, {{{inner}}})"


# -- parsing ---------------------------------------------------------------

class PolynomialSyntaxError(ValueError):
    """Parse failure with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\*\*|[-+*/^]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = pos + (len(text) - pos - len(stripped))
            raise PolynomialSyntaxError(f"unexpected character {stripped[0]!r}", where)
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            op = match.group("op")
            tokens.append(("op", "^" if op == "**" else op, match.start("op")))
        pos = match.end()
    return tokens


def parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse a sum of terms like ``28*x1 - x1*x3 - 8/3*x3`` over the given variables.

    Coefficients may be integers, decimals, or integer ratios ``a/b`` (kept exact
    until the final float conversion).  Exponents use ``^`` or ``**`` with a
    nonnegative integer.  Raises PolynomialSyntaxError with a position on bad
    syntax, unknown variable names and coefficients that are not finite floats.
    """
    names = list(variables)
    index = {name: i for i, name in enumerate(names)}
    dim = len(names)
    if dim == 0:
        raise ValueError("need at least one variable name")
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial text", 0)

    acc: dict[Exponent, float] = {}
    k = 0

    def peek() -> tuple[str, str, int] | None:
        return tokens[k] if k < len(tokens) else None

    while k < len(tokens):
        sign = 1.0
        while True:  # leading signs of the term
            tok = peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                if tok[1] == "-":
                    sign = -sign
                k += 1
            else:
                break
        tok = peek()
        if tok is None:
            raise PolynomialSyntaxError("dangling sign", tokens[-1][2])
        term_at = tok[2]

        coeff = Fraction(1)
        coeff_float: float | None = None
        alpha = [0] * dim
        expect_factor = True
        while expect_factor:
            tok = peek()
            if tok is None:
                raise PolynomialSyntaxError("term ends after '*'", tokens[-1][2])
            kind, value, pos = tok
            if kind == "number":
                k += 1
                if "." in value or "e" in value or "E" in value:
                    num = float(value)
                else:
                    num = Fraction(int(value))
                nxt = peek()
                if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                    k += 1
                    den_tok = peek()
                    if den_tok is None or den_tok[0] != "number" or not den_tok[1].isdigit():
                        raise PolynomialSyntaxError("expected integer denominator", pos)
                    k += 1
                    if not isinstance(num, Fraction):
                        raise PolynomialSyntaxError("ratio parts must be integers", pos)
                    num = num / Fraction(int(den_tok[1]))
                if isinstance(num, Fraction):
                    coeff *= num
                else:
                    coeff_float = (coeff_float if coeff_float is not None else 1.0) * num
            elif kind == "name":
                k += 1
                if value not in index:
                    raise PolynomialSyntaxError(f"unknown variable {value!r}", pos)
                power = 1
                nxt = peek()
                if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
                    k += 1
                    pw = peek()
                    if pw is None or pw[0] != "number" or not pw[1].isdigit():
                        where = pw[2] if pw is not None else pos
                        raise PolynomialSyntaxError("expected nonnegative integer exponent", where)
                    power = int(pw[1])
                    k += 1
                alpha[index[value]] += power
            else:
                raise PolynomialSyntaxError(f"unexpected operator {value!r}", pos)

            nxt = peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "*":
                k += 1
                expect_factor = True
            else:
                expect_factor = False

        try:
            c = float(coeff) * (coeff_float if coeff_float is not None else 1.0) * sign
        except OverflowError:  # an integer or ratio past the float range
            c = math.inf
        key = tuple(alpha)
        s = acc.get(key, 0.0) + c
        if not math.isfinite(s):
            raise PolynomialSyntaxError("coefficient is not finite", term_at)
        if s == 0.0:
            acc.pop(key, None)
        else:
            acc[key] = s

        trailing = peek()
        if trailing is not None and not (trailing[0] == "op" and trailing[1] in "+-"):
            raise PolynomialSyntaxError("expected '+' or '-' between terms", trailing[2])

    return Polynomial(dim, acc)


# -- support sets ----------------------------------------------------------

@dataclass(frozen=True)
class SupportSet:
    """A finite set of exponents in a fixed dimension."""

    dim: int
    elements: frozenset[Exponent]

    def __post_init__(self) -> None:
        for alpha in self.elements:
            _check_exponent(alpha, self.dim)

    @classmethod
    def _valid(cls, dim: int, elements: frozenset[Exponent]) -> SupportSet:
        """Wrap exponents already known to be valid (derived from valid sets)
        without the per-element checks of construction."""
        s = object.__new__(cls)
        object.__setattr__(s, "dim", dim)
        object.__setattr__(s, "elements", elements)
        return s

    @staticmethod
    def of(dim: int, elements: Iterable[Exponent]) -> SupportSet:
        return SupportSet(dim, frozenset(tuple(a) for a in elements))

    def __iter__(self) -> Iterator[Exponent]:
        return iter(sorted(sorted(self.elements), key=sum))  # grlex

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, alpha: Exponent) -> bool:
        return alpha in self.elements

    def union(self, *others: SupportSet | Iterable[Exponent]) -> SupportSet:
        acc = set(self.elements)
        for other in others:
            if not isinstance(other, SupportSet):
                other = SupportSet.of(self.dim, other)
            if other.dim != self.dim:
                raise ValueError("dimension mismatch in union")
            acc |= other.elements
        return SupportSet._valid(self.dim, frozenset(acc))

    def restricted(self, max_degree: int) -> SupportSet:
        """Subset of elements with total degree <= max_degree."""
        return SupportSet._valid(
            self.dim, frozenset(a for a in self.elements if sum(a) <= max_degree)
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self)
        return f"SupportSet(dim={self.dim}, [{inner}])"


def support(p: Polynomial) -> SupportSet:
    """The exponents carrying nonzero coefficients of p."""
    return SupportSet._valid(p.dim, frozenset(p.terms))


# -- dynamical systems -----------------------------------------------------

@dataclass(frozen=True)
class DynamicalSystem:
    """Polynomial vector field together with the basic closed set it lives on.

    `field` lists one polynomial per state variable; `constraints` lists the
    inequality polynomials p_j >= 0 cutting out the state constraint set.
    """

    field: tuple[Polynomial, ...]
    constraints: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if not self.field:
            raise ValueError("field must have at least one component")
        n = len(self.field)
        for f in self.field:
            if f.dim != n:
                raise ValueError("each field component must have dim equal to the state count")
        if not self.constraints:
            raise ValueError("need at least one constraint polynomial")
        for p in self.constraints:
            if p.dim != n:
                raise ValueError("constraint dimension mismatch")
            if not p.terms:
                raise ValueError("constraint polynomials must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.field)

    @property
    def field_degree(self) -> int:
        """Max total degree over field components; zero components count as 0."""
        degs = [int(f.degree) for f in self.field if f.terms]
        return max(degs, default=0)

    @property
    def constraint_degrees(self) -> tuple[int, ...]:
        return tuple(int(p.degree) for p in self.constraints)

    def multipliers(self) -> tuple[Polynomial, ...]:
        """The constraint list prefixed with the constant 1 (index 0)."""
        return (Polynomial.constant(self.dim, 1.0), *self.constraints)


def lie_support_keys(keys: np.ndarray, sys: DynamicalSystem, radix: GrlexRadix) -> np.ndarray:
    """``generic_lie_support`` on radix keys: the keys, repeats included, of
    (a - e_i) + supp(f_i) for each keyed a and each i with a_i > 0.  The
    radix must cover the degrees of the keys and of the results."""
    exponents = radix.exponents(keys)
    parts = [np.zeros(0, keys.dtype)]
    for i, f in enumerate(sys.field):
        shifted = keys[exponents[:, i] > 0] - radix.weights[i]
        parts.append((shifted[:, None] + radix.keys(list(f.terms))).ravel())
    return np.concatenate(parts)


def generic_lie_support(v_support: SupportSet, sys: DynamicalSystem) -> SupportSet:
    """Support of grad(v) . f for v with generic coefficients on v_support.

    No cancellation is assumed: the result is the union over monomials x^a of
    v_support and variables i with a_i > 0 of (a - e_i) + supp(f_i).
    """
    if v_support.dim != sys.dim:
        raise ValueError("support dimension does not match the system")
    degree = max(map(sum, v_support.elements), default=0)
    # covers v_support, the field's terms and the results
    radix = GrlexRadix(sys.dim, max(degree, sys.field_degree, degree - 1 + sys.field_degree))
    keys = lie_support_keys(radix.keys(list(v_support.elements)), sys, radix)
    return SupportSet._valid(sys.dim, frozenset(radix.decode(np.unique(keys))))


def lie_coefficients(
    exponents: np.ndarray, sys: DynamicalSystem, beta: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of ``lie_polynomial(x^g, sys, beta)`` for each row g of an
    (k, dim) exponent array, as arrays (row of g, exponent, coefficient).

    The products g_i c of each field term c add up in the order
    ``lie_polynomial`` adds them, after beta, and sums of exactly 0 are
    dropped, so the coefficients are the same floats.  Sorted by row, then
    exponent in tuple order.  Raises ``ValueError`` if a coefficient passes
    the float range.
    """
    exponents = exponent_rows(exponents, sys.dim)
    rows, alphas, coefs = [np.arange(len(exponents))], [exponents], [np.full(len(exponents), float(beta))]
    for i, f in enumerate(sys.field):
        row = np.flatnonzero(exponents[:, i] > 0)
        deltas = np.array(list(f.terms), dtype=np.int64).reshape(-1, sys.dim)
        shifted = exponents[row] - np.eye(sys.dim, dtype=np.int64)[i]
        rows.append(row.repeat(len(deltas)))
        alphas.append((shifted[:, None] + deltas).reshape(-1, sys.dim))
        c = np.array(list(f.terms.values()), dtype=float)
        with np.errstate(over="ignore"):  # checked on the sums below
            coefs.append(-(exponents[row, i].astype(float)[:, None] * c).ravel())
    row, alpha, coef = np.concatenate(rows), np.concatenate(alphas), np.concatenate(coefs)
    order = np.lexsort((*alpha.T[::-1], row))
    row, alpha, coef = row[order], alpha[order], coef[order]
    new = np.ones(len(row), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (alpha[1:] != alpha[:-1]).any(axis=1)
    start = np.flatnonzero(new)
    total = np.bincount(np.cumsum(new) - 1, coef)  # adds in order, as the dict does
    if not np.isfinite(total).all():
        raise ValueError("the Lie derivative's coefficients pass the float range; scale the dynamics down")
    keep = total != 0.0
    return row[start[keep]], alpha[start[keep]], total[keep]


def lie_polynomial(v: Polynomial, sys: DynamicalSystem, beta: float = 1.0) -> Polynomial:
    """The certificate left-hand side beta*v - grad(v) . f."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if v.dim != sys.dim:
        raise ValueError("polynomial dimension does not match the system")
    out = beta * v
    for i, f_i in enumerate(sys.field):
        out = out - v.differentiate(i) * f_i
    return out
