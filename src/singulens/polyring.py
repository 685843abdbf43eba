"""Sparse multivariate polynomials over the rationals.

A polynomial is stored as a dict mapping exponent vectors (tuples of
nonnegative ints, one slot per ring variable) to nonzero ``Fraction``
coefficients.  The representation is canonical: zero coefficients are
dropped on construction, so two polynomials are equal exactly when their
term dicts are equal.  All arithmetic is exact.

Monomial orders are supplied as key functions: ``order.key(e)`` returns an
int tuple that sorts monomials ascending, so ``max(exponents, key=order.key)``
is the leading monomial.  Three classical orders are provided (lex, graded
lex, graded reverse lex; ties broken by the declaration order of the ring
variables) plus ``ELIM``, a block order used internally for elimination.  A
polynomial's ``terms``, ``leading_monomial`` and ``leading_coefficient``
are read in grevlex, the order of every normal form; only
``Ideal.groebner_basis`` takes another order.

The text grammar accepted by :func:`parse`:

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' NAT)?
    atom     := RATIONAL | IDENT | '(' expr ')'
    RATIONAL := NAT ('/' NAT)?

Whitespace is insignificant.  Multiplication must be written explicitly;
``2x`` is a syntax error.  There is no division operator: ``/`` only
separates the numerator and denominator of a literal rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, Union

__all__ = [
    "GREVLEX",
    "GRLEX",
    "LEX",
    "Exponent",
    "MonomialOrder",
    "ParseError",
    "Polynomial",
    "RingContext",
    "clear_denominators",
    "exact_div",
    "exponent_box",
    "integer_weights",
    "parse",
]

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def exponent_box(bounds: Iterable[int]) -> Iterator[Exponent]:
    """Every exponent e with 0 <= e[i] < bounds[i], in ascending lex order."""
    return product(*(range(b) for b in bounds))


def integer_weights(weights: Iterable) -> tuple[tuple[int, ...], int]:
    """Positive rational weights w as integers W = L*w, with L their common scale.

    L is the lcm of the denominators, so a weighted sum of an exponent
    compares with a rational bound t exactly when L times that sum, an
    integer, compares with L*t.  Weights that carry this form as
    ``integers`` (a ``WeightSystem``, which computes it once) return it.
    """
    form = getattr(weights, "integers", None)
    if form is not None:
        return form
    ws = [Fraction(w) for w in weights]
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    scale = math.lcm(*(w.denominator for w in ws))
    return tuple(w.numerator * (scale // w.denominator) for w in ws), scale


# Exponents are meant to stay tiny; anything approaching this bound is a bug.
_EXPONENT_LIMIT = 2**31


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


def _require_identifier(name: str) -> None:
    if not name.isidentifier():
        raise ValueError(f"variable name {name!r} is not an identifier")


@dataclass(frozen=True)
class RingContext:
    """An ordered tuple of variable names fixing a polynomial ring over Q."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for name in self.names:
            _require_identifier(name)

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, var: int | str) -> int:
        """Resolve a variable given by position or by name."""
        if isinstance(var, str):
            try:
                return self.names.index(var)
            except ValueError:
                raise ValueError(f"unknown variable {var!r}") from None
        if not 0 <= var < len(self.names):
            raise IndexError(f"variable index {var} out of range")
        return var

    def zero_exponent(self) -> Exponent:
        return (0,) * len(self.names)

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(Polynomial.variable(self, i) for i in range(len(self.names)))

    def one(self) -> "Polynomial":
        return Polynomial.constant(self, 1)

    def zero(self) -> "Polynomial":
        return Polynomial.zero(self)

    def __str__(self) -> str:
        return "Q[" + ",".join(self.names) + "]"


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order presented as an ascending sort key on exponents.

    Orders compare and hash by name.
    """

    name: str
    key: Callable[[Exponent], tuple[int, ...]] = field(compare=False, repr=False)

    @staticmethod
    def by_name(name: str) -> "MonomialOrder":
        try:
            return _ORDERS[name]
        except KeyError:
            raise ValueError(f"unknown monomial order {name!r}") from None


def _lex_key(e: Exponent) -> tuple[int, ...]:
    return e


def _grlex_key(e: Exponent) -> tuple[int, ...]:
    return (sum(e), *e)


def _grevlex_key(e: Exponent) -> tuple[int, ...]:
    # Last differing variable decides, smaller exponent wins the tie.
    return (sum(e), *(-x for x in reversed(e)))


LEX = MonomialOrder("lex", _lex_key)
GRLEX = MonomialOrder("grlex", _grlex_key)
GREVLEX = MonomialOrder("grevlex", _grevlex_key)

_ORDERS = {o.name: o for o in (LEX, GRLEX, GREVLEX)}


# Block order for a ring whose first variable must be eliminated: the first
# exponent alone, then graded reverse lex on the rest.  Any basis element
# free of the first variable belongs to the elimination ideal.
ELIM = MonomialOrder("elim", lambda e: (e[0], *_grevlex_key(e[1:])))


def _coerce_scalar(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class Polynomial:
    """Immutable sparse polynomial bound to a :class:`RingContext`."""

    __slots__ = ("ring", "_c", "_hash")

    def __init__(self, ring: RingContext, coeffs: Mapping[Exponent, Scalar]):
        arity = ring.arity
        c: dict[Exponent, Fraction] = {}
        for exp, value in coeffs.items():
            if len(exp) != arity:
                raise ValueError(f"exponent {exp} has wrong arity for {ring}")
            for x in exp:
                if not isinstance(x, int) or x < 0 or x >= _EXPONENT_LIMIT:
                    raise ValueError(f"bad exponent entry {x!r} in {exp}")
            q = _coerce_scalar(value)
            if q:
                c[exp] = q
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ring: RingContext) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: RingContext, value: Scalar) -> "Polynomial":
        return cls(ring, {ring.zero_exponent(): value})

    @classmethod
    def variable(cls, ring: RingContext, var: int | str) -> "Polynomial":
        i = ring.index(var)
        exp = tuple(1 if j == i else 0 for j in range(ring.arity))
        return cls(ring, {exp: 1})

    @classmethod
    def monomial(cls, ring: RingContext, exp: Exponent, coeff: Scalar = 1) -> "Polynomial":
        return cls(ring, {tuple(exp): coeff})

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self._c.items())

    @property
    def constant_term(self) -> Fraction:
        return self._c.get(self.ring.zero_exponent(), Fraction(0))

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def total_degree(self) -> int | None:
        """Largest term degree, or None for the zero polynomial."""
        if not self._c:
            return None
        return max(sum(e) for e in self._c)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._c}
        return len(degrees) <= 1

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        """Split into homogeneous parts, keyed by degree, ascending."""
        parts: dict[int, dict[Exponent, Fraction]] = {}
        for e, q in self._c.items():
            parts.setdefault(sum(e), {})[e] = q
        return {
            d: Polynomial(self.ring, coeffs) for d, coeffs in sorted(parts.items())
        }

    def terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms as (exponent, coefficient) pairs, descending in grevlex."""
        return sorted(self._c.items(), key=lambda t: GREVLEX.key(t[0]), reverse=True)

    def leading_monomial(self) -> Exponent:
        """The grevlex-largest exponent."""
        if not self._c:
            raise ValueError("zero polynomial has no leading term")
        return max(self._c, key=GREVLEX.key)

    def leading_coefficient(self) -> Fraction:
        """The coefficient of the grevlex-largest exponent."""
        return self._c[self.leading_monomial()]

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if other.ring.names != self.ring.names:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        c = dict(self._c)
        for e, q in other._c.items():
            s = c.get(e, 0) + q
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return _raw(self.ring, c)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(self.ring, {e: -q for e, q in self._c.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            q = _coerce_scalar(other)
            if not q:
                return Polynomial.zero(self.ring)
            return _raw(self.ring, {e: c * q for e, c in self._c.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out: dict[Exponent, Fraction] = {}
        for ea, qa in self._c.items():
            for eb, qb in other._c.items():
                e = tuple(map(add, ea, eb))
                s = out.get(e, 0) + qa * qb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take a nonnegative int")
        deg = self.total_degree()
        if deg and deg * k >= _EXPONENT_LIMIT:
            raise OverflowError("exponent limit exceeded")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial_derivative(self, var: int | str) -> "Polynomial":
        """Formal partial derivative with respect to one ring variable."""
        i = self.ring.index(var)
        out: dict[Exponent, Fraction] = {}
        for e, q in self._c.items():
            if e[i]:
                low = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[low] = out.get(low, Fraction(0)) + q * e[i]
        return _raw(self.ring, {e: q for e, q in out.items() if q})

    # -- equality and printing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.names == other.ring.names and self._c == other._c

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring.names, frozenset(self._c.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        """Canonical text form: terms descending in graded reverse lex."""
        if not self._c:
            return "0"
        chunks: list[str] = []
        for n, (exp, coeff) in enumerate(self.terms()):
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.names, exp)
                if e
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if n == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring}>"


def _raw(ring: RingContext, coeffs: dict[Exponent, Fraction]) -> Polynomial:
    """Build a polynomial from an already-canonical coefficient dict."""
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "ring", ring)
    object.__setattr__(p, "_c", coeffs)
    object.__setattr__(p, "_hash", None)
    return p


def clear_denominators(p: Polynomial) -> tuple[dict[Exponent, int], int]:
    """(den * p, den) with den the lcm of the denominators of p, as an int dict."""
    den = math.lcm(*(q.denominator for q in p._c.values()))
    return {e: q.numerator * (den // q.denominator) for e, q in p._c.items()}, den


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial | None:
    """Quotient p/d when d divides p exactly, else None."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_ring(d)
    lm = d.leading_monomial()
    lc = d.leading_coefficient()
    rest = [(e, q) for e, q in d.items() if e != lm]
    work = dict(p._c)
    quo: dict[Exponent, Fraction] = {}
    while work:
        m = max(work, key=GREVLEX.key)
        if any(a < b for a, b in zip(m, lm)):
            return None
        shift = tuple(map(sub, m, lm))
        c = work.pop(m) / lc
        quo[shift] = c
        for e, q in rest:
            t = tuple(map(add, e, shift))
            s = work.get(t, 0) - c * q
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return _raw(p.ring, quo)


# ---------------------------------------------------------------------------
# parsing


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: RingContext):
        self.tokens = tokens
        self.ring = ring
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -1
        p = self.term() * sign
        while self.peek().kind in "+-":
            op = self.advance()
            q = self.term()
            p = p + q if op.kind == "+" else p - q
        return p

    def term(self) -> Polynomial:
        """A product of factors.

        Numbers and variables only add up to one coefficient and one
        exponent vector; a parenthesized factor alone is multiplied as a
        polynomial.
        """
        coeff = Fraction(1)
        exps = [0] * self.ring.arity
        poly = None
        while True:
            kind, value = self.atom()
            k = self.exponent()
            if kind == "var":
                exps[value] += k
            elif kind == "num":
                coeff *= value**k
            else:
                value = value**k
                poly = value if poly is None else poly * value
            if self.peek().kind != "*":
                break
            self.advance()
        mono = _raw(self.ring, {tuple(exps): coeff} if coeff else {})
        return mono if poly is None else mono * poly

    def exponent(self) -> int:
        """The exponent after ``^``, else 1."""
        if self.peek().kind != "^":
            return 1
        caret = self.advance()
        tok = self.peek()
        if tok.kind == "-":
            raise ParseError("negative exponent", tok.pos)
        if tok.kind != "num":
            raise ParseError("expected a nonnegative integer exponent", caret.pos + 1)
        self.advance()
        k = int(tok.text)
        if k >= 10**6:
            raise ParseError("exponent too large", tok.pos)
        return k

    def atom(self) -> tuple[str, int | Fraction | Polynomial]:
        """("num", value), ("var", index) or ("poly", a parenthesized polynomial)."""
        tok = self.advance()
        if tok.kind == "num":
            numerator = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den = self.peek()
                if den.kind != "num" or int(den.text) == 0:
                    raise ParseError("expected a positive integer denominator", den.pos)
                self.advance()
                return "num", Fraction(numerator, int(den.text))
            return "num", numerator
        if tok.kind == "ident":
            if tok.text not in self.ring.names:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            return "var", self.ring.index(tok.text)
        if tok.kind == "(":
            p = self.expr()
            closing = self.advance()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            return "poly", p
        raise ParseError(f"unexpected {tok.kind!r}", tok.pos)


def parse(text: str, ring: RingContext) -> Polynomial:
    """Parse polynomial text in the module grammar against a ring.

    Parameters
    ----------
    text : str
        Expression such as ``"x^4 + y^4 + z^4 + x*y^2*z^2"`` or ``"-3/2*x*y"``.
    ring : RingContext
        Supplies the admissible variable names.

    Raises
    ------
    ParseError
        On any malformed input, with the offending position attached.
    """
    parser = _Parser(_tokenize(text), ring)
    p = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.pos)
    return p
