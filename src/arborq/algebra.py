"""Exact arithmetic in the variables q and x.

This module provides the coefficient rings everything else is built on:

  QPoly    polynomials in q over Q, stored as an integer polynomial over one
           positive common denominator (ints / den, canonical)
  QRat     reduced rational functions in q (monic denominator, content in
           the numerator, so equality is structural)
  XPoly    polynomials in x with QRat coefficients
  QSeries  truncated power series in q with rational coefficients
  NewtonPolygon  the hull of the (q, x) exponent support of a zxpoly

plus cyclotomic polynomials, q-integers, cyclotomic trial-division
factoring and the substitutions q -> 1/q, q -> value, q -> power series.
Every value of the paper's series has a denominator q^a prod Phi_d^e, and
the edge that reads, renders and checks values works on its exponents alone
(cyclotomic_exponents), with no gcd and no polynomial division.
The four coefficient types share one base class for the operators they
derive alike (-, **, repr) from their own coercion and ring operations.
QPoly alone has division with remainder; an XPoly is only ever divided by a
scalar.

The fraction-free layer works on plain int tuples: zpolys in Z[q] and
zxpolys in Z[q][x], with products, integer (pseudo-)division, exact division
by x - r and by 1 + qx, the quotients of q-factorials the recursions scale
by, and the one cyclotomic reduction: divide_cyclotomics cancels from rows of
ints the powers of q and Phi_d they share with a denominator q^a prod Phi_d^e
given by its exponents, and qrat_over makes one row a canonical QRat.  Every
value over [n]_q! (q_factorial_exponents) and every stored value read back
is reduced by it.  Its packed form holds a zpoly or zxpoly as one Python int,
the Kronecker substitution q = 2^bits, x = 2^(bits*width): the per-tree
engine solves on packed ints, and the one trial division by Phi_d
(_divide_packed) divides them for the reduction and factor_cyclotomic alike.
The per-tree recursions run on this layer directly; QPoly runs on it too,
through its ints: a QPoly is ints / den with ints a zpoly and den a positive
int coprime to the content of ints (zero is ((), 1)), so Q(q) arithmetic runs
on Python ints.  The Fraction view of a QPoly (coeffs, coeff, leading) is
made on demand for readers such as printing and tests, and is never stored.

The gcd that keeps QRat reduced is GCDHEU (Char, Geddes & Gonnet, 1989): one
big-integer gcd of the two primitive numerators evaluated at
xi = 2 min(|a|, |b|) + 2, read back from its symmetric base-xi digits and
accepted only when it divides both; xi grows on failure, and after
GCDHEU_TRIES failed points the primitive pseudo-remainder sequence decides.

All values are immutable after construction.  There is no floating-point
mode anywhere.
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a genuine pole."""


class ExactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


class _Ring:
    """The operators QPoly, QRat, QSeries and XPoly derive alike from their
    own _coerce, +, * and unary minus."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # the one of this type (and, for a series, of this truncation order)
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


# ---------------------------------------------------------------------------
# Polynomials in q over Q


class QPoly(_Ring):
    """Dense univariate polynomial in q over Q, stored as ints / den.

    ints is a tuple of Python ints, lowest degree first, with no trailing
    zeros; den is a positive int with gcd(den, content(ints)) == 1.  The zero
    polynomial is ((), 1) and has degree -1.  That form is canonical, so
    equality and hashing compare (ints, den), and every operation runs on the
    zpoly kernels of the fraction-free layer.  The Fraction view
    (coeffs, coeff, leading) is built on demand and never stored.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = tuple(coeffs)
        den = 1
        for c in cs:
            if isinstance(c, Fraction):
                den = math.lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(f"not an exact rational: {c!r}")
        # an int is its own numerator, over denominator 1
        self.ints = zpoly_trim([c.numerator * (den // c.denominator) for c in cs])
        # the lcm of reduced denominators is coprime to the scaled content
        self.den = den

    @staticmethod
    def _raw(ints: tuple[int, ...], den: int = 1) -> QPoly:
        # internal: caller guarantees the canonical form
        p = object.__new__(QPoly)
        p.ints = ints
        p.den = den
        return p

    @staticmethod
    def from_ints(ints: Sequence[int], den: int = 1) -> QPoly:
        """The polynomial ints / den, for any int sequence and nonzero den."""
        ints = zpoly_trim(ints)
        if not ints:
            return QPOLY_ZERO
        if den < 0:
            ints = tuple(-c for c in ints)
            den = -den
        if den != 1:
            g = math.gcd(den, *ints)
            if g != 1:
                ints = tuple(c // g for c in ints)
                den //= g
        return QPoly._raw(ints, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> QPoly:
        c = _as_fraction(c)
        return QPoly._raw((c.numerator,), c.denominator) if c else QPOLY_ZERO

    @staticmethod
    def q_power(k: int) -> QPoly:
        if k < 0:
            raise ValueError("q_power exponent must be nonnegative")
        return QPoly._raw((0,) * k + (1,))

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self) -> bool:
        return bool(self.ints)

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ints == o.ints and self.den == o.den

    def __hash__(self):
        return hash((self.ints, self.den))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.ints:
            return self
        if not self.ints:
            return o
        da, db = self.den, o.den
        g = math.gcd(da, db)
        acc = [c * (db // g) for c in self.ints]
        zpoly_add_scaled(acc, o.ints, da // g)
        return QPoly.from_ints(acc, da // g * db)

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return QPoly._raw(tuple(-c for c in self.ints), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly.from_ints(zpoly_mul(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> QPoly:
        c = _as_fraction(c)
        if c == 0:
            return QPOLY_ZERO
        n = c.numerator
        return QPoly.from_ints(tuple(x * n for x in self.ints), self.den * c.denominator)

    def shift(self, k: int) -> QPoly:
        """Multiply by q^k."""
        if self.is_zero():
            return self
        return QPoly._raw((0,) * k + self.ints, self.den)

    def __divmod__(self, other: QPoly):
        if not isinstance(other, QPoly):
            other = QPoly.const(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # s * a = b * quot + rem over Z, so with da, db the denominators,
        # self = other * (quot * db / (s * da)) + rem / (s * da)
        s, quot, rem = _pseudo_divmod(self.ints, other.ints)
        den = s * self.den
        db = other.den
        return (QPoly.from_ints(tuple(c * db for c in quot), den),
                QPoly.from_ints(rem, den))

    def exact_div(self, other):
        quot, rem = divmod(self, other)
        if not rem.is_zero():
            raise ExactDivisionError(f"{self} is not divisible by {other}")
        return quot

    def monic(self) -> QPoly:
        if self.is_zero():
            return self
        return QPoly.from_ints(self.ints, self.ints[-1])

    def evaluate(self, v) -> Fraction:
        # homogeneous Horner: sum c_i n^i d^(m-i) / (d^m * den) for v = n/d
        v = _as_fraction(v)
        n, d = v.numerator, v.denominator
        acc = 0
        dpow = 1
        for c in reversed(self.ints):
            acc = acc * n + c * dpow
            dpow *= d
        return Fraction(acc, dpow // d * self.den) if self.ints else Fraction(0)

    def derivative(self) -> QPoly:
        return QPoly.from_ints(tuple(c * i for i, c in enumerate(self.ints) if i), self.den)

    def primitive_int(self) -> tuple[Fraction, tuple[int, ...]]:
        """Write self = content * p with p primitive over Z, positive leading."""
        if self.is_zero():
            return Fraction(0), ()
        g = math.gcd(*self.ints)
        if self.ints[-1] < 0:
            g = -g
        return Fraction(g, self.den), tuple(c // g for c in self.ints)

    def terms(self) -> list[tuple[int, int, int]]:
        """(exponent, numerator, denominator) of each nonzero coefficient in
        lowest terms, lowest degree first."""
        den = self.den
        if den == 1:
            return [(e, c, 1) for e, c in enumerate(self.ints) if c]
        out = []
        for e, c in enumerate(self.ints):
            if c:
                g = math.gcd(c, den)
                out.append((e, c // g, den // g))
        return out

    def __str__(self) -> str:
        if not self.ints:
            return "0"
        parts = []
        for e, num, den in reversed(self.terms()):
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            mono = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if e == 0:
                body = mag
            elif mag == "1":
                body = mono
            elif den == 1:
                body = f"{mag}{mono}"
            else:
                body = f"({mag}){mono}"
            sign = " - " if num < 0 else (" + " if parts else "")
            if num < 0 and not parts:
                sign = "-"
            parts.append(sign + body)
        return "".join(parts)


QPOLY_ZERO = QPoly._raw(())
QPOLY_ONE = QPoly._raw((1,))
Q = QPoly._raw((0, 1))


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]):
    """(s, quot, rem) with s * a = b * quot + rem over Z, for nonzero b.

    s is lead(b)^(deg a - deg b + 1), so every step of zpoly_divmod divides;
    a lead of +-1 divides every step unscaled, and then s = 1.
    """
    steps = len(a) - len(b) + 1
    if steps <= 0:
        return 1, (), tuple(a)
    lead = b[-1]
    s = 1 if lead in (1, -1) else lead ** steps
    quot, rem = zpoly_divmod(a if s == 1 else [c * s for c in a], b)
    return s, quot, rem


def _primitive(a: Sequence[int]) -> list[int]:
    if not a:
        return []
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a] if g != 1 else list(a)


def _gcd_prs(pa: list[int], pb: list[int]) -> list[int]:
    # primitive pseudo-remainder sequence, for primitive pa, pb with pb nonzero
    while pb:
        if len(pb) == 1:
            return [1]
        pa, pb = pb, _primitive(_pseudo_divmod(pa, pb)[2])
    return pa


GCDHEU_TRIES = 6


def _quotient(a: list[int], g: list[int]) -> tuple[int, ...] | None:
    """a / g when g divides a over Z, else None."""
    try:
        quot, rem = zpoly_divmod(a, g)
    except ValueError:  # lead(g) does not divide a step coefficient
        return None
    return None if rem else quot


def _gcdheu(pa: list[int], pb: list[int]):
    """(g, pa / g, pb / g) for g the primitive gcd of primitive nonconstant
    pa, pb, through one integer gcd (Char, Geddes & Gonnet, J. Symbolic
    Comput. 7, 1989), or None when GCDHEU_TRIES evaluation points all fail.
    The cofactors are the quotients of the divisibility test that accepts g.

    With |p| the largest absolute coefficient and xi >= 2 min(|pa|, |pb|) + 2,
    every root r of the argument of smaller norm has |r| < 1 + |p| <= xi / 2
    (Cauchy), so each nonconstant factor k of the gcd has |k(xi)| > xi / 2,
    more than any symmetric base-xi digit.  Hence, for G the polynomial
    whose symmetric base-xi digits spell gcd(pa(xi), pb(xi)): a constant G
    means the gcd is 1, and pp(G) dividing both pa and pb means pp(G) is the
    gcd.
    """
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2
    for _ in range(GCDHEU_TRIES):
        va = vb = 0
        for c in reversed(pa):
            va = va * xi + c
        for c in reversed(pb):
            vb = vb * xi + c
        h = math.gcd(va, vb)
        digits = []
        half = xi // 2
        while h:
            d = h % xi
            if d > half:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        if len(digits) == 1:
            return [1], pa, pb
        g = _primitive(digits)
        if len(g) <= min(len(pa), len(pb)):
            cb = _quotient(pb, g)
            ca = None if cb is None else _quotient(pa, g)
            if ca is not None:
                return g, ca, cb
        xi = xi * 73794 // 27011  # the usual growth, about 1 + sqrt(3)
    return None


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Greatest common divisor, returned primitive over Z with positive lead.

    The gcd of p and 0 is the primitive part of p; for two nonzero arguments
    it is the gcd of qpoly_gcd_cofactors (GCDHEU, with the primitive
    pseudo-remainder sequence as its fallback).
    """
    if a.is_zero() or b.is_zero():
        return QPoly._raw(tuple(_primitive(a.ints or b.ints)))
    return qpoly_gcd_cofactors(a, b)[0]


def qpoly_gcd_cofactors(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """(g, a / g, b / g) for nonzero a, b, with g their gcd, primitive over Z
    with positive lead.

    Works on the primitive integer numerators (the denominators are units).
    A constant argument or gcd gives (1, a, b).  Otherwise the gcd is read off
    one big-integer gcd of the two values at q = xi (GCDHEU, see _gcdheu) and
    the cofactors are the quotients of the divisibility test that accepts it,
    so each gcd is divided out once; when GCDHEU_TRIES points fail, the
    primitive pseudo-remainder sequence decides and the cofactors are exact
    divisions.
    """
    pa = _primitive(a.ints)
    pb = _primitive(b.ints)
    if len(pa) == 1 or len(pb) == 1:
        return QPOLY_ONE, a, b
    found = _gcdheu(pa, pb)
    if found is None:
        g = _gcd_prs(pa, pb)
        found = g, zpoly_exact_div(pa, g), zpoly_exact_div(pb, g)
    g, ca, cb = found
    if len(g) == 1:
        return QPOLY_ONE, a, b
    # p = (lead(p) / lead(pp)) * pp with pp primitive, and pp / g is primitive
    # (Gauss), so each cofactor keeps p's content and denominator as they are
    return (QPoly._raw(tuple(g)),
            QPoly._raw(tuple(c * (a.ints[-1] // pa[-1]) for c in ca), a.den),
            QPoly._raw(tuple(c * (b.ints[-1] // pb[-1]) for c in cb), b.den))


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and q-integers

def cyclotomic(d: int) -> QPoly:
    """The d-th cyclotomic polynomial in q."""
    return QPoly._raw(zcyclotomic(d))


def q_int_poly(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1) as a polynomial, for n >= 0."""
    if n < 0:
        raise ValueError("q_int_poly needs n >= 0")
    return QPoly((1,) * n)


@lru_cache(maxsize=None)
def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d."""
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    return out - out // m if m > 1 else out


def factor_cyclotomic(p: QPoly):
    """Split off cyclotomic factors by ascending trial division.

    Returns (unit, factors, remainder) with p = unit * prod Phi_d^m * remainder
    and the remainder monic with no cyclotomic factor: every Phi_d of degree
    phi(d) <= deg(remainder) is tried, and phi(d) >= sqrt(d / 2) bounds d.
    The ints are packed once, and each trial is capped at deg // phi(d).
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    factors: dict[int, int] = {}
    # Phi_d is monic over Z, so it splits off p = ints / den through ints
    packed, bits = _pack_rows([p.ints])
    deg = p.degree
    d = 0
    while deg and d < 2 * deg ** 2:
        d += 1
        cap = deg // _totient(d)
        if cap:
            packed, bits, left = _divide_packed(packed, bits, ((d, cap),))
            m = cap - sum(e for _, e in left)
            if m:
                factors[d] = m
                deg -= m * _totient(d)
    rest = QPoly.from_ints(zpoly_unpack(packed[0], bits), p.den)
    return rest.leading, factors, rest.monic()


@lru_cache(maxsize=None)
def cyclotomic_exponents(p: QPoly) -> tuple[tuple[int, int], ...]:
    """The pairs (d, e) with p == q^a prod Phi_d^e: (0, a) first when a > 0,
    then the Phi_d, d ascending.  Any other p raises ValueError.

    The part prime to q must be one that factor_cyclotomic splits completely,
    with unit 1.  Memoized per polynomial: the values of a series share few
    distinct denominators.
    """
    a = next((i for i, c in enumerate(p.ints) if c), 0)
    unit, factors, rem = factor_cyclotomic(QPoly._raw(p.ints[a:], p.den) if a else p)
    if unit != 1 or rem.degree:
        raise ValueError(f"{p} is not q^a prod Phi_d^e")
    return (((0, a),) if a else ()) + tuple(factors.items())


# ---------------------------------------------------------------------------
# Rational functions in q


def _monic_den(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """Divide num and den by the leading coefficient of den."""
    lead = den.ints[-1]
    if lead == den.den:
        return num, den
    return (QPoly.from_ints(tuple(c * den.den for c in num.ints), num.den * lead),
            QPoly.from_ints(den.ints, lead))


class QRat(_Ring):
    """Reduced rational function in q.

    Invariants: the denominator is nonzero and monic, gcd(num, den) is
    constant, and any rational content sits in the numerator.  Equality is
    therefore a structural comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = as_qpoly(num)
        den = as_qpoly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = QPOLY_ZERO
            self.den = QPOLY_ONE
            return
        g = qpoly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        self.num, self.den = _monic_den(num, den)

    @staticmethod
    def _raw(num: QPoly, den: QPoly) -> QRat:
        # internal: caller guarantees reduced with monic denominator
        r = object.__new__(QRat)
        r.num = num
        r.den = den
        return r

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == QPOLY_ONE

    def __eq__(self, other) -> bool:
        o = as_qrat_or_none(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        return as_qrat_or_none(other)

    def __add__(self, other):
        o = as_qrat_or_none(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        g, d1, d2 = qpoly_gcd_cofactors(self.den, o.den)
        num = self.num * d2 + o.num * d1
        if num.is_zero():
            return QRAT_ZERO
        # den = d1 * o.den / h, with o.den = d2 * g and g = h * rest
        h, num, rest = qpoly_gcd_cofactors(num, g)
        return QRat._raw(*_monic_den(num, d1 * (o.den if h.degree == 0 else d2 * rest)))

    __radd__ = __add__

    def __neg__(self) -> QRat:
        return QRat._raw(-self.num, self.den)

    def __mul__(self, other):
        o = as_qrat_or_none(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return QRAT_ZERO
        _, n1, d2 = qpoly_gcd_cofactors(self.num, o.den)
        _, n2, d1 = qpoly_gcd_cofactors(o.num, self.den)
        return QRat._raw(*_monic_den(n1 * n2, d1 * d2))

    __rmul__ = __mul__

    def inverse(self) -> QRat:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        # num and den are coprime already: swap them and make den monic
        return QRat._raw(*_monic_den(self.den, self.num))

    def __truediv__(self, other):
        o = as_qrat_or_none(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = as_qrat_or_none(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> QRat:
        if n < 0:
            return self.inverse() ** (-n)
        return super().__pow__(n)

    # -- substitutions --------------------------------------------------------

    def evaluate(self, v) -> Fraction:
        """Value at q = v; raises PoleError at a genuine pole."""
        v = _as_fraction(v)
        dv = self.den.evaluate(v)
        if dv == 0:
            raise PoleError(f"pole at q = {v}")
        return self.num.evaluate(v) / dv

    def reciprocal_q(self) -> QRat:
        """Substitute q -> 1/q, clearing negative powers by a q^k rescale."""
        k = max(self.num.degree, self.den.degree, 0)
        rn, rd = (QPoly.from_ints((p.ints + (0,) * (k + 1 - len(p.ints)))[::-1], p.den)
                  for p in (self.num, self.den))
        return QRat(rn, rd)

    def series(self, order: int) -> QSeries:
        """Power-series expansion at q = 0 to the given order."""
        if self.is_zero():
            return QSeries((), order)
        nc, dc = self.num.coeffs, self.den.coeffs
        if dc[0] == 0:
            raise PoleError("pole at q = 0: no power-series expansion")
        d0 = dc[0]
        out = []
        for k in range(order + 1):
            acc = nc[k] if k < len(nc) else Fraction(0)
            for i in range(1, min(k, len(dc) - 1) + 1):
                di = dc[i]
                if di:
                    acc -= di * out[k - i]
            out.append(acc / d0)
        return QSeries(out, order)

    def __str__(self) -> str:
        if self.den == QPOLY_ONE:
            return str(self.num)
        return f"({self.num})/({_den_text(self.den)})"


# the values of a series share few denominators: each one's text is made once
_den_text = lru_cache(maxsize=None)(QPoly.__str__)

QRAT_ZERO = QRat._raw(QPOLY_ZERO, QPOLY_ONE)
QRAT_ONE = QRat._raw(QPOLY_ONE, QPOLY_ONE)
QRAT_Q = QRat._raw(Q, QPOLY_ONE)


def as_qpoly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly.const(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial in q")


def as_qrat_or_none(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, (int, Fraction)):
        return QRat._raw(QPoly.const(x), QPOLY_ONE) if x else QRAT_ZERO
    if isinstance(x, QPoly):
        return QRat._raw(x, QPOLY_ONE)
    return None


def as_qrat(x) -> QRat:
    r = as_qrat_or_none(x)
    if r is None:
        raise TypeError(f"cannot interpret {x!r} as a rational function in q")
    return r


def qrat_sum(values: Iterable[QRat]) -> QRat:
    """Sum of rational functions, a fold of QRat additions; zero when empty.

    Each addition divides out the gcd of its two denominators (through the
    GCDHEU cofactors), so no lcm of all the denominators is formed.
    """
    return sum(values, QRAT_ZERO)


def q_integer(n: int) -> QRat:
    """The q-integer (q^n - 1)/(q - 1), defined for every integer n."""
    if n >= 0:
        return QRat(q_int_poly(n))
    m = -n
    return QRat(-q_int_poly(m), QPoly.q_power(m))


def subst_q(f: QRat, target) -> "QRat | Fraction | QSeries":
    """Substitute for q: 'reciprocal', an exact rational value, or ('series', M)."""
    if target == "reciprocal":
        return f.reciprocal_q()
    if isinstance(target, tuple) and len(target) == 2 and target[0] == "series":
        return f.series(target[1])
    return f.evaluate(target)


# ---------------------------------------------------------------------------
# Integer polynomials in q (the fraction-free layer)
#
# A zpoly is a tuple of Python ints, lowest degree first, with no trailing
# zeros; the zero polynomial is ().  A zxpoly is a polynomial in x over Z[q]:
# a tuple of zpolys indexed by x-degree.  The per-tree recursions run on these
# and meet QRat only through qrat_over; QPoly keeps its integer numerator as a
# zpoly, so these are also the kernels of all Q(q) arithmetic.


def zpoly_trim(a: Sequence[int]) -> tuple[int, ...]:
    end = len(a)
    while end and not a[end - 1]:
        end -= 1
    return tuple(a[:end])


def zpoly_add_scaled(acc: list[int], p: Sequence[int], c: int = 1, shift: int = 0) -> None:
    """acc += c * q^shift * p, in place (acc grows as needed)."""
    end = shift + len(p)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    if c == 1:
        acc[shift:end] = [x + y for x, y in zip(acc[shift:end], p)]
    else:
        acc[shift:end] = [x + c * y for x, y in zip(acc[shift:end], p)]


def zpoly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of two integer polynomials: one product of their packings at
    q = 2^bits (Kronecker substitution), read back once.  No coefficient of
    the product exceeds |a|_1 |b|_1, the product of the L1 norms, so bits
    holds it with its sign.  A one-term operand is a scalar multiply."""
    if len(a) == 1 or len(b) == 1:
        if len(b) != 1:
            a, b = b, a
        c = b[0]
        return tuple(c * x for x in a)
    bits = slot_bits((sum(map(abs, a)) * sum(map(abs, b))).bit_length() + 1)
    return zpoly_unpack(zpoly_pack(a, bits) * zpoly_pack(b, bits), bits)


def zxpoly_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    """Product of two polynomials in x over Z[q]: zxpoly_sum_of_products of
    the one term (1, a, b)."""
    return zxpoly_sum_of_products(((1, a, b),))


def zxpoly_sum_of_products(terms: Iterable[Sequence]) -> tuple:
    """The sum of c * f_1 * ... * f_k over the terms (c, f_1, ..., f_k), each
    f_i a polynomial in x over Z[q]: one sum of products of the packings at
    (bits, width), read back once, as zpoly_mul takes a product.  No
    coefficient of the sum exceeds the sum of |c| |f_1|_1 ... |f_k|_1, so
    bits holds it with its sign; a row of a product is no longer than the
    sum of the longest rows of its factors, and width is the largest such
    sum."""
    terms = [(c, fs) for c, *fs in terms]
    norm, width = 0, 1
    for c, fs in terms:
        norm += abs(c) * math.prod(sum(sum(map(abs, row)) for row in f) for f in fs)
        width = max(width, sum(max(map(len, f), default=0) for f in fs))
    bits = slot_bits(norm.bit_length() + 1)
    total = sum(c * math.prod(zxpoly_pack(f, bits, width) for f in fs) for c, fs in terms)
    return zxpoly_unpack(total, bits, width)


def zxpoly_div_x_minus(a: Sequence[Sequence[int]], r: Sequence[int]) -> tuple:
    """Exact quotient a / (x - r) for a polynomial a in x over Z[q] and r in
    Z[q], by synthetic division.

    The remainder is a(r); a nonzero one raises ExactDivisionError.
    """
    out = []
    carry: tuple[int, ...] = ()
    for c in reversed(a):
        acc = list(c)
        zpoly_add_scaled(acc, zpoly_mul(r, carry))
        carry = zpoly_trim(acc)
        out.append(carry)
    if carry:
        raise ExactDivisionError(f"a polynomial in x is not divisible by x - ({QPoly(r)})")
    return tuple(out[-2::-1])


def zxpoly_eval(a: Sequence[Sequence[int]], num: Sequence[int],
                den: Sequence[int] = (1,)) -> tuple[int, ...]:
    """den^d * a(num / den) in Z[q], d = len(a) - 1: the sum of
    a_j num^j den^(d-j), by homogeneous Horner on ints packed at q = 2^bits.

    The L1 norm is submultiplicative, so no coefficient of the sum exceeds
    sum_j |a_j|_1 |num|_1^j |den|_1^(d-j); bits holds that bound, and the
    packed sum is read back once."""
    num_norm, den_norm = sum(map(abs, num)), sum(map(abs, den))
    bound, power = 0, 1
    for c in reversed(a):
        bound = bound * num_norm + sum(map(abs, c)) * power
        power *= den_norm
    bits = slot_bits(bound.bit_length() + 1)
    x, y = zpoly_pack(num, bits), zpoly_pack(den, bits)
    acc, power = 0, 1
    for c in reversed(a):
        acc = acc * x + zpoly_pack(c, bits) * power
        power *= y
    return zpoly_unpack(acc, bits)


def zxpoly_subst_one_plus_qx(a: Sequence[Sequence[int]]) -> tuple:
    """a(1 + qx), by Horner on ints packed at (bits, width), where a product
    by 1 + qx is a shift and an add.  Its x^k coefficient is q^k sum_{j >= k}
    C(j, k) a_j, so no coefficient exceeds sum_j 2^j |a_j|_1, and no q-degree
    reaches len(a) plus the longest row."""
    if not a:
        return ()
    bits = slot_bits(sum(sum(map(abs, row)) << j for j, row in enumerate(a)).bit_length() + 1)
    width = len(a) + max(map(len, a))
    acc = 0
    for row in reversed(a):
        acc += (acc << bits * (width + 1)) + zpoly_pack(row, bits)
    return zxpoly_unpack(acc, bits, width)


def zxpoly_divmod_one_plus_qx(a: Sequence[Sequence[int]]) -> tuple[tuple, tuple[int, ...]]:
    """Quotient and remainder of a by 1 + qx in Z[q][x].

    The divisor has the unit constant term, so the quotient is found from
    the bottom: Q_0 = a_0 and Q_j = a_j - q Q_(j-1).  The remainder is what
    is left at the top x-degree, a_d - q Q_(d-1), a polynomial in q.
    """
    quot: list[tuple[int, ...]] = []
    prev: tuple[int, ...] = ()
    for c in a:
        acc = list(c)
        zpoly_add_scaled(acc, prev, -1, 1)
        prev = zpoly_trim(acc)
        quot.append(prev)
    rem = quot.pop() if quot else ()
    return zxpoly_trim(quot), rem


def zxpoly_trim(a: Sequence[Sequence[int]]) -> tuple:
    """Trim every q-coefficient, then drop zero coefficients at the top in x."""
    cs = [zpoly_trim(c) for c in a]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def zpoly_divmod(a: Sequence[int], m: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by a nonzero integer polynomial m over Z.

    Each step divides a leading coefficient by lead(m).  A lead of +-1 (every
    monic or cyclotomic divisor) always divides; for any other lead, scale a
    by lead(m)^(deg a - deg m + 1) first (pseudo-division).  A step that does
    not divide raises ValueError.
    """
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    lead = m[-1]
    dm = len(m) - 1
    r = list(zpoly_trim(a))
    if len(r) <= dm:
        return (), tuple(r)
    low = [(i, c) for i, c in enumerate(m[:-1]) if c]
    quot = [0] * (len(r) - dm)
    for k in range(len(r) - 1 - dm, -1, -1):
        c = r[k + dm]
        if c:
            if lead != 1:
                c, rest = divmod(c, lead)
                if rest:
                    raise ValueError(f"{lead} does not divide the step coefficient {r[k + dm]}")
            quot[k] = c
            for i, mc in low:
                r[k + i] -= c * mc
    return tuple(quot), zpoly_trim(r[:dm])


def zpoly_exact_div(a: Sequence[int], m: Sequence[int]) -> tuple[int, ...]:
    quot, rem = zpoly_divmod(a, m)
    if rem:
        raise ExactDivisionError(f"{QPoly(a)} is not divisible by {QPoly(m)}")
    return quot


@lru_cache(maxsize=None)
def zcyclotomic(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial with int coefficients: q^d - 1 divided
    exactly by Phi_e for every proper divisor e of d (memoized)."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            num = zpoly_exact_div(num, zcyclotomic(e))
    return num


# ---------------------------------------------------------------------------
# Packed integer polynomials (Kronecker substitution)
#
# For bits a multiple of 8, a zpoly a with every |coefficient| < 2^(bits-1) is
# one Python int a(2^bits): its balanced base-2^bits digits are the
# coefficients.  A zxpoly whose rows also have q-degree below width is
# a(2^bits, 2^(bits*width)), row j at digits j*width .. (j+1)*width - 1.
# Packing evaluates, so a sum, a product or a shift by q^k (<< bits*k) of
# packed values is the packed result; and under those bounds it is injective
# (the argument of GCDHEU), so the result reads back whenever it obeys the
# bounds too.  The callers carry the bounds.  At bits 8, 16, 32 and 64 a digit
# is a machine integer, and packing and reading back run through struct in
# one pass.

_STRUCT_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


@lru_cache(maxsize=256)
def _digit_unit(bits: int, slots: int) -> int:
    """sum_{i < slots} 2^(bits*i): a 1 in each of the lowest slots digits."""
    return ((1 << bits * slots) - 1) // ((1 << bits) - 1)


def zpoly_pack(a: Sequence[int], bits: int) -> int:
    """a(2^bits) = sum_i a_i 2^(bits*i), for any int coefficients a."""
    code = _STRUCT_CODES.get(bits)
    if code is not None:
        try:
            raw = int.from_bytes(struct.pack(f"<{len(a)}{code}", *a), "little")
        except struct.error:  # a coefficient does not fit a machine integer
            pass
        else:
            # raw holds each coefficient in two's complement; flipping the sign
            # bit of each makes it offset binary, coefficient + 2^(bits-1)
            offset = _digit_unit(bits, len(a)) << (bits - 1)
            return (raw ^ offset) - offset
    v = 0
    for c in reversed(a):
        v = (v << bits) + c
    return v


def _to_digits(v: int, bits: int, slots: int) -> Sequence[int]:
    """The lowest slots balanced base-2^bits digits of v, each in
    [-2^(bits-1), 2^(bits-1)); they sum back to v when |v| < 2^(bits*slots-2)."""
    half = 1 << (bits - 1)
    offset = _digit_unit(bits, slots) << (bits - 1)
    w = v + offset  # offset binary: every digit plus 2^(bits-1), no carries
    size = bits // 8
    code = _STRUCT_CODES.get(bits)
    if code is not None:
        return struct.unpack(f"<{slots}{code}", (w ^ offset).to_bytes(slots * size, "little"))
    raw = w.to_bytes(slots * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, len(raw), size)]


def zpoly_unpack(v: int, bits: int) -> tuple[int, ...]:
    """The zpoly whose coefficients are the balanced base-2^bits digits of v:
    a again for v = zpoly_pack(a, bits) with every |a_i| < 2^(bits-1)."""
    return zpoly_trim(_to_digits(v, bits, abs(v).bit_length() // bits + 2))


def zxpoly_pack(a: Sequence[Sequence[int]], bits: int, width: int) -> int:
    """a(2^bits, 2^(bits*width)) for a zxpoly a whose rows are shorter than width."""
    flat: list[int] = []
    for row in a:
        if len(row) > width:
            raise ValueError(f"a row of q-degree {len(row) - 1} does not fit {width} slots")
        flat.extend(row)
        flat.extend(itertools.repeat(0, width - len(row)))
    return zpoly_pack(flat, bits)


def zxpoly_unpack(v: int, bits: int, width: int) -> tuple:
    """The zxpoly read back from its packing v at (bits, width)."""
    rows = -(-(abs(v).bit_length() // bits + 2) // width)
    digits = _to_digits(v, bits, rows * width)
    return zxpoly_trim([digits[i:i + width] for i in range(0, rows * width, width)])


@lru_cache(maxsize=64)
def _top_slot_masks(bits: int, width: int, rows: int) -> tuple[int, int]:
    # every bit of the top slot of each row, and what those slots hold in
    # offset binary when their digits are zero
    top = _digit_unit(bits * width, rows) << bits * (width - 1)
    return top * ((1 << bits) - 1), top << (bits - 1)


def zxpack_div_q_minus_1(v: int, bits: int, width: int) -> int:
    """The packed quotient by q - 1 of the packing v, at (bits, width), of a
    zxpoly t with L1 norm below 2^(bits-2) and every q-degree below width - 1.
    A t that q - 1 does not divide raises ExactDivisionError.

    The integer division by 2^bits - 1 leaves no remainder when q - 1 divides
    t.  When it does not, t = (q - 1) Q + r with r = t(1, x) nonzero.  The norm
    bound gives |r(1)| < 2^bits - 1, so a zero integer remainder means r(1) = 0
    and the top nonzero r_J of r has J >= 1; since 2^(bits*width*j) - 1 is
    2^bits - 1 times sum_{i < j*width} 2^(bits*i), the integer quotient is then
    Q plus sum_j r_j [j*width]_q, whose digit in the top slot of row J - 1 is
    r_J.  Q has q-degree below width - 1, and by the norm bound no digit
    carries, so a zero top slot in every row certifies the division.
    """
    quot, rem = divmod(v, (1 << bits) - 1)
    if not rem:
        rows = -(-(abs(quot).bit_length() // bits + 2) // width)
        mask, zero = _top_slot_masks(bits, width, rows)
        if (quot + (_digit_unit(bits, rows * width) << (bits - 1))) & mask == zero:
            return quot
    raise ExactDivisionError("a packed polynomial is not divisible by q - 1")


@lru_cache(maxsize=1024)
def _digit_bounds(bits: int, h: int, slots: int) -> tuple[int, int]:
    # 2^h in each digit, and every bit at or above h + 1 of each digit
    unit = _digit_unit(bits, slots)
    return unit << h, unit * (((1 << bits) - 1) ^ ((2 << h) - 1))


def _digits_within(v: int, bits: int, h: int) -> bool:
    """Whether every balanced base-2^bits digit of v lies in [-2^h, 2^h), for
    0 <= h <= bits - 2: then v + 2^h sum_i 2^(bits*i) is nonnegative and has
    no bit at or above h + 1 in any digit."""
    offset, high = _digit_bounds(bits, h, abs(v).bit_length() // bits + 2)
    w = v + offset
    return w >= 0 and not w & high


def slot_bits(need: int) -> int:
    """The digit size for coefficients of need bits or fewer, sign included:
    8, 16, 32 or 64 (a machine integer), else the next multiple of 64."""
    for bits in (8, 16, 32, 64):
        if need <= bits:
            return bits
    return -(-need // 64) * 64


@lru_cache(maxsize=None)
def _q_factorial(n: int) -> QPoly:
    return math.prod((q_int_poly(k) for k in range(2, n + 1)), start=QPOLY_ONE)


@lru_cache(maxsize=None)
def q_factorial_quotient(n: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """[n]_q! / prod_{p in parts} [p]_q! as an integer polynomial, such as the
    rising product [m+1]_q ... [n]_q (parts = (m,)) or a q-multinomial
    (parts summing to n).  A quotient that is not a polynomial raises
    ExactDivisionError.  Each key is computed once, through QRat; the engine
    asks for few distinct keys, so this gcd runs per table entry, not per
    tree."""
    den = math.prod((_q_factorial(p) for p in parts), start=QPOLY_ONE)
    quot = QRat(_q_factorial(n), den)
    if not quot.is_polynomial():
        raise ExactDivisionError(f"[{n}]_q! is not divisible by the q-factorials of {parts}")
    return quot.num.ints


@lru_cache(maxsize=None)
def cyclotomic_product(exponents: tuple[tuple[int, int], ...]) -> QPoly:
    """q^a prod Phi_d^e for the pairs (d, e) of cyclotomic_exponents, d = 0
    standing for q."""
    out: tuple[int, ...] = (1,)
    for d, e in exponents:
        if not d:
            out = (0,) * e + out
            continue
        for _ in range(e):
            out = zpoly_mul(out, zcyclotomic(d))
    return QPoly._raw(out)


@lru_cache(maxsize=None)
def _cyclotomic_at(d: int, bits: int) -> tuple[int, int]:
    """Phi_d(2^bits), and the largest h such that a quotient with digits in
    [-2^h, 2^h) times Phi_d keeps every coefficient below 2^(bits-2)."""
    phi = zcyclotomic(d)
    return zpoly_pack(phi, bits), bits - 2 - sum(map(abs, phi)).bit_length()


def _pack_rows(rows: Sequence[Sequence[int]]) -> tuple[list, int]:
    """The integer polynomial rows packed for _divide_packed, and the digit
    size they are packed at."""
    top = max((max(map(abs, r)) for r in rows if r), default=0)
    bits = slot_bits(top.bit_length() + 8)
    return [zpoly_pack(r, bits) for r in rows], bits


def _divide_packed(packed: list, bits: int,
                   caps: Iterable[tuple[int, int]]) -> tuple[list, int, tuple]:
    """Divide the rows packed at q = 2^bits by Phi_d, for each (d, e) of caps
    in turn, at most e times and while Phi_d divides all of them.  Returns
    the quotients (packed itself when nothing divides), the digit size they
    are packed at, and the (d, e') pairs, e' > 0, of the Phi_d^e' of caps
    left undivided.  This is the only trial division by Phi_d.

    Phi_d divides a row only if Phi_d(2^bits) divides its packing, so a
    nonzero residue rules Phi_d out.  A zero residue leaves an integer
    quotient; when its digits lie in [-2^h, 2^h) (see _cyclotomic_at) it packs
    a polynomial whose product with Phi_d has coefficients below 2^(bits-1)
    and packs to the row, so by injectivity that product is the row and the
    division is exact.  A quotient that fails this digit bound redoes the step
    with digits twice as wide; for wide enough digits the residue of a row
    Phi_d does not divide is nonzero, and the quotient of one it divides
    passes.
    """
    left = []
    for d, e in caps:
        while e:
            phi, h = _cyclotomic_at(d, bits)
            quots = []
            for v in packed:
                quot, rem = divmod(v, phi)
                if rem:
                    break
                quots.append(quot)
            else:
                if h >= 0 and all(_digits_within(v, bits, h) for v in quots):
                    packed = quots
                    e -= 1
                else:
                    packed = [zpoly_pack(zpoly_unpack(v, bits), 2 * bits) for v in packed]
                    bits *= 2
                continue
            break
        if e:
            left.append((d, e))
    return packed, bits, tuple(left)


@lru_cache(maxsize=None)
def q_factorial_exponents(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (d, e) of [n]_q! = prod_{d=2..n} Phi_d^floor(n/d)."""
    return tuple((d, n // d) for d in range(2, n + 1))


def divide_cyclotomics(rows: Sequence[Sequence[int]],
                       exps: Sequence[tuple[int, int]]) -> tuple[tuple, tuple]:
    """rows / (q^a prod Phi_d^e) with what all rows share cancelled, for
    trimmed zpolys rows and the pairs exps of cyclotomic_exponents (d = 0
    standing for q, first; d = 1 for q - 1): the quotient rows, and the pairs
    (d, e') left in the denominator.

    q^a cancels against the low zeros all rows share and _divide_packed
    divides out each Phi_d that divides them all.  The Phi_d are monic,
    irreducible and prime to q, so no gcd is needed and the quotients keep
    the content of the rows.
    """
    a = low = 0
    if exps and not exps[0][0]:
        a, exps = exps[0][1], exps[1:]
        low = min((next((i for i, v in enumerate(r[:a]) if v), a) for r in rows if r),
                  default=a)
    rows = tuple(r[low:] for r in rows) if low else tuple(rows)
    start, bits = _pack_rows(rows)
    packed, bits, left = _divide_packed(start, bits, exps)
    if packed is not start:
        rows = tuple(zpoly_unpack(v, bits) for v in packed)
    if a > low:
        left = ((0, a - low),) + left
    return rows, left


def qrat_over(ints: Sequence[int], exps: Sequence[tuple[int, int]], den: int = 1) -> QRat:
    """The canonical QRat equal to ints / (den q^a prod Phi_d^e), for an
    integer polynomial ints with content prime to den and the pairs exps of
    divide_cyclotomics."""
    ints = zpoly_trim(ints)
    if not ints:
        return QRAT_ZERO
    (ints,), left = divide_cyclotomics((ints,), exps)
    return QRat._raw(QPoly._raw(ints, den), cyclotomic_product(left))


# ---------------------------------------------------------------------------
# Truncated power series in q


class QSeries(_Ring):
    """Power series in q truncated at a fixed order (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = cs[: order + 1]
        cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    def _coerce(self, other):
        if isinstance(other, QSeries):
            if other.order != self.order:
                raise ValueError("series truncation orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries((other,), self.order)
        if isinstance(other, QPoly):
            return QSeries(other.coeffs, self.order)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSeries([a + b for a, b in zip(self.coeffs, o.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self.coeffs], self.order)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(self.order + 1 - i):
                    b = o.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return QSeries(out, self.order)

    __rmul__ = __mul__

    def __str__(self):
        p = QPoly(self.coeffs)
        return f"{p} + O(q^{self.order + 1})"


# ---------------------------------------------------------------------------
# Polynomials in x over QRat


class XPoly(_Ring):
    """Polynomial in x whose coefficients are reduced rational functions in q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_qrat(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> XPoly:
        return XPoly((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, j: int) -> QRat:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return QRAT_ZERO

    @property
    def leading(self) -> QRat:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, XPoly):
            return other
        if isinstance(other, (int, Fraction, QPoly, QRat)):
            return XPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return XPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly, QRat)):
            return self.scale(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XPoly()
        out = [QRAT_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca.is_zero():
                for j, cb in enumerate(b):
                    if not cb.is_zero():
                        out[i + j] = out[i + j] + ca * cb
        return XPoly(out)

    __rmul__ = __mul__

    def scale(self, c) -> XPoly:
        c = as_qrat(c)
        if c.is_zero():
            return XPoly()
        return XPoly(tuple(cc * c for cc in self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, QPoly, QRat)):
            return self.scale(as_qrat(other).inverse())
        return NotImplemented

    def evaluate(self, v) -> QRat:
        v = as_qrat(v)
        acc = QRAT_ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> XPoly:
        return XPoly(tuple(c * (j + 1) for j, c in enumerate(self.coeffs[1:])))

    def map_coeffs(self, fn) -> XPoly:
        return XPoly(tuple(fn(c) for c in self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if j == 0:
                parts.append(cs)
                continue
            mono = "x" if j == 1 else f"x^{j}"
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif c.is_polynomial() and len([cc for cc in c.num.ints if cc]) == 1 and "/" not in cs and "+" not in cs and " - " not in cs:
                parts.append(f"{cs}*{mono}")
            else:
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


XPOLY_ZERO = XPoly()
XPOLY_ONE = XPoly((1,))


def one_plus_qx() -> XPoly:
    """The polynomial 1 + q*x."""
    return XPoly((QRAT_ONE, QRAT_Q))


# ---------------------------------------------------------------------------
# Common denominators and Newton polygons


def xpoly_denominator(f: XPoly) -> tuple[tuple[int, int], ...]:
    """The pairs (d, e) of the lcm q^a prod Phi_d^e of the coefficient
    denominators of f, in the form of cyclotomic_exponents: each factor to
    its highest exponent.  A denominator of another form raises ValueError."""
    top: dict[int, int] = {}
    for c in f.coeffs:
        for d, e in cyclotomic_exponents(c.den):
            top[d] = max(top.get(d, 0), e)
    return tuple(sorted(top.items()))


def zxpoly_support(a: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The sorted (q-exponent, x-exponent) pairs of the nonzero terms of a zxpoly."""
    return sorted((e, j) for j, row in enumerate(a) for e, c in enumerate(row) if c)


def convex_hull_chains(points: Sequence[tuple[int, int]]):
    """Monotone-chain hull; returns (lower, upper) chains sharing endpoints.

    The lower chain runs left to right along the bottom of the hull, the
    upper chain right to left along the top.  Collinear interior points are
    dropped, so consecutive chain points are genuine hull vertices.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("hull of an empty point set")
    if len(pts) == 1:
        return [pts[0]], [pts[0]]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower, upper


class NewtonPolygon(NamedTuple):
    """Convex hull of (q-degree, x-degree) exponent pairs, counterclockwise."""

    vertices: tuple[tuple[int, int], ...]

    @staticmethod
    def of_points(points: Sequence[tuple[int, int]]) -> NewtonPolygon:
        lower, upper = convex_hull_chains(points)
        if len(lower) == 1:
            return NewtonPolygon((lower[0],))
        verts = lower[:-1] + upper[:-1]
        # a pure segment appears doubled: keep each endpoint once
        if len(verts) == 2 and verts[0] == verts[1]:
            verts = [verts[0]]
        return NewtonPolygon(tuple(verts))


def newton_polygon(a: Sequence[Sequence[int]]) -> NewtonPolygon:
    """Newton polygon of a nonzero zxpoly (the zero one raises ValueError)."""
    return NewtonPolygon.of_points(zxpoly_support(a))
