"""Canonical serialization of the values a compute prints and caches.

One format family covers everything: rationals are "p/r" decimal strings,
q-polynomials are sparse [exponent, "p/r"] pair lists with exponents
ascending, a rational function is {"num": ..., "den": ...}, and an
x-polynomial is a [x-exponent, rational-function] pair list.  A payload
lists [encoding, value] entries sorted by (size, encoding).  The canonical
form is json.dumps with sorted keys, no spaces and the default ensure_ascii
(cache.canonical_json), and it is byte-stable across runs, which the cache
hashes rely on.

The writers make that text straight from a value's ints, one entry at a
time: every number is a decimal int and every string is a "p/r" of digits,
"-" and "/", so nothing needs escaping, and the keys are written in sorted
order.  The text of each distinct denominator is made once; the values of a
series share few of them (1 011 among 12 415 values at pawn order 10).

Reading a value back needs no polynomial gcd.  Each "p/r" string is parsed
once (the parser is memoized; a series repeats few distinct strings): the
canonical "k/1" of an integer by int, any other string by Fraction.  A
q-polynomial is built as one integer polynomial over the lcm of its
denominators; its exponents, and those of an x-polynomial, must be distinct
nonnegative ints, or the value is unreadable (ValueError).  A stored value
was written over a product of cyclotomic polynomials, so
algebra.qrat_certified divides any Phi_d of the denominator that also
divides the numerator out of both, by the trial division the engine reduces
with, instead of taking a gcd; a denominator that is no such product is
reduced by QRat, so a value read is the canonical QRat whatever the file
holds.  A denominator is parsed once per distinct pair list.
"""

from __future__ import annotations

import json
import marshal
import math
from fractions import Fraction
from functools import lru_cache

from .algebra import QPOLY_ZERO, QPoly, QRat, XPoly, qrat_certified
from .cache import canonical_json  # noqa: F401  (re-exported)
from . import trees as tr


# ---------------------------------------------------------------------------
# Writers


def _pairs_json(p: QPoly) -> str:
    """The canonical JSON of the [exponent, "p/r"] pairs of p."""
    if p.den == 1:
        pairs = [f'[{e},"{c}/1"]' for e, c in enumerate(p.ints) if c]
    else:
        pairs = [f'[{e},"{n}/{d}"]' for e, n, d in p.terms()]
    return f"[{','.join(pairs)}]"


_den_json = lru_cache(maxsize=None)(_pairs_json)


def qrat_json(r: QRat) -> str:
    return f'{{"den":{_den_json(r.den)},"num":{_pairs_json(r.num)}}}'


def xpoly_json(f: XPoly) -> str:
    return f"[{','.join(f'[{j},{qrat_json(c)}]' for j, c in enumerate(f.coeffs) if c)}]"


_WRITERS = {"qrat": qrat_json, "xpoly": xpoly_json}


def entries_json(ring: str, values):
    """Yield the canonical JSON of the [encoding, value] entry of each nonzero
    value of the (tree, value) pairs, in their order."""
    write = _WRITERS[ring]
    for t, v in values:
        if v:
            yield f"[{json.dumps(tr.encoding(t))},{write(v)}]"


# ---------------------------------------------------------------------------
# Readers


@lru_cache(maxsize=None)
def frac_from_str(s: str) -> Fraction:
    return Fraction(s)


@lru_cache(maxsize=None)
def _coeff_from_str(s: str) -> int | Fraction:
    """The value of a "p/r" string: an int for the canonical "k/1" of an
    integer k, else frac_from_str(s)."""
    if s.endswith("/1"):
        k = s[:-2]
        try:
            value = int(k)
        except ValueError:
            pass
        else:
            if str(value) == k:
                return value
    return frac_from_str(s)


def _canonical_ints(strings: list) -> list[int] | None:
    """The ints k of strings that are all the canonical "k/1", else None."""
    ks = [s[:-2] for s in strings if s[-2:] == "/1"]
    if len(ks) != len(strings):
        return None
    try:
        values = list(map(int, ks))
    except ValueError:
        return None
    return values if list(map(str, values)) == ks else None


def _slots(exps: list) -> int:
    """The length of a dense list indexed by exps, which must be distinct
    nonnegative ints (a JSON true is a bool, not an int), else ValueError."""
    if not all(type(e) is int and e >= 0 for e in exps) or len(set(exps)) != len(exps):
        raise ValueError(f"exponents are not distinct nonnegative ints: {exps}")
    return max(exps) + 1


def qpoly_from_pairs(pairs) -> QPoly:
    if not pairs:
        return QPOLY_ZERO
    exps = [e for e, _ in pairs]
    strings = [s for _, s in pairs]
    # a stored polynomial has int coefficients, read in one pass; any other
    # string is read by _coeff_from_str
    coeffs = _canonical_ints(strings)
    den = 1
    if coeffs is None:
        coeffs = list(map(_coeff_from_str, strings))
        den = math.lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    ints = [0] * _slots(exps)
    for e, c in zip(exps, coeffs):
        ints[e] = c
    return QPoly.from_ints(ints, den)


@lru_cache(maxsize=None)
def _den_from_pairs(key: bytes) -> QPoly:
    """The denominator whose decoded pair list marshals to key: marshal tells
    1, 1.0 and True apart, so equal keys read to equal polynomials."""
    return qpoly_from_pairs(marshal.loads(key))


def qrat_from_obj(obj) -> QRat:
    den = _den_from_pairs(marshal.dumps(obj["den"]))
    return qrat_certified(qpoly_from_pairs(obj["num"]), den)


def xpoly_from_obj(obj) -> XPoly:
    if not obj:
        return XPoly()
    coeffs: list = [0] * _slots([j for j, _ in obj])
    for j, o in obj:
        coeffs[j] = qrat_from_obj(o)
    return XPoly(coeffs)


_READERS = {"qrat": qrat_from_obj, "xpoly": xpoly_from_obj}


def value_from_obj(ring: str, obj):
    return _READERS[ring](obj)
