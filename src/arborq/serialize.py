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

Reading a value back needs no polynomial gcd.  value_from_text reads the
canonical text of a value of the form arborq writes, one that the value
pattern of the ring in the cache's entry grammar (cache.QRAT_VALUE or
cache.XPOLY_VALUE, the one grammar of a stored entry) matches whole,
straight from the text: the exponents and the ints k of its "k/1" strings
are found by pattern and read by int, with no JSON decoding.  It returns
None for any other text, and for a value that value_from_obj would reject,
which the caller then decodes and gives to value_from_obj, so an
unreadable value fails as it always has.  value_from_obj reads a decoded
value: each string by Fraction, over the lcm of a pair list's
denominators; a coefficient that is not a string is a TypeError.  Either
way, exponents, those of an x-polynomial too, must be distinct ints in
[0, 10^6), the grammar's bound, and a denominator must be q^a prod Phi_d^e,
the form arborq writes: it is read as its exponents
(algebra.cyclotomic_exponents, memoized per polynomial), and
algebra.qrat_over, the reduction the solvers use, cancels any power of q or
Phi_d the numerator shares with it, so a value read is the canonical QRat.
Any other exponent or denominator makes the value unreadable (ValueError).
value_from_text memoizes a denominator's exponents per pair list text too.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from .algebra import QPOLY_ZERO, QPoly, QRat, XPoly, cyclotomic_exponents, qrat_over
from .cache import EXPONENT_BOUND, QRAT_VALUE, XPOLY_VALUE, canonical_json  # noqa: F401
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


def _slots(exps: list) -> int:
    """The length of a dense list indexed by exps, which must be distinct ints
    in [0, EXPONENT_BOUND), the exponents the entry grammar admits (a JSON
    true is a bool, not an int), else ValueError."""
    if (not all(type(e) is int and 0 <= e < EXPONENT_BOUND for e in exps)
            or len(set(exps)) != len(exps)):
        raise ValueError(f"exponents are not distinct ints in [0, {EXPONENT_BOUND}): {exps}")
    return max(exps) + 1


def qpoly_from_pairs(pairs) -> QPoly:
    if not pairs:
        return QPOLY_ZERO
    exps = [e for e, _ in pairs]
    strings = [s for _, s in pairs]
    # Fraction would read an int or a float too
    if not all(type(s) is str for s in strings):
        raise TypeError(f"coefficients are not strings: {strings}")
    coeffs = list(map(Fraction, strings))
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [0] * _slots(exps)
    for e, c in zip(exps, coeffs):
        ints[e] = c.numerator * (den // c.denominator)
    return QPoly.from_ints(ints, den)


def qrat_from_obj(obj) -> QRat:
    exps = cyclotomic_exponents(qpoly_from_pairs(obj["den"]))
    num = qpoly_from_pairs(obj["num"])
    return qrat_over(num.ints, exps, num.den)


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


@lru_cache(maxsize=None)
def _grammar():
    """The compiled patterns of the value reader: the fullmatch of the entry
    grammar's QRAT_VALUE and XPOLY_VALUE; then, on a text one of them
    matched, the finditer of the (j, den text, num text) of each
    x-coefficient, and the findall of a pair list's exponents and of its
    ints k."""
    import re

    return (re.compile(QRAT_VALUE).fullmatch, re.compile(XPOLY_VALUE).fullmatch,
            re.compile(r'\[([0-9]+),\{"den":([^:]*),"num":([^}]*)\}\]').finditer,
            re.compile(r"\[([0-9]+),").findall, re.compile(r'"(-?[0-9]+)/1"').findall)


def _ints_from_text(pairs: str) -> list[int] | None:
    """The dense int list of a pair list text the grammar matched, or None if
    an exponent repeats."""
    *_, exponents, ks = _grammar()
    exps = list(map(int, exponents(pairs)))
    ks = list(map(int, ks(pairs)))
    if not exps:
        return []
    if exps == list(range(exps[0], exps[0] + len(exps))):  # ascending, no gap
        return [0] * exps[0] + ks
    if len(set(exps)) != len(exps):
        return None
    ints = [0] * (max(exps) + 1)
    for e, k in zip(exps, ks):
        ints[e] = k
    return ints


@lru_cache(maxsize=None)
def _den_exponents_of_text(den: str) -> tuple[tuple[int, int], ...] | None:
    """The exponents of the denominator with the pair list text den, or None
    if an exponent repeats or it is not q^a prod Phi_d^e."""
    ints = _ints_from_text(den)
    if ints is None:
        return None
    try:
        return cyclotomic_exponents(QPoly.from_ints(ints))
    except ValueError:
        return None


def _qrat_from_text(den: str, num: str) -> QRat | None:
    exps = _den_exponents_of_text(den)
    ints = _ints_from_text(num)
    if exps is None or ints is None:
        return None
    return qrat_over(ints, exps)


def value_from_text(ring: str, text: str):
    """The value of the canonical text of a value, read straight from its
    pairs, or None.  The value is what value_from_obj reads from the decoded
    text, and returned only when that would not raise; None when the text is
    not of the form arborq writes for the ring or the value is unreadable,
    which value_from_obj then reports."""
    qrat, xpoly, coefficients, *_ = _grammar()
    if ring == "qrat":
        # {"den":P,"num":P}, where no pair list P holds "num"
        return qrat(text) and _qrat_from_text(*text[7:-1].split(',"num":'))
    if ring != "xpoly" or not xpoly(text):
        return None
    coeffs: dict[int, QRat] = {}
    for found in coefficients(text):
        j, den, num = found.groups()
        c = _qrat_from_text(den, num)
        if c is None or int(j) in coeffs:
            return None
        coeffs[int(j)] = c
    dense: list = [0] * (max(coeffs, default=-1) + 1)
    for j, c in coeffs.items():
        dense[j] = c
    return XPoly(dense)
