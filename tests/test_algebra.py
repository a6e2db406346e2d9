"""Exact arithmetic layer: polynomials, rational functions, substitutions,
cyclotomic factoring, Newton polygons, serialization round-trips."""

from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from arborq import algebra
from arborq.algebra import (
    ExactDivisionError,
    NewtonPolygon,
    PoleError,
    Q,
    QPOLY_ONE,
    QPoly,
    QRAT_ONE,
    QRAT_Q,
    QRAT_ZERO,
    QRat,
    QSeries,
    XPoly,
    convex_hull_chains,
    cyclotomic,
    cyclotomic_exponents,
    cyclotomic_product,
    divide_cyclotomics,
    factor_cyclotomic,
    newton_polygon,
    one_plus_qx,
    q_factorial_exponents,
    q_factorial_quotient,
    q_integer,
    qpoly_gcd,
    qpoly_gcd_cofactors,
    qrat_over,
    qrat_sum,
    subst_q,
    xpoly_denominator,
    zcyclotomic,
    zpoly_divmod,
    zpoly_mul,
    zpoly_pack,
    zpoly_trim,
    zpoly_unpack,
    zxpoly_div_x_minus,
    zxpoly_divmod_one_plus_qx,
    zxpack_div_q_minus_1,
    zxpoly_eval,
    zxpoly_mul,
    zxpoly_pack,
    zxpoly_subst_one_plus_qx,
    zxpoly_sum_of_products,
    zxpoly_support,
    zxpoly_trim,
    zxpoly_unpack,
)
from arborq.serialize import qpoly_from_pairs, qrat_from_obj, xpoly_from_obj
from tests import engine_reference as ER
from tests.qrat_reference import qpoly_lcm, subst_one_plus_qx, xpoly_divmod, xpoly_exact_div
from tests.serialize_reference import (
    qpoly_to_pairs,
    qrat_to_obj,
    value_from_obj,
    value_to_obj,
    xpoly_to_obj,
)


def longdiv(a: list, b: list) -> tuple[list, list]:
    """Independent long-division oracle on coefficient lists over Fraction."""
    r = [F(c) for c in a]
    while r and r[-1] == 0:
        r.pop()
    d = [F(c) for c in b]
    quot = [F(0)] * max(0, len(r) - len(d) + 1)
    while r and len(r) >= len(d):
        c = r[-1] / d[-1]
        shift = len(r) - len(d)
        quot[shift] = c
        for i, dc in enumerate(d):
            r[shift + i] -= c * dc
        while r and r[-1] == 0:
            r.pop()
    return quot, r


class TestQPoly:
    def test_trailing_zeros_never_stored(self):
        assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPoly((0, 0)).coeffs == ()
        assert QPoly().degree == -1

    def test_ring_ops(self):
        a = QPoly((1, 2, 3))
        b = QPoly((0, -2))
        assert a + b == QPoly((1, 0, 3))
        assert a - a == QPoly()
        assert a * QPoly() == QPoly()
        assert (a * b).coeffs == (0, -2, -4, -6)
        assert a * 2 == QPoly((2, 4, 6))
        assert (Q + 1) ** 2 == QPoly((1, 2, 1))

    def test_divmod_matches_long_division_oracle(self):
        rng = random.Random(42)
        for _ in range(30):
            a = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 8))])
            b = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            if b.is_zero():
                continue
            quot, rem = divmod(a, b)
            oq, orr = longdiv(list(a.coeffs), list(b.coeffs))
            assert quot == QPoly(oq) and rem == QPoly(orr)
            assert quot * b + rem == a

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(ExactDivisionError):
            (Q + 1).exact_div(Q)

    def test_gcd_and_lcm(self):
        a = (Q + 1) ** 2 * (Q - 1)
        b = (Q + 1) * QPoly((1, 0, 1))
        g = qpoly_gcd(a, b)
        assert g.monic() == Q + 1
        assert qpoly_lcm(a, b) == (a * b.exact_div(g)).monic()
        assert qpoly_gcd(QPoly(), b).monic() == b.monic()

    def test_evaluate_and_primitive(self):
        p = QPoly((F(1, 2), 0, F(3, 2)))
        assert p.evaluate(2) == F(1, 2) + 4 * F(3, 2)
        content, ints = p.primitive_int()
        assert content == F(1, 2) and ints == (1, 0, 3)


def add_lists(a: list, b: list) -> list:
    """Fraction-list oracle for a + b."""
    n = max(len(a), len(b))
    return [F(a[i] if i < len(a) else 0) + F(b[i] if i < len(b) else 0) for i in range(n)]


def mul_lists(a: list, b: list) -> list:
    """Fraction-list oracle for a * b."""
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += F(x) * F(y)
    return out


def trimmed(cs: list) -> tuple:
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def assert_canonical(p: QPoly) -> None:
    assert p.den > 0
    assert not p.ints or p.ints[-1] != 0
    if p.ints:
        assert math.gcd(p.den, *p.ints) == 1
    else:
        assert p.den == 1
    assert all(type(c) is int for c in p.ints)


COEFF = st.one_of(st.integers(-30, 30), st.fractions(-5, 5, max_denominator=12))
COEFFS = st.lists(COEFF, max_size=7)
LEAD = st.one_of(st.sampled_from([1, -1, 2, -3, F(1, 2), F(-4, 3)]),
                 st.fractions(-5, 5, max_denominator=6).filter(bool))
DIVISORS = st.tuples(st.lists(COEFF, max_size=4), LEAD).map(lambda t: [*t[0], t[1]])
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestRepresentation:
    """ints / den against the Fraction-list oracles, on random int and
    Fraction coefficients, non-monic divisors and divisors with a negative
    lead included."""

    @PROPERTY
    @given(COEFFS, COEFFS)
    def test_ring_ops_match_fraction_lists(self, a, b):
        pa, pb = QPoly(a), QPoly(b)
        assert (pa + pb).coeffs == trimmed(add_lists(a, b))
        assert (pa - pb).coeffs == trimmed(add_lists(a, [-F(c) for c in b]))
        assert (pa * pb).coeffs == trimmed(mul_lists(a, b))
        for v in (pa, pb, pa + pb, pa - pb, pa * pb, -pa):
            assert_canonical(v)

    @PROPERTY
    @given(COEFFS, DIVISORS)
    def test_divmod_matches_long_division(self, a, b):
        pa, pb = QPoly(a), QPoly(b)
        quot, rem = divmod(pa, pb)
        oq, orr = longdiv(a, b)
        assert quot.coeffs == trimmed(oq) and rem.coeffs == trimmed(orr)
        assert_canonical(quot)
        assert_canonical(rem)
        assert quot * pb + rem == pa

    @PROPERTY
    @given(COEFFS, DIVISORS)
    def test_exact_div(self, a, b):
        pa, pb = QPoly(a), QPoly(b)
        assert (pa * pb).exact_div(pb) == pa
        if not divmod(pa, pb)[1].is_zero():
            with pytest.raises(ExactDivisionError):
                pa.exact_div(pb)

    @PROPERTY
    @given(COEFFS, COEFF)
    def test_canonical_form_and_fraction_view(self, a, c):
        p = QPoly(a)
        assert_canonical(p)
        assert p.coeffs == trimmed(a)
        assert QPoly(p.coeffs) == p
        for v in (p.scale(c), p.monic(), p.derivative(), p.shift(2)):
            assert_canonical(v)
        assert p.scale(c).coeffs == trimmed([F(x) * F(c) for x in a])
        # the same value reached another way is equal and hashes equal
        other = (p * QPoly((3, F(1, 2)))).exact_div(QPoly((6, 1))).scale(2)
        assert other == p and hash(other) == hash(p)
        assert p == QPoly.from_ints(p.ints, p.den) == QPoly.from_ints(
            [7 * x for x in p.ints], 7 * p.den)

    SMALL = st.lists(st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)),
                     max_size=3)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(SMALL, SMALL), min_size=3, max_size=3))
    def test_qrat_field_laws(self, pairs):
        a, b, c = (QRat(QPoly(n), QPoly(d)) if QPoly(d) else QRat(QPoly(n)) for n, d in pairs)
        assert a * (b + c) == a * b + a * c
        assert a - a == QRat(0)
        if a:
            assert a / a == QRAT_ONE
        for v in (a, a + b, a * b, a - c):
            assert_canonical(v.num)
            assert_canonical(v.den)
            assert v.den.leading == 1
            assert hash(QRat(v.num, v.den)) == hash(v)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(SMALL, SMALL)
    def test_inverse_swaps_without_gcd(self, n, d):
        v = QRat(QPoly(n), QPoly(d)) if QPoly(d) else QRat(QPoly(n))
        if not v:
            with pytest.raises(ZeroDivisionError):
                v.inverse()
            return
        inv = v.inverse()
        assert inv == QRat(v.den, v.num)
        assert_canonical(inv.num)
        assert_canonical(inv.den)
        assert inv.den.leading == 1
        assert v * inv == QRAT_ONE


# denominators are products of these, so summands share factors or not
SUM_FACTORS = (QPoly((-1, 1)), QPoly((1, 1)), QPoly((1, 1, 1)), Q, QPoly((1, 2)),
               QPoly((2, 0, 1)), QPoly((F(1, 2), 3)))
SUMMAND = st.tuples(TestRepresentation.SMALL,
                    st.lists(st.integers(0, len(SUM_FACTORS) - 1), max_size=3),
                    st.sampled_from([1, -2, F(1, 3)]))


def summand(spec) -> QRat:
    num, factors, unit = spec
    den = QPoly((unit,))
    for i in factors:
        den = den * SUM_FACTORS[i]
    return QRat(QPoly(num), den)


def cross_multiplied(values: list) -> QRat:
    """sum_i num_i prod_{j != i} den_j over prod_j den_j, reduced once."""
    num, den = QPoly(), QPOLY_ONE
    for v in values:
        num, den = num * v.den + v.num * den, den * v.den
    return QRat(num, den)


class TestQratSum:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.lists(SUMMAND, max_size=5))
    def test_matches_cross_multiplied_sum(self, specs):
        values = [summand(s) for s in specs]
        want = cross_multiplied(values)
        got = qrat_sum(values)
        assert got == want
        assert_canonical(got.num)
        assert_canonical(got.den)
        assert got.den.leading == 1
        assert qrat_sum(v for v in values) == want
        assert qrat_sum([QRAT_ZERO, *values, QRAT_ZERO]) == want
        assert qrat_sum([*values, -want]) == QRAT_ZERO
        if len(values) >= 2:
            # y = t - x over x.den * t.den, so x + y must cancel down to t
            x, t = values[:2]
            y = QRat(t.num * x.den - x.num * t.den, t.den * x.den)
            assert qrat_sum([x, y]) == t

    def test_empty_single_and_zero(self):
        assert qrat_sum([]) == QRAT_ZERO and qrat_sum(()).is_zero()
        v = QRat(QPoly((1, 2)), QPoly((-1, 0, 1)))
        assert qrat_sum([v]) == v
        assert qrat_sum(x for x in [v]) == v
        assert qrat_sum([QRAT_ZERO]) == QRAT_ZERO
        assert qrat_sum([v, QRAT_ZERO, -v]) == QRAT_ZERO
        # 1/(q-1) - 1/(q+1) = 2/(q^2-1): the gcd of the denominators is 1
        assert qrat_sum([QRat(1, QPoly((-1, 1))), QRat(-1, QPoly((1, 1)))]) == \
            QRat(2, QPoly((-1, 0, 1)))


def prs_gcd(a: QPoly, b: QPoly, gcd=qpoly_gcd):
    """A gcd with the heuristic switched off: the pseudo-remainder path."""
    with mock.patch.object(algebra, "_gcdheu", lambda pa, pb: None):
        return gcd(a, b)


def assert_cofactors(a: QPoly, b: QPoly, got) -> None:
    g, ca, cb = got
    assert g == qpoly_gcd(a, b)
    assert g * ca == a and g * cb == b
    assert_canonical(ca)
    assert_canonical(cb)


BIG = st.integers(2 ** 64, 2 ** 70)
ZCOEFF = st.one_of(st.integers(-40, 40), BIG, BIG.map(lambda c: -c))
ZPOLY = st.lists(ZCOEFF, max_size=6)
CONTENT = st.one_of(st.sampled_from([1, -1, 6, -35, F(1, 2), F(-9, 4)]), BIG)


class TestGcd:
    """The heuristic gcd against the primitive pseudo-remainder sequence, on
    products sharing a factor, coefficients above 2^64, negative leads,
    non-primitive or rational contents and constant or zero arguments."""

    @PROPERTY
    @given(ZPOLY, ZPOLY, ZPOLY, CONTENT, CONTENT)
    def test_matches_pseudo_remainder_path(self, g, a, b, ca, cb):
        pa = (QPoly(g) * QPoly(a)).scale(ca)
        pb = (QPoly(g) * QPoly(b)).scale(cb)
        got = qpoly_gcd(pa, pb)
        assert got == prs_gcd(pa, pb) == qpoly_gcd(pb, pa)
        assert_canonical(got)
        if got:
            assert got.den == 1 and got.ints[-1] > 0 and math.gcd(*got.ints) == 1
            pa.exact_div(got)
            pb.exact_div(got)
        if pa and pb:
            assert_cofactors(pa, pb, qpoly_gcd_cofactors(pa, pb))
            assert_cofactors(pa, pb, prs_gcd(pa, pb, qpoly_gcd_cofactors))

    @PROPERTY
    @given(ZPOLY, st.lists(ZPOLY, min_size=1, max_size=3))
    def test_shared_factor_powers(self, g, cofactors):
        # every argument carries g, so the gcd is a multiple of pp(g)
        ps = [QPoly(g) ** 2 * QPoly(c) for c in cofactors] + [QPoly(g)]
        for pa in ps:
            for pb in ps:
                got = qpoly_gcd(pa, pb)
                assert got == prs_gcd(pa, pb)
                if QPoly(g):
                    got.exact_div(QPoly(g))

    def test_fallback_when_the_heuristic_gives_up(self):
        # (q-1)^2 (q+1) and q (q-1) (q+2): at the first point, xi = 4, the
        # integer gcd is 9 = 2*4 + 1, spelling 2q + 1, which divides neither
        pa, pb = QPoly((1, -1, -1, 1)), QPoly((0, -2, 1, 1))
        calls = []
        prs = algebra._gcd_prs
        with mock.patch.object(algebra, "_gcd_prs",
                               lambda a, b: calls.append(1) or prs(a, b)):
            assert qpoly_gcd(pa, pb) == Q - 1 and not calls
            with mock.patch.object(algebra, "GCDHEU_TRIES", 1):
                assert qpoly_gcd(pa, pb) == Q - 1 and calls == [1]
                got = qpoly_gcd_cofactors(pa, pb)
                assert got == (Q - 1, QPoly((-1, 0, 1)), QPoly((0, 2, 1))) and calls == [1, 1]


def cyclotomic_power_product(exps) -> QPoly:
    """q^a prod Phi_d^m for the pairs (d, m), d = 0 standing for q."""
    return math.prod(((cyclotomic(d) if d else Q) ** m for d, m in exps), start=QPOLY_ONE)


# (d, exponent in den, exponent in num), d = 0 standing for q: num and den
# share Phi_d (or q) when both exponents are > 0
SHARED = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2), st.integers(0, 2)),
                  max_size=4)
# a cofactor of den: 1, or one that makes den no q^a prod Phi_d^e (a factor
# that is no Phi_d, a lead that is not 1, rational coefficients)
COFACTOR = st.one_of(st.just(QPOLY_ONE),
                     st.sampled_from([QPoly((2, 0, 1)), QPoly((1, 2)), QPoly((F(1, 2), 1)),
                                      QPoly.const(3), QPoly.const(F(-2, 5)),
                                      QPoly((1, 1, F(1, 3)))]))


def stored(num: QPoly, den: QPoly) -> dict:
    return {"num": qpoly_to_pairs(num), "den": qpoly_to_pairs(den)}


class TestCertifiedLoad:
    """Reading a value back takes no gcd: its denominator must be
    q^a prod Phi_d^e, and qrat_over divides a power of q or a Phi_d shared
    with num out of both.  Deliberately unreduced inputs must still come out
    as the canonical QRat; any other denominator is unreadable (ValueError)."""

    @PROPERTY
    @given(COEFFS, SHARED, COFACTOR)
    def test_load_equals_gcd_reduction(self, cs, shared, cofactor):
        num = QPoly(cs) * cyclotomic_power_product((d, m) for d, _, m in shared)
        den = cyclotomic_power_product((d, m) for d, m, _ in shared) * cofactor
        if cofactor != QPOLY_ONE:
            with pytest.raises(ValueError):
                qrat_from_obj(stored(num, den))
            return
        got = qrat_from_obj(stored(num, den))
        assert got == QRat(num, den)
        assert_canonical(got.num)
        assert_canonical(got.den)

    @PROPERTY
    @given(st.lists(st.tuples(COEFFS, SHARED), min_size=1, max_size=3))
    def test_xpoly_denominator_equals_gcd_lcm(self, coeffs):
        f = XPoly(QRat(QPoly(cs) or 1, cyclotomic_power_product((d, m) for d, m, _ in shared))
                  for cs, shared in coeffs)
        want = QPOLY_ONE
        for c in f.coeffs:
            want = qpoly_lcm(want, c.den)
        assert cyclotomic_product(xpoly_denominator(f)) == want

    def test_xpoly_denominator_of_another_form_raises(self):
        with pytest.raises(ValueError):
            xpoly_denominator(XPoly((QRat(1, Q + 1), QRat(1, QPoly((2, 0, 1))))))

    def test_shared_factor_loads_without_a_gcd(self, monkeypatch):
        cases = [(cyclotomic(12) * QPoly((2, 0, 1)) * F(3, 2), cyclotomic(12) ** 2 * (Q + 1)),
                 ((Q - 1) ** 3 * cyclotomic(105) * -7, (Q - 1) ** 2 * cyclotomic(105)),
                 (cyclotomic(6) * QPoly((F(1, 2), 0, 5)) * 2 ** 70, cyclotomic(6) * cyclotomic(3)),
                 (Q ** 3 * cyclotomic(4) * 5, Q ** 2 * cyclotomic(4) ** 2)]
        want = [QRat(num, den) for num, den in cases]
        calls = []
        gcd = algebra.qpoly_gcd_cofactors
        divmod_ = QPoly.__divmod__

        def counting(a, b):
            calls.append((a, b))
            return gcd(a, b)

        def counting_divmod(a, b):
            calls.append((a, b))
            return divmod_(a, b)

        monkeypatch.setattr(algebra, "qpoly_gcd_cofactors", counting)
        monkeypatch.setattr(QPoly, "__divmod__", counting_divmod)
        for (num, den), w in zip(cases, want):
            got = qrat_from_obj(stored(num, den))
            assert got == w and got.den != den
            assert_canonical(got.num)
        assert calls == []

    def test_edge_cases(self):
        for num, den in [(QPOLY_ONE - 1, Q + 1), (QPoly((3, 1)), QPOLY_ONE),
                         (Q + 1, cyclotomic(12)), (cyclotomic(12), cyclotomic(12) * (Q - 1)),
                         (QPOLY_ONE - 1, Q ** 2), (Q ** 2 * 5, Q), (Q ** 2, Q ** 3 * (Q + 1)),
                         (QPoly((0, 2, 0, F(1, 3))), Q ** 2 * cyclotomic(3))]:
            got = qrat_from_obj(stored(num, den))
            assert got == QRat(num, den)
        for num, den in [(QPoly((3, 1)), QPoly.const(4)), (QPOLY_ONE - 1, QPoly((2, 0, 1))),
                         (Q, QPoly((0, 0, 2))), (Q, QPoly((0, 0, F(1, 2))))]:
            with pytest.raises(ValueError):
                qrat_from_obj(stored(num, den))
        with pytest.raises(ValueError):
            qrat_from_obj({"num": [[0, "1/1"]], "den": []})


def divmod_trial_division(p: QPoly) -> dict[int, int]:
    """The exponent of each Phi_d in p by plain zpoly_divmod, d ascending
    until what is left is a constant; phi(d) >= sqrt(d / 2) bounds d."""
    rem, factors, d = p.ints, {}, 0
    while len(rem) > 1 and d < 2 * p.degree ** 2:
        d += 1
        quot, r = zpoly_divmod(rem, zcyclotomic(d))
        while not r:
            rem = quot
            factors[d] = factors.get(d, 0) + 1
            quot, r = zpoly_divmod(rem, zcyclotomic(d))
    return factors


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == Q - 1
        assert cyclotomic(2) == Q + 1
        assert cyclotomic(4) == QPoly((1, 0, 1))

    def test_phi6_by_division_oracle(self):
        num = [F(-1), 0, 0, 0, 0, 0, F(1)]  # q^6 - 1
        den = ((Q - 1) * (Q + 1) * QPoly((1, 1, 1))).coeffs
        quot, rem = longdiv(num, list(den))
        assert rem == []
        assert cyclotomic(6) == QPoly(quot) == QPoly((1, -1, 1))

    def test_product_over_divisors(self):
        for n in range(1, 31):
            prod = QPOLY_ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == QPoly.q_power(n) - 1

    def test_factor_examples(self):
        unit, factors, rem = factor_cyclotomic(QPoly.q_power(5) - 1)
        assert (unit, factors, rem) == (1, {1: 1, 5: 1}, QPOLY_ONE)
        unit, factors, rem = factor_cyclotomic((Q + 1) ** 2 * QPoly((1, 1, 1)))
        assert (unit, factors, rem) == (1, {2: 2, 3: 1}, QPOLY_ONE)
        unit, factors, rem = factor_cyclotomic(QPoly((2, 0, 1)))
        assert (unit, factors, rem) == (1, {}, QPoly((2, 0, 1)))
        # phi(12) = 4 and phi(30) = 8 are small against 12 and 30
        for p, want in [(cyclotomic(12), {12: 1}), (cyclotomic(30), {30: 1}),
                        ((Q + 1) ** 2 * cyclotomic(12) * cyclotomic(30), {2: 2, 12: 1, 30: 1}),
                        (cyclotomic(12) * QPoly((2, 0, 1)) * -3, {12: 1})]:
            unit, factors, rem = factor_cyclotomic(p)
            assert factors == want
            assert QPoly.const(unit) * rem * cyclotomic_power_product(want.items()) == p
        assert cyclotomic_exponents(cyclotomic(12)) == ((12, 1),)
        assert cyclotomic_exponents(cyclotomic(30) * (Q + 1)) == ((2, 1), (30, 1))
        assert cyclotomic_exponents(Q ** 3 * (Q + 1)) == ((0, 3), (2, 1))
        assert cyclotomic_exponents(Q) == ((0, 1),)
        assert cyclotomic_exponents(QPOLY_ONE) == ()
        for p in [QPoly((2, 0, 1)), Q * QPoly((2, 0, 1)), QPoly.const(2), QPoly((F(1, 2), 1)),
                  QPoly()]:
            with pytest.raises(ValueError):
                cyclotomic_exponents(p)
        for exps in [(), ((0, 2),), ((0, 1), (2, 2), (12, 1)), ((3, 1), (5, 2))]:
            assert cyclotomic_exponents(cyclotomic_product(exps)) == exps

    def test_factor_roundtrip_randomized(self):
        rng = random.Random(7)
        # units past 64 bits, and Phi_105 and Phi_385 with large L1 norms: at
        # unit 85, Phi_385 fills the digits so that its quotient redoes the
        # division with digits twice as wide
        inputs = [([rng.choice([*range(1, 13), 105]) for _ in range(rng.randint(1, 4))],
                   F(rng.choice([1, 2, -3, 3 * 2 ** 70]), rng.choice([1, 2])))
                  for _ in range(30)] + [([385], F(85)), ([2, 385], F(-85)), ([105], F(3 * 2 ** 70))]
        for ds, unit0 in inputs:
            p = QPoly.const(unit0)
            for d in ds:
                p = p * cyclotomic(d)
            unit, factors, rem = factor_cyclotomic(p)
            assert factors == divmod_trial_division(p)
            rebuilt = QPoly.const(unit)
            for d, m in factors.items():
                rebuilt = rebuilt * cyclotomic(d) ** m
            rebuilt = rebuilt * rem
            assert rebuilt == p
            want = {}
            for d in ds:
                want[d] = want.get(d, 0) + 1
            assert factors == want and rem == QPOLY_ONE and unit == unit0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_cyclotomic(QPoly())


class TestQRat:
    def test_invariants_after_arithmetic(self):
        rng = random.Random(3)
        for _ in range(40):
            a = QRat(QPoly([rng.randint(-3, 3) for _ in range(4)]),
                     QPoly([rng.randint(-3, 3) for _ in range(3)] + [1]))
            b = QRat(QPoly([rng.randint(-3, 3) for _ in range(3)]),
                     QPoly([rng.randint(-3, 3) for _ in range(2)] + [1]))
            for v in (a + b, a - b, a * b):
                if v.is_zero():
                    assert v.num == QPoly() and v.den == QPOLY_ONE
                    continue
                assert v.den.leading == 1
                assert qpoly_gcd(v.num, v.den).degree == 0
                # re-reducing is the identity
                assert QRat(v.num, v.den) == v

    def test_field_axioms_examples(self):
        inv = QRat(1, Q - 1) + QRat(1, QPoly((1, -1)))
        assert inv.is_zero()
        assert QRat(Q - 1, Q + 1) * QRat(Q + 1, Q - 1) == QRAT_ONE
        assert QRat(QPoly.q_power(3) - 1) / QRat(Q - 1) == QRat(QPoly((1, 1, 1)))

    def test_field_axioms_randomized(self):
        rng = random.Random(17)

        def rnd():
            num = QPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            den = QPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1])
            return QRat(num, den)

        for _ in range(30):
            a, b, c = rnd(), rnd(), rnd()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == QRat(0)
            if not a.is_zero():
                assert a * a.inverse() == QRAT_ONE
                assert (a ** -2) * (a ** 2) == QRAT_ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QRAT_ONE / QRat(0)
        with pytest.raises(ZeroDivisionError):
            QRat(1, QPoly())

    def test_q_integer(self):
        assert q_integer(0).is_zero()
        assert q_integer(3) == QRat(QPoly((1, 1, 1)))
        # [-2]_q = -(1+q)/q^2, expanded by hand from (q^-2 - 1)/(q - 1)
        assert q_integer(-2) == QRat(QPoly((-1, -1)), QPoly.q_power(2))
        for n in range(-5, 6):
            # (q^n - 1)/(q - 1) with negative powers cleared by q^5
            assert q_integer(n) == QRat(QPoly.q_power(n + 5) - QPoly.q_power(5),
                                        QPoly.q_power(5) * (Q - 1))

    def test_reciprocal_substitution(self):
        assert q_integer(3).reciprocal_q() == QRat(QPoly((1, 1, 1)), QPoly.q_power(2))
        rng = random.Random(11)
        for _ in range(25):
            r = QRat(QPoly([rng.randint(-3, 3) for _ in range(4)]),
                     QPoly([rng.randint(-3, 3) for _ in range(3)] + [1]))
            assert r.reciprocal_q().reciprocal_q() == r

    def test_value_substitution(self):
        r = QRat(QPoly.q_power(3) - 1, Q - 1)
        assert r.evaluate(1) == 3  # reduces to q^2+q+1 first
        with pytest.raises(PoleError):
            QRat(1, Q - 1).evaluate(1)

    def test_series_substitution(self):
        geo = QRat(1, QPoly((1, -1)))
        assert geo.series(3) == QSeries((1, 1, 1, 1))
        with pytest.raises(PoleError):
            QRat(1, Q).series(2)
        r = QRat(QPoly((1, 2)), QPoly((1, 0, -1)))
        s = r.series(8)
        # multiply back: series of r times (1 - q^2) should give 1 + 2q
        prod = s * QSeries((1, 0, -1), 8)
        assert prod == QSeries((1, 2), 8)

    def test_subst_q_dispatch(self):
        assert subst_q(q_integer(3), "reciprocal") == q_integer(3).reciprocal_q()
        assert subst_q(QRat(QPoly.q_power(3) - 1, Q - 1), 1) == 3
        assert subst_q(QRat(1, QPoly((1, -1))), ("series", 3)) == QSeries((1, 1, 1, 1))

    def test_serialization_roundtrip(self):
        r = QRat(QPoly((F(1, 2), -2, 1)), (Q + 1) * (Q - 1))
        assert qrat_from_obj(qrat_to_obj(r)) == r

    def test_pairs_read_any_fraction_string(self):
        p = QPoly((3, 0, F(-1, 2), F(5, 6)))
        assert qpoly_to_pairs(p) == [[0, "3/1"], [2, "-1/2"], [3, "5/6"]]
        # unreduced or slash-free forms read as Fraction reads them
        assert qpoly_from_pairs([[0, "3"], [2, "-2/4"], [3, "10/12"]]) == p
        assert qpoly_from_pairs([[0, "6/2"], [2, "-0.5"], [3, " 5/6 "]]) == p
        with pytest.raises(ZeroDivisionError):
            qpoly_from_pairs([[0, "1/0"]])

    def test_pairs_read_integer_strings_as_fraction_does(self):
        # every string is read by Fraction, "k/1" and these alike
        for s in ("+3/1", "03/1", "-0/1", "3/1 ", "-7/1", "0/1", "12/1"):
            p = qpoly_from_pairs([[0, "1/2"], [1, s]])
            assert p == QPoly((F(1, 2), F(s)))
            assert qpoly_from_pairs([[2, s]]) == QPoly((0, 0, F(s)))
        with pytest.raises(ValueError):
            qpoly_from_pairs([[0, "3./1"]])

    def test_rational_reader_gives_fractions(self):
        # the rational ring reads each string by Fraction too
        for s in ("3/1", "-7/1", "0/1", "5/6"):
            v = value_from_obj("rational", s)
            assert type(v) is F and v == F(s)
            assert value_to_obj("rational", v) == s

    def test_serialization_roundtrip_randomized(self):
        rng = random.Random(23)
        for _ in range(25):
            r = QRat(
                QPoly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]),
                cyclotomic_power_product((rng.randint(0, 12), rng.randint(0, 2))
                                         for _ in range(3)),
            )
            assert qrat_from_obj(qrat_to_obj(r)) == r


class TestXPoly:
    def test_eval_and_subst(self):
        f = one_plus_qx()
        assert f.evaluate(q_integer(2)) == q_integer(3)
        assert subst_one_plus_qx(XPoly((0, 1))) == one_plus_qx()
        g = one_plus_qx() * XPoly((QRat(QPoly((1, 1))), QRat(QPoly.q_power(2))))
        assert xpoly_exact_div(g, one_plus_qx()) == XPoly((QRat(QPoly((1, 1))),
                                                           QRat(QPoly.q_power(2))))

    def test_exact_divide_then_multiply_is_identity(self):
        rng = random.Random(5)
        for _ in range(15):
            g = XPoly([QRat(QPoly([rng.randint(-2, 2) for _ in range(3)]))
                       for _ in range(rng.randint(1, 4))])
            prod = g * one_plus_qx()
            assert xpoly_exact_div(prod, one_plus_qx()) == g

    def test_exact_divide_error(self):
        with pytest.raises(ExactDivisionError):
            xpoly_exact_div(XPoly((1, 1)), one_plus_qx())

    def test_derivative(self):
        f = XPoly((1, QRAT_Q, QRat(3)))
        assert f.derivative() == XPoly((QRAT_Q, QRat(6)))
        assert XPoly((5,)).derivative().is_zero()

    def test_divmod_general(self):
        a = XPoly((1, 2, 3, 4))
        b = XPoly((QRAT_Q, 1))
        quot, rem = xpoly_divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree
        # the library divides an XPoly by scalars only
        with pytest.raises(TypeError):
            divmod(a, b)

    def test_serialization_roundtrip(self):
        f = one_plus_qx() * XPoly((QRat(1, Q + 1), QRAT_Q))
        assert xpoly_from_obj(xpoly_to_obj(f)) == f


class TestNewton:
    def test_examples(self):
        # 1 + qx as a zxpoly: x-rows (1) and (0, 1)
        assert zxpoly_support(((1,), (0, 1))) == [(0, 0), (1, 1)]
        assert newton_polygon(((1,), (0, 1))).vertices == ((0, 0), (1, 1))
        assert newton_polygon(((5,),)).vertices == ((0, 0),)
        assert zxpoly_support(((0, 2), (), (3, 0, -1))) == [(0, 2), (1, 0), (2, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            newton_polygon(())
        with pytest.raises(ValueError):
            newton_polygon(((), ()))

    def test_hull_orientation(self):
        pts = [(0, 0), (10, 0), (15, 5), (11, 5), (5, 3), (1, 1), (4, 2), (7, 1)]
        lower, upper = convex_hull_chains(pts)
        assert lower == [(0, 0), (10, 0), (15, 5)]
        assert upper == [(15, 5), (11, 5), (5, 3), (1, 1), (0, 0)]
        hull = NewtonPolygon.of_points(pts)
        assert hull.vertices == ((0, 0), (10, 0), (15, 5), (11, 5), (5, 3), (1, 1))

    def test_collinear_points_dropped(self):
        hull = NewtonPolygon.of_points([(0, 0), (1, 1), (2, 2)])
        assert hull.vertices == ((0, 0), (2, 2))

    def test_fraction_reduced(self):
        # numerator/denominator from an x-polynomial share no q-factor
        f = XPoly((QRat(1, Q + 1), QRat(Q, (Q + 1) * QPoly((1, 1, 1)))))
        assert xpoly_denominator(f) == ((2, 1), (3, 1))
        den = cyclotomic_product(xpoly_denominator(f))
        assert den == ((Q + 1) * QPoly((1, 1, 1))).monic()
        rows = [c.num * den.exact_div(c.den) for c in f.coeffs]
        g = qpoly_gcd(rows[0], rows[1])
        assert qpoly_gcd(g, den).degree == 0


class TestQSeries:
    def test_arithmetic(self):
        a = QSeries((1, 2, 3))
        b = QSeries((0, 1, 0))
        assert a + b == QSeries((1, 3, 3))
        assert a * b == QSeries((0, 1, 2))
        assert (a - a).is_zero()
        with pytest.raises(ValueError):
            a + QSeries((1,), 5)


class TestDerivedOperators:
    """Subtraction, powers and repr are derived once for the four coefficient
    types from their own coercion, + and *; QPoly alone has division with
    remainder, and with it exact division."""

    @pytest.mark.parametrize(
        "value, one, divisor",
        [
            (QPoly((1, F(1, 2), 3)), QPOLY_ONE, Q),
            (QRat(QPoly((1, 1)), QPoly((2, 0, 1))), QRAT_ONE, None),
            (QSeries((1, 2, F(1, 3)), 4), QSeries((1,), 4), None),
            (XPoly((QRat(QPoly((1, 1)), Q), 2)), XPoly((1,)), None),
        ],
        ids=["QPoly", "QRat", "QSeries", "XPoly"],
    )
    def test_derived_operators(self, value, one, divisor):
        cls = type(value)
        assert isinstance(value - 2, cls) and (value - 2) + 2 == value
        assert isinstance(2 - value, cls) and (2 - value) + value == 2
        assert type(value ** 0) is cls and value ** 0 == one
        assert value ** 3 == value * value * value
        if cls is QRat:
            assert value ** -2 == (value * value).inverse()
        else:
            with pytest.raises(ValueError):
                value ** -1
        if divisor is not None:
            assert (value * divisor).exact_div(divisor) == value
            with pytest.raises(ExactDivisionError):
                (value * divisor + 1).exact_div(divisor)
        else:
            assert not hasattr(value, "exact_div")
        assert repr(value).startswith(f"{cls.__name__}(")


def div_q_minus_1(a, bits: int = 16, width: int = 8) -> tuple:
    """The zxpoly a / (q - 1) through the packed division."""
    packed = zxpack_div_q_minus_1(zxpoly_pack(a, bits, width), bits, width)
    return zxpoly_unpack(packed, bits, width)


class TestPacking:
    """Kronecker packing: one int per polynomial, read back from its balanced
    digits, with the digit-bound tests that certify what is read."""

    @pytest.mark.parametrize("bits", [8, 16, 24, 32, 64, 128])
    def test_roundtrip(self, bits):
        rng = random.Random(bits)
        top = 2 ** (bits - 1)
        for _ in range(100):
            a = zpoly_trim([rng.randint(-top, top - 1) for _ in range(rng.randint(0, 80))])
            assert zpoly_unpack(zpoly_pack(a, bits), bits) == a
            width = rng.randint(1, 9)
            zx = zxpoly_trim([[rng.randint(-top, top - 1) for _ in range(rng.randint(0, width))]
                              for _ in range(rng.randint(0, 5))])
            assert zxpoly_unpack(zxpoly_pack(zx, bits, width), bits, width) == zx

    def test_packing_evaluates(self):
        # any int coefficients, at 2^bits, including those past one digit
        for a in [(2 ** 70, -3, 1), (-(2 ** 63), 2 ** 63), tuple(range(-50, 50))]:
            for bits in (8, 64, 72):
                assert zpoly_pack(a, bits) == sum(c << bits * i for i, c in enumerate(a))
        assert zxpoly_pack(((1, 2), (), (3,)), 8, 3) == zpoly_pack((1, 2, 0, 0, 0, 0, 3), 8)
        with pytest.raises(ValueError):
            zxpoly_pack(((1, 2, 3),), 8, 2)

    def test_digit_bound(self):
        rng = random.Random(3)
        for _ in range(300):
            bits = rng.choice((8, 16, 64, 128))
            h = rng.randint(0, bits - 2)
            digits = [rng.randint(-(2 ** h), 2 ** h - 1) for _ in range(rng.randint(1, 20))]
            v = zpoly_pack(digits, bits)
            assert algebra._digits_within(v, bits, h)
            digits[rng.randrange(len(digits))] = rng.choice((2 ** h, -(2 ** h) - 1))
            assert not algebra._digits_within(zpoly_pack(digits, bits), bits, h)

    def test_reduction_widens_narrow_digits(self, monkeypatch):
        # at 8-bit digits these quotients fail their digit bound; each step is
        # redone wider, to the same result
        cases = [(zpoly_mul(q_factorial_quotient(4, ()), (3, -1, 4)), 4),
                 (zpoly_mul(zpoly_mul(zcyclotomic(2), zcyclotomic(3)), (40, 0, -33)), 3),
                 (zpoly_mul(zcyclotomic(5), (100, 0, -99)), 6), ((7, 0, 0, 2), 4)]
        want = [qrat_over(num, q_factorial_exponents(n)) for num, n in cases]
        unpacked_at = []
        unpack = algebra.zpoly_unpack
        monkeypatch.setattr(algebra, "slot_bits", lambda need: 8)
        monkeypatch.setattr(algebra, "zpoly_unpack",
                            lambda v, bits: unpacked_at.append(bits) or unpack(v, bits))
        assert [qrat_over(num, q_factorial_exponents(n)) for num, n in cases] == want
        assert max(unpacked_at) > 8


@st.composite
def split_norm(draw, norm: int) -> tuple[int, ...]:
    """A trimmed zpoly of two to four terms, L1 norm norm >= 2, with zero
    coefficients between them and random signs."""
    cuts = sorted(draw(st.sets(st.integers(1, norm - 1), min_size=1, max_size=min(3, norm - 1))))
    out = []
    for lo, hi in zip([0, *cuts], [*cuts, norm]):
        out.extend([0] * draw(st.integers(0, 2)))
        out.append(draw(st.sampled_from((1, -1))) * (hi - lo))
    return tuple(out)


@st.composite
def norms_at_a_slot_edge(draw) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two operands whose L1 norms are 2^i and 2^(k-i), or one away from
    them, so that their norm product is just below, at or just above 2^k,
    for k at or next to a change of slot: the product's slot is at its
    edge."""
    k = draw(st.sampled_from((7, 8, 15, 16, 31, 32, 63, 64, 127, 128)))
    i = draw(st.integers(1, k - 1))
    na = max(2, (1 << i) + draw(st.integers(-1, 1)))
    nb = max(2, (1 << (k - i)) + draw(st.integers(-1, 1)))
    return draw(split_norm(na)), draw(split_norm(nb))


ZXPOLY = st.lists(ZPOLY, max_size=5)  # untrimmed rows and zero rows inside


class TestKroneckerProducts:
    """zpoly_mul, zxpoly_mul and zxpoly_sum_of_products are one product of
    packed ints, and zxpoly_subst_one_plus_qx a packed Horner; the list
    forms in tests/engine_reference.py are their references."""

    @PROPERTY
    @given(ZPOLY.map(zpoly_trim), ZPOLY.map(zpoly_trim))
    def test_zpoly_mul_matches_schoolbook(self, a, b):
        # zero, one- and two-term operands, negative coefficients and
        # coefficients above 2^64
        assert zpoly_mul(a, b) == ER.zpoly_mul(a, b) == zpoly_mul(b, a)

    @PROPERTY
    @given(norms_at_a_slot_edge())
    def test_zpoly_mul_at_a_slot_edge(self, ab):
        a, b = ab
        assert zpoly_mul(a, b) == ER.zpoly_mul(a, b)
        # the same norms in x-degrees 1 and 2, with zero rows around them
        assert zxpoly_mul(((), a), (b, (), ())) == ((), ER.zpoly_mul(a, b))

    @pytest.mark.parametrize("k", [7, 8, 63, 64])
    def test_extreme_coefficient_at_a_slot_edge(self, k):
        # (s c, 1) (c, -1) = (s c^2, c - s c, -1) for s = +-1: the coefficient
        # s c^2 is within 2c + 1 of the norm product (c + 1)^2, on either side
        # of 2^k
        for c in (math.isqrt(1 << k) - 2, math.isqrt(1 << k) - 1, math.isqrt(1 << k)):
            for sign in (1, -1):
                a, b = (sign * c, 1), (c, -1)
                want = (sign * c * c, c - sign * c, -1)
                assert zpoly_mul(a, b) == ER.zpoly_mul(a, b) == want
                assert zxpoly_mul(((), a), (b,)) == ((), want)

    def test_one_term_operand_is_a_scalar_multiply(self):
        assert zpoly_mul((3,), (1, 0, -2)) == (3, 0, -6) == zpoly_mul((1, 0, -2), (3,))
        assert zpoly_mul((2 ** 70,), (-1, 1)) == (-(2 ** 70), 2 ** 70)
        assert zpoly_mul((), (5,)) == () == zpoly_mul((5,), ())
        assert zpoly_mul((), (1, 2)) == ()

    @PROPERTY
    @given(ZXPOLY, ZXPOLY)
    def test_zxpoly_mul_matches_schoolbook(self, a, b):
        assert zxpoly_mul(a, b) == ER.zxpoly_mul(a, b)

    @PROPERTY
    @given(st.lists(st.tuples(st.integers(-5, 5), st.lists(ZXPOLY, max_size=3)), max_size=4))
    def test_sum_of_products_matches_schoolbook(self, terms):
        want: list[list[int]] = []
        for c, fs in terms:
            prod = ((c,),)
            for f in fs:
                prod = ER.zxpoly_mul(prod, f)
            want.extend([] for _ in range(len(prod) - len(want)))
            for acc, row in zip(want, prod):
                algebra.zpoly_add_scaled(acc, row)
        assert zxpoly_sum_of_products((c, *fs) for c, fs in terms) == zxpoly_trim(want)

    @PROPERTY
    @given(ZXPOLY)
    def test_packed_subst_one_plus_qx_matches_the_list_form(self, a):
        assert zxpoly_subst_one_plus_qx(a) == ER.zxpoly_subst_one_plus_qx(a)


class TestFractionFree:
    """The integer layer under the per-tree engine: exact divisions raise on
    a remainder, and the cyclotomic reduction matches gcd reduction."""

    def test_div_q_minus_1_exact(self):
        a = zpoly_mul((-1, 1), (2, 0, -3, 5))
        assert div_q_minus_1((a,)) == ((2, 0, -3, 5),)
        assert div_q_minus_1(()) == ()
        assert div_q_minus_1(((), a, (), a + (0, 0))) == ((), (2, 0, -3, 5), (), (2, 0, -3, 5))
        rng = random.Random(11)
        for _ in range(200):
            quot = zxpoly_trim([[rng.randint(-40, 40) for _ in range(rng.randint(0, 5))]
                                for _ in range(rng.randint(0, 4))])
            assert div_q_minus_1(zxpoly_mul(((-1, 1),), quot)) == quot

    def test_div_q_minus_1_remainder_raises(self):
        with pytest.raises(ExactDivisionError):
            div_q_minus_1(((1, 1),))  # q + 1
        with pytest.raises(ExactDivisionError):
            div_q_minus_1(((3,),))
        # 1 - x and q - x^2 vanish at q = x = 1, so 2^bits - 1 divides their
        # packings; the digit in the top slot of a row rules them out
        for t in (((1,), (-1,)), ((0, 1), (), (-1,)), ((0, 0, 5), (-2, -3))):
            assert not zxpoly_pack(t, 16, 8) % (2 ** 16 - 1)
            with pytest.raises(ExactDivisionError):
                div_q_minus_1(t)
        rng = random.Random(12)
        for _ in range(200):
            t = zxpoly_trim([[rng.randint(-40, 40) for _ in range(rng.randint(0, 5))]
                             for _ in range(rng.randint(1, 4))])
            if any(sum(row) for row in t):
                with pytest.raises(ExactDivisionError):
                    div_q_minus_1(t)

    def test_div_x_minus(self):
        # (x - (1 + q)) (q x^2 + 2) over Z[q], divided back by each factor
        r = (1, 1)
        f = ((2,), (), (0, 1))
        prod = zxpoly_mul(((-1, -1), (1,)), f)
        assert zxpoly_div_x_minus(prod, r) == f
        assert zxpoly_div_x_minus((), r) == ()
        assert zxpoly_div_x_minus(((0, -1), (1,)), (0, 1)) == ((1,),)
        with pytest.raises(ExactDivisionError):
            zxpoly_div_x_minus(prod, (1,))
        with pytest.raises(ExactDivisionError):
            zxpoly_div_x_minus(((3,),), r)

    def test_div_q_minus_1_raises_under_optimize(self):
        code = (
            "from arborq.algebra import ExactDivisionError, zxpack_div_q_minus_1, zxpoly_pack\n"
            "for t in (((1, 1),), ((1,), (-1,))):\n"
            "    try:\n        zxpack_div_q_minus_1(zxpoly_pack(t, 16, 8), 16, 8)\n"
            "    except ExactDivisionError:\n        print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-B", "-O", "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": ":".join(sys.path)}, check=True,
        ).stdout
        assert out == "raised\nraised\n"

    def test_divmod_monic(self):
        a = (5, -1, 0, 2, 7)
        m = zcyclotomic(3)
        quot, rem = zpoly_divmod(a, m)
        want_quot, want_rem = longdiv(list(a), list(m))
        assert list(quot) == want_quot and list(rem) == want_rem
        with pytest.raises(ValueError):
            zpoly_divmod(a, (1, 2))

    def test_q_factorial_quotient(self):
        assert q_factorial_quotient(4, (2,)) == zpoly_mul((1, 1, 1), (1, 1, 1, 1))
        assert q_factorial_quotient(3, (3,)) == (1,)
        assert q_factorial_quotient(3, (1, 2)) == (1, 1, 1)
        assert q_factorial_quotient(4, (2, 2)) == (1, 1, 2, 1, 1)  # Gaussian [4 choose 2]
        assert QPoly(q_factorial_quotient(6, ())) == (
            cyclotomic(2) ** 3 * cyclotomic(3) ** 2 * cyclotomic(4) * cyclotomic(5)
            * cyclotomic(6)
        )
        with pytest.raises(ExactDivisionError):
            q_factorial_quotient(3, (2, 2))  # [3]_q / [2]_q

    @pytest.mark.parametrize(
        "num, n",
        [
            ((1,), 4),                                     # nothing cancels
            (zpoly_mul(zcyclotomic(3), (5, 2)), 4),        # Phi_2^2 survives below
            (zpoly_mul(zpoly_mul(zcyclotomic(2), zcyclotomic(2)),
                       zpoly_mul(zcyclotomic(2), (7,))), 4),  # Phi_2^3 over Phi_2^2
            (zpoly_mul(q_factorial_quotient(5, ()), (-3, 0, 1)), 5),  # cancels completely
            (zpoly_mul(zcyclotomic(5), (0, 4, -1)), 6),
            ((), 3),
        ],
    )
    def test_cyclotomic_reduction_matches_gcd(self, num, n):
        want = QRat(QPoly(num), QPoly(q_factorial_quotient(n, ())))
        got = qrat_over(num, q_factorial_exponents(n))
        assert got.num == want.num and got.den == want.den

    @pytest.mark.parametrize(
        "num, n, a, b",
        [
            ((0, 0, 3), 3, 1, 0),                           # q^2 over q: a polynomial part
            ((0, 5, 1), 3, 4, 0),                           # q^3 left in the denominator
            (zpoly_mul((-1, 1), (-1, 1)), 4, 0, 3),         # (q-1)^2 over (q-1)^3
            (zpoly_mul((-1, 1), zcyclotomic(3)), 3, 2, 1),  # q - 1 cancels completely
            ((2, -1), 0, 0, 2),                             # no q-factorial
        ],
    )
    def test_reduction_with_q_and_q_minus_1_powers(self, num, n, a, b):
        den = QPoly.q_power(a) * QPoly((-1, 1)) ** b * QPoly(q_factorial_quotient(n, ()))
        want = QRat(QPoly(num), den)
        got = qrat_over(num, ((0, a), (1, b)) + q_factorial_exponents(n))
        assert got.num == want.num and got.den == want.den

    @PROPERTY
    @given(st.lists(st.tuples(ZPOLY, st.integers(0, 2)).map(lambda r: (*r[0], *(0,) * r[1])),
                    max_size=5),
           ZPOLY, ZPOLY)
    def test_packed_eval_matches_list_horner(self, a, num, den):
        # rows with trailing zeros and zero rows at the top, negative and
        # zero nodes and denominators, and coefficients above 2^64
        assert zxpoly_eval(a, num, den) == ER.zxpoly_eval(a, num, den)
        assert zxpoly_eval(a, num) == ER.zxpoly_eval(a, num)

    def test_packed_eval_edges(self, monkeypatch):
        assert zxpoly_eval((), (1, 1), (0, 1)) == () == ER.zxpoly_eval((), (1, 1), (0, 1))
        # zero rows on top still count in d: den^2 * (a_0 + a_1 num / den)
        assert zxpoly_eval(((1,), (), ()), (0, 1), (-1, 1)) == (1, -2, 1)
        digits = []
        unpack = algebra.zpoly_unpack
        monkeypatch.setattr(algebra, "zpoly_unpack",
                            lambda v, bits: digits.append(bits) or unpack(v, bits))
        a = ((2 ** 63 + 1, -1), (0, -(2 ** 64)), (3,))
        for num, den in (((1, 1, 1), (1,)), ((-1, -1), (0, 0, 1)), ((0, -5), (2, -1))):
            assert zxpoly_eval(a, num, den) == ER.zxpoly_eval(a, num, den)
        assert min(digits) >= 128

    def test_zxpoly_eval_matches_qrat(self):
        rng = random.Random(5)
        nodes = [((1, 1, 1), (1,)), ((), (1,)), ((-1, -1), (0, 0, 1)),
                 ((1,), (1, -1)), ((-1,), (0, 1)), ((0, -1, -1), (1,))]
        for _ in range(20):
            a = tuple(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
                      for _ in range(rng.randint(0, 4)))
            f = XPoly([QPoly(c) for c in a])
            d = len(a) - 1
            for num, den in nodes:
                got = QRat(QPoly(zxpoly_eval(a, num, den)))
                assert got == f.evaluate(QRat(QPoly(num), QPoly(den))) * QRat(QPoly(den)) ** max(d, 0)

    def test_subst_and_divide_one_plus_qx(self):
        rng = random.Random(6)
        for _ in range(20):
            a = tuple(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
                      for _ in range(rng.randint(0, 4)))
            f = XPoly([QPoly(c) for c in a])
            got = zxpoly_subst_one_plus_qx(a)
            assert XPoly([QPoly(c) for c in got]) == subst_one_plus_qx(f)
            prod = zxpoly_mul(((1,), (0, 1)), a)
            assert zxpoly_divmod_one_plus_qx(prod) == (zxpoly_trim(a), ())
            quot, rem = zxpoly_divmod_one_plus_qx(a)
            back = one_plus_qx() * XPoly([QPoly(c) for c in quot])
            if a:
                back = back + XPoly([0] * (len(a) - 1) + [QPoly(rem)])
            assert back == f

    def test_cyclotomic_reduction_shapes(self):
        r = qrat_over(zpoly_mul(zcyclotomic(3), (5, 2)), q_factorial_exponents(4))
        assert r.den == cyclotomic(2) ** 2 * cyclotomic(4)
        r = qrat_over(zpoly_mul(q_factorial_quotient(5, ()), (-3, 0, 1)), q_factorial_exponents(5))
        assert r.is_polynomial() and r.num == QPoly((-3, 0, 1))

    @PROPERTY
    @given(st.lists(st.tuples(ZPOLY, st.integers(0, 3)), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)), max_size=4),
           st.dictionaries(st.integers(0, 8), st.integers(0, 3), max_size=5))
    def test_divide_cyclotomics_property(self, rows, shared, caps):
        # every row carries the shared q^s prod Phi_d^m, so some of the pairs
        # exps (d = 0 for q, d = 1 for q - 1) divide them all, and a power of
        # q of its own
        common = cyclotomic_power_product(shared)
        rows = [(QPoly(r).shift(k) * common).ints for r, k in rows]
        exps = tuple(sorted(caps.items()))
        quots, left = divide_cyclotomics(rows, exps)
        rest = dict(left)
        divided = cyclotomic_product(tuple((d, e - rest.get(d, 0)) for d, e in exps))
        assert [QPoly(r) * divided for r in quots] == [QPoly(r) for r in rows]
        for d, _ in left:
            if d:
                assert any(zpoly_divmod(r, zcyclotomic(d))[1] for r in quots)
        if 0 in rest:
            assert any(r and r[0] for r in quots)
        got, want = qrat_over(rows[0], exps), QRat(QPoly(rows[0]), cyclotomic_product(exps))
        assert got.num == want.num and got.den == want.den
