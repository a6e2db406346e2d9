"""Tree-series operations: insertion with outer corollas, grafting,
suspension, and the associative # product.  Counting semantics are checked
against a raw enumerator over vertex subsets of labeled representatives."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from arborq import trees as T
from arborq.algebra import QPoly, QRAT_ONE, QRat
from arborq.series import TreeSeries, diamond_crls, sharp, suspension, unit_vertex
from tests.qrat_reference import graft_root_single
from tests.serialize_reference import series_from_obj, series_to_obj
from tests.test_trees import brute_decompositions


def ones_series(order: int) -> TreeSeries:
    return TreeSeries(
        order,
        "rational",
        {t: F(1) for n in range(1, order + 1) for t in T.enumerate_trees(n)},
    )


def random_series(order: int, seed: int, lo=-3, hi=3) -> TreeSeries:
    rng = random.Random(seed)
    return TreeSeries(
        order,
        "rational",
        {t: F(rng.randint(lo, hi)) for n in range(1, order + 1) for t in T.enumerate_trees(n)},
    )


def diamond_count_oracle(t: int, a: dict[str, int], b: dict[str, int]) -> int:
    """Raw triple count: sum over root subtrees of the labeled representative
    of a[kept class] * prod b[component class]."""
    total = 0
    for (kept_enc, comp_encs), mult in brute_decompositions(T.parent_array(t)).items():
        val = a.get(kept_enc, 0)
        for enc in comp_encs:
            val *= b.get(enc, 0)
        total += val * mult
    return total


class TestBasics:
    def test_unit_vertex(self):
        s = unit_vertex(F(1), 4, "rational")
        assert s.coeff(T.leaf()) == 1
        assert s.coeff(T.lnr(2)) == 0
        assert unit_vertex(F(-1), 4, "rational") == s.neg()

    def test_no_degree_zero_and_truncation_guard(self):
        with pytest.raises(ValueError):
            TreeSeries(2, "rational", {T.crl(3): F(1)})
        with pytest.raises(ValueError):
            TreeSeries(3, "nosuchring", {})

    def test_zeros_dropped(self):
        s = TreeSeries(3, "rational", {T.leaf(): F(0), T.lnr(2): F(2)})
        assert T.leaf() not in s.coeffs

    def test_binary_ops_require_matching_order_and_ring(self):
        a = ones_series(3)
        b = ones_series(4)
        with pytest.raises(ValueError):
            a.add(b)
        with pytest.raises(ValueError):
            diamond_crls(a, b)
        c = TreeSeries(3, "qrat", {T.leaf(): QRAT_ONE})
        with pytest.raises(ValueError):
            diamond_crls(a, c)

    def test_serialization_roundtrip(self):
        for ring, series in [
            ("rational", random_series(4, 1)),
            ("qrat", TreeSeries(3, "qrat", {T.leaf(): QRat(1, QPoly((1, 1))),
                                            T.crl(2): QRat(QPoly((0, 1)))})),
        ]:
            assert series_from_obj(series_to_obj(series)) == series


class TestDiamond:
    def test_crls_diamond_unit_unit_is_corolla_indicator(self):
        dot = unit_vertex(F(1), 6, "rational")
        got = diamond_crls(dot, dot)
        for n in range(1, 7):
            for t in T.enumerate_trees(n):
                want = 1 if T.height(t) <= 2 else 0
                assert got.coeff(t) == want

    def test_crls_diamond_dot_E_is_E(self):
        e = ones_series(6)
        assert diamond_crls(unit_vertex(F(1), 6, "rational"), e) == e

    def test_crls_diamond_E_minus_dot_is_dot(self):
        e = ones_series(6)
        got = diamond_crls(e, unit_vertex(F(-1), 6, "rational"))
        assert got == unit_vertex(F(1), 6, "rational")

    def test_linear_in_first_argument(self):
        b = random_series(5, 101)
        x = random_series(5, 102)
        y = random_series(5, 103)
        lhs = diamond_crls(x.add(y.scale(F(3))), b)
        rhs = diamond_crls(x, b).add(diamond_crls(y, b).scale(F(3)))
        assert lhs == rhs

    def test_counting_semantics_against_raw_enumeration(self):
        for seed in (1, 2):
            a = random_series(6, seed, lo=0, hi=3)
            b = random_series(6, seed + 50, lo=0, hi=2)
            a_by_enc = {T.encoding(t): int(v) for t, v in a.coeffs.items()}
            b_by_enc = {T.encoding(t): int(v) for t, v in b.coeffs.items()}
            got = diamond_crls(a, b)
            for n in range(1, 7):
                for t in T.enumerate_trees(n):
                    assert got.coeff(t) == diamond_count_oracle(t, a_by_enc, b_by_enc)

    def test_grouped_path_equals_decomposition_path(self):
        # second argument supported on the single vertex: fast path vs general
        for seed in (3, 4):
            a = random_series(7, seed)
            c = F(seed - 1)
            fast = diamond_crls(a, unit_vertex(c, 7, "rational"))
            slow_coeffs = {}
            for n in range(1, 8):
                for t in T.enumerate_trees(n):
                    acc = F(0)
                    for (kept, comps), mult in T.root_subtree_decompositions(t).items():
                        if all(cc == T.leaf() for cc in comps):
                            acc += a.coeff(kept) * c ** len(comps) * mult
                    slow_coeffs[t] = acc
            assert fast == TreeSeries(7, "rational", slow_coeffs)

    def test_diamond_with_zero(self):
        a = random_series(4, 9)
        z = TreeSeries(4, "rational", {})
        assert diamond_crls(a, z) == a      # no components allowed
        assert diamond_crls(z, a) == z      # linear in the first argument

    def test_nested_insertion_law(self):
        # Crls<>(Crls<>(A,B),C) == Crls<>(A, C + Crls<>(B,C))
        for seed in (11, 12, 13):
            a = random_series(5, seed)
            b = random_series(5, seed + 100)
            c = random_series(5, seed + 200)
            lhs = diamond_crls(diamond_crls(a, b), c)
            rhs = diamond_crls(a, c.add(diamond_crls(b, c)))
            assert lhs == rhs

    def test_prop_gen_inverse_property(self):
        e = ones_series(6)
        minus_dot = unit_vertex(F(-1), 6, "rational")
        for seed in (21, 22, 23):
            a = random_series(6, seed)
            assert diamond_crls(diamond_crls(a, e), minus_dot) == a

    def test_prop_gen_divisibility(self):
        e = ones_series(7)
        for k in range(1, 6):
            s = diamond_crls(e, unit_vertex(F(k), 7, "rational"))
            assert s.coeff(T.leaf()) == 1
            for t, v in s.items():
                if T.size(t) >= 2:
                    assert v.denominator == 1 and v.numerator % (k + 1) == 0


class TestSuspension:
    def test_alpha_one_is_identity(self):
        a = random_series(5, 31)
        assert suspension(a, F(1)) == a

    def test_composition_law(self):
        a = random_series(5, 32)
        assert suspension(suspension(a, F(2)), F(-3)) == suspension(a, F(-6))

    def test_scalar_times_suspension_degree_shift(self):
        a = random_series(5, 33)
        qa = suspension(a, F(2)).scale(F(2))
        for t, v in a.coeffs.items():
            assert qa.coeff(t) == v * F(2) ** T.size(t)

    def test_action_on_diamond(self):
        for alpha in (F(2), F(-1, 3)):
            b = random_series(6, 34)
            c = random_series(6, 35)
            lhs = suspension(diamond_crls(b, c), alpha)
            rhs = diamond_crls(suspension(b, alpha), suspension(c, alpha).scale(alpha))
            assert lhs == rhs


class TestGraft:
    def test_examples(self):
        dot = unit_vertex(F(1), 4, "rational")
        assert graft_root_single(dot).coeff(T.lnr(2)) == 1
        a = TreeSeries(4, "rational", {T.lnr(2): F(7)})
        assert graft_root_single(a).coeff(T.lnr(3)) == 7
        full = random_series(4, 41)
        assert all(
            graft_root_single(full).coeff(t) == 0
            for t in T.enumerate_trees(3)
            if len(T.children(t)) != 1
        )

    def test_truncation_respected(self):
        full = random_series(3, 42)
        g = graft_root_single(full)
        assert g.order == 3
        assert all(T.size(t) <= 3 for t in g.coeffs)


class TestSharp:
    def test_zero_is_unit(self):
        a = random_series(5, 51)
        z = TreeSeries(5, "rational", {})
        assert sharp(a, z) == a
        assert sharp(z, a) == a

    def test_associative(self):
        for seed in (61, 62, 63):
            a = random_series(5, seed)
            b = random_series(5, seed + 10)
            c = random_series(5, seed + 20)
            assert sharp(sharp(a, b), c) == sharp(a, sharp(b, c))
