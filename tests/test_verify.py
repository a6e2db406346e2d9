"""Verification layer: oracles versus recursions, check reports, conjecture
sweeps at unit-test scale (the full acceptance bounds live in
test_acceptance.py)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from arborq import algebra
from arborq import solvers as S
from arborq import trees as T
from arborq import verify as V
from arborq.algebra import QPoly, QRAT_ONE, QRat, XPOLY_ONE, XPoly, q_integer
from tests import engine_reference as ER
from tests import qrat_reference as R

EX5 = T.b_plus([T.leaf(), T.b_plus([T.leaf(), T.leaf()])])


class TestColoringOracle:
    def test_examples(self):
        assert V.oracle_colorings(T.leaf(), 2, "weak") == QPoly((1, 1, 1))
        assert V.oracle_colorings(EX5, 1, "weak") == QPoly((1, 1, 2, 3, 3, 1))
        assert V.oracle_colorings(T.lnr(2), 1, "strict") == QPoly((0, 1))

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            V.oracle_colorings(T.crl(9), 1, "weak", bound=9)

    def test_matches_recursion(self):
        for n in range(1, 7):
            for t in T.enumerate_trees(n):
                for k in range(0, 4):
                    for mode in ("weak", "strict"):
                        assert V.oracle_colorings(t, k, mode) == S.coloring_poly(t, k, mode)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(1, 7).flatmap(lambda n: st.sampled_from(T.enumerate_trees(n))),
           st.sampled_from(("weak", "strict")), st.integers(-1, 4))
    def test_one_walk_matches_the_raw_walk_and_the_recursion(self, t, mode, n):
        got = V.oracle_colorings(t, n, mode)
        assert got == ER.raw_colorings(t, n, mode)
        assert got == S.coloring_poly(t, n, mode)
        # one walk at n sums, by root color, the walk at every m <= n
        sums = V.oracle_coloring_sums(t, n, mode)
        assert sums == [V.oracle_colorings(t, m, mode) for m in range(n + 1)]

    def test_mode_and_bound_checked_before_the_walk(self):
        with pytest.raises(ValueError, match="mode"):
            V.oracle_colorings(T.leaf(), -1, "loose")
        with pytest.raises(ValueError, match="bound"):
            V.oracle_coloring_sums(T.crl(3), -1, "weak", bound=3)
        assert V.oracle_colorings(T.crl(3), -1, "strict") == QPoly()


def lagrange_in_qrat(t: int) -> XPoly:
    """Reference for the interpolation oracle: textbook Lagrange
    interpolation through ([m]_q, weak coloring value) in QRat arithmetic."""
    n = T.size(t)
    nodes = [q_integer(m) for m in range(n + 1)]
    values = [QRat(V.oracle_colorings(t, m, "weak")) for m in range(n + 1)]
    total = XPoly()
    for m in range(n + 1):
        basis = XPOLY_ONE
        denom = QRAT_ONE
        for j in range(n + 1):
            if j == m:
                continue
            basis = basis * XPoly((-nodes[j], QRAT_ONE))
            denom = denom * (nodes[m] - nodes[j])
        total = total + basis.scale(values[m] / denom)
    return total


class TestInterpolationOracle:
    def test_single_vertex(self):
        from arborq.algebra import one_plus_qx

        assert V.oracle_interpolate_pawn(T.leaf()) == one_plus_qx()

    def test_lnr2_matches_golden(self):
        assert V.oracle_interpolate_pawn(T.lnr(2)) == S.pawn_coeff(T.lnr(2))

    def test_small_sweep(self):
        for n in range(1, 6):
            for t in T.enumerate_trees(n):
                assert V.oracle_interpolate_pawn(t) == S.pawn_coeff(t)

    def test_matches_lagrange_in_qrat(self):
        for n in range(1, 6):
            for t in T.enumerate_trees(n):
                assert V.oracle_interpolate_pawn(t) == lagrange_in_qrat(t), T.encoding(t)

    def test_runs_no_gcd(self, monkeypatch):
        # the q-binomial table is built through QRat once per size; after
        # that, interpolation is integer arithmetic and cyclotomic division
        for n in range(1, 7):
            V.oracle_interpolate_pawn(T.enumerate_trees(n)[0])
        calls = []
        gcd = algebra.qpoly_gcd
        monkeypatch.setattr(algebra, "qpoly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
        for n in range(1, 7):
            for t in T.enumerate_trees(n):
                V.oracle_interpolate_pawn(t)
        assert not calls

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            V.oracle_interpolate_pawn(T.crl(7), bound=7)


class TestCheckReports:
    def test_pass_reports(self):
        for name in V.THEOREM_NAMES:
            report = V.check_theorem(name, 4)
            assert report.ok(), (name, report.witness)
            assert report.seconds >= 0
            json.dumps(report.to_obj())  # serializable

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            V.check_theorem("nonsense")

    @pytest.mark.parametrize(
        "name, max_order, kwargs",
        [
            ("valeur_n_positif", 4, {"n_range": (4, 2)}),
            ("oracle_colorings", 4, {"n_range": (5, 1)}),
            ("oracle_colorings", 4, {"bound": 0}),
            ("valeur_speciale", 0, {}),
            ("valeur_n_positif", 4, {"n_range": (-1, 2)}),
            ("valeur_n_negatif", 4, {"n_range": (0, 2)}),
            ("oracle_interpolation", -3, {}),
        ],
    )
    def test_parameters_that_check_nothing_raise(self, name, max_order, kwargs):
        # each of these used to return a PASS without checking a single case
        with pytest.raises(ValueError):
            V.check_theorem(name, max_order, **kwargs)

    @pytest.mark.parametrize("name, kwargs", [
        ("associativity", {"seeds": ()}),
        ("suspension_formula", {"seeds": ()}),
        ("valeur_speciale", {"bling": 5}),
    ])
    def test_unknown_keywords_raise(self, name, kwargs):
        # these used to reach checks that swallowed them, and pass
        with pytest.raises(TypeError):
            V.check_theorem(name, 4, **kwargs)

    def test_edge_parameters_still_run(self):
        assert V.theorem_param_error("valeur_n_positif", 1, (0, 0), 1) is None
        assert V.check_theorem("valeur_n_positif", 1, n_range=(0, 0)).ok()
        assert V.check_theorem("oracle_colorings", 2, n_range=(2, 2), bound=1).ok()

    def test_failure_carries_witness(self):
        # corrupt one memoized value through a private seam to see a witness
        report = V.CheckReport(name="synthetic", params={})
        V._fail(report, tree="(())", got=1, want=2)
        assert report.status == "fail"
        assert report.witness == {"tree": "(())", "got": "1", "want": "2"}
        json.dumps(report.to_obj())

    def test_deterministic_given_parameters(self):
        a = V.check_theorem("associativity", 4)
        b = V.check_theorem("associativity", 4)
        assert a.to_obj()["status"] == b.to_obj()["status"]
        assert a.params == b.params


# per check: the engine, the tree whose numerator N_T is corrupted, the
# (x-degree, zpoly) terms added to N_T so that the identity no longer holds,
# and the tree the witness names.  The valeur_speciale terms add (1 + qx) x,
# which keeps N_T divisible by 1 + qx.  ombral_iti meets the corrupted branch
# first in B+(CORRUPT_TREE); ombral_nui meets the corrupted b_2 first at
# lnr(2), since psi(-x P_dot) = -b_1 - q b_2
CORRUPT_TREE = T.b_plus([T.lnr(2), T.leaf()])
CORRUPTIONS = {
    name: (S._PAWN_ENGINE, CORRUPT_TREE, terms, CORRUPT_TREE)
    for name, terms in {
        "valeur_n_positif": {0: (1,)},
        "valeur_n_negatif": {0: (1,)},
        "valeur_speciale": {1: (1,), 2: (0, 1)},
        "action_delta": {1: (1,)},
        "facteurs_connus": {0: (1,)},
        "x_infinity": {4: (1,)},
        "sharp_reformulation": {0: (1,)},
    }.items()
}
CORRUPTIONS["ombral_iti"] = (S._PAWN_ENGINE, CORRUPT_TREE, {0: (1,)}, T.b_plus([CORRUPT_TREE]))
CORRUPTIONS["ombral_nui"] = (S._OMEGA_ENGINE, T.crl(2), {0: (1,)}, T.lnr(2))
# the witness key besides tree, got and want
WITNESS_PARAM = {"valeur_n_positif": "n", "valeur_n_negatif": "n", "facteurs_connus": "i",
                 "ombral_nui": "grafted"}


def corrupt(monkeypatch, t: int, terms: dict, engine=S._PAWN_ENGINE) -> None:
    """Replace N_t in the engine memo (packed at the engine's slots) by a
    corrupted value."""
    for u in T.trees_upto(T.size(t) + 1):
        engine.packed(u)  # solve the neighbours from the true values first
    num = [list(c) for c in engine.numerator(t)]
    num.extend([] for _ in range(max(terms) + 1 - len(num)))
    for j, p in terms.items():
        algebra.zpoly_add_scaled(num[j], p)
    bad = algebra.zxpoly_trim(num)
    # a packed value means something only at the slots it was packed at, and
    # a later solve may widen the slots and repack the memo: the whole state
    # is replaced by a copy and restored together
    for name in ("memo", "bounds"):
        monkeypatch.setattr(engine, name, dict(getattr(engine, name)))
    for name in ("bits", "width"):
        monkeypatch.setattr(engine, name, getattr(engine, name))
    engine.memo[t] = algebra.zxpoly_pack(bad, engine.bits, engine.width)
    assert engine.numerator(t) == bad


class TestZqIdentities:
    """The x-checks, sharp_reformulation and the umbral checks run as
    identities in Z[q] on the engine numerators; the QRat bodies they
    replaced are the references."""

    @pytest.mark.parametrize("name", sorted(R.CHECKS))
    def test_agrees_with_qrat_reference(self, name):
        ref = R.CHECKS[name](V.CheckReport(name=name), 6)
        assert ref.ok() and V.check_theorem(name, 6).ok()

    @pytest.mark.parametrize("name", sorted(R.CHECKS))
    def test_corrupted_numerator_fails(self, name, monkeypatch):
        engine, t, terms, witness_tree = CORRUPTIONS[name]
        corrupt(monkeypatch, t, terms, engine)
        report = V.check_theorem(name, 5)
        assert report.status == "fail"
        w = report.witness
        assert w["tree"] == T.encoding(witness_tree)
        assert w["got"] != w["want"]
        if name in WITNESS_PARAM:
            assert WITNESS_PARAM[name] in w
        # the references read the pawn engine, and compute Carlitz's numbers
        # on their own
        ref = R.CHECKS[name](V.CheckReport(name=name), 5)
        assert ref.ok() == (engine is S._OMEGA_ENGINE)

    def test_numerator_not_divisible_by_one_plus_qx(self, monkeypatch):
        corrupt(monkeypatch, CORRUPT_TREE, {0: (1,)})
        report = V.check_theorem("valeur_speciale", 5)
        assert report.status == "fail"
        assert report.witness["tree"] == T.encoding(CORRUPT_TREE)
        # 1 = (1 + qx)(1 - qx + ... - q^3 x^3) + q^4 x^4
        assert report.witness["got"] == "q^4" and report.witness["want"] == "0"

    def test_corrupted_numerator_fails_the_interpolation(self, monkeypatch):
        corrupt(monkeypatch, CORRUPT_TREE, {0: (1,)})
        report = V.check_theorem("oracle_interpolation", 5)
        assert report.status == "fail"
        w = report.witness
        assert set(w) == {"tree", "solver", "interpolated"}
        assert w["tree"] == T.encoding(CORRUPT_TREE)
        assert w["solver"] == str(S.pawn_coeff(CORRUPT_TREE))
        assert w["interpolated"] == str(V.oracle_interpolate_pawn(CORRUPT_TREE))
        assert w["solver"] != w["interpolated"]

    def test_wrong_x_degree_fails(self, monkeypatch):
        corrupt(monkeypatch, CORRUPT_TREE, {5: (1,)})
        report = V.check_theorem("x_infinity", 5)
        assert report.status == "fail"
        assert report.witness == {"tree": T.encoding(CORRUPT_TREE), "degree": "5", "size": "4"}

    def test_q1_no_pole_reports_a_pole_and_raises_anything_else(self, monkeypatch):
        pawn_coeff = S.pawn_coeff

        def check_with(t, value):
            monkeypatch.setattr(S, "pawn_coeff", lambda u: value if u == t else pawn_coeff(u))
            return V.check_theorem("q1_no_pole", 5)

        report = check_with(CORRUPT_TREE, XPoly((QRat(1, QPoly((-1, 1))),)))  # 1/(q - 1)
        assert report.witness == {"tree": T.encoding(CORRUPT_TREE), "error": "pole at q = 1"}
        report = check_with(T.leaf(), XPoly((1, 2)))
        assert report.status == "fail" and report.witness["tree"] == T.encoding(T.leaf())
        assert report.witness["got"] != report.witness["want"]
        # any other error is not a pole, and reaches the caller
        monkeypatch.setattr(S, "pawn_coeff", lambda u: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            V.check_theorem("q1_no_pole", 5)

    def test_corrupt_restores_a_widened_engine(self):
        engine = S._PAWN_ENGINE
        with pytest.MonkeyPatch.context() as mp:
            corrupt(mp, CORRUPT_TREE, {0: (1,)})
            slots = engine.bits, engine.width
            engine._fit(1, engine.width + 1)  # widen the rows and repack
            assert (engine.bits, engine.width) != slots
        assert (engine.bits, engine.width) == slots
        ref = ER.ListRecursion.like(engine)
        for t in T.trees_upto(T.size(CORRUPT_TREE) + 1):
            assert S.pawn_numerator(t) == ref.numerator(t)

    def test_runs_no_gcd(self, monkeypatch):
        # after one run has built the q-factorial tables, every check of
        # verify --suite all (at its default order) and pawn_at are integer
        # arithmetic and cyclotomic division
        def run():
            for name in V.THEOREM_NAMES:
                assert V.check_theorem(name).ok()
            S.eval_pawn_at_qint(6, -3)
            S.eval_pawn_at_qint(6, 4)
            R.colorings_limit_series(6, 8)

        run()
        calls = []
        for fn in ("qpoly_gcd", "qpoly_gcd_cofactors"):
            gcd = getattr(algebra, fn)
            monkeypatch.setattr(algebra, fn, lambda a, b, gcd=gcd: calls.append(1) or gcd(a, b))
        run()
        assert not calls


class TestConjectures:
    def test_corolla_denominator_small(self):
        report = V.check_corolla_denominator(8)
        assert report.ok(), report.witness

    def test_newton_single_vertex_degenerate(self):
        assert V.check_newton(T.leaf()).ok()

    def test_newton_ex5_matches_profile(self):
        report = V.check_newton(EX5)
        assert report.ok(), report.witness
        assert V.newton_profile(EX5) == [(1, 1), (2, 2), (3, 2)]

    def test_newton_ex5_exact_hull(self):
        # hull of the golden five-vertex numerator, derived by hand:
        # bottom (0,0)-(10,0), right slope 1 to (15,5), top to (11,5), left
        # boundary down with slopes 1/3, 1/2, 1 through (5,3) and (1,1)
        from arborq.algebra import newton_polygon

        num, _den = S.pawn_fraction(EX5)
        assert newton_polygon(num).vertices == (
            (0, 0), (10, 0), (15, 5), (11, 5), (5, 3), (1, 1)
        )

    def test_newton_sweep_small(self):
        assert V.check_newton_sweep(6).ok()

    def test_newton_rejects_wrong_profile(self, monkeypatch):
        # the checker must not pass a polygon against a wrong histogram
        for t in (T.lnr(3), EX5):
            right = V.newton_profile(t)
            assert V.check_newton(t).ok()
            top = len(right)
            wrongs = [
                [(i, extent + (i == 1)) for i, extent in right],    # a level too wide
                [(i, extent + (i == top)) for i, extent in right],  # the top level too wide
                right[:-1],                                         # a level missing
                [*right, (top + 1, 1)],                             # a level too many
            ]
            for wrong in wrongs:
                monkeypatch.setattr(V, "newton_profile", lambda _t, wrong=wrong: wrong)
                report = V.check_newton(t)
                assert report.status == "fail" and report.witness["reason"], wrong
                monkeypatch.undo()

    def test_newton_spot_checks_beyond_sweep(self):
        # ten-vertex trees are cheap one at a time thanks to lazy solving
        for t in (T.crl(9), T.partition_tree((2, 2, 2)), T.b_plus([T.crl(2)] * 3)):
            assert V.check_newton(t).ok(), T.encoding(t)

    def test_partition_conjecture(self):
        assert V.check_partition_conjecture((), 3).ok()
        assert V.check_partition_conjecture((1,), 3).ok()
        with pytest.raises(ValueError):
            V.check_partition_conjecture((3, 2), 5, order_cap=12)

    def test_partition_even_k_not_asserted(self):
        # the conjecture is stated for odd k >= 3 only; any other k raises
        # instead of reporting a FAIL outside the statement
        for k in (1, 2, 4):
            with pytest.raises(ValueError, match="k must be odd and >= 3"):
                V.check_partition_conjecture((1,), k, order_cap=12)

    @pytest.mark.parametrize("k", [0, -1])
    def test_partition_rejects_k_below_one(self, k):
        # k < 1 grafts no copy and would test the single vertex
        with pytest.raises(ValueError, match="k must be odd and >= 3"):
            V.check_partition_conjecture((1,), k)

    @pytest.mark.parametrize(
        "sweep, args, message",
        [
            ("check_corolla_denominator", (-1,), "max_n must be >= 0"),
            ("check_newton_sweep", (0,), "max_size must be >= 1"),
            ("check_newton_sweep", (-3,), "max_size must be >= 1"),
            ("check_partition_conjecture", ((1,), 3, 0), "order_cap must be >= 1"),
            ("check_partition_conjecture", ((1,), 3, -5), "order_cap must be >= 1"),
        ],
    )
    def test_sweeps_that_would_check_nothing_raise(self, sweep, args, message):
        with pytest.raises(ValueError, match=message):
            getattr(V, sweep)(*args)


class TestRandomSeries:
    def test_seed_reproducibility(self):
        assert V.random_series(4, 7).coeffs == V.random_series(4, 7).coeffs
        assert V.random_series(4, 7).coeffs != V.random_series(4, 8).coeffs
