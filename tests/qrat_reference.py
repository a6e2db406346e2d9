"""QRat references for the paths that now run on the engine numerators N_T.

These are the earlier Q(q) implementations of the x-checks, of pawn_at and
of the specializations at x = -1/q and x = 1/(1 - q): every value is a
reduced QRat and every step a gcd-reduced QRat operation.  The tests compare
the integer identities of verify and solvers against them, and the exponent
lcm of algebra.xpoly_denominator against the gcd lcm (qpoly_lcm).
"""

from __future__ import annotations

from arborq import solvers as sv
from arborq import trees as tr
from arborq import verify as V
from arborq.algebra import (
    QPoly,
    QRAT_ONE,
    QRAT_Q,
    QRat,
    XPOLY_ONE,
    XPoly,
    one_plus_qx,
    q_int_poly,
    q_integer,
    qpoly_gcd_cofactors,
    qrat_sum,
)
from arborq.series import TreeSeries, series_equal_reports


def qpoly_lcm(a: QPoly, b: QPoly) -> QPoly:
    """The monic lcm of a and b, through their gcd."""
    if a.is_zero() or b.is_zero():
        return QPoly()
    return (a * qpoly_gcd_cofactors(a, b)[2]).monic()


def eval_pawn_at_qint(series: TreeSeries, n: int) -> TreeSeries:
    """Substitute x -> [n]_q in every coefficient (n may be negative)."""
    x0 = q_integer(n)
    return series.map_coeffs(lambda _t, f: f.evaluate(x0), ring="qrat")


def limit_minus_one_over_q(series: TreeSeries) -> TreeSeries:
    """Divide every coefficient by (1+qx) exactly, then evaluate at x = -1/q."""
    def lim(_t, f: XPoly) -> QRat:
        return f.exact_div(one_plus_qx()).evaluate(sv.MINUS_ONE_OVER_Q)

    return series.map_coeffs(lim, ring="qrat")


_PAWN_AT: dict[tuple[QRat, int], QRat] = {}


def specialized_pawn_coeff(x0: QRat, t: int) -> QRat:
    """Re-solve the recursion with x pre-substituted by x0 (same shape)."""
    key = (x0, t)
    cached = _PAWN_AT.get(key)
    if cached is not None:
        return cached
    n = tr.size(t)
    if n == 1:
        val = QRAT_ONE + QRAT_Q * x0
    else:
        terms = []
        for (rest, removed), count in tr.prune_leaf_subsets(t, proper_only=True).items():
            c = -count if removed % 2 else count
            terms.append(specialized_pawn_coeff(x0, rest) * c)
        prod = QRAT_ONE
        for c in tr.children(t):
            prod = prod * specialized_pawn_coeff(x0, c)
        qn = QPoly.q_power(n)
        terms.append(prod * QRat(qn) * (QRAT_ONE + QRat(QPoly((-1, 1))) * x0))
        val = qrat_sum(terms) / QRat(qn - 1)
    _PAWN_AT[key] = val
    return val


def solve_pawn_specialized(x0: QRat, order: int) -> TreeSeries:
    coeffs = {}
    for n in range(1, order + 1):
        for t in tr.enumerate_trees(n):
            coeffs[t] = specialized_pawn_coeff(x0, t)
    return TreeSeries(order, "qrat", coeffs)


# ---------------------------------------------------------------------------
# The six x-checks in Q(q)


def check_valeur_n_positif(report, max_order, n_range=(0, 4)):
    pawn = sv.solve_pawn(max_order)
    for n in range(n_range[0], n_range[1] + 1):
        got = eval_pawn_at_qint(pawn, n)
        want = sv.coloring_series(max_order, n, "weak")
        bad = series_equal_reports(got, want)
        if bad:
            return V._fail(report, n=n, tree=tr.encoding(bad[0]),
                           got=got.coeff(bad[0]), want=want.coeff(bad[0]))
    return report


def check_valeur_n_negatif(report, max_order, n_range=(2, 4)):
    pawn = sv.solve_pawn(max_order)
    for n in range(n_range[0], n_range[1] + 1):
        ev = eval_pawn_at_qint(pawn, -n)
        for t in tr.trees_upto(max_order):
            m = tr.size(t)
            got = ev.coeff(t).reciprocal_q()
            g = sv.coloring_poly(t, n - 2, "strict")
            want = QRat(g.shift(m).scale(1 if m % 2 == 0 else -1))
            if got != want:
                return V._fail(report, n=n, tree=tr.encoding(t), got=got, want=want)
    return report


def check_valeur_speciale(report, max_order):
    got = limit_minus_one_over_q(sv.solve_pawn(max_order))
    want = sv.solve_omega_bar(max_order)
    bad = series_equal_reports(got, want)
    if bad:
        return V._fail(report, tree=tr.encoding(bad[0]),
                       got=got.coeff(bad[0]), want=want.coeff(bad[0]))
    return report


def check_action_delta(report, max_order):
    for t in tr.trees_upto(max_order):
        prod = XPOLY_ONE
        for c in tr.children(t):
            prod = prod * sv.pawn_coeff(c)
        want = prod.subst_x_linear(QRAT_ONE, QRAT_Q).scale(QRAT_Q)
        got = sv.hahn_delta(sv.pawn_coeff(t))
        if got != want:
            return V._fail(report, tree=tr.encoding(t), got=got, want=want)
    return report


def check_facteurs_connus(report, max_order):
    for t in tr.trees_upto(max_order):
        prod = XPOLY_ONE
        for i in range(1, tr.height(t) + 1):
            prod = prod * XPoly((q_int_poly(i), QPoly.q_power(i)))
        _, rem = divmod(sv.pawn_coeff(t), prod)
        if not rem.is_zero():
            return V._fail(report, tree=tr.encoding(t), remainder=rem)
    return report


def check_x_infinity(report, max_order):
    for t in tr.trees_upto(max_order):
        f = sv.pawn_coeff(t)
        n = tr.size(t)
        if f.degree != n:
            return V._fail(report, tree=tr.encoding(t), degree=f.degree, size=n)
        if f.coeff(n) != tr.q_factorial(t).inverse():
            return V._fail(report, tree=tr.encoding(t), leading=f.coeff(n),
                           inverse_q_factorial=tr.q_factorial(t).inverse())
    return report


CHECKS = {
    "valeur_n_positif": check_valeur_n_positif,
    "valeur_n_negatif": check_valeur_n_negatif,
    "valeur_speciale": check_valeur_speciale,
    "action_delta": check_action_delta,
    "facteurs_connus": check_facteurs_connus,
    "x_infinity": check_x_infinity,
}
