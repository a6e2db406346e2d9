"""QRat references: the Q(q) routes the tests compare the engine against.

These are the earlier Q(q) implementations of the x-checks, of the
#-product reformulation, of the umbral checks with Carlitz's q-Bernoulli
numbers and the form psi, of pawn_at, of the limit at q = 1 and of the
specializations at x = -1/q and x = 1/(1 - q), the closed form of the linear
trees, the other construction of omega_bar, and the XPoly operations they
need (the substitution x -> 1 + qx, long division and the divided difference
Delta).
Every value is a reduced QRat and every step a gcd-reduced QRat operation.
The tests compare the integer identities of verify and solvers against
them, and the exponent lcm of algebra.xpoly_denominator against the gcd lcm
(qpoly_lcm).  No command or check runs any of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from arborq import solvers as sv
from arborq import trees as tr
from arborq import verify as V
from arborq.algebra import (
    ExactDivisionError,
    PoleError,
    Q,
    QPOLY_ONE,
    QPoly,
    QRAT_ONE,
    QRAT_Q,
    QRAT_ZERO,
    QRat,
    QSeries,
    XPOLY_ONE,
    XPoly,
    one_plus_qx,
    q_factorial_exponents,
    q_int_poly,
    q_integer,
    qpoly_gcd_cofactors,
    qrat_over,
    qrat_sum,
    zxpoly_eval,
)
from arborq.series import TreeSeries, series_equal_reports, sharp, suspension, unit_vertex

MINUS_ONE_OVER_Q = QRat(QPoly.const(-1), Q)


# ---------------------------------------------------------------------------
# Polynomials in x over Q(q)


def subst_one_plus_qx(f: XPoly) -> XPoly:
    """f(1 + qx)."""
    acc = XPoly()
    for c in reversed(f.coeffs):
        acc = acc * one_plus_qx() + XPoly((c,))
    return acc


def xpoly_divmod(a: XPoly, b: XPoly) -> tuple[XPoly, XPoly]:
    """Long division in Q(q)[x]: (quot, rem) with a = quot * b + rem and
    deg rem < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    d = b.coeffs
    dd = len(d) - 1
    lead_inv = d[-1].inverse()
    quot = [QRAT_ZERO] * max(0, len(r) - dd)
    while r and len(r) - 1 >= dd:
        c = r[-1] * lead_inv
        shift = len(r) - 1 - dd
        quot[shift] = c
        for i, dc in enumerate(d):
            r[shift + i] = r[shift + i] - c * dc
        while r and r[-1].is_zero():
            r.pop()
    return XPoly(quot), XPoly(r)


def xpoly_exact_div(a: XPoly, b: XPoly) -> XPoly:
    quot, rem = xpoly_divmod(a, b)
    if not rem.is_zero():
        raise ExactDivisionError(f"{a} is not divisible by {b}")
    return quot


def hahn_delta(f: XPoly) -> XPoly:
    """(f(1+qx) - f(x)) / (1+qx-x); drops the degree by one and is linear."""
    return xpoly_exact_div(subst_one_plus_qx(f) - f, XPoly((1, QPoly((-1, 1)))))


# ---------------------------------------------------------------------------
# Closed forms and the other routes to the solvers' values


def solve_pawn(order: int) -> TreeSeries:
    """The pawn series to the given order, one reduced XPoly per tree."""
    return TreeSeries(order, "xpoly", {t: sv.pawn_coeff(t) for t in tr.trees_upto(order)})


@lru_cache(maxsize=None)
def bernoulli_carlitz(n: int) -> QRat:
    """Carlitz's q-Bernoulli numbers in QRat: b_0 = 1 and
      (q^(n+1) - 1) b_n = [n == 1] - q * sum_{j<n} C(n,j) q^j b_j.
    The omega engine solves the same recursion on the corollas."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return QRAT_ONE
    terms = [QRAT_ONE if n == 1 else QRAT_ZERO]
    for j in range(n):
        terms.append(bernoulli_carlitz(j) * QRat(QPoly.q_power(j + 1).scale(-math.comb(n, j))))
    return qrat_sum(terms) / QRat(QPoly.q_power(n + 1) - 1)


def psi_umbral(p: XPoly) -> QRat:
    """Linear form sending x^n to the n-th Bernoulli-Carlitz number."""
    return qrat_sum(c * bernoulli_carlitz(j) for j, c in enumerate(p.coeffs))


def pawn_q1_limit(order: int) -> TreeSeries:
    """Substitute q = 1 in every reduced coefficient.  A vanishing reduced
    denominator at q = 1 is an arithmetic bug and raises loudly."""
    def at_one(t, f: XPoly) -> XPoly:
        try:
            return f.map_coeffs(lambda c: QRat(QPoly.const(c.evaluate(Fraction(1)))))
        except PoleError as exc:
            raise PoleError(
                f"residual pole at q=1 on tree {tr.encoding(t)}: {exc}"
            ) from exc

    return solve_pawn(order).map_coeffs(at_one)


def pawn_linear(n: int) -> XPoly:
    """(1+qx) * prod_{i=2..n} ([i]_q + q^i x)/[i]_q, the coefficient of the
    linear tree on n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = one_plus_qx()
    for i in range(2, n + 1):
        out = out * XPoly((q_int_poly(i), QPoly.q_power(i))).scale(QRat(1, q_int_poly(i)))
    return out


def inverse_q_factorial(t: int) -> QRat:
    """q^(sum s_v) / prod_v [s_v]_q, s_v the subtree sizes of t: the inverse of
    the tree's q-factorial, which is the top x-coefficient of P_T."""
    sizes = tr.tree_stats(t).subtree_sizes
    den = QPOLY_ONE
    for s in sizes:
        den = den * q_int_poly(s)
    return QRat(QPoly.q_power(sum(sizes)), den)


def omega_bar_via_transform(t: int) -> QRat:
    """omega_bar_T through the other route: substitute q -> 1/q in the base
    series and apply the suspension by -1/q."""
    return sv.omega_coeff(t).reciprocal_q() * MINUS_ONE_OVER_Q ** (tr.size(t) - 1)


def graft_root_single(a: TreeSeries) -> TreeSeries:
    """Graft each tree of a onto a fresh root vertex: the coefficient of
    B+(T') is a_{T'}, and trees whose root has more than one child get zero.
    It states the solvers' recursions as series identities."""
    out = {}
    for t, v in a.coeffs.items():
        if tr.size(t) + 1 <= a.order:
            out[tr.b_plus([t])] = v
    return TreeSeries(a.order, a.ring, out)


def pawn_one_minus_q_inverse(k: int, series_order: int) -> QSeries:
    """Corolla coefficient at x = 1/(1-q), expanded as a power series in q.
    Equals the truncation of sum_{j>=1} q^(j-1) [j]_q^k."""
    x0 = QRat(QPOLY_ONE, QPoly((1, -1)))
    return sv.pawn_corolla(k).evaluate(x0).series(series_order)


def colorings_sum_series(k: int, series_order: int) -> QSeries:
    """Independent truncation of sum_{j>=1} q^(j-1) [j]_q^k."""
    total = [Fraction(0)] * (series_order + 1)
    for j in range(1, series_order + 2):
        term = (q_int_poly(j) ** k).shift(j - 1)
        for e, c in enumerate(term.coeffs[: series_order + 1]):
            total[e] += c
    return QSeries(total, series_order)


def colorings_limit_series(order: int, series_order: int) -> dict[int, QSeries]:
    """Every coefficient of the pawn series at x = 1/(1-q), read off N_T and
    expanded as a truncated q-series, by tree up to the order; the value of a
    tree is the generating series of all its weakly decreasing colorings."""
    def at_limit(t: int) -> QSeries:
        # (1 - q)^d N_T(1 / (1 - q)) over (1 - q)^d [#T]_q!, d the x-degree
        num = sv.pawn_numerator(t)
        d = len(num) - 1
        top = zxpoly_eval(num, (1,), (1, -1))
        if d % 2:
            top = tuple(-c for c in top)
        return qrat_over(top, ((1, d),) + q_factorial_exponents(tr.size(t))).series(series_order)

    return {t: at_limit(t) for t in tr.trees_upto(order)}


# ---------------------------------------------------------------------------
# The gcd lcm and the specializations in Q(q)


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
        return xpoly_exact_div(f, one_plus_qx()).evaluate(MINUS_ONE_OVER_Q)

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
    pawn = solve_pawn(max_order)
    for n in range(n_range[0], n_range[1] + 1):
        got = eval_pawn_at_qint(pawn, n)
        want = sv.coloring_series(max_order, n, "weak")
        bad = series_equal_reports(got, want)
        if bad:
            return V._fail(report, n=n, tree=tr.encoding(bad[0]),
                           got=got.coeff(bad[0]), want=want.coeff(bad[0]))
    return report


def check_valeur_n_negatif(report, max_order, n_range=(2, 4)):
    pawn = solve_pawn(max_order)
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
    got = limit_minus_one_over_q(solve_pawn(max_order))
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
        want = subst_one_plus_qx(prod).scale(QRAT_Q)
        got = hahn_delta(sv.pawn_coeff(t))
        if got != want:
            return V._fail(report, tree=tr.encoding(t), got=got, want=want)
    return report


def check_facteurs_connus(report, max_order):
    for t in tr.trees_upto(max_order):
        prod = XPOLY_ONE
        for i in range(1, tr.height(t) + 1):
            prod = prod * XPoly((q_int_poly(i), QPoly.q_power(i)))
        _, rem = xpoly_divmod(sv.pawn_coeff(t), prod)
        if not rem.is_zero():
            return V._fail(report, tree=tr.encoding(t), remainder=rem)
    return report


def check_x_infinity(report, max_order):
    for t in tr.trees_upto(max_order):
        f = sv.pawn_coeff(t)
        n = tr.size(t)
        if f.degree != n:
            return V._fail(report, tree=tr.encoding(t), degree=f.degree, size=n)
        if f.coeff(n) != inverse_q_factorial(t):
            return V._fail(report, tree=tr.encoding(t), leading=f.coeff(n),
                           inverse_q_factorial=inverse_q_factorial(t))
    return report


def check_sharp_reformulation(report, max_order):
    pawn = solve_pawn(max_order)
    q_scalar = XPoly.const(QRAT_Q)
    scal = XPoly((QPoly.q_power(1), QPoly((0, -1, 1))))  # q + q(q-1)x
    qsp = suspension(pawn, q_scalar).scale(q_scalar)
    lhs = sharp(unit_vertex(XPoly((-1,)), max_order, "xpoly"), pawn)
    rhs = sharp(qsp, unit_vertex(-scal, max_order, "xpoly"))
    bad = series_equal_reports(lhs, rhs)
    if bad:
        return V._fail(report, tree=tr.encoding(bad[0]),
                       got=lhs.coeff(bad[0]), want=rhs.coeff(bad[0]))
    return report


def _branch_product(t: int) -> XPoly:
    prod = XPOLY_ONE
    for c in tr.children(t):
        prod = prod * sv.pawn_coeff(c)
    return prod


def check_ombral_iti(report, max_order):
    for t in tr.trees_upto(max_order):
        got = psi_umbral(_branch_product(t))
        want = sv.omega_bar_coeff(t)
        if got != want:
            return V._fail(report, tree=tr.encoding(t), got=got, want=want)
    return report


def check_ombral_nui(report, max_order):
    for t in tr.trees_upto(max_order):
        got = psi_umbral(_branch_product(t) * XPoly((0, -1)))
        want = sv.omega_bar_coeff(tr.b_plus([t]))
        if got != want:
            return V._fail(report, tree=tr.encoding(t), grafted=tr.encoding(tr.b_plus([t])),
                           got=got, want=want)
    return report


CHECKS = {
    "valeur_n_positif": check_valeur_n_positif,
    "valeur_n_negatif": check_valeur_n_negatif,
    "valeur_speciale": check_valeur_speciale,
    "action_delta": check_action_delta,
    "facteurs_connus": check_facteurs_connus,
    "x_infinity": check_x_infinity,
    "sharp_reformulation": check_sharp_reformulation,
    "ombral_iti": check_ombral_iti,
    "ombral_nui": check_ombral_nui,
}
