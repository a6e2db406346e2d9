"""Independent oracles and checkers.

The oracles here never touch the tree-series machinery: they enumerate raw
colorings / vertex subsets / permutations over the canonical labeled
representative, so agreement with the algebraic recursions is a genuine
cross-check.  Each named check returns a CheckReport; a failing report always
carries a serializable witness.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .algebra import (
    QPoly,
    QRAT_Q,
    XPOLY_ONE,
    XPoly,
    convex_hull_chains,
    cyclotomic,
    cyclotomic_product,
    q_factorial_exponents,
    q_factorial_quotient,
    qrat_over,
    xpoly_denominator,
    zpoly_add_scaled,
    zpoly_mul,
    zpoly_trim,
    zxpoly_div_x_minus,
    zxpoly_divmod_one_plus_qx,
    zxpoly_eval,
    zxpoly_mul,
    zxpoly_subst_one_plus_qx,
    zxpoly_support,
    zxpoly_trim,
)
from . import solvers as sv
from . import trees as tr
from .series import (
    TreeSeries,
    diamond_crls,
    sharp,
    series_equal_reports,
    suspension,
    unit_vertex,
)

DEFAULT_COLORING_BOUND = 9
DEFAULT_INTERPOLATION_BOUND = 7

Q_TIMES_QM1 = QPoly((0, -1, 1))  # q(q-1)


class CheckReport:
    """The outcome of one named check: "pass" until a failure sets the
    status and a witness; seconds is filled in when the check finishes."""

    __slots__ = ("name", "params", "status", "witness", "seconds")

    def __init__(self, name: str, params: dict | None = None):
        self.name = name
        self.params = {} if params is None else params
        self.status = "pass"
        self.witness: dict | None = None
        self.seconds = 0.0

    def ok(self) -> bool:
        return self.status == "pass"

    def to_obj(self) -> dict:
        out = {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "seconds": round(self.seconds, 4),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _finish(report: CheckReport, t0: float) -> CheckReport:
    report.seconds = time.perf_counter() - t0
    return report


def _fail(report: CheckReport, **witness) -> CheckReport:
    report.status = "fail"
    report.witness = {k: str(v) for k, v in witness.items()}
    return report


# ---------------------------------------------------------------------------
# Oracles


def oracle_colorings(t: int, n: int, mode: str = "weak", bound: int = DEFAULT_COLORING_BOUND) -> QPoly:
    """Brute-force coloring polynomial: walk the canonical representative and
    enumerate every decreasing coloring by {0..n}, summing q^(sum of colors)."""
    if tr.size(t) > bound:
        raise ValueError(f"tree size {tr.size(t)} exceeds brute-force bound {bound}")
    if mode not in ("weak", "strict"):
        raise ValueError(f"unknown coloring mode {mode!r}")
    if n < 0:
        return QPoly()
    parents = tr.parent_array(t)
    nv = len(parents)
    counts = [0] * (n * nv + 1)
    colors = [0] * nv

    def walk(v: int, sigma: int):
        top = n if v == 0 else (colors[parents[v]] - (0 if mode == "weak" else 1))
        if v == nv - 1:  # the last vertex in preorder is a leaf: count its colors at once
            counts[sigma:sigma + top + 1] = [c + 1 for c in counts[sigma:sigma + top + 1]]
            return
        for c in range(0, top + 1):
            colors[v] = c
            walk(v + 1, sigma + c)

    walk(0, 0)
    return QPoly(counts)


def oracle_interpolate_pawn(t: int, bound: int = DEFAULT_INTERPOLATION_BOUND) -> XPoly:
    """Recover the coefficient of t by Lagrange interpolation in x through the
    nodes ([m]_q, v_m) for m = 0..n, n = #t, where v_m is the weak coloring
    polynomial by {0..m} from the raw coloring oracle.

    Fraction-free: [m]_q - [j]_q is q^j [m-j]_q for j < m and -q^m [j-m]_q
    for j > m, so prod_{j != m} ([m]_q - [j]_q) = (-1)^(n-m) q^e_m [m]_q!
    [n-m]_q! with e_m = m(m-1)/2 + m(n-m).  Over the common denominator
    q^K [n]_q!, K = max e_m = n(n-1)/2, the numerator is

        N(x) = sum_m (-1)^(n-m) q^(K-e_m) binom(n, m)_q v_m(q) W(x) / (x - [m]_q)

    in Z[q][x], with W = prod_j (x - [j]_q) built once and each quotient an
    exact synthetic division.  Each x-coefficient of N is reduced at the end
    by algebra.qrat_over with the pairs (0, K) and those of [n]_q!, which
    cancels its power of q and the Phi_d it shares with q^K [n]_q!, so no gcd
    runs.
    """
    n = tr.size(t)
    if n > bound:
        raise ValueError(f"tree size {n} exceeds interpolation bound {bound}")
    nodes = [(1,) * m for m in range(n + 1)]
    w: tuple = ((1,),)
    for r in nodes:
        w = zxpoly_mul(w, (tuple(-c for c in r), (1,)))
    top = n * (n - 1) // 2
    num = [[] for _ in range(n + 1)]
    for m, r in enumerate(nodes):
        weight = zpoly_mul(q_factorial_quotient(n, (m, n - m)),
                           oracle_colorings(t, m, "weak", bound=bound + 1).ints)
        shift = top - (m * (m - 1) // 2 + m * (n - m))
        sign = -1 if (n - m) % 2 else 1
        for acc, c in zip(num, zxpoly_div_x_minus(w, r)):
            zpoly_add_scaled(acc, zpoly_mul(weight, c), sign, shift)
    exps = ((0, top),) + q_factorial_exponents(n)
    return XPoly([qrat_over(c, exps) for c in num])


def random_series(order: int, seed: int, lo: int = -3, hi: int = 3) -> TreeSeries:
    """Seeded random series with small integer coefficients (rational ring)."""
    rng = random.Random(seed)
    coeffs = {t: Fraction(rng.randint(lo, hi)) for t in tr.trees_upto(order)}
    return TreeSeries(order, "rational", coeffs)


# ---------------------------------------------------------------------------
# Theorem checks


def _pawn_numerators(max_order: int):
    """(t, #t, N_t) for every tree up to max_order, N_t = [#t]_q! P_t."""
    for t in tr.trees_upto(max_order):
        yield t, tr.size(t), sv.pawn_numerator(t)


def _shift(p: tuple, k: int) -> tuple:
    return (0,) * k + p if p else p


def _as_xpoly(p: tuple) -> XPoly:
    return XPoly([QPoly(c) for c in p])


# The x-statements below are identities in Z[q] on the engine numerators N_T:
# each side is multiplied out by [#T]_q! and the powers of q the node needs,
# so the checks run without QRat and without a gcd.


def _check_valeur_n_positif(report, max_order, n_range=(0, 4), **_):
    # P_T([n]_q) = F_n(T), the weak coloring polynomial by {0..n}
    for n in range(n_range[0], n_range[1] + 1):
        for t, size, num in _pawn_numerators(max_order):
            got = zxpoly_eval(num, (1,) * n)
            want = zpoly_mul(q_factorial_quotient(size, ()), sv.coloring_poly(t, n, "weak").ints)
            if got != want:
                return _fail(report, n=n, tree=tr.encoding(t), got=QPoly(got), want=QPoly(want))
    return report


def _check_valeur_n_negatif(report, max_order, n_range=(2, 4), **_):
    # P_T([-n]_q) at q -> 1/q is (-1)^#T q^#T G_(n-2)(T), G the strict
    # coloring polynomial.  q -> 1/q sends [-n]_q to -q [n]_q and N_j to
    # q^-D rev(N_j), D the common q-degree, and [k]_q! to q^(-k(k-1)/2) [k]_q!
    for n in range(n_range[0], n_range[1] + 1):
        node = (0,) + (-1,) * n
        for t, size, num in _pawn_numerators(max_order):
            top = max(map(len, num), default=0)
            rev = [zpoly_trim((c + (0,) * (top - len(c)))[::-1]) for c in num]
            got = _shift(zxpoly_eval(rev, node), size * (size - 1) // 2)
            g = sv.coloring_poly(t, n - 2, "strict").ints
            want = _shift(zpoly_mul(q_factorial_quotient(size, ()), g), top - 1 + size)
            if size % 2:
                want = tuple(-c for c in want)
            if got != want:
                return _fail(report, n=n, tree=tr.encoding(t), got=QPoly(got), want=QPoly(want))
    return report


def _check_valeur_speciale(report, max_order, **_):
    # (P_T / (1 + qx)) at x = -1/q is the omega_bar coefficient of T
    for t, _size, num in _pawn_numerators(max_order):
        quot, rem = zxpoly_divmod_one_plus_qx(num)
        if rem:
            return _fail(report, tree=tr.encoding(t), reason="N_T is not divisible by 1 + qx",
                         got=QPoly(rem), want=0)
        d = len(quot) - 1
        got = zxpoly_eval(quot, (-1,), (0, 1))
        bar = sv.omega_bar_numerator(t)
        want = _shift(bar[0] if bar else (), d)
        if got != want:
            return _fail(report, tree=tr.encoding(t), got=QPoly(got), want=QPoly(want))
    return report


def _check_prop_gen(report, max_order, **_):
    e_ones = sv.series_E(max_order).map_coeffs(lambda _t, _v: Fraction(1), ring="rational")
    minus_dot = unit_vertex(Fraction(-1), max_order, "rational")
    for seed in (11, 22, 33):
        a = random_series(max_order, seed)
        got = diamond_crls(diamond_crls(a, e_ones), minus_dot)
        bad = series_equal_reports(got, a)
        if bad:
            return _fail(report, seed=seed, tree=tr.encoding(bad[0]),
                         got=got.coeff(bad[0]), want=a.coeff(bad[0]))
    # divisibility seen in the proof: coefficients of Crls<>(E, k dot) are
    # divisible by k+1 on every tree with a removable leaf (size >= 2; the
    # single vertex always carries 1, matching Crls<>(E, -dot) = dot)
    div_order = min(max_order, 7)
    e7 = sv.series_E(div_order).map_coeffs(lambda _t, _v: Fraction(1), ring="rational")
    for k in range(1, 6):
        s = diamond_crls(e7, unit_vertex(Fraction(k), div_order, "rational"))
        for t, v in s.items():
            if tr.size(t) >= 2 and (v.denominator != 1 or v.numerator % (k + 1)):
                return _fail(report, k=k, tree=tr.encoding(t), value=v)
    return report


def _check_action_delta(report, max_order, **_):
    # P_T(1+qx) - P_T(x) = q (1 + (q-1)x) prod_c P_c(1+qx), c the root
    # branches; [#T]_q! / prod_c [#c]_q! is [#T]_q times a q-multinomial
    for t, size, num in _pawn_numerators(max_order):
        got = [list(c) for c in zxpoly_subst_one_plus_qx(num)]
        for j, c in enumerate(num):
            zpoly_add_scaled(got[j], c, -1)
        got = zxpoly_trim(got)
        kids = tr.children(t)
        scale = zpoly_mul((1,) * size, q_factorial_quotient(size - 1, tuple(map(tr.size, kids))))
        prod = ((0, 1), (0, -1, 1))
        for c in kids:
            prod = zxpoly_mul(prod, zxpoly_subst_one_plus_qx(sv.pawn_numerator(c)))
        want = tuple(zpoly_mul(p, scale) for p in prod)
        if got != want:
            return _fail(report, tree=tr.encoding(t), got=_as_xpoly(got), want=_as_xpoly(want))
    return report


def _check_ombral_iti(report, max_order, **_):
    for t in tr.trees_upto(max_order):
        prod = XPOLY_ONE
        for c in tr.children(t):
            prod = prod * sv.pawn_coeff(c)
        if sv.omega_bar_coeff(t) != sv.psi_umbral(prod):
            return _fail(report, tree=tr.encoding(t),
                         omega_bar=sv.omega_bar_coeff(t), umbral=sv.psi_umbral(prod))
    return report


def _check_ombral_nui(report, max_order, **_):
    for t in tr.trees_upto(max_order):
        prod = XPOLY_ONE
        for c in tr.children(t):
            prod = prod * sv.pawn_coeff(c)
        got = sv.psi_umbral(prod * XPoly((0, -1)))
        want = sv.omega_bar_coeff(tr.b_plus([t]))
        if got != want:
            return _fail(report, tree=tr.encoding(t), grafted=tr.encoding(tr.b_plus([t])),
                         got=got, want=want)
    return report


def _check_facteurs_connus(report, max_order, **_):
    # [i]_q + q^i x divides P_T for i = 1..height(T): N_T vanishes at the
    # distinct roots x = -[i]_q / q^i
    for t, _size, num in _pawn_numerators(max_order):
        for i in range(1, tr.height(t) + 1):
            got = zxpoly_eval(num, (-1,) * i, (0,) * i + (1,))
            if got:
                return _fail(report, tree=tr.encoding(t), i=i, got=QPoly(got), want=0)
    return report


def _check_x_infinity(report, max_order, **_):
    # P_T has x-degree #T with top coefficient q^(sum s_v) / prod_v [s_v]_q,
    # s_v the subtree sizes: the inverse of the tree's q-factorial
    for t, size, num in _pawn_numerators(max_order):
        if len(num) - 1 != size:
            return _fail(report, tree=tr.encoding(t), degree=len(num) - 1, size=size)
        sizes = tr.tree_stats(t).subtree_sizes
        got = num[size]
        for s_v in sizes:
            got = zpoly_mul(got, (1,) * s_v)
        want = _shift(q_factorial_quotient(size, ()), sum(sizes))
        if got != want:
            return _fail(report, tree=tr.encoding(t), got=QPoly(got), want=QPoly(want))
    return report


def _check_q1_no_pole(report, max_order, **_):
    try:
        z = sv.pawn_q1_limit(max_order)
    except Exception as exc:  # a residual pole is a failure, not a crash
        return _fail(report, error=exc)
    if z.coeff(tr.leaf()) != XPoly((1, 1)):
        return _fail(report, degree_one_term=z.coeff(tr.leaf()))
    return report


def _check_fbar_vs_cover(report, max_order, **_):
    for t in tr.trees_upto(max_order):
        ftype = sv.fbar_type(t)
        cover = tr.min_vertex_covers_root(t)
        if (ftype == 1) != cover.root_in_some:
            return _fail(report, tree=tr.encoding(t), fbar=ftype, cover=cover)
        val = sv.coloring_poly(t, 1, "weak").evaluate(Fraction(-1))
        if val != ftype:
            return _fail(report, tree=tr.encoding(t), fbar=ftype, coloring_at_minus_one=val)
    return report


def _check_sharp_reformulation(report, max_order, **_):
    pawn = sv.solve_pawn(max_order)
    q_scalar = XPoly.const(QRAT_Q)
    scal = XPoly((QPoly.q_power(1), Q_TIMES_QM1))
    qsp = suspension(pawn, q_scalar).scale(q_scalar)
    lhs = sharp(unit_vertex(XPoly((-1,)), max_order, "xpoly"), pawn)
    rhs = sharp(qsp, unit_vertex(-scal, max_order, "xpoly"))
    bad = series_equal_reports(lhs, rhs)
    if bad:
        return _fail(report, tree=tr.encoding(bad[0]),
                     lhs=lhs.coeff(bad[0]), rhs=rhs.coeff(bad[0]))
    return report


def _check_associativity(report, max_order, **_):
    # the nesting law satisfied by the counting semantics, and the
    # equivalent associativity of the # product
    for seed in (5, 6, 7):
        a = random_series(max_order, seed)
        b = random_series(max_order, seed + 1000)
        c = random_series(max_order, seed + 2000)
        lhs = diamond_crls(diamond_crls(a, b), c)
        rhs = diamond_crls(a, c.add(diamond_crls(b, c)))
        bad = series_equal_reports(lhs, rhs)
        if bad:
            return _fail(report, law="nested insertion", seed=seed,
                         tree=tr.encoding(bad[0]),
                         lhs=lhs.coeff(bad[0]), rhs=rhs.coeff(bad[0]))
        lhs2 = sharp(sharp(a, b), c)
        rhs2 = sharp(a, sharp(b, c))
        bad = series_equal_reports(lhs2, rhs2)
        if bad:
            return _fail(report, law="sharp", seed=seed, tree=tr.encoding(bad[0]),
                         lhs=lhs2.coeff(bad[0]), rhs=rhs2.coeff(bad[0]))
    return report


def _check_suspension_formula(report, max_order, **_):
    for seed in (9, 10):
        b = random_series(max_order, seed)
        c = random_series(max_order, seed + 500)
        for alpha in (Fraction(2), Fraction(-1, 3)):
            lhs = suspension(diamond_crls(b, c), alpha)
            rhs = diamond_crls(suspension(b, alpha), suspension(c, alpha).scale(alpha))
            bad = series_equal_reports(lhs, rhs)
            if bad:
                return _fail(report, seed=seed, alpha=alpha, tree=tr.encoding(bad[0]),
                             lhs=lhs.coeff(bad[0]), rhs=rhs.coeff(bad[0]))
    return report


def _check_oracle_colorings(report, max_order, n_range=(0, 3),
                            bound=DEFAULT_COLORING_BOUND, **_):
    for t in tr.trees_upto(min(max_order, bound)):
        for n in range(n_range[0], n_range[1] + 1):
            for mode in ("weak", "strict"):
                got = sv.coloring_poly(t, n, mode)
                want = oracle_colorings(t, n, mode, bound=bound)
                if got != want:
                    return _fail(report, tree=tr.encoding(t), n=n, mode=mode,
                                 recursion=got, oracle=want)
    return report


def _check_oracle_interpolation(report, max_order, bound=DEFAULT_INTERPOLATION_BOUND, **_):
    for t in tr.trees_upto(min(max_order, bound)):
        got = sv.pawn_coeff(t)
        want = oracle_interpolate_pawn(t, bound=bound)
        if got != want:
            return _fail(report, tree=tr.encoding(t), solver=got, interpolated=want)
    return report


# name -> (check, default max_order), in the order verify runs them
_THEOREMS = {
    "valeur_n_positif": (_check_valeur_n_positif, 6),
    "valeur_n_negatif": (_check_valeur_n_negatif, 6),
    "valeur_speciale": (_check_valeur_speciale, 6),
    "prop_gen": (_check_prop_gen, 6),
    "action_delta": (_check_action_delta, 6),
    "ombral_iti": (_check_ombral_iti, 7),
    "ombral_nui": (_check_ombral_nui, 7),
    "facteurs_connus": (_check_facteurs_connus, 8),
    "x_infinity": (_check_x_infinity, 8),
    "q1_no_pole": (_check_q1_no_pole, 6),
    "fbar_vs_cover": (_check_fbar_vs_cover, 9),
    "sharp_reformulation": (_check_sharp_reformulation, 5),
    "associativity": (_check_associativity, 5),
    "suspension_formula": (_check_suspension_formula, 6),
    "oracle_colorings": (_check_oracle_colorings, 7),
    "oracle_interpolation": (_check_oracle_interpolation, 7),
}

THEOREM_NAMES = tuple(_THEOREMS)


def theorem_param_error(name: str, max_order: int | None = None,
                        n_range: tuple[int, int] | None = None,
                        bound: int | None = None) -> tuple[str, str] | None:
    """(parameter, reason) when check `name` would check nothing under these
    parameters, or check outside its statement; None when they are fine.
    A parameter left as None takes the check's default, which is fine."""
    if max_order is not None and max_order < 1:
        return "max_order", f"must be >= 1, got {max_order}"
    if bound is not None and bound < 1:
        return "bound", f"must be >= 1, got {bound}"
    if n_range is not None:
        lo, hi = n_range
        if lo < 0:
            return "n_range", f"must start at >= 0, got {lo}..{hi}"
        if lo > hi:
            return "n_range", f"empty range {lo}..{hi}"
        # valeur_n_negatif states an identity at [-n]_q for n >= 1 only
        if lo < 1 and name == "valeur_n_negatif":
            return "n_range", "valeur_n_negatif needs n >= 1"
    return None


def check_theorem(name: str, max_order: int | None = None, *,
                  n_range: tuple[int, int] | None = None,
                  bound: int | None = None) -> CheckReport:
    """Run one named equality/divisibility sweep and report.

    n_range and bound, when given, reach the checks that take them (the
    others take them as **_).  Raises ValueError for an unknown name and for
    parameters that theorem_param_error rejects, so no sweep passes after
    checking nothing.
    """
    if name not in _THEOREMS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(THEOREM_NAMES)}")
    fn, default_order = _THEOREMS[name]
    if max_order is None:
        max_order = default_order
    kwargs = {k: v for k, v in (("n_range", n_range), ("bound", bound)) if v is not None}
    bad = theorem_param_error(name, max_order, n_range, bound)
    if bad is not None:
        raise ValueError(f"{name}: {bad[0]} {bad[1]}")
    t0 = time.perf_counter()
    report = CheckReport(name=name, params={"max_order": max_order, **kwargs})
    return _finish(fn(report, max_order, **kwargs), t0)


# ---------------------------------------------------------------------------
# Conjecture checkers


def check_corolla_denominator(max_n: int, progress=None) -> CheckReport:
    """Denominator of the n-corolla coefficient should be prod_{d=2..n+1} Phi_d."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    t0 = time.perf_counter()
    report = CheckReport("corolla_denominator", {"max_n": max_n})
    for n in range(0, max_n + 1):
        if progress:
            progress(f"corolla {n}/{max_n}")
        try:
            exps = xpoly_denominator(sv.pawn_corolla(n))
        except ValueError as exc:  # a denominator that is not q^a prod Phi_d^e
            return _finish(_fail(report, n=n, denominator=exc), t0)
        if exps != tuple((d, 1) for d in range(2, n + 2)):
            return _finish(_fail(report, n=n, denominator=cyclotomic_product(exps),
                                 factors=dict(exps)), t0)
    return _finish(report, t0)


def newton_profile(t: int):
    """Expected left-boundary profile: (i, vertical extent) for i = 1..height."""
    st = tr.tree_stats(t)
    return [(i, st.height_histogram[i]) for i in range(1, st.height + 1)]


def check_newton(t: int) -> CheckReport:
    """Shape check of the numerator's Newton polygon: horizontal top and
    bottom edges at x-degrees #T and 0, a single slope-1 right edge, and a
    left boundary made of slope-1/i segments whose vertical extents are the
    height counts, bottom to top.  Offsets are taken from the hull itself."""
    t0 = time.perf_counter()
    report = CheckReport("newton", {"tree": tr.encoding(t)})
    num, _den = sv.pawn_fraction(t)
    pts = zxpoly_support(num)
    lower, upper = convex_hull_chains(pts)
    n = tr.size(t)
    xs = [x for (_q, x) in pts]
    hull = {"lower": lower, "upper": upper}
    if min(xs) != 0 or max(xs) != n:
        return _finish(_fail(report, reason="x-degree range", hull=hull,
                             x_min=min(xs), x_max=max(xs), size=n), t0)
    # bottom + right: an optional horizontal edge, then one slope-1 edge
    edges = list(zip(lower, lower[1:]))
    if edges and edges[0][1][1] == edges[0][0][1]:
        edges = edges[1:]
    if len(edges) != 1:
        return _finish(_fail(report, reason="right boundary is not a single edge",
                             hull=hull), t0)
    (aq, ax), (bq, bx) = edges[0]
    if not (ax == 0 and bx == n and (bq - aq) == (bx - ax)):
        return _finish(_fail(report, reason="right boundary slope", hull=hull), t0)
    # left + top, walked bottom to top
    walk = list(reversed(upper))
    if walk[0][1] != 0:
        return _finish(_fail(report, reason="left boundary does not start at x-degree 0",
                             hull=hull), t0)
    expected = newton_profile(t)
    pos = 0
    for i, extent in expected:
        if pos + 1 >= len(walk):
            return _finish(_fail(report, reason="left boundary too short", hull=hull), t0)
        (cq, cx), (dq, dx) = walk[pos], walk[pos + 1]
        if (dx - cx, dq - cq) != (extent, i * extent):
            return _finish(_fail(report, reason=f"left segment for slope 1/{i}",
                                 expected=(i * extent, extent),
                                 got=(dq - cq, dx - cx), hull=hull), t0)
        pos += 1
    rest = walk[pos:]
    if len(rest) > 2 or (len(rest) == 2 and rest[0][1] != rest[1][1]):
        return _finish(_fail(report, reason="top boundary not horizontal", hull=hull), t0)
    return _finish(report, t0)


def check_newton_sweep(max_size: int, progress=None) -> CheckReport:
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    t0 = time.perf_counter()
    report = CheckReport("newton_sweep", {"max_size": max_size})
    for n in range(1, max_size + 1):
        if progress:
            progress(f"polygons for size {n}/{max_size} ({len(tr.enumerate_trees(n))} trees)")
        for t in tr.enumerate_trees(n):
            sub = check_newton(t)
            if not sub.ok():
                report.status = sub.status
                report.witness = sub.witness
                return _finish(report, t0)
    return _finish(report, t0)


def check_partition_conjecture(lam, k: int, order_cap: int = 12) -> CheckReport:
    """For odd k >= 3, the base-series coefficient of k copies of the
    partition-shaped tree grafted on a root should have a numerator divisible
    by Phi_{1 + max part}.  Any other k is outside the statement and raises."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")
    if order_cap < 1:
        raise ValueError(f"order_cap must be >= 1, got {order_cap}")
    t0 = time.perf_counter()
    lam = tuple(lam)
    report = CheckReport("partition", {"lambda": list(lam), "k": k, "order_cap": order_cap})
    nverts = 1 + k * (1 + sum(lam))
    if nverts > order_cap:
        raise ValueError(f"tree has {nverts} vertices, above the cap {order_cap}")
    base = tr.partition_tree(lam)
    t = tr.b_plus([base] * k)
    coeff = sv.omega_coeff(t)
    phi = cyclotomic(1 + (max(lam) if lam else 0))
    _, rem = divmod(coeff.num, phi)
    if not rem.is_zero():
        return _finish(_fail(report, tree=tr.encoding(t), coefficient=coeff,
                             modulus=phi, remainder=rem), t0)
    return _finish(report, t0)
