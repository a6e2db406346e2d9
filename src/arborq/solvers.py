"""Solvers, specializations and coloring polynomials for the named tree series.

Everything here is driven by per-tree recursions obtained by extracting the
degree-n homogeneous component of the defining functional equations: the
unknown coefficient of a tree of size n appears on the left times q^n - 1,
the right side involves only smaller trees (leaf prunings and root
branches).  The tests re-derive each recursion by evaluating both sides of
the original equation with the tree-series primitives, so the derivations
themselves are guarded.

pawn, omega and omega_bar share one fraction-free engine.  It solves for
N_T = [n]_q! * value_T in Z[q][x], where [n]_q! clears every denominator of
a size-n tree.  Multiplied by [n-1]_q!, each recursion has integer
polynomials on the right and (q - 1) N_T on the left, so a tree costs one
exact division by q - 1 and no gcd.  Each N_T is held as one Python int, its
Kronecker packing, and read back as a zxpoly at the edge.  Each engine's
memo is the only store of its solved coefficients: pawn_coeff, omega_coeff
and omega_bar_coeff reduce N_T on every call and keep nothing.  Values meet
Q(q) only at that edge, through the one cyclotomic reduction,
algebra.divide_cyclotomics: qrat_over cancels the Phi_d of [n]_q! from each
x-coefficient of N_T, pawn_fraction from N_T as a whole, with no QRat at
all, and pawn_at from N_T at the node over q^a [n]_q!.

On the corolla crl(m) the omega recursion is Carlitz's recursion for his
q-Bernoulli numbers, (q^(m+1) - 1) b_m = [m = 1] - sum_{k<m} C(m,k) q^(k+1) b_k,
so omega_numerator(crl(m)) is [m+1]_q! b_m.  Only what a command or a check
runs lives here: the closed form of the linear trees and the older Q(q)
routes the tests compare the engine against are in tests/qrat_reference.py.

The per-tree solvers are demand-driven and memoized: asking for one
coefficient only computes the trees reachable from it by leaf pruning and
root-branch extraction, never a full enumeration by size.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .algebra import (
    QPOLY_ONE,
    QPoly,
    QRAT_ONE,
    QRAT_ZERO,
    QRat,
    XPOLY_ONE,
    XPOLY_ZERO,
    XPoly,
    as_qrat,
    cyclotomic_product,
    divide_cyclotomics,
    one_plus_qx,
    q_factorial_exponents,
    q_factorial_quotient,
    qrat_over,
    qrat_sum,  # noqa: F401  (re-exported: perfbench's selftest reads it)
    slot_bits,
    zpoly_pack,
    zxpack_div_q_minus_1,
    zxpoly_eval,
    zxpoly_pack,
    zxpoly_unpack,
)
from . import trees as tr
from .series import TreeSeries


def _series(order: int, ring: str, fn) -> TreeSeries:
    """The series with coefficient fn(t) on every tree up to the order."""
    return TreeSeries(order, ring, {t: fn(t) for t in tr.trees_upto(order)})


# ---------------------------------------------------------------------------
# The fraction-free engine behind pawn, omega and omega_bar


def _norm(a: Sequence[Sequence[int]]) -> int:
    return sum(abs(c) for row in a for c in row)


def _q_degree(a: Sequence[Sequence[int]]) -> int:
    return max((len(row) - 1 for row in a), default=0)


@lru_cache(maxsize=None)
def _quotient_bounds(n: int, parts: tuple[int, ...]) -> tuple[int, int]:
    """The L1 norm and the degree of q_factorial_quotient(n, parts)."""
    quot = q_factorial_quotient(n, parts)
    return sum(map(abs, quot)), len(quot) - 1


@lru_cache(maxsize=None)
def _packed_quotient(n: int, parts: tuple[int, ...], bits: int) -> int:
    return zpoly_pack(q_factorial_quotient(n, parts), bits)


class FractionFreeRecursion:
    """A per-tree recursion of the shape shared by pawn, omega and omega_bar,

      (q^n - 1) v_T = sum_S count * w(n, |S|) * v_{T minus S}
                      + b(n, k) * prod_c v_c,

    summed over the proper nonempty leaf subsets S of T (n = #T; c runs over
    the k root branches), solved in Z[q][x] without fractions.

    The engine solves for N_T = [n]_q! * v_T.  Multiplying the recursion by
    [n-1]_q! gives

      (q - 1) N_T = sum_S count * w(n, |S|) * [m+1]_q ... [n-1]_q * N_{T minus S}
                    + b(n, k) * ([n-1]_q! / prod_c [#c]_q!) * prod_c N_c

    with m = #(T minus S), so each tree costs one exact division by q - 1.
    w(n, r) is a signed monomial (sign, exponent of q); b(n, k) is a zxpoly,
    or None when the branch term is absent.

    Every N_T is one Python int, packed at q = 2^bits and x = 2^(bits*width)
    (see algebra): a pruned term is a shift, the q-factorial quotients and the
    branch product are big-int products, and the division by q - 1 is one by
    2^bits - 1.  The memo holds only these ints; bounds holds an L1-norm bound
    and a q-degree bound of each N_T, carried through the same recursion.  The
    slots fit the bounds of every total solved so far: a tree whose total
    needs more widens them first and repacks the memo.  _slots is where the
    slots start.
    """

    def __init__(self, leaf: tuple, prune_weight, branch_weight, _slots=(8, 2)):
        self.leaf = leaf
        self.prune_weight = prune_weight
        self.branch_weight = branch_weight
        self.memo: dict[int, int] = {}
        self.bounds: dict[int, tuple[int, int]] = {}
        self.bits, self.width = _slots

    def numerator(self, t: int) -> tuple:
        """N_T = [#T]_q! * v_T as a zxpoly."""
        return zxpoly_unpack(self.packed(t), self.bits, self.width)

    def packed(self, t: int) -> int:
        """N_T packed at the current slots."""
        cached = self.memo.get(t)
        if cached is not None:
            return cached
        n = tr.size(t)
        if n == 1:
            norm, deg = _norm(self.leaf), _q_degree(self.leaf)
            self._fit(norm, deg)
            self.bounds[t] = norm, deg
            val = self.memo[t] = zxpoly_pack(self.leaf, self.bits, self.width)
            return val
        prunings = tr.prune_leaf_subsets(t, proper_only=True)
        kids = tr.children(t)
        weight = self.branch_weight(n, len(kids))
        # solve the smaller trees first (they may widen the slots) and bound
        # the total: the L1 norm of a sum or product is at most the sum or
        # product of the norms, and the degrees add up
        norm = deg = 0
        for (rest, removed), count in prunings.items():
            self.packed(rest)
            rest_norm, rest_deg = self.bounds[rest]
            rising_norm, rising_deg = _quotient_bounds(n - 1, (tr.size(rest),))
            norm += count * rising_norm * rest_norm
            deg = max(deg, self.prune_weight(n, removed)[1] + rising_deg + rest_deg)
        if weight is not None:
            parts = tuple(tr.size(c) for c in kids)
            branch_norm, branch_deg = _quotient_bounds(n - 1, parts)
            branch_norm *= _norm(weight)
            branch_deg += _q_degree(weight)
            for c in kids:
                self.packed(c)
                kid_norm, kid_deg = self.bounds[c]
                branch_norm *= kid_norm
                branch_deg += kid_deg
            norm += branch_norm
            deg = max(deg, branch_deg)
        self._fit(norm, deg)
        bits, memo = self.bits, self.memo
        # prunings that leave m vertices share the factor [m+1]...[n-1]
        by_size: dict[int, int] = {}
        for (rest, removed), count in prunings.items():
            sign, shift = self.prune_weight(n, removed)
            m = tr.size(rest)
            by_size[m] = by_size.get(m, 0) + ((sign * count * memo[rest]) << bits * shift)
        total = 0
        for m, acc in by_size.items():
            total += acc * _packed_quotient(n - 1, (m,), bits)
        if weight is not None:
            prod = zxpoly_pack(weight, bits, self.width) * _packed_quotient(n - 1, parts, bits)
            for c in kids:
                prod *= memo[c]
            total += prod
        val = zxpack_div_q_minus_1(total, bits, self.width)
        # each coefficient of N_T is a partial sum of a row of the total, at
        # most half that row's norm, and a row has at most deg of them
        self.bounds[t] = (max(deg, 1) * norm + 1) // 2, max(deg - 1, 0)
        self.memo[t] = val
        return val

    def _fit(self, norm: int, deg: int) -> None:
        """Widen the slots, if need be, for a total of L1 norm norm and q-degree
        deg (see algebra.zxpack_div_q_minus_1), and repack the memo."""
        bits = max(self.bits, slot_bits(norm.bit_length() + 2))
        width = max(self.width, deg + 2)
        if (bits, width) == (self.bits, self.width):
            return
        for t, v in self.memo.items():
            self.memo[t] = zxpoly_pack(zxpoly_unpack(v, self.bits, self.width), bits, width)
        self.bits, self.width = bits, width

    def reduced(self, t: int) -> tuple[QRat, ...]:
        """v_T as canonical QRat coefficients indexed by x-degree (at least one)."""
        exps = q_factorial_exponents(tr.size(t))
        return tuple(qrat_over(c, exps) for c in self.numerator(t)) or (QRAT_ZERO,)


def _alternating(n: int, removed: int) -> tuple[int, int]:
    return (-1 if removed % 2 else 1, 0)


# ---------------------------------------------------------------------------
# The main two-variable series ("pawn" in the CLI)

# (q^n - 1) P_T = sum_S (-1)^|S| P_{T minus S} + q^n (1 + (q-1) x) prod_c P_c
_PAWN_ENGINE = FractionFreeRecursion(
    leaf=((1,), (0, 1)),
    prune_weight=_alternating,
    branch_weight=lambda n, k: ((0,) * n + (1,), (0,) * n + (-1, 1)),
)
# the pawn coefficients solved: the engine's memo of packed N_T, which every
# route to a coefficient fills, and the only store of them
_PAWN = _PAWN_ENGINE.memo


def pawn_coeff(t: int) -> XPoly:
    """Coefficient of the tree t, a polynomial in x of degree #t over Q(q)."""
    return XPoly(_PAWN_ENGINE.reduced(t))


def pawn_values(order: int):
    """(tree, coefficient) for each tree up to the order, sorted by (size,
    encoding).  Each coefficient is reduced from N_T when it is reached and is
    not kept, so a caller that writes them out one at a time never holds the
    series; only the engine's memo grows."""
    for t in tr.trees_upto(order):
        yield t, pawn_coeff(t)


def pawn_fraction(t: int) -> tuple[tuple, QPoly]:
    """The coefficient of t as (zxpoly numerator, monic denominator in q): N_T
    and [#T]_q! with the cyclotomic factors they share cancelled, in ints."""
    rows, left = divide_cyclotomics(pawn_numerator(t), q_factorial_exponents(tr.size(t)))
    return rows, cyclotomic_product(left)


def pawn_numerator(t: int) -> tuple:
    """N_T = [#T]_q! * P_T, the engine's memoized numerator, as a zxpoly."""
    return _PAWN_ENGINE.numerator(t)


def eval_pawn_at_qint(order: int, n: int) -> TreeSeries:
    """The pawn series at x = [n]_q (n may be negative), to the given order.

    Each value is N_T at the node over [#T]_q!.  For n = -m < 0 the node is
    -[m]_q / q^m, so q^(m d) N_T(node) is an integer polynomial (d the
    x-degree of N_T) and the value is that over q^(m d) [#T]_q!.
    """
    m = abs(n)
    node, den = ((1,) * m, (1,)) if n >= 0 else ((-1,) * m, (0,) * m + (1,))

    def at_node(t: int) -> QRat:
        num = pawn_numerator(t)
        q_power = m * (len(num) - 1) if n < 0 else 0
        return qrat_over(zxpoly_eval(num, node, den),
                         ((0, q_power),) + q_factorial_exponents(tr.size(t)))

    return _series(order, "qrat", at_node)


def series_E(order: int) -> TreeSeries:
    """All-ones series: one structure per tree."""
    return _series(order, "qrat", lambda _t: QRAT_ONE)


# ---------------------------------------------------------------------------
# Coloring polynomials

_COLOR: dict[tuple[int, int, str], QPoly] = {}


@tr.memoized(_COLOR)
def coloring_poly(t: int, n: int, mode: str = "weak") -> QPoly:
    """Generating polynomial sum q^(sum of colors) over colorings of t by
    {0..n} that decrease (weakly or strictly) away from the root."""
    if mode not in ("weak", "strict"):
        raise ValueError(f"unknown coloring mode {mode!r}")
    if n < 0:
        return QPoly()
    kids = tr.children(t)
    total = QPoly()
    for j in range(n + 1):
        sub = j if mode == "weak" else j - 1
        prod = QPOLY_ONE
        for c in kids:
            prod = prod * coloring_poly(c, sub, mode)
            if prod.is_zero():
                break
        if not prod.is_zero():
            total = total + prod.shift(j)
    return total


def coloring_series(order: int, n: int, mode: str = "weak") -> TreeSeries:
    return _series(order, "qrat", lambda t: as_qrat(coloring_poly(t, n, mode)))


def fbar_type(t: int) -> int:
    """Root type in {0, 1}: the weak 1-coloring polynomial evaluated at q=-1,
    which satisfies type(B+(T_1..T_k)) = 1 - prod type(T_i)."""
    prod = 1
    for c in tr.children(t):
        prod *= fbar_type(c)
        if prod == 0:
            break
    return 1 - prod


# ---------------------------------------------------------------------------
# The corolla recursion

@tr.memoized({})
def _one_plus_qx_power(n: int) -> XPoly:
    return XPOLY_ONE if n == 0 else _one_plus_qx_power(n - 1) * one_plus_qx()


_COROLLA: dict[int, XPoly] = {}


@tr.memoized(_COROLLA)
def pawn_corolla(n: int) -> XPoly:
    """Corolla coefficients by the recursion extracted from their exponential
    generating identity:
      (q^(n+1)-1) c_n = sum_{k<n} (-1)^(n-k) C(n,k) c_k
                        + q^(n+1) (1+(q-1)x) (1+qx)^n,   c_0 = 1+qx.
    This runs in general Q(q) arithmetic, a gcd per QRat step: `conjecture
    corolla-denominator` is the one command that still runs a gcd per value.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return one_plus_qx()
    terms = [pawn_corolla(k) * ((-1) ** (n - k) * math.comb(n, k)) for k in range(n)]
    qm = QPoly.q_power(n + 1)
    terms.append(_one_plus_qx_power(n) * XPoly((qm, qm * QPoly((-1, 1)))))
    return sum(terms, XPOLY_ZERO).scale(QRat(1, qm - 1))


# ---------------------------------------------------------------------------
# The inverse-flavored series and its variant

_OMEGA_ENGINE = FractionFreeRecursion(
    leaf=((1,),),
    prune_weight=lambda n, removed: (-1, n - removed),
    branch_weight=lambda n, k: ((1,),) if k == 1 else None,
)
_OMEGA = _OMEGA_ENGINE.memo


def omega_coeff(t: int) -> QRat:
    """Coefficient in the series whose corolla coefficients are the
    Bernoulli-Carlitz numbers; per-tree recursion
      (q^n - 1) w_T = [root has one child] w_{T'}
                      - sum_{nonempty leaf subsets S} q^(n-|S|) w_{T minus S}.
    """
    return _OMEGA_ENGINE.reduced(t)[0]


_OMEGA_BAR_ENGINE = FractionFreeRecursion(
    leaf=((1,),),
    prune_weight=_alternating,
    branch_weight=lambda n, k: ((0,) * (n - 1) + (1,),) if k == 1 else None,
)
_OMEGA_BAR = _OMEGA_BAR_ENGINE.memo


def omega_bar_coeff(t: int) -> QRat:
    """Variant obtained by q -> 1/q plus suspension by -1/q; solved directly by
      (q^n - 1) w_T = sum_{nonempty leaf subsets S} (-1)^|S| w_{T minus S}
                      + [root has one child] q^(n-1) w_{T'}.
    """
    return _OMEGA_BAR_ENGINE.reduced(t)[0]


def omega_numerator(t: int) -> tuple:
    """[#T]_q! * omega_T, the engine's memoized numerator, as a zxpoly."""
    return _OMEGA_ENGINE.numerator(t)


def omega_bar_numerator(t: int) -> tuple:
    """[#T]_q! * omega_bar_T, the engine's memoized numerator, as a zxpoly."""
    return _OMEGA_BAR_ENGINE.numerator(t)


def solve_omega(order: int) -> TreeSeries:
    return _series(order, "qrat", omega_coeff)


def solve_omega_bar(order: int) -> TreeSeries:
    return _series(order, "qrat", omega_bar_coeff)
