"""The list forms of the packed kernels, the references the tests hold them to.

ListRecursion is the recursion of solvers.FractionFreeRecursion run on int
coefficient lists, one coefficient at a time: every N_T is a zxpoly, and the
division by q - 1 is synthetic division at q = 1.  The tests require the
packed engine's numerators to equal it.  zpoly_mul and zxpoly_mul are the
schoolbook products that algebra runs as one product of packed ints, and
the list forms here use them, so they never pass through the packing layer.
zxpoly_eval and zxpoly_subst_one_plus_qx are the list forms of what algebra
runs as a packed Horner, and raw_colorings the walk over every vertex that
verify's coloring oracle runs over the internal ones.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from arborq import trees as tr
from arborq.algebra import (
    ExactDivisionError,
    QPoly,
    q_factorial_quotient,
    zpoly_add_scaled,
    zpoly_trim,
    zxpoly_trim,
)


def zpoly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Schoolbook product of two trimmed integer polynomials."""
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    la = len(a)
    out = [0] * (la + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            out[j:j + la] = [x + cb * y for x, y in zip(out[j:j + la], a)]
    return tuple(out)


def zxpoly_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    """Schoolbook product of two polynomials in x over Z[q], row by row."""
    if not a or not b:
        return ()
    out: list[list[int]] = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    zpoly_add_scaled(out[i + j], zpoly_mul(ca, cb))
    return zxpoly_trim(out)


def zpoly_div_q_minus_1(a: Sequence[int]) -> tuple[int, ...]:
    """Exact quotient a / (q - 1) by synthetic division at q = 1.

    The remainder is a(1); a nonzero one raises ExactDivisionError.
    """
    a = zpoly_trim(a)
    if sum(a):
        raise ExactDivisionError(f"{QPoly(a)} is not divisible by q - 1")
    return tuple(itertools.accumulate(a[:0:-1]))[::-1]


def zxpoly_eval(a: Sequence[Sequence[int]], num: Sequence[int],
                den: Sequence[int] = (1,)) -> tuple[int, ...]:
    """den^d * a(num / den) in Z[q], d = len(a) - 1: the sum of
    a_j num^j den^(d-j), by homogeneous Horner on zpolys."""
    acc: tuple[int, ...] = ()
    power: tuple[int, ...] = (1,)
    for c in reversed(a):
        acc = list(zpoly_mul(acc, num))
        zpoly_add_scaled(acc, zpoly_mul(c, power))
        acc = zpoly_trim(acc)
        power = zpoly_mul(power, den)
    return acc


def zxpoly_subst_one_plus_qx(a: Sequence[Sequence[int]]) -> tuple:
    """a(1 + qx): its x^k coefficient is q^k sum_{j >= k} C(j, k) a_j."""
    out = []
    for k in range(len(a)):
        acc: list[int] = []
        for j in range(k, len(a)):
            zpoly_add_scaled(acc, a[j], math.comb(j, k), k)
        out.append(acc)
    return zxpoly_trim(out)


def raw_colorings(t: int, n: int, mode: str = "weak") -> QPoly:
    """The coloring polynomial of t by {0..n}: every decreasing coloring of
    the canonical representative enumerated vertex by vertex, summing
    q^(sum of colors)."""
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


def _row(rows: list[list[int]], j: int) -> list[int]:
    while len(rows) <= j:
        rows.append([])
    return rows[j]


class ListRecursion:
    """The recursion of FractionFreeRecursion, with the same leaf, prune
    weight and branch weight, solved on zxpolys."""

    def __init__(self, leaf: tuple, prune_weight, branch_weight):
        self.leaf = leaf
        self.prune_weight = prune_weight
        self.branch_weight = branch_weight
        self.memo: dict[int, tuple] = {}

    @classmethod
    def like(cls, engine) -> ListRecursion:
        return cls(engine.leaf, engine.prune_weight, engine.branch_weight)

    def numerator(self, t: int) -> tuple:
        cached = self.memo.get(t)
        if cached is not None:
            return cached
        n = tr.size(t)
        if n == 1:
            val = self.leaf
        else:
            # prunings that leave m vertices share the factor [m+1]...[n-1]
            by_size: dict[int, list[list[int]]] = {}
            for (rest, removed), count in tr.prune_leaf_subsets(t, proper_only=True).items():
                sign, shift = self.prune_weight(n, removed)
                rows = by_size.setdefault(tr.size(rest), [])
                for j, p in enumerate(self.numerator(rest)):
                    zpoly_add_scaled(_row(rows, j), p, sign * count, shift)
            total: list[list[int]] = []
            for m, rows in by_size.items():
                rising = q_factorial_quotient(n - 1, (m,))
                for j, p in enumerate(rows):
                    zpoly_add_scaled(_row(total, j), zpoly_mul(zpoly_trim(p), rising))
            kids = tr.children(t)
            prod = self.branch_weight(n, len(kids))
            if prod is not None:
                for c in kids:
                    prod = zxpoly_mul(prod, self.numerator(c))
                multinomial = q_factorial_quotient(n - 1, tuple(tr.size(c) for c in kids))
                for j, p in enumerate(prod):
                    zpoly_add_scaled(_row(total, j), zpoly_mul(p, multinomial))
            val = zxpoly_trim([zpoly_div_q_minus_1(p) for p in total])
        self.memo[t] = val
        return val
