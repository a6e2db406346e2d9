"""Graded tree-indexed series and the operations on them.

A TreeSeries stores, up to a truncation order, one coefficient per tree
class in the convention  A = sum_T A_T * T / aut(T); the stored value for T
is A_T and absent keys mean zero.  Coefficients live in one of the
registered rings ("rational", "qrat", "xpoly") and the ring plus the
truncation order must match before any binary operation; no operation
changes the order of a series.  The rational ring holds Python ints and
Fractions; its zero and one are the ints 0 and 1, so a series of ints stays
on ints until a Fraction meets it.

The insertion product with outer corollas is computed from root-subtree
decompositions: the coefficient of T collects, over every root-containing
subtree T0 of T, the first series on T0 times the product of the second
series over the complement components.  The solvers do not use this
product: they run on the fraction-free engine in solvers.
"""

from __future__ import annotations

from typing import Any, Callable

from .algebra import QRAT_ONE, QRAT_ZERO, XPOLY_ONE, XPOLY_ZERO
from . import trees as tr

RING_ZERO: dict[str, Any] = {
    "rational": 0,
    "qrat": QRAT_ZERO,
    "xpoly": XPOLY_ZERO,
}

RING_ONE: dict[str, Any] = {
    "rational": 1,
    "qrat": QRAT_ONE,
    "xpoly": XPOLY_ONE,
}


def is_zero_coeff(v) -> bool:
    if hasattr(v, "is_zero"):
        return v.is_zero()
    return v == 0


class TreeSeries:
    """Tree-indexed series truncated at a fixed order (by vertex count)."""

    __slots__ = ("order", "ring", "coeffs")

    def __init__(self, order: int, ring: str, coeffs: dict[int, Any]):
        if ring not in RING_ZERO:
            raise ValueError(f"unknown coefficient ring {ring!r}")
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        clean = {}
        for t, v in coeffs.items():
            if tr.size(t) > order:
                raise ValueError("coefficient beyond the truncation order")
            if not is_zero_coeff(v):
                clean[t] = v
        self.order = order
        self.ring = ring
        self.coeffs = clean

    # -- access ---------------------------------------------------------------

    def coeff(self, t: int):
        return self.coeffs.get(t, RING_ZERO[self.ring])

    def support(self) -> list[int]:
        return sorted(self.coeffs, key=tr.tree_sort_key)

    def items(self):
        return [(t, self.coeffs[t]) for t in self.support()]

    def _check_compatible(self, other: TreeSeries):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    # -- linear structure -------------------------------------------------------

    def add(self, other: TreeSeries) -> TreeSeries:
        self._check_compatible(other)
        out = dict(self.coeffs)
        for t, v in other.coeffs.items():
            out[t] = out[t] + v if t in out else v
        return TreeSeries(self.order, self.ring, out)

    def neg(self) -> TreeSeries:
        return TreeSeries(self.order, self.ring, {t: -v for t, v in self.coeffs.items()})

    def sub(self, other: TreeSeries) -> TreeSeries:
        return self.add(other.neg())

    def scale(self, c) -> TreeSeries:
        return TreeSeries(self.order, self.ring, {t: v * c for t, v in self.coeffs.items()})

    def map_coeffs(self, fn: Callable[[int, Any], Any], ring: str | None = None) -> TreeSeries:
        return TreeSeries(
            self.order, ring or self.ring, {t: fn(t, v) for t, v in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )


def unit_vertex(c, order: int, ring: str) -> TreeSeries:
    """The series c * (single vertex)."""
    return TreeSeries(order, ring, {tr.leaf(): c})


def suspension(a: TreeSeries, alpha) -> TreeSeries:
    """Rescale the degree-n homogeneous component by alpha^(n-1)."""
    one = RING_ONE[a.ring]
    powers = [one]
    for _ in range(a.order):
        powers.append(powers[-1] * alpha)
    return TreeSeries(
        a.order, a.ring, {t: v * powers[tr.size(t) - 1] for t, v in a.coeffs.items()}
    )


def diamond_crls(a: TreeSeries, b: TreeSeries) -> TreeSeries:
    """Insertion with outer corollas: a goes in the root, b in the branches."""
    a._check_compatible(b)
    order, ring = a.order, a.ring
    zero = RING_ZERO[ring]
    out: dict[int, Any] = {}
    for t in tr.trees_upto(order):
        acc = zero
        for (kept, comps), count in tr.root_subtree_decompositions(t).items():
            av = a.coeffs.get(kept)
            if av is None:
                continue
            val = av
            for c in comps:
                bc = b.coeffs.get(c)
                if bc is None:
                    break
                val = val * bc
            else:
                acc = acc + val * count
        if not is_zero_coeff(acc):
            out[t] = acc
    return TreeSeries(order, ring, out)


def sharp(a: TreeSeries, b: TreeSeries) -> TreeSeries:
    """The associative product  a # b = a + Crls-insertion of (b at the root,
    a in the branches)."""
    return a.add(diamond_crls(b, a))


def series_equal_reports(a: TreeSeries, b: TreeSeries) -> list[int]:
    """Trees on which two compatible series differ (for check witnesses)."""
    a._check_compatible(b)
    bad = []
    for t in set(a.coeffs) | set(b.coeffs):
        if a.coeff(t) != b.coeff(t):
            bad.append(t)
    return sorted(bad, key=tr.tree_sort_key)
