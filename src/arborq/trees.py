"""Canonical unlabeled rooted trees and their combinatorics.

Trees are interned in one flat process-global table and referenced by dense
integer ids: _TREES holds the record of each id, in the order the classes
were first met, and _BY_ENCODING maps a canonical encoding back to its id.
The canonical encoding of a tree is "(" + the encodings of its children in
shortlex order + ")", so two trees are isomorphic exactly when their
encodings are equal.  Heights count vertices: a single vertex has height 1.

Besides enumeration, automorphism counts and statistics, this module holds
the pruning combinatorics the insertion product and the solvers run on:
leaf-subset pruning and root-subtree decompositions, both one fold over the
children of the root.  Every per-tree table is kept by memoized.  The module
imports no other layer of the package: the tree combinatorics needs no
arithmetic beyond Python ints.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import combinations_with_replacement, product
from typing import NamedTuple

_MISSING = object()


def memoized(table: dict):
    """Keep the values of a function in table, keyed by its one argument or
    by the tuple of its positional arguments (defaults are not filled in).
    A value is stored only once the function returns, so a call that raises
    is not cached."""

    def decorate(fn):
        @functools.wraps(fn)
        def cached(*args):
            key = args[0] if len(args) == 1 else args
            value = table.get(key, _MISSING)
            if value is _MISSING:
                value = table[key] = fn(*args)
            return value

        return cached

    return decorate


def _shortlex(s: str):
    return (len(s), s)


class Tree(NamedTuple):
    """One interned isomorphism class of unlabeled rooted trees."""

    tid: int
    children: tuple[int, ...]
    size: int
    height: int
    encoding: str


# insert-only: ids are stable for the process lifetime
_BY_ENCODING: dict[str, int] = {}
_TREES: list[Tree] = []


def _intern(kids: tuple[int, ...]) -> int:
    enc = "(" + "".join(_TREES[c].encoding for c in kids) + ")"
    tid = _BY_ENCODING.get(enc)
    if tid is None:
        tid = _BY_ENCODING[enc] = len(_TREES)
        size = 1 + sum(_TREES[c].size for c in kids)
        height = 1 + max((_TREES[c].height for c in kids), default=0)
        _TREES.append(Tree(tid, kids, size, height, enc))
    return tid


@memoized({})
def _partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing partitions of m (m >= 0)."""
    if m == 0:
        return ((),)
    out = []
    for first in range(m, 0, -1):
        for rest in _partitions(m - first):
            if not rest or first >= rest[0]:
                out.append((first,) + rest)
    return tuple(out)


def size(tid: int) -> int:
    return _TREES[tid].size


def height(tid: int) -> int:
    return _TREES[tid].height


def encoding(tid: int) -> str:
    return _TREES[tid].encoding


def children(tid: int) -> tuple[int, ...]:
    return _TREES[tid].children


def tree_sort_key(tid: int):
    return _shortlex(_TREES[tid].encoding)


def leaf() -> int:
    """The one-vertex tree."""
    return _intern(())


def b_plus(child_ids) -> int:
    """Graft the given trees onto a fresh common root."""
    kids = tuple(sorted(child_ids, key=tree_sort_key))
    return _intern(kids)


def crl(n: int) -> int:
    """Corolla: a root carrying n leaf children."""
    return b_plus([leaf()] * n)


def lnr(n: int) -> int:
    """Linear tree: the path on n vertices rooted at one end."""
    t = leaf()
    for _ in range(n - 1):
        t = b_plus([t])
    return t


def parse(enc: str) -> int:
    """Parse a parenthesis encoding (the wire format) into a canonical tree."""
    pos = 0

    def node() -> int:
        nonlocal pos
        if pos >= len(enc) or enc[pos] != "(":
            raise ValueError(f"malformed tree encoding at position {pos}: {enc!r}")
        pos += 1
        kids = []
        while pos < len(enc) and enc[pos] == "(":
            kids.append(node())
        if pos >= len(enc) or enc[pos] != ")":
            raise ValueError(f"malformed tree encoding at position {pos}: {enc!r}")
        pos += 1
        return b_plus(kids)

    t = node()
    if pos != len(enc):
        raise ValueError(f"trailing characters in tree encoding: {enc!r}")
    return t


def canonicalize(expr) -> int:
    """Build a tree from a nested-children description.

    Accepts an encoding string, a tree id (int), or a nested sequence where
    each node is the list of its children, e.g. [] is the single vertex and
    [[], [[]]] grafts a leaf and a 2-chain on a root.
    """
    if isinstance(expr, str):
        return parse(expr)
    if isinstance(expr, int):
        return expr
    if isinstance(expr, (list, tuple)):
        return b_plus([canonicalize(c) for c in expr])
    raise ValueError(f"malformed tree description: {expr!r}")


@memoized({})
def enumerate_trees(n: int) -> tuple[int, ...]:
    """All isomorphism classes with n vertices, sorted by encoding."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n == 1:
        return (leaf(),)
    ids = set()
    for part in _partitions(n - 1):
        pools = [
            combinations_with_replacement(enumerate_trees(s), part.count(s))
            for s in sorted(set(part), reverse=True)
        ]
        for choice in product(*pools):
            ids.add(b_plus([kid for combo in choice for kid in combo]))
    return tuple(sorted(ids, key=lambda t: _TREES[t].encoding))


def trees_upto(order: int) -> tuple[int, ...]:
    """All isomorphism classes with 1..order vertices, by size, then by encoding."""
    return tuple(t for n in range(1, order + 1) for t in enumerate_trees(n))


# ---------------------------------------------------------------------------
# Automorphisms and statistics

@memoized({})
def aut_order(tid: int) -> int:
    """Order of the automorphism group: product over vertices of the
    factorials of the multiplicities of identical child subtrees."""
    out = 1
    kids = children(tid)
    i = 0
    while i < len(kids):
        j = i
        while j < len(kids) and kids[j] == kids[i]:
            j += 1
        mult = j - i
        out *= math.factorial(mult) * aut_order(kids[i]) ** mult
        i = j
    return out


def parent_array(tid: int) -> list[int]:
    """Parents of the canonical representative in preorder (root first,
    parent[0] == -1, children visited in canonical order)."""
    parents = [-1]

    def walk(t: int, at: int):
        for c in children(t):
            parents.append(at)
            walk(c, len(parents) - 1)

    walk(tid, 0)
    return parents


class TreeStats(NamedTuple):
    height: int
    leaf_count: int
    height_histogram: dict[int, int]
    subtree_sizes: tuple[int, ...]


@memoized({})
def tree_stats(tid: int) -> TreeStats:
    parents = parent_array(tid)
    n = len(parents)
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[parents[v]] + 1
    has_child = [False] * n
    for v in range(1, n):
        has_child[parents[v]] = True
    hist: dict[int, int] = {}
    for v in range(n):
        h = depth[v] + 1
        hist[h] = hist.get(h, 0) + 1
    sub = [1] * n
    for v in range(n - 1, 0, -1):
        sub[parents[v]] += sub[v]
    return TreeStats(
        height=max(depth) + 1,
        leaf_count=has_child.count(False),
        height_histogram=hist,
        subtree_sizes=tuple(sorted(sub)),
    )


# ---------------------------------------------------------------------------
# Pruning combinatorics


def _fold_children(tid: int, options, merge, start) -> dict:
    """Graft the children of tid back onto a root, each as one of its options.

    options(child) maps (kept class or None, part) to a count; the fold crosses
    them child by child into an accumulator keyed by (sorted kept classes,
    merged part), merging parts with merge from start, then grafts the kept
    classes onto a root.  Identical siblings meet in the multiset keys, so the
    accumulator stays polynomial in the corolla width.
    """
    acc: dict[tuple[tuple[int, ...], object], int] = {((), start): 1}
    for child in children(tid):
        opts = options(child)
        nxt: dict[tuple[tuple[int, ...], object], int] = {}
        for (kept, part), c1 in acc.items():
            for (res, dpart), c2 in opts.items():
                nk = kept if res is None else tuple(sorted(kept + (res,), key=tree_sort_key))
                key = (nk, merge(part, dpart))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        acc = nxt
    out: dict = {}
    for (kept, part), c in acc.items():
        key2 = (b_plus(kept), part)
        out[key2] = out.get(key2, 0) + c
    return out


@memoized({})
def _prune_options(tid: int) -> dict[tuple[int | None, int], int]:
    """Options for a subtree hanging inside a larger tree:
    (resulting class or None, number of removed leaves) -> count."""
    if children(tid):
        return _fold_children(tid, _prune_options, operator.add, 0)
    return {(tid, 0): 1, (None, 1): 1}


def prune_leaf_subsets(tid: int, proper_only: bool = False) -> dict[tuple[int, int], int]:
    """Classes of T minus a subset of its leaves, keyed by (class, |subset|).

    Identical siblings merge through the multiset keys of the child fold, so
    the cost stays polynomial in the corolla width.  Removing the root (the
    single-vertex tree's only leaf) is excluded; with proper_only the empty
    subset is excluded as well.
    """
    return {
        (res, rem): c
        for (res, rem), c in _prune_options(tid).items()
        if res is not None and (rem or not proper_only)
    }


def _merge_components(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b, key=tree_sort_key))


def _decomp_options(child: int) -> dict[tuple[int | None, tuple[int, ...]], int]:
    # cut the whole child subtree, or keep its root and recurse
    return {(None, (child,)): 1, **root_subtree_decompositions(child)}


@memoized({})
def root_subtree_decompositions(tid: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """All root-containing vertex subsets of the canonical representative,
    as (kept class, sorted multiset of complement component classes) with
    multiplicities.  Enumeration is per child: cut the whole child subtree,
    or keep its root and recurse."""
    return _fold_children(tid, _decomp_options, _merge_components, ())


# ---------------------------------------------------------------------------
# Partition-shaped trees and vertex covers


def partition_tree(lam) -> int:
    """Graft linear trees of the partition's part sizes on a common root."""
    parts = list(lam)
    if any(p < 1 for p in parts):
        raise ValueError("partition parts must be positive")
    return b_plus([lnr(p) for p in parts])


class CoverInfo(NamedTuple):
    cover_size: int
    root_in_some: bool
    root_in_none: bool


@memoized({})
def _cover_dp(tid: int) -> tuple[int, int]:
    """(min cover size with root included, min size with root excluded)."""
    incl, excl = 1, 0
    for c in children(tid):
        ci, ce = _cover_dp(c)
        incl += min(ci, ce)
        excl += ci
    return incl, excl


def min_vertex_covers_root(tid: int) -> CoverInfo:
    """Minimum vertex cover size and whether any minimum cover contains the
    root; the two booleans are complementary by construction."""
    incl, excl = _cover_dp(tid)
    best = min(incl, excl)
    return CoverInfo(best, incl == best, incl != best)
