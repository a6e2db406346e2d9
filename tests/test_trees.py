"""Rooted-tree layer, cross-checked against raw brute force on labeled
representatives (parent arrays, permutations, vertex subsets)."""

from __future__ import annotations

from itertools import permutations, product

import pytest

from arborq import trees as T
from arborq.algebra import QPoly, QRat, q_int_poly
from tests import qrat_reference as R

EX5 = T.b_plus([T.leaf(), T.b_plus([T.leaf(), T.leaf()])])

KNOWN_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


# --- brute-force oracles over parent arrays ---------------------------------


def encoding_from_parents(parents: list[int]) -> str:
    kids: list[list[int]] = [[] for _ in parents]
    for v in range(1, len(parents)):
        kids[parents[v]].append(v)

    def enc(v: int) -> str:
        subs = sorted((enc(c) for c in kids[v]), key=lambda s: (len(s), s))
        return "(" + "".join(subs) + ")"

    return enc(0)


def brute_tree_encodings(n: int) -> set[str]:
    """Every rooted tree has a labeling where parents precede children, so
    sweeping all parent arrays p[i] < i hits every isomorphism class."""
    if n == 1:
        return {"()"}
    out = set()
    for parents in product(*[range(i) for i in range(1, n)]):
        out.add(encoding_from_parents([-1] + list(parents)))
    return out


def brute_aut(parents: list[int]) -> int:
    n = len(parents)
    edges = {(v, parents[v]) for v in range(1, n)}
    count = 0
    for perm in permutations(range(n)):
        if perm[0] != 0:
            continue
        if all((perm[v], perm[p]) in edges for v, p in edges):
            count += 1
    return count


def leaves_of(parents: list[int]) -> list[int]:
    has_child = [False] * len(parents)
    for v in range(1, len(parents)):
        has_child[parents[v]] = True
    return [v for v in range(len(parents)) if not has_child[v]]


def brute_prune(parents: list[int]) -> dict[tuple[str, int], int]:
    """Remove every subset of leaves except any containing the root."""
    lv = [v for v in leaves_of(parents) if v != 0]
    out: dict[tuple[str, int], int] = {}
    for mask in range(1 << len(lv)):
        removed = {lv[i] for i in range(len(lv)) if mask >> i & 1}
        keep = [v for v in range(len(parents)) if v not in removed]
        relabel = {v: i for i, v in enumerate(keep)}
        sub = [-1] + [relabel[parents[v]] for v in keep[1:]]
        key = (encoding_from_parents(sub), len(removed))
        out[key] = out.get(key, 0) + 1
    return out


def brute_decompositions(parents: list[int]) -> dict[tuple[str, tuple[str, ...]], int]:
    """All root-containing (ancestor-closed) vertex subsets with the classes
    of their complement components."""
    n = len(parents)
    out: dict[tuple[str, tuple[str, ...]], int] = {}
    for mask in range(1 << (n - 1)):
        keep = {0} | {v for v in range(1, n) if mask >> (v - 1) & 1}
        if any(parents[v] not in keep for v in keep if v != 0):
            continue
        comp_root = {}
        for v in sorted(set(range(n)) - keep):
            comp_root[v] = v if parents[v] in keep else comp_root[parents[v]]
        groups: dict[int, list[int]] = {}
        for v, r in comp_root.items():
            groups.setdefault(r, []).append(v)
        comp_encs = []
        for r, verts in groups.items():
            verts = sorted(verts)
            relabel = {v: i for i, v in enumerate(verts)}
            comp_encs.append(
                encoding_from_parents([-1] + [relabel[parents[v]] for v in verts[1:]])
            )
        keep_list = sorted(keep)
        relabel = {v: i for i, v in enumerate(keep_list)}
        kept_enc = encoding_from_parents([-1] + [relabel[parents[v]] for v in keep_list[1:]])
        key = (kept_enc, tuple(sorted(comp_encs)))
        out[key] = out.get(key, 0) + 1
    return out


def brute_min_cover(parents: list[int]) -> tuple[int, bool]:
    n = len(parents)
    edges = [(v, parents[v]) for v in range(1, n)]
    best = n + 1
    root_in_some = False
    for mask in range(1 << n):
        cover = {v for v in range(n) if mask >> v & 1}
        if all(a in cover or b in cover for a, b in edges):
            size = len(cover)
            if size < best:
                best, root_in_some = size, 0 in cover
            elif size == best and 0 in cover:
                root_in_some = True
    return best, root_in_some


# --- tests -------------------------------------------------------------------


class TestCanonicalForm:
    def test_isomorphic_descriptions_collide(self):
        a = T.canonicalize([[[], []], []])
        b = T.canonicalize([[], [[], []]])
        assert a == b == EX5

    def test_single_vertex(self):
        assert T.encoding(T.leaf()) == "()"
        assert T.encoding(T.crl(2)) == "(()())"

    def test_wire_format_of_example_tree(self):
        # the canonical parenthesis encoding is the wire/disk format; pin the
        # five-vertex example tree's exact string
        assert T.encoding(EX5) == "(()(()()))"
        assert T.parse("(()(()()))") == EX5
        # shortlex child order: the leaf sorts before the two-leaf branch
        assert T.encoding(T.b_plus([T.b_plus([T.leaf(), T.leaf()]), T.leaf()])) == "(()(()()))"

    def test_idempotent_and_injective(self):
        for n in range(1, 8):
            ids = T.enumerate_trees(n)
            encs = {T.encoding(t) for t in ids}
            assert len(encs) == len(ids)
            for t in ids:
                assert T.parse(T.encoding(t)) == t

    def test_malformed_input(self):
        for bad in ["", "(", "(()", "())(", "x", "(())()"]:
            with pytest.raises(ValueError):
                T.parse(bad)
        with pytest.raises(ValueError):
            T.canonicalize({"not": "a tree"})


class TestEnumeration:
    def test_known_counts(self):
        for n, count in enumerate(KNOWN_COUNTS, start=1):
            assert len(T.enumerate_trees(n)) == count

    def test_matches_bruteforce_up_to_7(self):
        for n in range(1, 8):
            assert {T.encoding(t) for t in T.enumerate_trees(n)} == brute_tree_encodings(n)

    def test_n3_classes(self):
        assert set(T.enumerate_trees(3)) == {T.lnr(3), T.crl(2)}

    def test_deterministic_order(self):
        ids = T.enumerate_trees(6)
        encs = [T.encoding(t) for t in ids]
        assert encs == sorted(encs)


class TestAutomorphisms:
    def test_corollas_and_chains(self):
        import math

        for n in range(7):
            assert T.aut_order(T.crl(n)) == math.factorial(n)
        for n in range(1, 7):
            assert T.aut_order(T.lnr(n)) == 1

    def test_bruteforce_permutations(self):
        for n in range(1, 7):
            for t in T.enumerate_trees(n):
                assert T.aut_order(t) == brute_aut(T.parent_array(t))

    def test_iterated_graft_identity(self):
        import math

        for t in T.enumerate_trees(3):
            for k in range(1, 5):
                assert (
                    T.aut_order(T.b_plus([t] * k))
                    == math.factorial(k) * T.aut_order(t) ** k
                )

    def test_six_vertex_example(self):
        assert T.aut_order(T.b_plus([T.leaf(), T.leaf(), T.crl(2)])) == 4


class TestStats:
    def test_five_vertex_example(self):
        st = T.tree_stats(EX5)
        assert st.height == 3
        assert st.leaf_count == 3
        assert st.height_histogram == {1: 1, 2: 2, 3: 2}
        assert st.subtree_sizes == (1, 1, 1, 3, 5)

    def test_chains_and_corollas(self):
        assert T.tree_stats(T.lnr(4)).height == 4
        assert T.tree_stats(T.lnr(4)).leaf_count == 1
        assert T.tree_stats(T.crl(3)).height == 2
        assert T.tree_stats(T.crl(3)).leaf_count == 3

    def test_histogram_sums_to_size(self):
        for n in range(1, 8):
            for t in T.enumerate_trees(n):
                assert sum(T.tree_stats(t).height_histogram.values()) == n


class TestQFactorial:
    """The inverse tree q-factorial of the tests' reference, the top
    x-coefficient that verify's x_infinity states on N_T."""

    def test_fig2_value(self):
        want = QRat(QPoly.q_power(11), q_int_poly(3) * q_int_poly(5))
        assert R.inverse_q_factorial(EX5) == want

    def test_single_vertex(self):
        assert R.inverse_q_factorial(T.leaf()) == QRat(QPoly.q_power(1))

    def test_lnr2(self):
        assert R.inverse_q_factorial(T.lnr(2)) == QRat(QPoly.q_power(3), q_int_poly(2))

    def test_q1_gives_classical_factorial(self):
        import math

        for n in range(1, 9):
            for t in T.enumerate_trees(n):
                classical = math.prod(T.tree_stats(t).subtree_sizes)
                assert R.inverse_q_factorial(t).evaluate(1) * classical == 1


class TestPruning:
    def test_examples(self):
        assert T.prune_leaf_subsets(T.crl(2)) == {
            (T.crl(2), 0): 1,
            (T.lnr(2), 1): 2,
            (T.leaf(), 2): 1,
        }
        assert T.prune_leaf_subsets(T.leaf()) == {(T.leaf(), 0): 1}
        assert T.prune_leaf_subsets(T.lnr(3)) == {
            (T.lnr(3), 0): 1,
            (T.lnr(2), 1): 1,
        }
        assert T.prune_leaf_subsets(T.lnr(3), proper_only=True) == {(T.lnr(2), 1): 1}

    def test_against_subset_enumeration(self):
        trees = [t for n in range(1, 8) for t in T.enumerate_trees(n)]
        trees += [T.crl(10), T.crl(11), T.partition_tree((3, 2, 2, 1)),
                  T.b_plus([T.crl(3)] * 2), T.partition_tree((2,) * 5)]
        for t in trees:
            got = {
                (T.encoding(r), s): c for (r, s), c in T.prune_leaf_subsets(t).items()
            }
            assert got == brute_prune(T.parent_array(t))

    def test_total_subset_count(self):
        # all leaf subsets of a corolla: sum of binomials
        total = sum(T.prune_leaf_subsets(T.crl(6)).values())
        assert total == 2 ** 6


class TestDecompositions:
    def test_examples(self):
        assert T.root_subtree_decompositions(T.leaf()) == {(T.leaf(), ()): 1}
        assert T.root_subtree_decompositions(T.lnr(2)) == {
            (T.lnr(2), ()): 1,
            (T.leaf(), (T.leaf(),)): 1,
        }
        got = T.root_subtree_decompositions(T.crl(2))
        assert got == {
            (T.crl(2), ()): 1,
            (T.lnr(2), (T.leaf(),)): 2,
            (T.leaf(), (T.leaf(), T.leaf())): 1,
        }

    def test_against_subset_enumeration(self):
        for n in range(1, 8):
            for t in T.enumerate_trees(n):
                got = {
                    (T.encoding(k), tuple(sorted(T.encoding(c) for c in comps))): v
                    for (k, comps), v in T.root_subtree_decompositions(t).items()
                }
                assert got == brute_decompositions(T.parent_array(t))

    def test_agreement_with_pruning_on_single_vertex_components(self):
        # decompositions with all components single vertices <-> leaf subsets
        for n in range(1, 8):
            for t in T.enumerate_trees(n):
                from_decomp: dict[tuple[int, int], int] = {}
                for (kept, comps), c in T.root_subtree_decompositions(t).items():
                    if all(cc == T.leaf() for cc in comps):
                        key = (kept, len(comps))
                        from_decomp[key] = from_decomp.get(key, 0) + c
                assert from_decomp == T.prune_leaf_subsets(t)


class TestPartitionTrees:
    def test_examples(self):
        assert T.partition_tree(()) == T.leaf()
        assert T.partition_tree((1,)) == T.lnr(2)
        four = T.partition_tree((2, 1))
        assert T.size(four) == 4
        assert four == T.b_plus([T.lnr(2), T.leaf()])

    def test_size_formula(self):
        for lam in [(3,), (2, 2), (4, 3, 1), (1, 1, 1, 1)]:
            assert T.size(T.partition_tree(lam)) == 1 + sum(lam)

    def test_invalid_part(self):
        with pytest.raises(ValueError):
            T.partition_tree((2, 0))


class TestMemoized:
    def test_once_per_key_and_no_cached_failure(self):
        table, calls = {}, []

        @T.memoized(table)
        def half(n):
            calls.append(n)
            if n % 2:
                raise ValueError("odd")
            return n // 2

        assert [half(4), half(4), half(6)] == [2, 2, 3] and calls == [4, 6]
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                half(3)
            # the failing body does not run inside a lookup's except block
            assert exc.value.__context__ is None
        assert calls == [4, 6, 3, 3] and table == {4: 2, 6: 3}
        assert half.__name__ == "half" and half.__wrapped__(8) == 4

    def test_several_arguments_key_by_tuple(self):
        table = {}

        @T.memoized(table)
        def power(b, e):
            return b ** e

        assert power(2, 3) == 8 and power(3, 2) == 9 and power(2, 3) == 8
        assert table == {(2, 3): 8, (3, 2): 9}

    def test_omega_fills_its_table_once_per_tree(self):
        from arborq import solvers as S

        engine = S._OMEGA_ENGINE
        assert S._OMEGA is engine.memo
        # the memo holds values packed at the engine's slots, which a solve
        # may widen: the whole state is restored together
        saved = dict(engine.memo), dict(engine.bounds), engine.bits, engine.width
        engine.memo.clear()
        try:
            values = [S.omega_coeff(t) for t in T.trees_upto(4)]
            filled = dict(S._OMEGA)
            assert sorted(filled) == sorted(T.trees_upto(4))
            assert [S.omega_coeff(t) for t in T.trees_upto(4)] == values
            assert S._OMEGA == filled
        finally:
            engine.memo.clear()
            engine.memo.update(saved[0])
            engine.bounds.clear()
            engine.bounds.update(saved[1])
            engine.bits, engine.width = saved[2:]


class TestVertexCovers:
    def test_examples(self):
        info = T.min_vertex_covers_root(T.leaf())
        assert (info.cover_size, info.root_in_some, info.root_in_none) == (0, False, True)
        info = T.min_vertex_covers_root(T.lnr(2))
        assert (info.cover_size, info.root_in_some) == (1, True)
        assert T.min_vertex_covers_root(EX5).root_in_some

    def test_booleans_complementary_and_bruteforce(self):
        for n in range(1, 8):
            for t in T.enumerate_trees(n):
                info = T.min_vertex_covers_root(t)
                assert info.root_in_some != info.root_in_none
                size, root_in = brute_min_cover(T.parent_array(t))
                assert (info.cover_size, info.root_in_some) == (size, root_in)
