"""The dynamic programs: table cells, reconstruction, dispatch and properties."""

import gc
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_common_pattern_values,
    all_permutations,
    alternating_chain,
    assert_valid_result,
    evaluated_cells,
    materialized_cells,
    plan_by_formula,
    prime_inflation,
    random_permutation,
    random_separable,
    separating_trees_of,
    tight_box,
)
from permlcp import (
    DpTable,
    NotSeparableError,
    Pattern,
    Permutation,
    concat_minus,
    concat_plus,
    concat_rho,
    decomposition_tree,
    expand_tree,
    find_occurrence,
    lcp,
    lcp_plan,
    normalize,
    parse_permutation,
    tree_from_nested,
    tree_to_dict,
    tree_to_permutation,
)
from permlcp.dp import _may_contain, _monotone, _ranks
from permlcp.oracle import oracle_lcp


class TestDescendingPairCells:
    """M cells for a node representing 2 1 against tau = 6 4 2 5 3 1."""

    @pytest.fixture()
    def table(self):
        tree = expand_tree(decomposition_tree(parse_permutation("2 1")))
        return DpTable(tree, parse_permutation("6 4 2 5 3 1"))

    def test_cell_2_4_3_5(self, table):
        assert table.cell(table.tree.root, 2, 4, 3, 5) == 1

    def test_cell_2_5_3_4(self, table):
        pattern, _, occ_tau = table.reconstruct(table.tree.root, 2, 5, 3, 4)
        assert pattern.values == (2, 1)
        picked = tuple(table.tau.values[p - 1] for p in occ_tau)
        assert normalize(picked).values == (2, 1)
        assert all(3 <= v <= 4 for v in picked)

    def test_cell_4_5_1_2_is_empty(self, table):
        assert table.cell(table.tree.root, 4, 5, 1, 2) == 0
        pattern, occ_sigma, occ_tau = table.reconstruct(table.tree.root, 4, 5, 1, 2)
        assert pattern.values == occ_sigma.positions == occ_tau.positions == ()


class TestChosenTreeCells:
    """sigma = 1 4 2 3 6 5 7 8 with an explicitly chosen separating tree."""

    @pytest.fixture()
    def table(self):
        spec = ("+", 1, ("+", ("-", 4, ("+", 2, 3)), ("+", ("-", 6, 5), ("+", 7, 8))))
        tree = tree_from_nested(spec)
        assert tree_to_perm_values(tree) == (1, 4, 2, 3, 6, 5, 7, 8)
        return DpTable(tree, parse_permutation("4 1 3 2 5 6 8 9 7"))

    def test_left_child_cell(self, table):
        v = table.tree.root.children[1].children[0]  # subtree for 4 2 3
        assert (v.span.lo, v.span.hi) == (2, 4)
        pattern, _, _ = table.reconstruct(v, 2, 4, 2, 3)
        assert pattern.values == (2, 1)

    def test_right_child_cell(self, table):
        v = table.tree.root.children[1].children[1]  # subtree for 6 5 7 8
        assert (v.span.lo, v.span.hi) == (5, 8)
        pattern, _, _ = table.reconstruct(v, 5, 7, 4, 8)
        assert pattern.values == (1, 2, 3)

    def test_combined_cell(self, table):
        v = table.tree.root.children[1]  # subtree for 4 2 3 6 5 7 8
        assert table.cell(v, 2, 7, 2, 8) == 5


def tree_to_perm_values(tree):
    return tuple(n.leaf_value for n in tree.walk() if n.is_leaf)


class TestSelfCases:
    def test_separable_self(self):
        rng = random.Random(10)
        for _ in range(15):
            sigma = random_separable(rng, rng.randint(1, 9))
            result = lcp(sigma, sigma, "separable")
            assert result.pattern.values == normalize(sigma.values).values
            assert result.occ_sigma.positions == tuple(range(1, sigma.n + 1))
            assert result.occ_tau.positions == tuple(range(1, sigma.n + 1))

    def test_prime_self(self):
        sigma = parse_permutation("3 1 4 2")
        result = lcp(sigma, sigma, "general")
        assert result.pattern.values == (3, 1, 4, 2)
        assert result.algorithm == "general"

    def test_reconstruction_identity_on_random_self(self):
        rng = random.Random(11)
        for _ in range(15):
            sigma = random_permutation(rng, rng.randint(1, 10))
            result = lcp(sigma, sigma)
            assert result.length == sigma.n
            assert result.occ_sigma.positions == tuple(range(1, sigma.n + 1))
            assert result.occ_tau.positions == tuple(range(1, sigma.n + 1))


class TestOracleAgreement:
    def test_exhaustive_tiny(self):
        for ns in range(1, 4):
            for sigma in all_permutations(ns):
                for nt in range(1, 4):
                    for tau in all_permutations(nt):
                        got = lcp(sigma, tau, "general")
                        assert got.length == len(oracle_lcp(sigma, tau))
                        assert_valid_result(sigma, tau, got)

    def test_random_pairs_up_to_seven(self):
        rng = random.Random(12)
        for _ in range(500):
            sigma = random_permutation(rng, rng.randint(1, 7))
            tau = random_permutation(rng, rng.randint(1, 7))
            got = lcp(sigma, tau)
            assert got.length == len(oracle_lcp(sigma, tau))
            assert_valid_result(sigma, tau, got)
            if lcp_plan(sigma, tau).prime_arity == 0:
                assert got.algorithm == "separable"

    def test_separable_guides_match_oracle(self):
        rng = random.Random(13)
        for _ in range(60):
            sigma = random_separable(rng, rng.randint(1, 8))
            tau = random_permutation(rng, rng.randint(1, 8))
            a = lcp(sigma, tau, "separable")
            b = lcp(sigma, tau, "general")
            want = len(oracle_lcp(sigma, tau))
            assert a.length == b.length == want


class TestDispatch:
    def test_separable_requires_separable(self):
        with pytest.raises(NotSeparableError):
            lcp(parse_permutation("3 1 4 2"), parse_permutation("1 2"), "separable")

    def test_unknown_algo(self):
        for algo in ("turbo", "oracle"):
            with pytest.raises(ValueError):
                lcp(parse_permutation("1"), parse_permutation("1"), algo)
            with pytest.raises(ValueError):
                lcp_plan(parse_permutation("1"), parse_permutation("1"), algo)

    def test_plan_per_algo(self):
        prime = parse_permutation("2 4 1 3")
        separable = parse_permutation("1 3 2")
        general = lcp_plan(prime, separable, "general")
        assert (general.guided_by, general.prime_arity, general.algorithm) == ("sigma", 4, "general")
        assert general.tree.expanded
        assert lcp_plan(separable, prime, "general").algorithm == "general"
        plan = lcp_plan(separable, prime, "separable")
        assert (plan.guided_by, plan.prime_arity, plan.algorithm) == ("sigma", 0, "separable")
        with pytest.raises(NotSeparableError, match="^2 4 1 3 is not separable$"):
            lcp_plan(prime, separable, "separable")

    def test_auto_picks_smaller_arity_guide(self):
        separable = parse_permutation("1 3 2")
        simple = parse_permutation("2 4 1 3")
        plan = lcp_plan(simple, separable)
        assert plan.guided_by == "tau"
        assert plan.prime_arity == 0
        assert plan.algorithm == "separable"

    def test_auto_ties_break_to_shorter(self):
        short = parse_permutation("2 4 1 3")
        longer = parse_permutation("3 5 1 4 2")  # simple of size 5
        plan = lcp_plan(longer, short)
        assert plan.guided_by == "tau"
        plan2 = lcp_plan(short, longer)
        assert plan2.guided_by == "sigma"

    def test_auto_symmetry_of_length(self):
        rng = random.Random(14)
        for _ in range(40):
            sigma = random_permutation(rng, rng.randint(1, 7))
            tau = random_permutation(rng, rng.randint(1, 7))
            assert lcp(sigma, tau).length == lcp(tau, sigma).length

    def test_plan_predicts_both_costs(self):
        prime = parse_permutation("2 4 1 3 5")  # a + node over the prime 2 4 1 3 and 5
        separable = parse_permutation("1 3 2")  # a + node over 1 and a - node
        plan = lcp_plan(prime, separable)
        assert (plan.cost_sigma, plan.cost_tau) == (3**10 + 3**6, 2 * 5**6)
        assert plan.guided_by == "tau"
        for algo in ("general", "separable"):
            plan = lcp_plan(separable, prime, algo)
            assert (plan.guided_by, plan.cost_sigma, plan.cost_tau) == ("sigma", 2 * 5**6, None)

    def test_plan_matches_its_formula(self):
        """240 seeded pairs of sizes 1-30 under all three algos, against a walk over each tree."""
        rng = random.Random(32)

        def draw(n):
            makers = [random_separable, random_permutation]
            if n >= 5:  # an inflated simple permutation takes 4 or 5 points
                makers.append(prime_inflation)
            return rng.choice(makers)(rng, n)

        pairs = [(draw(rng.randint(1, 30)), draw(rng.randint(1, 30))) for _ in range(240)]
        seen = Counter()
        for sigma, tau in pairs:
            for algo in ("auto", "separable", "general"):
                try:
                    want = plan_by_formula(sigma, tau, algo)
                except NotSeparableError:
                    with pytest.raises(NotSeparableError):
                        lcp_plan(sigma, tau, algo)
                    seen[algo, "refused"] += 1
                    continue
                plan = lcp_plan(sigma, tau, algo)
                got = plan.guided_by, plan.algorithm, plan.prime_arity, plan.cost_sigma, plan.cost_tau
                assert got == want, (sigma.values, tau.values, algo)
                guide = sigma if plan.guided_by == "sigma" else tau
                assert tree_to_dict(plan.tree) == tree_to_dict(expand_tree(decomposition_tree(guide)))
                seen[algo, plan.guided_by, plan.algorithm] += 1
        # Every outcome the rule has occurs: both guides and both algorithms under auto.
        assert len(seen) == 7 and min(seen.values()) >= 20, seen

    def test_auto_guides_with_the_longer_separable_input(self):
        short = parse_permutation("2 1 3")
        longer = parse_permutation("1 3 2 5 4 6")
        assert lcp_plan(short, longer).guided_by == "tau"
        assert lcp_plan(longer, short).guided_by == "sigma"

    def test_plan_is_not_an_algo(self):
        sigma = parse_permutation("2 4 1 3")
        tau = parse_permutation("1 3 2 4 5")
        with pytest.raises(ValueError, match="unknown algo"):
            lcp(sigma, tau, lcp_plan(sigma, tau))

    def test_auto_swaps_occurrences_back(self):
        sigma = parse_permutation("2 4 1 3")  # prime, so tau below guides
        tau = parse_permutation("1 3 2 4 5")
        plan = lcp_plan(sigma, tau)
        assert plan.guided_by == "tau"
        result = lcp(sigma, tau)
        assert_valid_result(sigma, tau, result)

    def test_involvement_reduction(self):
        rng = random.Random(15)
        for _ in range(80):
            sigma = random_permutation(rng, rng.randint(1, 4))
            tau = random_permutation(rng, rng.randint(1, 6))
            full = lcp(sigma, tau).length == sigma.n
            assert full == (find_occurrence(tau, normalize(sigma.values)) is not None)

    def test_bounds(self):
        rng = random.Random(16)
        for _ in range(40):
            sigma = random_permutation(rng, rng.randint(1, 7))
            tau = random_permutation(rng, rng.randint(1, 7))
            length = lcp(sigma, tau).length
            assert 1 <= length <= min(sigma.n, tau.n)


class TestTableProperties:
    def test_requires_expanded_tree(self):
        tree = decomposition_tree(parse_permutation("1 2 3"))
        with pytest.raises(ValueError):
            DpTable(tree, parse_permutation("1 2"))

    def test_cell_range_validation(self):
        tree = expand_tree(decomposition_tree(parse_permutation("1 2")))
        table = DpTable(tree, parse_permutation("2 1 3"))
        with pytest.raises(ValueError):
            table.cell(table.tree.root, 2, 1, 1, 3)
        with pytest.raises(ValueError):
            table.cell(table.tree.root, 1, 4, 1, 3)
        # Bounds are ints, as in IntervalSpan and Occurrence: not bools, floats or strings.
        for bounds in ((True, 3, 1, 3), (1.5, 3, 1, 3), (1, 3, "1", 3), (1, 3, 1, 3.0)):
            with pytest.raises(ValueError, match="must be ints"):
                table.cell(table.tree.root, *bounds)
        with pytest.raises(ValueError, match="must be ints"):
            table.reconstruct(table.tree.root, 1.0, 3, 1, 3)

    def test_foreign_node_rejected(self):
        tree = expand_tree(decomposition_tree(parse_permutation("1 2")))
        other = expand_tree(decomposition_tree(parse_permutation("2 1")))
        table = DpTable(tree, parse_permutation("1 2"))
        with pytest.raises(ValueError):
            table.cell(other.root, 1, 2, 1, 2)
        # A leaf of another tree: read from tau, it would place a point outside the guide.
        table = DpTable(other, parse_permutation("1 2 3"))
        leaves = [n for n in decomposition_tree(parse_permutation("3 1 4 2 5")).walk() if n.is_leaf]
        with pytest.raises(ValueError):
            table.cell(leaves[3], 1, 1, 1, 1)
        with pytest.raises(ValueError):
            table.reconstruct(leaves[3], 1, 1, 1, 1)
        own = [n for n in table.tree.walk() if n.is_leaf]
        assert [table.cell(leaf, 1, 1, 1, 1) for leaf in own] == [1, 1]

    def test_empty_box_is_0_and_stores_nothing(self):
        """``cell`` answers a box with no target point 0 for every node kind, and stores nothing."""
        tree = expand_tree(decomposition_tree(parse_permutation("2 4 1 3 5")))
        table = DpTable(tree, parse_permutation("6 4 2 5 3 1"))
        table.reconstruct(canonical=True)
        before = set(materialized_cells(table))
        nodes = {node.kind: node for node in tree.walk()}
        assert sorted(nodes) == ["leaf", "linear", "prime"]
        for node in nodes.values():
            for box in ((4, 5, 1, 2), (1, 3, 1, 1), (6, 6, 2, 6)):
                assert table.cell(node, *box) == 0, (node.kind, box)
        assert set(materialized_cells(table)) == before

    def test_cell_upper_bound_and_monotonicity(self):
        rng = random.Random(17)
        for _ in range(12):
            sigma = random_permutation(rng, rng.randint(2, 7))
            tau = random_permutation(rng, rng.randint(2, 7))
            tree = expand_tree(decomposition_tree(sigma))
            table = DpTable(tree, tau)
            n = tau.n
            for node in tree.walk():
                k = node.span.width
                for _ in range(12):
                    i = rng.randint(1, n); j = rng.randint(i, n)
                    a = rng.randint(1, n); b = rng.randint(a, n)
                    length = table.cell(node, i, j, a, b)
                    assert length <= min(k, j - i + 1, b - a + 1)
                    if i > 1:
                        assert table.cell(node, i - 1, j, a, b) >= length
                    if b < n:
                        assert table.cell(node, i, j, a, b + 1) >= length

    def test_every_cell_reconstructs(self):
        rng = random.Random(18)
        sigma = random_permutation(rng, 7)
        tau = random_permutation(rng, 7)
        tree = expand_tree(decomposition_tree(sigma))
        table = DpTable(tree, tau)
        table.root_cell()
        for node, i, j, a, b, _ in list(materialized_cells(table)):
            length = table.cell(node, i, j, a, b)  # a stored bound rescans to the exact length
            for canonical in (False, True):
                pattern, occ_sigma, occ_tau = table.reconstruct(
                    node, i, j, a, b, canonical=canonical
                )
                assert len(pattern) == len(occ_sigma) == length
                assert all(i <= p <= j for p in occ_tau)
                assert all(a <= tau.values[p - 1] <= b for p in occ_tau)
                assert all(node.span.lo <= p <= node.span.hi for p in occ_sigma)

    def test_reconstruct_takes_the_whole_box_or_none(self):
        tau = parse_permutation("3 1 2")
        table = DpTable(expand_tree(decomposition_tree(parse_permutation("2 1 3"))), tau)
        root = table.tree.root
        for partial in ((root,), (root, 1, 3), (None, 1, 1, 1, 3), (root, 1, 1, 1, None)):
            with pytest.raises(ValueError, match="all of node, i, j, a, b"):
                table.reconstruct(*partial)
        assert table.reconstruct()[0].values == (1, 2)
        pattern, _, occ_tau = table.reconstruct(root, 1, 1, 1, 3)
        assert (pattern.values, occ_tau.positions) == ((1,), (1,))

    def test_plain_reconstruct_reads_no_new_cells(self):
        rng = random.Random(24)
        pairs = [(random_separable(rng, 10), random_permutation(rng, 10)) for _ in range(6)]
        while len(pairs) < 16:
            sigma = random_permutation(rng, rng.randint(4, 8))
            if lcp_plan(sigma, sigma).prime_arity in (4, 5):
                pairs.append((sigma, random_permutation(rng, rng.randint(4, 8))))

        scans = []  # (scan, tie mode, points in the box) of each scan the walk runs

        def recorder(scan):
            def record(node, i, j, a, b, floor=0, ties=None):
                held = sum(1 for v in tau.values[i - 1 : j] if a <= v <= b)
                scans.append((scan.__name__, ties is not None, held))
                return scan(node, i, j, a, b, floor, ties)
            return record

        for sigma, tau in pairs:
            tree = lcp_plan(sigma, tau, "general").tree
            table = DpTable(tree, tau)
            table.root_cell()
            memos = {id(m): m for m in table._tables.values()}.values()
            before = sum(map(len, memos))
            table._linear_cell = recorder(table._linear_cell)
            table._prime_cell = recorder(table._prime_cell)
            assert table.reconstruct() == DpTable(tree, tau).reconstruct()
            assert sum(map(len, memos)) == before
        # The walk reads the stored splits, and places an unstored box without a scan.
        assert not scans, scans

    def test_table_freed_without_cycle_collector(self):
        tau = parse_permutation("3 1 4 2 5")
        gc.disable()
        try:
            for sigma, algo in (("2 1 4 3 5", "separable"), ("2 4 1 3 5", "general")):
                for canonical in (False, True):
                    table = DpTable(lcp_plan(parse_permutation(sigma), tau, algo).tree, tau)
                    table.reconstruct(canonical=canonical)
                    ref = weakref.ref(table)
                    del table
                    assert ref() is None, (sigma, canonical)
        finally:
            gc.enable()

    def test_prime_scans_leave_no_garbage(self):
        """Each of a prime scan's nested walks refers to itself, so the scan unbinds both.

        Left bound, each scan would leave a reference cycle to the garbage
        collector: an arity-7 guide scans many prime cells.
        """
        sigma = parse_permutation("9 7 4 8 3 5 2 1 6")
        tau = parse_permutation("5 2 4 1 8 3 6 7 9")
        gc.collect()
        gc.disable()
        try:
            for canonical in (False, True):
                lcp(sigma, tau, canonical=canonical)
                assert gc.collect() == 0, canonical
        finally:
            gc.enable()

    def test_wrong_stored_length_raises(self):
        tau = parse_permutation("3 1 4 2 5")
        for sigma, algo in (("2 1 4 3 5", "separable"), ("2 4 1 3 5", "general")):
            table = DpTable(lcp_plan(parse_permutation(sigma), tau, algo).tree, tau)
            length = table.root_cell()
            memo = table._tables[table.tree.root]
            (root_idx,) = memo  # the root node is only asked for the whole window
            memo[root_idx] = length + 1
            for canonical in (False, True):
                with pytest.raises(RuntimeError):
                    table.reconstruct(canonical=canonical)

    def test_leaf_length_without_a_point_raises(self):
        """A leaf's length is read from tau, so a leaf box without a point rebuilds to nothing.

        No leaf entry is stored that could claim a point the box lacks.
        """
        tau = parse_permutation("3 1 4 2 5")
        table = DpTable(expand_tree(decomposition_tree(parse_permutation("2 1 3"))), tau)
        leaf = next(node for node in table.tree.walk() if node.is_leaf)
        for canonical in (False, True):
            pattern, occ_sigma, occ_tau = table.reconstruct(leaf, 1, 1, 1, 1, canonical=canonical)
            assert (pattern.values, occ_sigma.positions, occ_tau.positions) == ((), (), ())
            pattern, occ_sigma, occ_tau = table.reconstruct(leaf, 2, 2, 1, 1, canonical=canonical)
            assert (pattern.values, occ_tau.positions) == ((1,), (2,))  # position 2 holds value 1
            assert occ_sigma.positions == (leaf.span.lo,)
        assert leaf not in table._tables


# (sigma, tau, algo, plain (pattern, occ_sigma, occ_tau), canonical (...)).
PINNED_WITNESSES = [
    ('5 6 1 4 2 3', '3 2 4 1', 'auto',
     ((3, 2, 1), (2, 4, 6), (1, 2, 4)),
     ((2, 3, 1), (1, 2, 6), (1, 3, 4))),
    ('6 2 1 7 3 4 5', '3 1 2 4', 'auto',
     ((2, 1, 3), (1, 2, 4), (1, 3, 4)),
     ((1, 2, 3), (2, 5, 6), (2, 3, 4))),
    ('1 2 4 3', '6 2 8 7 3 1 5 4', 'auto',
     ((1, 2, 4, 3), (1, 2, 3, 4), (2, 5, 7, 8)),
     ((1, 2, 4, 3), (1, 2, 3, 4), (2, 5, 7, 8))),
    ('2 5 6 4 3 1', '2 3 1 4', 'auto',
     ((2, 3, 1), (2, 3, 4), (1, 2, 3)),
     ((1, 2, 3), (1, 2, 3), (1, 2, 4))),
    ('5 3 1 4 6 2', '1 4 3 5 2 6', 'auto',
     ((3, 2, 1, 4), (1, 2, 3, 5), (2, 3, 5, 6)),
     ((1, 3, 4, 2), (3, 4, 5, 6), (1, 3, 4, 5))),
    ('5 2 1 7 4 6 3', '8 1 6 4 2 3 7 5', 'auto',
     ((4, 2, 1, 5, 3), (1, 2, 3, 6, 7), (3, 4, 6, 7, 8)),
     ((4, 2, 1, 5, 3), (1, 2, 3, 6, 7), (3, 4, 6, 7, 8))),
    ('5 2 6 4 1 3', '3 2 1 4', 'auto',
     ((2, 1, 3), (1, 2, 3), (2, 3, 4)),
     ((2, 1, 3), (1, 2, 3), (2, 3, 4))),
    ('2 5 1 3 4', '3 1 2', 'auto',
     ((3, 1, 2), (2, 3, 4), (1, 2, 3)),
     ((3, 1, 2), (2, 3, 4), (1, 2, 3))),
    ('6 4 5 2 3 1', '3 2 1', 'auto',
     ((3, 2, 1), (1, 3, 5), (1, 2, 3)),
     ((3, 2, 1), (3, 5, 6), (1, 2, 3))),
    ('2 4 1 3', '4 5 2 1 3', 'auto',
     ((2, 1, 3), (1, 3, 4), (3, 4, 5)),
     ((2, 1, 3), (1, 3, 4), (3, 4, 5))),
    ('4 3 5 1 6 7 2', '3 7 1 5 6 4 2', 'auto',
     ((3, 1, 4, 5, 2), (3, 4, 5, 6, 7), (1, 3, 4, 5, 7)),
     ((3, 1, 4, 5, 2), (3, 4, 5, 6, 7), (1, 3, 4, 5, 7))),
    ('2 1 3', '1 4 2 3', 'auto',
     ((1, 2), (1, 3), (3, 4)),
     ((1, 2), (1, 3), (3, 4))),
    ('5 4 2 1 3', '1 4 5 3 2', 'auto',
     ((3, 2, 1), (2, 3, 4), (2, 4, 5)),
     ((3, 2, 1), (2, 3, 4), (2, 4, 5))),
    ('3 4 2 5 6 1', '7 4 6 1 5 2 3', 'auto',
     ((1, 2, 3), (3, 4, 5), (4, 6, 7)),
     ((1, 2, 3), (3, 4, 5), (4, 6, 7))),
    ('3 4 7 1 2 8 5 6', '3 6 5 8 1 4 2 7', 'auto',
     ((3, 4, 6, 1, 2, 5), (1, 2, 3, 4, 5, 8), (1, 2, 4, 5, 7, 8)),
     ((3, 4, 6, 1, 2, 5), (1, 2, 3, 4, 5, 8), (1, 2, 4, 5, 7, 8))),
    ('7 3 1 2 6 5 4', '4 3 1 2', 'auto',
     ((4, 3, 1, 2), (1, 2, 3, 4), (1, 2, 3, 4)),
     ((4, 3, 1, 2), (1, 2, 3, 4), (1, 2, 3, 4))),
    ('4 2 1 3', '2 3 1', 'auto',
     ((2, 1), (2, 3), (1, 3)),
     ((1, 2), (3, 4), (1, 2))),
    ('4 2 1 3', '1 2 4 3', 'auto',
     ((1, 2), (3, 4), (1, 2)),
     ((1, 2), (3, 4), (1, 2))),
    ('7 1 5 4 3 6 2', '5 6 1 2 3 4', 'auto',
     ((4, 1, 2, 3), (1, 2, 5, 6), (1, 3, 4, 5)),
     ((4, 1, 2, 3), (1, 2, 5, 6), (1, 3, 4, 5))),
    ('4 1 2 3', '3 4 2 6 1 5', 'auto',
     ((1, 2, 3), (2, 3, 4), (1, 2, 6)),
     ((1, 2, 3), (2, 3, 4), (1, 2, 6))),
    ('7 6 5 4 3 1 2 13 14 8 10 11 9 12', '6 12 8 3 9 1 2 10 13 14 7 5 11 4', 'separable',
     ((3, 1, 2, 7, 8, 5, 4, 6), (5, 6, 7, 8, 9, 12, 13, 14), (4, 6, 7, 9, 10, 11, 12, 13)),
     ((3, 1, 2, 7, 8, 5, 4, 6), (5, 6, 7, 8, 9, 12, 13, 14), (4, 6, 7, 9, 10, 11, 12, 13))),
    ('1 2 3 4 7 8 9 10 6 5 14 12 11 13', '12 11 2 13 3 7 14 5 9 4 1 6 10 8', 'separable',
     ((1, 2, 5, 4, 3, 7, 6), (3, 4, 8, 9, 10, 12, 13), (3, 5, 6, 8, 10, 13, 14)),
     ((1, 2, 5, 4, 3, 7, 6), (3, 4, 8, 9, 10, 12, 13), (3, 5, 6, 8, 10, 13, 14))),
    ('7 1 8 9 2 5 3 6 4', '9 7 2 4 5 3 1 6 8', 'general',
     ((5, 1, 3, 4, 2), (4, 5, 6, 8, 9), (1, 3, 4, 5, 6)),
     ((5, 1, 2, 3, 4), (1, 2, 5, 7, 9), (1, 3, 4, 5, 8))),
    ('6 4 9 8 7 5 1 2 3', '4 5 6 8 9 7 2 1 3', 'general',
     ((3, 5, 4, 1, 2), (2, 4, 6, 8, 9), (1, 4, 6, 7, 9)),
     ((3, 5, 4, 1, 2), (2, 5, 6, 8, 9), (1, 4, 6, 7, 9))),
    ('3 1 4 2', '4 5 7 6 2 3 1 8', 'auto',
     ((2, 1, 3), (1, 2, 3), (6, 7, 8)),
     ((1, 3, 2), (2, 3, 4), (2, 3, 4))),
    ('4 3 6 2 5 1', '1 7 8 2 3 4 5 6', 'auto',
     ((2, 3, 1), (1, 3, 6), (2, 3, 8)),
     ((1, 3, 2), (1, 3, 5), (1, 3, 8))),
]


class TestPinnedWitnesses:
    def test_witnesses_are_pinned(self):
        """Full witnesses, plain and canonical, for fixed inputs.

        Recorded with ``lcp(sigma, tau, algo, canonical=c)`` from helpers'
        generators:

        - rows 1-20: ``rng = random.Random(40)``, 20 times
          ``random_permutation(rng, rng.randint(3, 8))`` for sigma, then tau;
          algo ``auto``;
        - rows 21-22: ``rng = random.Random(41)``, twice
          ``random_separable(rng, 14)`` then ``random_permutation(rng, 14)``;
          algo ``separable``;
        - rows 23-24: ``rng = random.Random(42)``, draw
          ``random_permutation(rng, 9)`` until its decomposition tree's max
          prime arity is 4, then tau ``random_permutation(rng, 9)``; twice;
          algo ``general``;
        - rows 25-26: ``rng = random.Random(43)``, draw sigma
          ``random_permutation(rng, rng.randint(4, 6))`` and tau
          ``random_separable(rng, rng.randint(6, 8))`` until sigma's
          decomposition tree has a prime node, so that ``lcp_plan`` guides
          with tau; twice; algo ``auto``.
        """
        for sigma, tau, algo, plain, canonical in PINNED_WITNESSES:
            s, t = parse_permutation(sigma), parse_permutation(tau)
            for want, flag in ((plain, False), (canonical, True)):
                got = lcp(s, t, algo, canonical=flag)
                assert (got.pattern.values, got.occ_sigma.positions, got.occ_tau.positions) == want
        guided = [lcp_plan(parse_permutation(s), parse_permutation(t)).guided_by
                  for s, t, _, _, _ in PINNED_WITNESSES[24:]]
        assert guided == ["tau", "tau"]


def oracle_cell(sigma, tau, node, i, j, a, b) -> int:
    """The oracle's M(V, i, j, a, b).

    That is the longest common pattern of the guide's block under V and the
    window of tau at positions i..j with values a..b; an empty window has
    length 0.
    """
    block = normalize(sigma.values[node.span.lo - 1 : node.span.hi])
    window = normalize([v for v in tau.values[i - 1 : j] if a <= v <= b])
    if not window.values:
        return 0
    return len(oracle_lcp(Permutation(block.values), Permutation(window.values)))


def capture_tables(monkeypatch):
    """A list to which each table ``lcp`` builds is added, with its root entries as its walk starts."""
    built = []
    reconstruct = DpTable.reconstruct

    def capture(table, *args, **kwargs):
        built.append((table, dict(table._tables.get(table.tree.root, {}))))
        return reconstruct(table, *args, **kwargs)

    monkeypatch.setattr(DpTable, "reconstruct", capture)
    return built


class TestCellsMatchOracle:
    def test_every_materialized_cell_is_exact(self):
        """Each exact entry, whatever the fill's bounds skipped, equals the oracle's length.

        A bound entry -1 - ub says "at most ub", so ub must be at least the
        oracle's length.
        """
        rng = random.Random(19)
        guides = [random_separable(rng, rng.randint(1, 12)) for _ in range(24)]
        while len(guides) < 57:
            sigma = random_permutation(rng, rng.randint(5, 10))
            if lcp_plan(sigma, sigma).prime_arity:
                guides.append(sigma)
        pairs = [(sigma, random_permutation(rng, rng.randint(7, 12))) for sigma in guides]
        more = random.Random(36)  # its own seed, so the pairs above keep their draws
        pairs += [(random_separable(more, 12), random_permutation(more, 12)) for _ in range(4)]
        checked = bounds = 0
        for sigma, tau in pairs:
            table = DpTable(lcp_plan(sigma, tau, "general").tree, tau)
            table.reconstruct(canonical=True)
            for node, i, j, a, b, entry in materialized_cells(table):
                want = oracle_cell(sigma, tau, node, i, j, a, b)
                where = (str(sigma), str(tau), node.span, (i, j, a, b))
                if entry >= 0:
                    assert entry == want, where
                else:
                    assert -1 - entry >= want, where
                    bounds += 1
                checked += 1
        assert checked > 8000 and bounds > 0

    @pytest.mark.parametrize("canonical", [False, True])
    def test_cap_try_leaves_every_cell_exact(self, monkeypatch, canonical):
        """After ``lcp`` asks the root for the cap, every entry its walk leaves agrees with the oracle.

        The pairs come in three kinds: a pattern of its host, where the try
        hits; a pattern the host lacks though ``_may_contain`` allows it,
        where the try misses and the walk rescans; and self-pairs.  The root
        entry the walk starts from shows which way the try went.
        """
        built = capture_tables(monkeypatch)
        rng = random.Random(31)
        present, absent = [], []
        for _ in range(200):  # a fixed draw, so a guard that refuses every pair fails below
            host = random_permutation(rng, rng.randint(7, 12))
            size = rng.randint(3, 6)
            if len(present) < 24:
                positions = sorted(rng.sample(range(host.n), size))
                present.append((Permutation(normalize([host.values[p] for p in positions]).values), host))
            pattern = random_permutation(rng, size)
            if len(absent) < 24 and _may_contain(pattern, host) and find_occurrence(host, pattern) is None:
                absent.append((pattern, host))
        selves = [(s, s) for s in (random_separable(rng, 10), random_permutation(rng, 9))]
        selves += [(s, s) for s in (random_permutation(rng, 8) for _ in range(20))
                   if lcp_plan(s, s).prime_arity][:4]
        checked = Counter()
        for kind, pairs in (("present", present), ("absent", absent), ("self", selves)):
            for k, (small, large) in enumerate(pairs):
                sigma, tau = (small, large) if k % 2 else (large, small)
                built.clear()
                result = lcp(sigma, tau, canonical=canonical)
                assert result.length == len(oracle_lcp(sigma, tau))
                ((table, root),) = built
                cap = min(sigma.n, tau.n)
                assert list(root.values()) == ([-cap] if kind == "absent" else [cap]), (kind, str(sigma), str(tau))
                guide = tree_to_permutation(table.tree)
                for node, i, j, a, b, entry in materialized_cells(table):
                    want = oracle_cell(guide, table.tau, node, i, j, a, b)
                    where = (kind, str(sigma), str(tau), node.span, (i, j, a, b))
                    if entry >= 0:
                        assert entry == want, where
                    else:
                        assert -1 - entry >= want, where
                        checked["bound"] += 1
                    checked[kind] += 1
        assert len(absent) == 24 and len(selves) == 6
        assert checked["present"] > 100 and checked["absent"] > 500 and checked["self"] > 0
        assert checked["bound"] > 100


class TestCellCounts:
    """The skips, the point-count bounds, the tight keys and the floors cut the cells fills store.

    Cell counts do not depend on the machine.  Each bound is a fraction of
    what the fill materialized before the skip or bound it guards: the full
    scan for the dominance skips, the dominance-skipped fill with
    interval-width bounds for the point-count bounds, the fill that read
    every cut for the skips of cuts that repeat the cut before them, for
    the tight keys, the fill that keyed every cell by the box it was asked
    for, for + nodes split at the middle, the left-comb fill, and for the
    floors, the fill that asked every child for its exact length.  The
    unequal pairs' counts are pins, not fractions.  A count of stored
    entries includes the aliases and the bound entries.
    """

    @staticmethod
    def _cells(sigma, tau, algo, canonical=False):
        table = DpTable(lcp_plan(sigma, tau, algo).tree, tau)
        table.reconstruct(canonical=canonical)
        return sum(1 for _ in materialized_cells(table))

    @staticmethod
    def _smoke_pair():
        rng = random.Random(20240504)  # the acceptance suite's complexity smoke pair
        sigma = random_separable(rng, 20)
        return sigma, random_permutation(rng, 20)

    def test_separable_twenty_pair(self):
        """Without floors the pair stored 7,696 entries (11,185 with + nodes as left combs)."""
        assert self._cells(*self._smoke_pair(), "separable") <= 1_500

    def test_separable_twenty_pair_stores_no_leaf_entry(self):
        """A linear scan takes a leaf child's length from its point count and stores no entry for it.

        It answers a child of two points from the flags too.  Reading those
        through the table, the plain walk stored 637 linear entries; reading
        leaf children through it as well, 49 leaf entries besides.  With
        every - node reading rows with h rising, it stored 452.
        """
        sigma, tau = self._smoke_pair()
        table = DpTable(lcp_plan(sigma, tau, "separable").tree, tau)
        table.reconstruct()
        kinds = Counter(cell[0].kind for cell in materialized_cells(table))
        assert kinds == {"linear": 289}

    def test_prime_guides_store_no_leaf_entry(self):
        """A prime scan reads a leaf child's length from tau, so no walk stores a leaf entry.

        Reading leaf children through the table, the 8 orientations of the
        ``prime_guide`` bench pool stored 7,047 leaf entries of 10,230.
        """
        rng = random.Random(26)
        arities = {}
        while len(arities) < 3:
            sigma = random_permutation(rng, rng.randint(5, 9))
            arity = lcp_plan(sigma, sigma).prime_arity
            if arity in (4, 5, 7):
                arities.setdefault(arity, sigma)
        for sigma in arities.values():
            tau = random_permutation(rng, 9)
            for canonical in (False, True):
                table = DpTable(lcp_plan(sigma, tau, "general").tree, tau)
                table.reconstruct(canonical=canonical)
                kinds = Counter(cell[0].kind for cell in materialized_cells(table))
                assert "leaf" not in kinds and kinds["prime"] > 0, (str(sigma), str(tau), kinds)

    def test_separable_twenty_pair_canonical(self):
        """Without floors the canonical walk stored 15,953 entries."""
        assert self._cells(*self._smoke_pair(), "separable", canonical=True) <= 15_953 // 10

    def test_separable_self_pair(self):
        sigma = random_separable(random.Random(4), 30)
        assert self._cells(sigma, sigma, "auto") <= 218_439 // 2

    def test_chain_self_pair(self):
        chain = alternating_chain(40)
        assert self._cells(chain, chain, "auto") <= 324_543 // 10

    def test_plan_keeps_its_cells_down_on_unequal_pairs(self):
        """On each pair the planned guide stores fewer entries than the other input would.

        The plan's cost model counts worst-case split reads, not cells.
        Without floors, tight keys cut the other guide's cells more than
        the planned guide's, and on 3 of these pairs the other guide stored
        fewer.  The per-pair counts pin the planned guide's entries with
        floors; without them the pairs stored 324, 215, 235, 314, 61, 113,
        171 and 306, and 1,739 in sum.
        """
        pinned = [96, 58, 57, 70, 34, 42, 54, 63]
        rng = random.Random(10)
        total = 0
        for most in pinned:
            sigma = random_separable(rng, 6)
            tau = random_separable(rng, 26)
            plan = lcp_plan(sigma, tau)
            guide, target = (sigma, tau) if plan.guided_by == "sigma" else (tau, sigma)
            planned = DpTable(plan.tree, target)
            planned.reconstruct()
            other = DpTable(expand_tree(decomposition_tree(target)), guide)
            other.reconstruct()
            cells = [len(list(materialized_cells(t))) for t in (planned, other)]
            assert cells[0] <= most and cells[0] < cells[1], (str(sigma), str(tau), cells)
            total += cells[0]
        assert total <= 1_739 // 3, total

    def test_minus_nodes_over_prime_blocks(self):
        """A - root over a prime block reads rows with h falling, so its dominance skip is two-dimensional.

        The prime block is the root's children[1], its low child, which then
        gains points row by row.  Reading rows with h rising, these pairs
        stored 761 entries.
        """
        rng = random.Random(62)
        total = 0
        for _ in range(4):
            sigma = Permutation(concat_minus(random_separable(rng, 4), prime_inflation(rng, 7)).values)
            tau = random_permutation(rng, 11)
            total += self._cells(sigma, tau, "general")
        assert total <= 403, total

    def test_arity_seven_pair(self):
        """An arity-7 guide of size 9: the plain walk's evaluated cells and its witness.

        The fill stored 1,004 cells when every cell was keyed by the box it
        was asked for, all of them evaluated.  With tight keys it evaluates
        872 and stores 207 aliases besides.
        """
        sigma = parse_permutation("9 7 4 8 3 5 2 1 6")
        tau = parse_permutation("5 2 4 1 8 3 6 7 9")
        plan = lcp_plan(sigma, tau)
        assert (plan.guided_by, plan.prime_arity) == ("sigma", 7)
        table = DpTable(plan.tree, tau)
        pattern, occ_sigma, occ_tau = table.reconstruct()
        assert sum(1 for _ in evaluated_cells(table)) <= 872
        assert pattern.values == (2, 5, 1, 3, 4)
        assert occ_sigma.positions == (3, 4, 5, 6, 9)
        assert occ_tau.positions == (3, 5, 6, 7, 8)

    def test_arity_ten_pair(self):
        """An arity-10 guide of size 10 against a target of 12: the oracle's length and the plain witness."""
        sigma = parse_permutation("9 4 2 5 8 1 10 7 3 6")
        tau = parse_permutation("10 5 11 1 8 4 12 6 3 7 9 2")
        plan = lcp_plan(sigma, tau)
        assert (plan.guided_by, plan.prime_arity) == ("sigma", 10)
        table = DpTable(plan.tree, tau)
        pattern, occ_sigma, occ_tau = table.reconstruct()
        assert len(pattern) == len(oracle_lcp(sigma, tau)) == 7
        assert pattern.values == (6, 2, 5, 1, 7, 3, 4)
        assert occ_sigma.positions == (1, 3, 5, 6, 7, 9, 10)
        assert occ_tau.positions == (1, 2, 5, 6, 7, 8, 10)
        assert sum(1 for _ in materialized_cells(table)) == 1

    def test_arity_seven_pair_entries(self):
        """The pair stores 66 entries plain and 118 canonical.

        Reading linear nodes' children of one or two points through the
        table, it stored 83 and 121; reading leaf children through it, 773
        and 903; with the plain walk replaying each scan, 246 and 293;
        reading an internal child of a value slice before bounding it, 187
        and 225.
        """
        sigma = parse_permutation("9 7 4 8 3 5 2 1 6")
        tau = parse_permutation("5 2 4 1 8 3 6 7 9")
        assert self._cells(sigma, tau, "general") <= 66
        assert self._cells(sigma, tau, "general", canonical=True) <= 118

    def test_small_guide_large_target_canonical(self):
        """Tied sub-boxes share their tight key, so the canonical walk resolves each once.

        Keyed by the box asked for, the canonical walk stored 80,562 cells
        on this pair.
        """
        sigma = parse_permutation("5 1 3 4 2")
        tau = parse_permutation(
            "9 8 7 6 2 3 4 5 22 24 23 21 25 26 27 28 20 16 17 18 19 15 13 14 10 12 11 1"
        )
        table = DpTable(lcp_plan(sigma, tau, "separable").tree, tau)
        pattern, _, _ = table.reconstruct(canonical=True)
        assert pattern.values == (1, 3, 4, 2)
        assert sum(1 for _ in materialized_cells(table)) <= 80_562 // 4

    def test_chain_of_100_self_pair(self):
        """Keyed by the box asked for, this pair stored 368,925 cells in about 72 s.

        With tight keys and without floors it stored 131,177 entries.
        """
        chain = alternating_chain(100)
        table = DpTable(lcp_plan(chain, chain).tree, chain)
        pattern, _, _ = table.reconstruct()
        assert len(pattern) == 100
        assert sum(1 for _ in materialized_cells(table)) <= 131_177 // 40

    def test_chain_of_200_self_pair(self):
        """Without floors this pair stored 1,024,852 entries in about 30 s."""
        chain = alternating_chain(200)
        table = DpTable(lcp_plan(chain, chain).tree, chain)
        pattern, _, _ = table.reconstruct()
        assert len(pattern) == 200
        assert sum(1 for _ in materialized_cells(table)) <= 20_000

    def test_chain_of_400_self_pair(self):
        """A 399-deep guide against itself: only the run of rows that can beat the best is read.

        With every row visited and leaf children asked through the table,
        this pair stored 40,998 entries in about 6 s on a 2-core x86-64
        machine (Python 3.11.7); the run of rows takes it under 2 s there,
        and 40,199 entries.
        """
        chain = alternating_chain(400)
        table = DpTable(lcp_plan(chain, chain).tree, chain)
        pattern, _, _ = table.reconstruct()
        assert len(pattern) == 400
        assert sum(1 for _ in materialized_cells(table)) <= 40_500

    def test_chain_of_600_self_pair_through_lcp(self, monkeypatch):
        """``lcp`` asks the root for the cap first, so the self-pair stores at most one entry per node.

        A 599-deep guide against itself.  Filled from floor 0, the walk stored
        90,299 entries plain.
        """
        chain = alternating_chain(600)
        built = capture_tables(monkeypatch)
        for canonical in (False, True):
            assert lcp(chain, chain, canonical=canonical).length == 600
            table, root = built.pop()
            assert list(root.values()) == [600]
            assert sum(1 for _ in materialized_cells(table)) <= 600

    def test_hopeless_cap_try_is_skipped(self, monkeypatch):
        """A pattern 1 2 3 (+) pi against a skew sum of blocks of size at most 3, as in ``unequal``.

        The host has no increasing run of 4, so ``_may_contain`` refuses the
        pair and ``lcp`` stores exactly the entries of a fill without the try.
        """
        rng = random.Random(33)
        built = capture_tables(monkeypatch)
        for _ in range(4):
            host = random_separable(rng, rng.randint(1, 3))
            while host.n < 24:
                host = Permutation(concat_minus(host, random_separable(rng, rng.randint(1, 3))).values)
            pattern = Permutation(concat_plus((1, 2, 3), random_separable(rng, rng.randint(1, 2))).values)
            assert not _may_contain(pattern, host)
            for sigma, tau in ((pattern, host), (host, pattern)):
                built.clear()
                assert lcp(sigma, tau).length < pattern.n
                table = built[0][0]
                plain = DpTable(table.tree, table.tau)
                plain.reconstruct()
                assert set(materialized_cells(table)) == set(materialized_cells(plain))


class TestCapGuard:
    """``_may_contain`` refuses a pair only when the smaller input cannot occur in the larger."""

    @staticmethod
    def _longest(values, ordered):
        return max(
            k for k in range(len(values) + 1)
            if any(ordered(c) for c in combinations(values, k))
        )

    def test_monotone_matches_brute_force(self):
        for n in range(1, 8):
            for perm in all_permutations(n):
                up = self._longest(perm.values, lambda c: list(c) == sorted(c))
                down = self._longest(perm.values, lambda c: list(c) == sorted(c, reverse=True))
                assert _monotone(perm.values) == (up, down), str(perm)

    def test_guard_never_refuses_a_present_pattern(self):
        """Over all patterns of size <= 4 and hosts of size <= 7, each host's patterns found by enumeration."""
        for n in range(1, 8):
            for host in all_permutations(n):
                found = {
                    tuple(sorted(c).index(v) + 1 for v in c)
                    for k in range(1, min(n, 4) + 1)
                    for c in combinations(host.values, k)
                }
                for values in found:
                    assert _may_contain(Permutation(values), host), (values, str(host))
        refused = [("1 2", "2 1"), ("1 2 3", "3 4 1 2"), ("3 2 1", "2 3 1 4"), ("2 1 3", "1 3 2")]
        assert not any(_may_contain(*map(parse_permutation, pair)) for pair in refused)


class TestBoundEntries:
    """A box asked at a floor it does not beat is stored as the bound -1 - ub, "at most ub"."""

    @staticmethod
    def _tables_with_bounds():
        """Filled tables of seeded separable and prime guides, each with its bound entries."""
        rng = random.Random(52)
        guides = [random_separable(rng, rng.randint(6, 10)) for _ in range(6)]
        while len(guides) < 12:
            # A prime node is asked with a floor only from under a linear node.
            simple = random_permutation(rng, rng.randint(4, 5))
            if lcp_plan(simple, simple).prime_arity in (4, 5):
                blocks = [simple, random_separable(rng, rng.randint(1, 3))]
                rng.shuffle(blocks)
                guides.append(Permutation(rng.choice((concat_plus, concat_minus))(*blocks).values))
        for sigma in guides:
            tau = random_permutation(rng, rng.randint(6, 10))
            table = DpTable(lcp_plan(sigma, tau, "general").tree, tau)
            table.root_cell()
            yield sigma, tau, table, [c for c in materialized_cells(table) if c[5] < 0]

    @staticmethod
    def _raw(table, node, i, j, a, b):
        S = table._S
        return table._tables[node][((i * S + j) * S + a) * S + b]

    def test_bound_at_or_below_the_floor_is_taken_as_it_is(self):
        seen = 0
        for _, _, table, bounds in self._tables_with_bounds():
            for node, i, j, a, b, entry in bounds:
                ub = -1 - entry
                before = sum(1 for _ in materialized_cells(table))
                for floor in (ub, ub + 1):
                    assert table._cell(node, i, j, a, b, floor) == ub
                assert sum(1 for _ in materialized_cells(table)) == before
                assert self._raw(table, node, i, j, a, b) == entry
                seen += 1
        assert seen > 100

    def test_bound_rescans_to_the_exact_length(self):
        """``cell`` rescans a bound to the oracle's length and leaves the raw entry exact.

        Entries come in the order they were stored, so an alias comes after
        its tight entry, which is exact by then, and the alias path stores
        that length.
        """
        kinds = set()
        for sigma, tau, table, bounds in self._tables_with_bounds():
            for node, i, j, a, b, entry in bounds:
                length = table.cell(node, i, j, a, b)
                assert length == oracle_cell(sigma, tau, node, i, j, a, b) <= -1 - entry
                assert self._raw(table, node, i, j, a, b) == length
                kinds.add(node.kind)
        assert kinds == {"linear", "prime"}


class TestTightKeys:
    """An internal box with target points is evaluated under its tight box.

    Its tight box is the first and last position and the lowest and highest
    value of those points.  The key it was asked for then holds an alias of
    the tight entry, stored once that entry exists.  A box with no point is
    never stored: ``DpTable.cell`` answers it 0.
    """

    def test_aliases_equal_their_tight_entry(self):
        """Every internal entry under another key has its tight entry stored, and agrees with it.

        An exact alias equals its tight entry.  An alias stored while the
        tight entry held a bound keeps that bound when the tight entry is
        later rescanned at a lower floor, so a bound alias -1 - ub only has
        ub at least the length or the bound its tight entry holds now.
        """
        rng = random.Random(31)
        pairs = [
            (random_separable(rng, rng.randint(4, 12)), random_permutation(rng, rng.randint(6, 12)))
            for _ in range(12)
        ]
        while len(pairs) < 24:
            sigma = random_permutation(rng, rng.randint(4, 8))
            if lcp_plan(sigma, sigma).prime_arity in (4, 5):
                pairs.append((sigma, random_permutation(rng, rng.randint(6, 10))))
        kinds, aliases = set(), 0
        for sigma, tau in pairs:
            for canonical in (False, True):
                table = DpTable(lcp_plan(sigma, tau, "general").tree, tau)
                table.reconstruct(canonical=canonical)
                stored = {cell[:5]: cell[5] for cell in materialized_cells(table)}
                for (node, i, j, a, b), length in stored.items():
                    tight = tight_box(tau, i, j, a, b)
                    if tight == (i, j, a, b):
                        continue
                    where = (str(sigma), str(tau), (i, j, a, b))
                    held = stored.get((node, *tight))
                    assert held is not None, where
                    if length >= 0:
                        assert held == length, where
                    else:
                        assert -1 - length >= (held if held >= 0 else -1 - held), where
                    kinds.add(node.kind)
                    aliases += 1
        assert kinds == {"linear", "prime"} and aliases > 500


class TestTieMode:
    """A scan at floor ``length - 1`` with a ``ties`` list lists the splits reaching ``length``.

    A split that moves a cut past a position or a value holding no window
    point has the child point sets, and so the lengths, of the split with
    that cut one lower; the scans list only the first of such a run, and
    every other reaching split.  The split the fill stored for a box is the
    first one listed.
    """

    @staticmethod
    def _brute_ties(table, node, i, j, a, b, want):
        """Every split whose child lengths add up to ``want``, in scan order.

        Each comes as ((position cuts, value cuts), child point sets,
        listed), where ``listed`` says whether the scans list it: whether
        each of its cuts equals the cut before it or sits just after a
        window point.  Position cuts come in lexicographic order, falling at
        a - node whose children[1] is not linear, then value cuts in value
        slice order; a child with an empty range adds 0.
        """
        d = len(node.children)
        ranks = _ranks(node)
        tauv = table.tau.values
        lengths = {}

        def steps(cuts, holds):
            return all(
                cuts[k] == cuts[k - 1] or holds(cuts[k] - 1) for k in range(1, len(cuts) - 1)
            )

        def in_values(p):
            return a <= tauv[p - 1] <= b

        def in_positions(v):
            return i <= tauv.index(v) + 1 <= j

        def points(lo, hi, v_lo, v_hi):
            return frozenset(p for p in range(lo, hi + 1) if v_lo <= tauv[p - 1] <= v_hi)

        def length(child, lo, hi, v_lo, v_hi):
            if lo > hi or v_lo > v_hi:
                return 0
            key = (child, lo, hi, v_lo, v_hi)
            if key not in lengths:
                lengths[key] = table.cell(*key)
            return lengths[key]

        found = []
        rows = combinations_with_replacement(range(i, j + 2), d - 1)
        if node.sign == "-" and node.children[1].kind != "linear":
            rows = reversed(list(rows))
        for hs in rows:
            pos = (i, *hs, j + 1)
            for cs in combinations_with_replacement(range(a, b + 2), d - 1):
                val = (a, *cs, b + 1)
                boxes = [
                    (child, pos[k], pos[k + 1] - 1, val[r - 1], val[r] - 1)
                    for k, (child, r) in enumerate(zip(node.children, ranks))
                ]
                if sum(length(*box) for box in boxes) != want:
                    continue
                listed = steps(pos, in_values) and steps(val, in_positions)
                found.append(((pos, val), tuple(points(*box[1:]) for box in boxes), listed))
        return found

    def test_ties_match_brute_force(self):
        """Separable guides, and simple guides of arity 4-5 joined to a small block by + or -.

        The join puts the prime node under the root, so it has a cell for
        many boxes, not only for the whole target.
        """
        rng = random.Random(17)
        guides = [random_separable(rng, rng.randint(3, 7)) for _ in range(18)]
        while len(guides) < 48:
            simple = random_permutation(rng, rng.randint(4, 5))
            if lcp_plan(simple, simple).prime_arity in (4, 5):
                blocks = [simple, random_separable(rng, rng.randint(1, 2))]
                rng.shuffle(blocks)
                join = rng.choice((concat_plus, concat_minus))
                guides.append(Permutation(join(*blocks).values))
        pairs = [(sigma, random_permutation(rng, rng.randint(3, 7))) for sigma in guides]
        more = random.Random(36)  # its own seed, so the pairs above keep their draws
        pairs += [(random_separable(more, 7), random_permutation(more, 7)) for _ in range(20)]
        signs, arities, checked, stored = set(), set(), 0, 0
        for sigma, tau in pairs:
            table = DpTable(lcp_plan(sigma, tau, "general").tree, tau)
            table.reconstruct()
            S = table._S
            for node, i, j, a, b, _ in list(materialized_cells(table)):
                length = table.cell(node, i, j, a, b)  # a bound rescans to the exact length
                if not length:
                    continue
                scan = table._linear_cell if node.kind == "linear" else table._prime_cell
                ties = []
                assert table._run(scan(node, i, j, a, b, length - 1, ties)) == (length - 1, None)
                found = self._brute_ties(table, node, i, j, a, b, length)
                want = [cuts for cuts, _, listed in found if listed]
                assert ties == want, (str(sigma), str(tau), node.span, (i, j, a, b))
                if table._tight(i, j, a, b) == (i, j, a, b):  # a tight key, not an alias
                    split = table._splits[node][((i * S + j) * S + a) * S + b]
                    assert split == ties[0], (str(sigma), str(tau), node.span, (i, j, a, b))
                    stored += 1
                # No reaching split is lost: each has the child point sets of a listed one.
                kept = {sets for _, sets, listed in found if listed}
                assert all(sets in kept for _, sets, _ in found), (str(sigma), str(tau))
                signs.add(node.sign)
                arities.add(node.arity)
                checked += 1
        assert signs >= {"+", "-"} and arities >= {2, 4, 5}
        assert checked > 500 and stored > 400


class TestSmallBoxes:
    """A box of one or two points is answered from its point count and two flags per node.

    A linear scan reads such a child from the flags, so the table stores no
    entry for it.  Without a stored split, and on the canonical walk always,
    it takes its split of smallest cuts by a closed form, and no walk runs a
    scan on it (rules 3, 4 and 5).
    """

    @staticmethod
    def _small_boxes():
        """Yield (sigma, table, node, box, held) for each tight box of 1 <= held <= 2 points, per node.

        The guides are separable, or simple of arity 4-5 joined to a small
        block by + or -, so prime nodes sit below the root.
        """
        rng = random.Random(36)
        guides = [random_separable(rng, rng.randint(3, 8)) for _ in range(12)]
        while len(guides) < 24:
            simple = random_permutation(rng, rng.randint(4, 5))
            if lcp_plan(simple, simple).prime_arity in (4, 5):
                blocks = [simple, random_separable(rng, rng.randint(1, 2))]
                rng.shuffle(blocks)
                join = rng.choice((concat_plus, concat_minus))
                guides.append(Permutation(join(*blocks).values))
        for sigma in guides:
            tau = random_permutation(rng, rng.randint(3, 7))
            table = DpTable(lcp_plan(sigma, tau, "general").tree, tau)
            points = list(enumerate(tau.values, 1))
            boxes = []
            for (p, v), (q, w) in combinations_with_replacement(points, 2):
                box = (p, q, min(v, w), max(v, w))
                held = sum(1 for x, y in points if p <= x <= q and box[2] <= y <= box[3])
                if held == 1 + (p < q):
                    boxes.append((box, held))
            for node in table.tree.walk():
                if not node.is_leaf:
                    for box, held in boxes:
                        yield sigma, table, node, box, held

    def test_lengths_match_the_oracle(self):
        seen = Counter()
        for sigma, table, node, (i, j, a, b), held in self._small_boxes():
            rises = table.tau.values[i - 1] < table.tau.values[j - 1]
            length = held if held == 1 else 1 + (table._flags[node] >> rises & 1)
            assert length == oracle_cell(sigma, table.tau, node, i, j, a, b), (
                str(sigma), str(table.tau), node.span, (i, j, a, b)
            )
            seen[node.kind, node.sign, held, length] += 1
        for sign in "+-":
            assert {("linear", sign, 1, 1), ("linear", sign, 2, 1)} <= set(seen)
            assert ("linear", sign, 2, 2) in seen
        assert {("prime", None, 1, 1), ("prime", None, 2, 2)} <= set(seen)

    def test_walk_places_as_the_smallest_tie(self):
        """The walk places a box with no stored split as the smallest split a tie-mode scan lists."""
        arities, checked = set(), 0
        for sigma, table, node, box, _ in self._small_boxes():
            length = table.cell(node, *box)
            scan = table._linear_cell if node.kind == "linear" else table._prime_cell
            ties = []
            table._run(scan(node, *box, length - 1, ties))
            where = (str(sigma), str(table.tau), node.span, box)
            placed = [c for c in table._boxes(node, min(ties)) if c]
            assert table._small_boxes(node, *box) == placed, where
            arities.add(node.arity)
            checked += 1
        assert arities >= {2, 4, 5} and checked > 1000

    def test_linear_scans_store_no_small_box(self):
        """No linear scan, and no walk, plain or canonical, stores a box of fewer than three points."""
        rng = random.Random(37)
        for _ in range(12):
            sigma, tau = random_separable(rng, 10), random_permutation(rng, 10)
            for canonical in (False, True):
                table = DpTable(lcp_plan(sigma, tau, "separable").tree, tau)
                table.reconstruct(canonical=canonical)
                for node, i, j, a, b, _ in materialized_cells(table):
                    if node is not table.tree.root:
                        box = table._tight(i, j, a, b)
                        held = sum(1 for v in tau.values[box[0] - 1 : box[1]] if box[2] <= v <= box[3])
                        assert held > 2, (str(sigma), str(tau), canonical, node.span, box)

    def test_canonical_walk_scans_no_small_box(self, monkeypatch):
        """The canonical walk runs no tie scan on a box of at most two points, and its answers hold.

        The guides are separable, or simple of arity 4-5 joined to a
        separable block by + or -, so prime nodes have boxes of few points.
        """
        rng = random.Random(65)
        pairs = [(random_separable(rng, 10), random_permutation(rng, 10)) for _ in range(6)]
        while len(pairs) < 18:
            simple = random_permutation(rng, rng.randint(4, 5))
            if lcp_plan(simple, simple).prime_arity in (4, 5):
                blocks = [simple, random_separable(rng, rng.randint(2, 4))]
                rng.shuffle(blocks)
                join = rng.choice((concat_plus, concat_minus))
                pairs.append((Permutation(join(*blocks).values), random_permutation(rng, 8)))
        want = [lcp(sigma, tau, "general", canonical=True) for sigma, tau in pairs]
        scanned = Counter()  # (node kind, points in the box, at most 3) of each tie scan

        def recorder(scan):
            def record(table, node, i, j, a, b, floor=0, ties=None):
                if ties is not None:
                    held = sum(1 for v in table._tauv[i - 1 : j] if a <= v <= b)
                    scanned[node.kind, min(held, 3)] += 1
                return scan(table, node, i, j, a, b, floor, ties)

            return record

        monkeypatch.setattr(DpTable, "_linear_cell", recorder(DpTable._linear_cell))
        monkeypatch.setattr(DpTable, "_prime_cell", recorder(DpTable._prime_cell))
        for (sigma, tau), result in zip(pairs, want):
            assert lcp(sigma, tau, "general", canonical=True) == result, (str(sigma), str(tau))
        assert set(scanned) == {("linear", 3), ("prime", 3)}, scanned

    @pytest.mark.parametrize(
        "sigma, tau, kind, box, pattern, plain, canonical",
        [
            (
                "8 7 5 6 4 3 2 1", "7 3 4 2 6 1 8 5", "linear", (2, 3, 3, 4),
                (5, 3, 4, 2, 1),
                ((2, 3, 4, 5, 6), (1, 2, 3, 4, 6)),
                ((2, 3, 4, 7, 8), (1, 2, 3, 4, 6)),
            ),
            (
                "3 5 1 2 4 6 7", "6 3 2 4 7 1 5", "prime", (2, 3, 2, 3),
                (2, 1, 3, 4),
                ((2, 5, 6, 7), (2, 3, 4, 5)),
                ((2, 5, 6, 7), (2, 3, 4, 5)),
            ),
        ],
    )
    def test_pinned_pairs_place_a_box_by_the_rule(
        self, monkeypatch, sigma, tau, kind, box, pattern, plain, canonical
    ):
        """Both walks place an unstored two-point box by the small-box rule, to pinned witnesses.

        The linear box 2 3 3 4 sits under the + node 3-4 of the first guide, and
        the prime box 2 3 2 3 under the prime node 1-5 of the second.
        """
        placed = []
        small_boxes = DpTable._small_boxes

        def record(table, node, *small):
            placed.append((node.kind, small))
            return small_boxes(table, node, *small)

        monkeypatch.setattr(DpTable, "_small_boxes", record)
        for walk, occurrences in ((False, plain), (True, canonical)):
            placed.clear()
            result = lcp(parse_permutation(sigma), parse_permutation(tau), canonical=walk)
            assert result.pattern.values == pattern, walk
            assert (result.occ_sigma.positions, result.occ_tau.positions) == occurrences, walk
            assert (kind, box) in placed, (walk, placed)

    def test_cell_reads_a_two_point_box_from_the_flags(self):
        """``cell`` answers a box of two points from the node's flags, and stores nothing."""
        tree = expand_tree(decomposition_tree(parse_permutation("2 1 3")))
        table = DpTable(tree, parse_permutation("1 2 3"))
        assert table.cell(table.tree.root, 1, 2, 1, 2) == 2  # the + root contains 1 2
        assert table.cell(table.tree.root.children[0], 1, 2, 1, 2) == 1  # the - child does not
        assert list(materialized_cells(table)) == []


class TestTightBoxes:
    @staticmethod
    def _targets():
        rng = random.Random(33)
        targets = [parse_permutation("1"), parse_permutation("2 1")]
        return targets + [random_permutation(rng, n) for n in (3, 5, 7, 9, 9)]

    def test_tight_box_matches_brute_force(self):
        """Every box's tight box equals a brute-force one: None without a point, empty ranges too."""
        for tau in self._targets():
            table = DpTable(expand_tree(decomposition_tree(parse_permutation("1"))), tau)
            n = tau.n
            for i in range(1, n + 2):
                for j in range(i - 1, n + 1):
                    for a in range(1, n + 2):
                        for b in range(a - 1, n + 1):
                            want = tight_box(tau, i, j, a, b)
                            assert table._tight(i, j, a, b) == want, (str(tau), (i, j, a, b))

    def test_leaf_cell_is_whether_the_box_holds_a_point(self):
        """A leaf's cell is read from tau: 1 when the box holds a point, else 0, and nothing is stored."""
        for tau in self._targets():
            table = DpTable(expand_tree(decomposition_tree(parse_permutation("1"))), tau)
            leaf = table.tree.root
            n = tau.n
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    for a in range(1, n + 1):
                        for b in range(a, n + 1):
                            want = tight_box(tau, i, j, a, b) is not None
                            assert table.cell(leaf, i, j, a, b) == want, (str(tau), (i, j, a, b))
            assert table.root_cell() == 1 and not table._tables

    def test_table_memory_does_not_grow_with_the_target_squared(self):
        """A table holds tau, its inverse and its entries: no count over every box of the target."""
        tau = Permutation(tuple(range(1, 3001)))
        tree = expand_tree(decomposition_tree(parse_permutation("2 1")))
        tracemalloc.start()
        try:
            DpTable(tree, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert lcp(parse_permutation("1"), tau).length == 1


class TestDeepGuides:
    """Guides deeper than the recursion limit fill on the table's own stack."""

    def test_separable_chain_of_600(self):
        chain = alternating_chain(600)
        tau = parse_permutation("2 1 3")
        result = lcp(chain, tau, "separable")
        assert result.length == 3
        assert_valid_result(chain, tau, result)

    def test_chain_of_2000_plain_and_canonical(self):
        chain = alternating_chain(2000)
        tau = parse_permutation("2 1 3")
        for canonical in (False, True):
            result = lcp(chain, tau, canonical=canonical)
            assert result.length == 3
            assert_valid_result(chain, tau, result)

    def test_chain_of_3000_under_a_low_recursion_limit(self):
        """The fill keeps its own stack, so the guide's depth costs no interpreter frames."""
        chain = alternating_chain(3000)
        tau = parse_permutation("2 1 3 5 4 6")
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            results = [lcp(chain, tau, canonical=c) for c in (False, True)]
        finally:
            sys.setrecursionlimit(limit)
        for result in results:
            assert result.length == 5
            assert_valid_result(chain, tau, result)


    def test_prime_guide_of_arity_600_under_a_low_recursion_limit(self):
        """Against two points the root box is read from the flags, so no prime scan runs."""
        n = 600
        sigma = Permutation((*range(2, n + 1, 2), *range(1, n, 2)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            results = [
                (tau, lcp(sigma, tau, "general", canonical=canonical))
                for tau in (parse_permutation("2 1"), parse_permutation("1 2"))
                for canonical in (False, True)
            ]
        finally:
            sys.setrecursionlimit(limit)
        assert lcp_plan(sigma, sigma).prime_arity == n
        for tau, result in results:
            assert result.length == 2
            assert_valid_result(sigma, tau, result)


class TestCanonicalMode:
    def test_matches_lexicographically_smallest_longest(self):
        rng = random.Random(21)
        for _ in range(40):
            sigma = random_permutation(rng, rng.randint(1, 6))
            tau = random_permutation(rng, rng.randint(1, 6))
            result = lcp(sigma, tau, "general", canonical=True)
            commons = all_common_pattern_values(sigma, tau)
            longest = max(len(p) for p in commons)
            want = min(p for p in commons if len(p) == longest)
            assert result.pattern.values == want
            assert_valid_result(sigma, tau, result)

    def test_exhaustive_tiny(self):
        for sigma in all_permutations(3):
            for tau in all_permutations(3):
                result = lcp(sigma, tau, "general", canonical=True)
                commons = all_common_pattern_values(sigma, tau)
                longest = max(len(p) for p in commons)
                assert result.pattern.values == min(
                    p for p in commons if len(p) == longest
                )


    def test_scan_order_moves_no_answer(self, monkeypatch):
        """Tie scans that list their splits in a shuffled order give the same canonical answers.

        The walk breaks pattern ties by the smallest cuts, not by the first
        split listed, so no scan order can pick another canonical witness.
        """
        rng = random.Random(63)
        pairs = [
            (random_permutation(rng, rng.randint(3, 8)), random_permutation(rng, rng.randint(3, 8)))
            for _ in range(60)
        ]
        pairs += [(random_separable(rng, 12), random_permutation(rng, 12)) for _ in range(4)]
        pairs += [(prime_inflation(rng, 8), random_permutation(rng, 8)) for _ in range(4)]
        want = [lcp(sigma, tau, canonical=True) for sigma, tau in pairs]
        shuffler = random.Random(64)

        def shuffled(scan):
            def listing(table, node, i, j, a, b, floor=0, ties=None):
                result = yield from scan(table, node, i, j, a, b, floor, ties)
                if ties is not None:
                    shuffler.shuffle(ties)
                return result

            return listing

        monkeypatch.setattr(DpTable, "_linear_cell", shuffled(DpTable._linear_cell))
        monkeypatch.setattr(DpTable, "_prime_cell", shuffled(DpTable._prime_cell))
        for (sigma, tau), result in zip(pairs, want):
            assert lcp(sigma, tau, canonical=True) == result, (str(sigma), str(tau))

    def test_arity_seven_guide(self):
        """An arity-7 guide: the walk over value cuts must drop prefixes that cannot reach the length."""
        sigma = parse_permutation("9 7 4 8 3 5 2 1 6")
        tau = parse_permutation("5 2 4 1 8 3 6 7 9")
        assert lcp_plan(sigma, tau).prime_arity == 7
        commons = all_common_pattern_values(sigma, tau)
        longest = max(len(p) for p in commons)
        result = lcp(sigma, tau, canonical=True)
        assert result.pattern.values == min(p for p in commons if len(p) == longest)
        assert_valid_result(sigma, tau, result)

    def test_exhaustive_up_to_four(self):
        """Every pair of sizes 1-4, with each input guiding.

        The fill skips splits that only tie an earlier one; a tied split can
        carry a smaller pattern, so the canonical walk must still see it.
        """
        sigma, tau = parse_permutation("4 1 3 2"), parse_permutation("2 3 1")
        assert lcp(sigma, tau, "general", canonical=True).pattern.values == (1, 2)
        perms = [p for n in range(1, 5) for p in all_permutations(n)]
        for sigma in perms:
            for tau in perms:
                commons = all_common_pattern_values(sigma, tau)
                longest = max(len(p) for p in commons)
                want = min(p for p in commons if len(p) == longest)
                for algo in ("general", "auto"):
                    result = lcp(sigma, tau, algo, canonical=True)
                    assert result.pattern.values == want, (str(sigma), str(tau), algo)
                    assert_valid_result(sigma, tau, result)


class TestTreeChoiceIndependence:
    def test_every_separating_tree_gives_same_length(self):
        rng = random.Random(22)
        cases = [p for p in all_permutations(4)]
        rng.shuffle(cases)
        for sigma in cases:
            if not lcp_plan(sigma, sigma).prime_arity == 0:
                continue
            tau = random_permutation(rng, rng.randint(1, 6))
            lengths = set()
            for tree in separating_trees_of(sigma):
                lengths.add(DpTable(tree, tau).root_cell())
            assert len(lengths) == 1

    def test_larger_random_separables(self):
        rng = random.Random(23)
        for _ in range(6):
            sigma = random_separable(rng, 6)
            tau = random_permutation(rng, 6)
            want = None
            for tree in separating_trees_of(sigma):
                got = DpTable(tree, tau).root_cell()
                want = got if want is None else want
                assert got == want


class TestSelfPairsPastOracle:
    """lcp(sigma, sigma) is sigma itself, at sizes the oracle cannot check."""

    def test_separable_self_pairs(self):
        rng = random.Random(25)
        for n in range(11, 17):
            sigma = random_separable(rng, n)
            result = lcp(sigma, sigma)
            assert result.length == n
            assert_valid_result(sigma, sigma, result)

    def test_self_pairs_with_a_prime_node(self):
        rng = random.Random(26)
        for text in ("2 4 1 3", "3 1 4 2", "2 4 1 5 3", "3 5 1 4 2"):  # simple labels
            label = parse_permutation(text)
            cuts = sorted(rng.sample(range(1, 11), label.n - 1))
            sizes = [hi - lo for lo, hi in zip((0, *cuts), (*cuts, 11))]
            sigma = Permutation(
                concat_rho(label, [random_separable(rng, k) for k in sizes]).values
            )
            assert lcp_plan(sigma, sigma).prime_arity == label.n
            result = lcp(sigma, sigma)
            assert result.length == 11
            assert_valid_result(sigma, sigma, result)


def _reverse(p: Permutation) -> Permutation:
    return Permutation(p.values[::-1])


def _complement(p: Permutation) -> Permutation:
    return Permutation(tuple(p.n + 1 - v for v in p.values))


def _inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for pos, v in enumerate(p.values, 1):
        inv[v - 1] = pos
    return Permutation(tuple(inv))


def _symmetries(p: Permutation) -> list[Permutation]:
    """``p`` under the eight symmetries, each a composition of the three above, in a fixed order."""
    images = [p]
    for f in (_reverse, _complement, _inverse):
        images += [f(q) for q in images]
    return images


def _pairs_past_oracle(seed: int, count: int):
    """Fixed (small, big) pairs: small of size 5-6 with a prime node, big separable of size 13-30.

    The small input holds 2 4 1 3 or 3 1 4 2 and the big one holds neither, so
    the longest common pattern is shorter than both.  Every algorithm then
    guides with the separable big input, which keeps the targets small.
    """
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        small = random_permutation(rng, rng.randint(5, 6))
        if lcp_plan(small, small).prime_arity:
            pairs.append((small, random_separable(rng, rng.randint(13, 30))))
    return pairs


class TestLargePairProperties:
    """Properties on pairs where both inputs have 9-14 points, past the oracle's reach.

    ``TestMetamorphic`` pairs a small input with a large one; here each
    example builds both inputs from a drawn seed with the seeded generators.
    """

    @staticmethod
    def _assert_symmetric_and_invariant(sigma, tau, want):
        """lcp(tau, sigma) and lcp under each symmetry applied to both inputs have length ``want``."""
        pairs = [(tau, sigma), *zip(_symmetries(sigma), _symmetries(tau))]
        for s, t in pairs:
            result = lcp(s, t)
            assert result.length == want, (str(s), str(t))
            assert_valid_result(s, t, result)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_separable_against_random(self, seed):
        rng = random.Random(seed)
        sigma = random_separable(rng, rng.randint(9, 14))
        tau = random_permutation(rng, rng.randint(9, 14))
        results = [lcp(sigma, tau, algo) for algo in ("auto", "separable", "general")]
        want = results[0].length
        for result in results:
            assert result.length == want
            assert_valid_result(sigma, tau, result)
        self._assert_symmetric_and_invariant(sigma, tau, want)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_prime_inflation_against_random(self, seed):
        """``general`` guides with the inflation, so its prime scan runs whatever ``auto`` picks."""
        rng = random.Random(seed)
        sigma = prime_inflation(rng, rng.randint(9, 14))
        tau = random_permutation(rng, rng.randint(9, 14))
        want = lcp(sigma, tau).length
        assert lcp(sigma, tau, "general").length == want
        self._assert_symmetric_and_invariant(sigma, tau, want)


class TestMetamorphic:
    """Checks that need no oracle, on pairs too large for it."""

    def test_length_is_symmetric(self):
        for small, big in _pairs_past_oracle(30, 20):
            forward = lcp(small, big)
            backward = lcp(big, small)
            assert forward.length == backward.length
            assert_valid_result(small, big, forward)
            assert_valid_result(big, small, backward)

    def test_length_invariant_under_symmetries(self):
        for small, big in _pairs_past_oracle(31, 12):
            want = lcp(small, big).length
            for f in (_reverse, _complement, _inverse):
                got = lcp(f(small), f(big))
                assert got.length == want
                assert_valid_result(f(small), f(big), got)

    def test_algos_agree_on_separable_guide(self):
        for small, big in _pairs_past_oracle(32, 15):
            results = [lcp(big, small, algo) for algo in ("auto", "separable", "general")]
            assert len({r.length for r in results}) == 1
            for result in results:
                assert_valid_result(big, small, result)

    def test_pattern_of_target_scores_no_higher(self):
        rng = random.Random(33)
        for small, big in _pairs_past_oracle(34, 15):
            want = lcp(small, big).length
            keep = sorted(rng.sample(range(big.n), rng.randint(3, big.n - 1)))
            pi = Permutation(normalize(tuple(big.values[p] for p in keep)).values)
            got = lcp(small, pi)
            assert got.length <= want
            assert_valid_result(small, pi, got)
