"""Common intervals, strong intervals, tree construction and expansion."""

import copy
import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_permutations,
    alternating_chain,
    common_intervals_by_rescan,
    overlaps,
    random_permutation,
    random_separable,
    separating_trees_of,
    strong_intervals_by_overlap,
)
from permlcp import (
    DecompNode,
    DecompTree,
    IntervalSpan,
    NotSeparableError,
    Pattern,
    Permutation,
    avoids,
    common_intervals,
    concat_rho,
    decomposition,
    decomposition_tree,
    expand_tree,
    is_separable,
    lcp_plan,
    max_prime_arity,
    parse_permutation,
    tree_from_nested,
    tree_to_dict,
    tree_to_dot,
    tree_to_permutation,
    tree_to_text,
)
from permlcp.oracle import oracle_is_simple

SIGMA11 = parse_permutation("5 1 10 9 6 7 8 11 2 4 3")

# sha256 of every export of every host in _export_hosts, labeled and expanded.
EXPORTS_DIGEST = "c146fbf0c2b7a38d20309bd82b5d588ceb794397e8d1f4b7d858fe384feaa3b2"


def spans(intervals):
    return sorted((s.lo, s.hi) for s in intervals)


def strong_intervals(sigma):
    """The strong intervals of sigma: the spans of its decomposition tree's nodes."""
    return frozenset(node.span for node in decomposition_tree(sigma).walk())


class TestIntervalSpan:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalSpan(3, 2)
        with pytest.raises(ValueError):
            IntervalSpan(0, 1)

    @pytest.mark.parametrize("lo, hi", [(True, 2), (1.5, 2), (1, 2.0)])
    def test_rejects_bounds_that_are_not_ints(self, lo, hi):
        with pytest.raises(ValueError, match=rf"invalid span \[{lo!r}, {hi!r}\]"):
            IntervalSpan(lo, hi)

    def test_compares_and_hashes_by_value(self):
        a, b = IntervalSpan(2, 5), IntervalSpan(2, 5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != IntervalSpan(2, 4) and a != (2, 5)
        sigma = parse_permutation("5 1 10 9 6 7 8 11 2 4 3")
        spans = common_intervals(sigma)
        assert spans | frozenset(common_intervals_by_rescan(sigma)) == spans
        assert IntervalSpan(3, 7) in spans and IntervalSpan(2, 3) not in spans

    def test_read_only(self):
        span = IntervalSpan(2, 5)
        with pytest.raises(AttributeError):
            span.lo = 1
        with pytest.raises(AttributeError):
            del span.hi
        with pytest.raises(AttributeError):
            span.extra = 0
        assert (span.lo, span.hi, span.width, str(span)) == (2, 5, 4, "2-5")
        assert repr(span) == "IntervalSpan(lo=2, hi=5)"

    def test_pickles_and_copies_equal(self):
        span = IntervalSpan(3, 7)
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            assert pickle.loads(pickle.dumps(span, protocol)) == span
        assert copy.copy(span) == span and copy.deepcopy(span) == span

    def test_overlap_is_proper_crossing(self):
        assert overlaps(IntervalSpan(1, 3), IntervalSpan(3, 4))
        assert overlaps(IntervalSpan(3, 4), IntervalSpan(1, 3))
        assert not overlaps(IntervalSpan(1, 3), IntervalSpan(2, 3))  # nested
        assert not overlaps(IntervalSpan(1, 2), IntervalSpan(3, 4))  # disjoint


class TestDecompNode:
    def test_nodes_compare_and_hash_by_identity(self):
        sigma = parse_permutation("2 4 1 3 5 7 6")
        first, second = decomposition_tree(sigma).root, decomposition_tree(sigma).root
        assert first == first and first != second
        seen = {first: 1, second: 2}
        assert (seen[first], seen[second], len(seen)) == (1, 2, 2)
        assert not hasattr(first, "__dict__")

    def test_repr_shows_the_node_alone(self):
        tree = decomposition_tree(parse_permutation("2 4 1 3 5 7 6"))
        prime, linear = tree.root.children[0], tree.root.children[2]
        assert repr(prime) == "<DecompNode prime label=(2, 4, 1, 3) span=1-4 value_range=(1, 4) arity=4>"
        assert repr(linear) == "<DecompNode linear sign='-' span=6-7 value_range=(6, 7) arity=2>"
        assert repr(linear.children[0]) == "<DecompNode leaf span=6-6 value_range=(7, 7) arity=0>"
        assert repr(tree) == (
            "DecompTree(root=<DecompNode linear sign='+' span=1-7 value_range=(1, 7) arity=3>, "
            "source_size=7, expanded=False)"
        )

    def test_leaf_value_only_on_leaves(self):
        root = decomposition_tree(parse_permutation("2 1 3")).root
        assert [c.leaf_value for c in root.children[0].children] == [2, 1]
        with pytest.raises(ValueError, match="leaf_value on internal node"):
            root.leaf_value

    def test_repr_of_a_3000_deep_chain_is_short(self):
        tree = decomposition_tree(alternating_chain(3000))
        assert len(repr(tree.root)) < 200
        assert len(repr(tree)) < 200

    def test_tree_pickles_and_copies_equal(self):
        tree = decomposition_tree(parse_permutation("2 4 1 3 5 7 6"))
        want = tree_to_dict(tree)
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            assert tree_to_dict(pickle.loads(pickle.dumps(tree, protocol))) == want
        assert tree_to_dict(copy.copy(tree)) == want
        assert tree_to_dict(copy.deepcopy(tree)) == want
        assert tree_to_dict(DecompTree(copy.copy(tree.root), 7, False)) == want


class TestCommonIntervals:
    def test_eleven_element_fixture_full_set(self):
        got = spans(common_intervals(SIGMA11))
        singles = [(k, k) for k in range(1, 12)]
        drawn = [
            (1, 11),
            (3, 4),
            (3, 7),
            (3, 8),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
            (9, 11),
            (10, 11),
        ]
        assert got == sorted(singles + drawn)

    def test_identity_has_all_spans(self):
        for n in (1, 2, 5):
            ident = Permutation(tuple(range(1, n + 1)))
            assert len(common_intervals(ident)) == n * (n + 1) // 2

    def test_simple_permutation_has_only_trivial(self):
        got = spans(common_intervals(parse_permutation("2 4 1 3")))
        assert got == [(1, 1), (1, 4), (2, 2), (3, 3), (4, 4)]

    def test_against_definition_by_rescan(self):
        rng = random.Random(42)
        for _ in range(30):
            sigma = random_permutation(rng, rng.randint(1, 10))
            got = set(spans(common_intervals(sigma)))
            for lo in range(1, sigma.n + 1):
                for hi in range(lo, sigma.n + 1):
                    window = sigma.values[lo - 1 : hi]
                    is_ci = max(window) - min(window) == hi - lo
                    assert ((lo, hi) in got) == is_ci


class TestStrongIntervals:
    def test_eleven_element_fixture_strong_set(self):
        got = spans(strong_intervals(SIGMA11))
        singles = [(k, k) for k in range(1, 12)]
        bold = [(1, 11), (3, 7), (3, 8), (5, 7), (9, 11), (10, 11)]
        assert got == sorted(singles + bold)

    def test_identity_of_size_three(self):
        got = spans(strong_intervals(Permutation((1, 2, 3))))
        assert got == [(1, 1), (1, 3), (2, 2), (3, 3)]

    def test_always_contains_singletons_and_whole(self):
        rng = random.Random(1)
        for _ in range(20):
            sigma = random_permutation(rng, rng.randint(1, 9))
            got = set(spans(strong_intervals(sigma)))
            assert (1, sigma.n) in got
            assert all((k, k) in got for k in range(1, sigma.n + 1))

    def test_subset_of_common_and_laminar(self):
        rng = random.Random(2)
        for _ in range(20):
            sigma = random_permutation(rng, rng.randint(1, 10))
            strong = strong_intervals(sigma)
            assert strong <= common_intervals(sigma)
            for s in strong:
                for t in strong:
                    assert not overlaps(s, t)

    def test_matches_overlap_definition_exhaustive(self):
        for n in range(1, 8):
            for sigma in all_permutations(n):
                assert strong_intervals(sigma) == strong_intervals_by_overlap(sigma), sigma.values

    def test_matches_overlap_definition_random(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(8, 30)
            # Separable inputs are rich in nested intervals, random ones in primes.
            make = random_separable if rng.random() < 0.5 else random_permutation
            sigma = make(rng, n)
            assert strong_intervals(sigma) == strong_intervals_by_overlap(sigma), sigma.values


class TestDecompositionTree:
    def test_eleven_element_fixture_tree(self):
        tree = decomposition_tree(SIGMA11)
        root = tree.root
        assert root.kind == "prime"
        assert root.label.values == (3, 1, 4, 2)
        assert [(c.span.lo, c.span.hi) for c in root.children] == [
            (1, 1),
            (2, 2),
            (3, 8),
            (9, 11),
        ]
        c1, c2, c3, c4 = root.children
        assert c1.is_leaf and c1.leaf_value == 5
        assert c2.is_leaf and c2.leaf_value == 1
        assert c3.kind == "linear" and c3.sign == "+"
        inner = c3.children[0]
        assert inner.kind == "linear" and inner.sign == "-"
        assert (inner.span.lo, inner.span.hi) == (3, 7)
        assert inner.children[2].sign == "+"  # node over 6 7 8
        assert c4.kind == "linear" and c4.sign == "+"
        assert c4.children[1].sign == "-"  # node over 4 3

    def test_single_leaf(self):
        tree = decomposition_tree(Permutation((1,)))
        assert tree.root.is_leaf
        assert tree.source_size == 1

    def test_contracted_separable_example(self):
        tree = decomposition_tree(parse_permutation("4 2 3 1 6 5 8 9 7"))
        root = tree.root
        assert root.kind == "linear" and root.sign == "+"
        assert [(c.span.lo, c.span.hi) for c in root.children] == [(1, 4), (5, 6), (7, 9)]
        first = root.children[0]
        assert first.sign == "-"
        assert [c.is_leaf for c in first.children] == [True, False, True]
        assert first.children[1].sign == "+"

    def test_decoration_everywhere(self):
        rng = random.Random(3)
        for _ in range(25):
            sigma = random_permutation(rng, rng.randint(1, 12))
            tree = decomposition_tree(sigma)
            for node in tree.walk():
                lo, hi = node.value_range
                assert hi - lo == node.span.hi - node.span.lo
                if node.children:
                    assert node.children[0].span.lo == node.span.lo
                    assert node.children[-1].span.hi == node.span.hi
                    for u, v in zip(node.children, node.children[1:]):
                        assert v.span.lo == u.span.hi + 1

    def test_typing_exclusive_and_exhaustive(self):
        rng = random.Random(4)
        for _ in range(25):
            sigma = random_permutation(rng, rng.randint(2, 12))
            for node in decomposition_tree(sigma).walk():
                if node.is_leaf:
                    continue
                ranges = [c.value_range for c in node.children]
                increasing = all(
                    ranges[t + 1][0] == ranges[t][1] + 1 for t in range(len(ranges) - 1)
                )
                decreasing = all(
                    ranges[t + 1][1] == ranges[t][0] - 1 for t in range(len(ranges) - 1)
                )
                if node.kind == "linear":
                    assert node.arity >= 2
                    assert (node.sign == "+" and increasing) or (
                        node.sign == "-" and decreasing
                    )
                else:
                    assert node.arity >= 4
                    assert not increasing and not decreasing

    def test_prime_labels_are_simple(self):
        rng = random.Random(5)
        for _ in range(40):
            sigma = random_permutation(rng, rng.randint(4, 14))
            for node in decomposition_tree(sigma).walk():
                if node.kind == "prime":
                    assert oracle_is_simple(Permutation(node.label.values))

    def test_same_sign_contraction(self):
        rng = random.Random(6)
        for _ in range(40):
            sigma = random_permutation(rng, rng.randint(2, 12))
            for node in decomposition_tree(sigma).walk():
                if node.kind == "linear":
                    for child in node.children:
                        assert not (child.kind == "linear" and child.sign == node.sign)


class TestExpandTree:
    def test_eleven_element_fixture_expanded(self):
        tree = expand_tree(decomposition_tree(SIGMA11))
        assert tree.expanded
        for node in tree.walk():
            if node.kind == "linear":
                assert node.arity == 2
        root = tree.root
        assert root.kind == "prime" and root.arity == 4
        # The arity-3 minus node over positions 3-7 becomes two binary nodes.
        minus = root.children[2].children[0]
        assert minus.sign == "-" and minus.arity == 2
        assert minus.children[0].sign == "-"
        assert (minus.children[0].span.lo, minus.children[0].span.hi) == (3, 4)

    @staticmethod
    def _shape(node):
        """Leaf values, nested by the binary nodes above them."""
        if node.is_leaf:
            return node.leaf_value
        return tuple(TestExpandTree._shape(child) for child in node.children)

    def test_plus_nodes_split_at_the_middle_minus_nodes_comb(self):
        def shape(spec):
            return self._shape(expand_tree(tree_from_nested(spec)).root)

        assert shape(("+", 1, 2, 3, 4)) == ((1, 2), (3, 4))
        # Both cuts of three leaves miss the middle by half a leaf: the first wins.
        assert shape(("+", 1, 2, 3)) == (1, (2, 3))
        assert shape(("-", 4, 3, 2, 1)) == (((4, 3), 2), 1)
        for node in expand_tree(tree_from_nested(("-", 4, 3, 2, 1))).walk():
            assert node.is_leaf or node.sign == "-"

    def test_plus_node_cut_nearest_the_middle(self):
        """Children of widths 2, 2, 5, 4, 1: the cut after the third leaves 9 of 14 positions left."""
        spec = ("+", ("-", 2, 1), ("-", 4, 3), ("-", 9, 8, 7, 6, 5), ("-", 13, 12, 11, 10), 14)
        root = expand_tree(tree_from_nested(spec)).root
        assert root.sign == "+"
        assert [(c.span.lo, c.span.hi) for c in root.children] == [(1, 9), (10, 14)]

    def test_identity_expands_to_logarithmic_depth(self):
        """A left comb over the identity of size 10^4 would be 9,999 deep."""
        tree = expand_tree(decomposition_tree(Permutation(tuple(range(1, 10_001)))))
        depth, stack = 0, [(tree.root, 0)]
        while stack:
            node, d = stack.pop()
            depth = max(depth, d)
            stack.extend((child, d + 1) for child in node.children)
        assert depth == 14

    def test_binary_tree_unchanged(self):
        sigma = parse_permutation("2 1")
        tree = decomposition_tree(sigma)
        expanded = expand_tree(tree)
        assert tree_to_dict(expanded)["root"] == tree_to_dict(tree)["root"]

    def test_double_expansion_rejected(self):
        tree = expand_tree(decomposition_tree(parse_permutation("1 2 3")))
        with pytest.raises(ValueError):
            expand_tree(tree)

    def test_leaf_order_preserved(self):
        rng = random.Random(7)
        for _ in range(25):
            sigma = random_permutation(rng, rng.randint(1, 12))
            tree = expand_tree(decomposition_tree(sigma))
            leaves = tuple(n.leaf_value for n in tree.walk() if n.is_leaf)
            assert leaves == sigma.values


class TestSeparability:
    def test_fixtures(self):
        assert is_separable(parse_permutation("4 2 3 1 6 5 8 9 7"))
        assert not is_separable(parse_permutation("3 1 4 2"))
        assert not is_separable(SIGMA11)

    def test_cross_check_with_avoidance(self):
        forb1, forb2 = Pattern((3, 1, 4, 2)), Pattern((2, 4, 1, 3))
        for n in range(1, 6):
            for sigma in all_permutations(n):
                expected = avoids(sigma, forb1) and avoids(sigma, forb2)
                assert is_separable(sigma) == expected

    def test_separating_tree_is_valid(self):
        sigma = parse_permutation("4 2 3 1 6 5 8 9 7")
        tree = expand_tree(decomposition_tree(sigma))
        nodes = list(tree.walk())
        leaves = [n for n in nodes if n.is_leaf]
        internal = [n for n in nodes if not n.is_leaf]
        assert len(leaves) == 9
        assert len(internal) == 8
        assert all(n.kind == "linear" and n.arity == 2 for n in internal)
        assert tree_to_permutation(tree).values == sigma.values

    def test_separating_tree_smallest(self):
        tree = expand_tree(decomposition_tree(parse_permutation("1 2")))
        assert tree.root.sign == "+"
        assert [c.is_leaf for c in tree.root.children] == [True, True]

    def test_not_separable_raises(self):
        with pytest.raises(NotSeparableError):
            lcp_plan(parse_permutation("3 1 4 2"), parse_permutation("1"), "separable")


class TestMaxPrimeArity:
    def test_fixtures(self):
        assert max_prime_arity(decomposition_tree(SIGMA11)) == 4
        assert max_prime_arity(decomposition_tree(parse_permutation("4 2 3 1 6 5 8 9 7"))) == 0
        assert max_prime_arity(decomposition_tree(parse_permutation("2 4 1 3"))) == 4


class TestTreeToPermutation:
    def test_round_trip_fixtures(self):
        for text in ("5 1 10 9 6 7 8 11 2 4 3", "4 2 3 1 6 5 8 9 7", "1", "2 4 1 3"):
            sigma = parse_permutation(text)
            tree = decomposition_tree(sigma)
            assert tree_to_permutation(tree).values == sigma.values
            assert tree_to_permutation(expand_tree(tree)).values == sigma.values

    def test_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(200):
            sigma = random_permutation(rng, rng.randint(1, 12))
            tree = decomposition_tree(sigma)
            assert tree_to_permutation(tree).values == sigma.values

    @settings(max_examples=60)
    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_round_trip_property(self, values):
        sigma = Permutation(tuple(values))
        assert tree_to_permutation(decomposition_tree(sigma)).values == sigma.values


    def test_rejects_malformed_trees(self):
        def leaf(v):
            return DecompNode("leaf", IntervalSpan(v, v), (v, v))

        def node(kind, children, **deco):
            span = IntervalSpan(1, len(children))
            return DecompNode(kind, span, (1, len(children)), tuple(children), **deco)

        malformed = [
            node("linear", [leaf(1)], sign="+"),
            node("linear", [leaf(1), leaf(2)], sign="*"),
            node("prime", [leaf(v) for v in (2, 4, 1, 3)]),
            node("prime", [leaf(v) for v in (2, 3, 1)], label=Pattern((2, 4, 1, 3))),
        ]
        for root in malformed:
            with pytest.raises(ValueError, match="malformed tree"):
                tree_to_permutation(DecompTree(root, root.arity, expanded=False))


class TestTreeFromNested:
    def test_builds_alternative_separating_trees(self):
        sigma = parse_permutation("4 2 3 1 6 5 8 9 7")
        trees = list(separating_trees_of(sigma))
        assert len(trees) > 1
        for tree in trees:
            assert tree_to_permutation(tree).values == sigma.values

    def test_prime_spec(self):
        tree = tree_from_nested(((3, 1, 4, 2), 5, 1, ("+", 6, 7), ("-", 4, 3, 2)))
        assert tree_to_permutation(tree).values == (5, 1, 6, 7, 4, 3, 2)

    def test_rejects_inconsistent_specs(self):
        with pytest.raises(ValueError):
            tree_from_nested(("+", 2, 1))  # wrong sign for decreasing values
        with pytest.raises(ValueError):
            tree_from_nested(("-", ("-", 3, 2), 4))  # values not an interval tiling
        with pytest.raises(ValueError):
            tree_from_nested(((2, 1, 3), 1, 2, 3))  # label does not match value order
        with pytest.raises(ValueError):
            tree_from_nested(((1, 2, 3), 1, 2, 3))  # monotone children make a linear node
        with pytest.raises(ValueError):
            tree_from_nested(((3, 2, 1), 3, 2, 1))  # so do decreasing ones
        with pytest.raises(ValueError):
            tree_from_nested(((2, 1), 2, 1))  # and any two children
        with pytest.raises(Exception):
            tree_from_nested(("+", 1, 1))  # duplicate leaf value
        with pytest.raises(ValueError, match="at least 2 children"):
            tree_from_nested(("+", 1))


class TestExports:
    def test_json_dict_shape(self):
        tree = decomposition_tree(SIGMA11)
        d = tree_to_dict(tree)
        assert d["size"] == 11 and d["expanded"] is False
        root = d["root"]
        assert root["kind"] == "prime"
        assert root["label"] == [3, 1, 4, 2]
        assert root["span"] == [1, 11] and root["value_range"] == [1, 11]
        assert len(root["children"]) == 4
        assert root["children"][2]["sign"] == "+"
        leaf = root["children"][0]
        assert leaf["kind"] == "leaf" and leaf["children"] == []

    def test_dot_output(self):
        dot = tree_to_dot(decomposition_tree(parse_permutation("2 4 1 3")))
        assert dot.startswith("digraph")
        assert 'label="2 4 1 3"' in dot  # prime label as a pattern string
        assert "n0 -> n1;" in dot
        assert dot.count("->") == 4

    def test_dot_deterministic(self):
        one = tree_to_dot(decomposition_tree(SIGMA11))
        two = tree_to_dot(decomposition_tree(SIGMA11))
        assert one == two

    def test_text_outline(self):
        text = tree_to_text(decomposition_tree(SIGMA11))
        lines = text.splitlines()
        assert lines[0].startswith("P 3 1 4 2")
        assert "  5 (pos 1)" in lines
        assert any(line.strip().startswith("+ (pos 3-8") for line in lines)


def _evens_then_odds(n: int) -> Permutation:
    """2 4 ... 1 3 ...: a prime root over n leaves, which the stack pass scans in O(n^2)."""
    return Permutation(tuple([*range(2, n + 1, 2), *range(1, n + 1, 2)]))


def _export_hosts() -> list[Permutation]:
    """About 60 seeded hosts of sizes 1-300 from the families the exports meet.

    Random, separable, near-identity (a few adjacent swaps), prime-rich (a
    random skeleton inflated by random blocks), alternating chains,
    identity and reverse, and 2 4 ... 1 3 ....
    """
    rng = random.Random(23)
    sizes = (1, 2, 3, 7, 16, 40, 95, 300)
    hosts = [random_permutation(rng, n) for n in sizes]
    hosts += [random_separable(rng, n) for n in sizes]
    for n in sizes:
        values = list(range(1, n + 1))
        for _ in range(rng.randint(1, 6) if n > 1 else 0):
            p = rng.randrange(n - 1)
            values[p], values[p + 1] = values[p + 1], values[p]
        hosts.append(Permutation(tuple(values)))
    for n in (4, 6, 8, 12):
        skeleton = random_permutation(rng, n)
        blocks = [random_permutation(rng, rng.randint(1, 9)) for _ in range(n)]
        hosts.append(Permutation(concat_rho(skeleton, blocks).values))
    for n in sizes:
        hosts.append(alternating_chain(n))
        hosts.append(Permutation(tuple(range(1, n + 1))))
        hosts.append(Permutation(tuple(range(n, 0, -1))))
        hosts.append(_evens_then_odds(n))
    return hosts


def exports_digest() -> str:
    """sha256 over text, DOT and JSON of each host's labeled and expanded tree."""
    digest = hashlib.sha256()
    for sigma in _export_hosts():
        tree = decomposition_tree(sigma)
        for t in (tree, expand_tree(tree)):
            for text in (tree_to_text(t), tree_to_dot(t), json.dumps(tree_to_dict(t))):
                digest.update(f"{text}\n".encode())
    return digest.hexdigest()


def test_exports_match_the_recorded_digest():
    """Trees, their expansion and all three exports stay byte for byte the same."""
    assert len(_export_hosts()) == 60
    assert exports_digest() == EXPORTS_DIGEST


class TestDeepTrees:
    """Building and walking a tree keep their own stacks, so depth is no limit."""

    def test_chain_of_2000_round_trips(self):
        sigma = alternating_chain(2000)
        tree = decomposition_tree(sigma)
        expanded = expand_tree(tree)
        lines = tree_to_text(tree).splitlines()
        assert len(lines) == 3999
        assert max(len(line) - len(line.lstrip()) for line in lines) == 2 * 1999
        assert tree_to_dot(expanded).count("->") == 3998
        assert tree_to_dict(expanded)["root"]["span"] == [1, 2000]
        assert tree_to_permutation(tree).values == sigma.values
        assert tree_to_permutation(expanded).values == sigma.values

    def test_chain_of_5000_walks(self):
        sigma = alternating_chain(5000)
        tree = decomposition_tree(sigma)
        expanded = expand_tree(tree)
        assert sum(1 for _ in expanded.walk()) == 9999
        assert max_prime_arity(tree) == 0
        assert len(tree_to_text(tree).splitlines()) == 9999
        assert tree_to_dot(tree).count("->") == 9998
        assert tree_to_dict(tree)["size"] == 5000
        assert tree_to_permutation(tree).values == sigma.values
        assert tree_to_permutation(expanded).values == sigma.values

    def test_chain_of_3000_pickles_and_copies(self):
        """A node pickles flat, so neither pickle nor deepcopy of a tree or node recurses."""
        sigma = alternating_chain(3000)
        tree = decomposition_tree(sigma)
        for host in (tree, expand_tree(tree), tree.root):
            copies = [pickle.loads(pickle.dumps(host, p)) for p in (0, pickle.HIGHEST_PROTOCOL)]
            copies.append(copy.deepcopy(host))
            if isinstance(host, DecompTree):
                shallow = copy.copy(host)
                assert shallow is not host and shallow.root is host.root
            else:  # a bare node, read as the root of the tree it came from
                assert all(type(again) is DecompNode for again in copies)
                copies = [DecompTree(again, tree.source_size, tree.expanded) for again in copies]
                host = tree
            text = tree_to_text(host)
            for again in copies:
                assert again.root is not host.root
                assert (again.source_size, again.expanded) == (host.source_size, host.expanded)
                assert tree_to_permutation(again) == sigma
                assert tree_to_text(again) == text

    def test_nested_spec_3000_deep_round_trips(self):
        spec = 1
        for v in range(2, 3001):
            spec = ("+", spec, v)
        tree = tree_from_nested(spec)
        assert (tree.source_size, tree.expanded) == (3000, True)
        assert tree_to_permutation(tree).values == tuple(range(1, 3001))


class TestEachNodeBuiltOnce:
    """Every DecompNode the builders make is counted through a subclass put in its place."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]

        class Counted(DecompNode):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                count[0] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(decomposition, "DecompNode", Counted)
        return count

    @pytest.mark.parametrize(
        "sigma",
        [
            Permutation(tuple(range(1, 2001))),
            Permutation(tuple(range(2000, 0, -1))),
            alternating_chain(500),
            _evens_then_odds(500),
            random_permutation(random.Random(5), 500),
        ],
        ids=["identity", "reverse", "chain", "evens-then-odds", "random"],
    )
    def test_tree_builds_only_the_nodes_it_holds(self, built, sigma):
        tree = decomposition_tree(sigma)
        assert built[0] == sum(1 for _ in tree.walk())

    def test_expand_builds_only_the_nodes_its_source_lacks(self, built):
        """k - 1 binary nodes per linear node of arity k > 2, and a copy of each node above one."""
        rng = random.Random(6)
        hosts = [
            SIGMA11,
            Permutation(tuple(range(1, 2001))),
            random_permutation(rng, 500),
            random_separable(rng, 300),
        ]
        for sigma in hosts:
            tree = decomposition_tree(sigma)
            changed, expected = set(), 0
            for node in reversed(list(tree.walk())):
                if node.kind == "linear" and node.arity > 2:
                    expected += node.arity - 1
                elif any(id(child) in changed for child in node.children):
                    expected += 1
                else:
                    continue
                changed.add(id(node))
            before = built[0]
            expanded = expand_tree(tree)
            source = {id(node) for node in tree.walk()}
            new = sum(1 for node in expanded.walk() if id(node) not in source)
            assert built[0] - before == new == expected

    @pytest.mark.parametrize(
        "sigma", [alternating_chain(300), parse_permutation("2 4 1 3")], ids=["chain", "2413"]
    )
    def test_expand_returns_a_tree_without_wide_linear_nodes_itself(self, built, sigma):
        tree = decomposition_tree(sigma)
        before = built[0]
        assert expand_tree(tree).root is tree.root
        assert built[0] == before
