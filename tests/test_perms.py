"""Core types, parsing, normalization and involvement search."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_permutations, contains_by_enumeration
from permlcp import (
    Occurrence,
    Pattern,
    Permutation,
    PermutationError,
    avoids,
    find_occurrence,
    normalize,
    parse_permutation,
)


class TestParse:
    def test_eleven_element_fixture(self):
        p = parse_permutation("5 1 10 9 6 7 8 11 2 4 3")
        assert p.n == 11
        assert p.values == (5, 1, 10, 9, 6, 7, 8, 11, 2, 4, 3)

    def test_single_entry(self):
        assert parse_permutation("1").values == (1,)

    def test_commas_and_spaces(self):
        assert parse_permutation("3,1 , 2").values == (3, 1, 2)
        assert parse_permutation("  2   1 ").values == (2, 1)

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "1 1 2", "1 3", "0 1", "-1 2", "a b", "1,,2", "2 1.5"],
    )
    def test_rejects_bad_input(self, text):
        with pytest.raises(PermutationError):
            parse_permutation(text)


class TestTypes:
    def test_permutation_must_be_bijection(self):
        with pytest.raises(PermutationError):
            Permutation((1, 3))
        with pytest.raises(PermutationError):
            Permutation((2, 2, 1))
        with pytest.raises(PermutationError):
            Permutation(())

    def test_pattern_may_be_empty(self):
        eps = Pattern(())
        assert eps.length == 0
        assert len(eps) == 0

    def test_occurrence_positions_strictly_increase(self):
        Occurrence((1, 3, 4))
        with pytest.raises(PermutationError):
            Occurrence((3, 3))
        with pytest.raises(PermutationError):
            Occurrence((0, 1))


class TestNormalize:
    def test_examples(self):
        assert normalize((5, 2, 9)).values == (2, 1, 3)
        assert normalize(()).values == ()

    def test_rank_sort_oracle(self):
        values = (4, 2, 3, 6, 5, 7, 8)
        expected = tuple(sorted(values).index(v) + 1 for v in values)
        assert expected == (3, 1, 2, 5, 4, 6, 7)
        assert normalize(values).values == expected

    def test_duplicates_rejected(self):
        with pytest.raises(PermutationError):
            normalize((1, 2, 1))

    @given(st.lists(st.integers(-100, 100), unique=True, max_size=10))
    def test_order_isomorphic_bijection(self, values):
        pat = normalize(values)
        assert sorted(pat.values) == list(range(1, len(values) + 1))
        for x in range(len(values)):
            for y in range(len(values)):
                assert (values[x] < values[y]) == (pat.values[x] < pat.values[y])


class TestFindOccurrence:
    def test_known_occurrences(self):
        host = parse_permutation("1 4 2 5 6 3")
        occ = find_occurrence(host, Pattern((1, 3, 4, 2)))
        assert occ is not None
        picked = tuple(host.values[p - 1] for p in occ)
        assert picked in {(1, 5, 6, 3), (1, 4, 6, 3), (2, 5, 6, 3), (1, 4, 5, 3)}

    def test_known_avoidance(self):
        host = parse_permutation("1 4 2 5 6 3")
        assert find_occurrence(host, Pattern((3, 2, 1))) is None
        assert avoids(host, Pattern((3, 2, 1)))

    def test_self_containment(self):
        host = parse_permutation("3 1 4 2")
        occ = find_occurrence(host, Pattern(host.values))
        assert occ.positions == (1, 2, 3, 4)
        assert not avoids(host, Pattern(host.values))

    def test_empty_pattern_occurs_everywhere(self):
        host = parse_permutation("2 1")
        occ = find_occurrence(host, Pattern(()))
        assert occ.positions == ()
        assert not avoids(host, Pattern(()))

    def test_long_pattern_does_not_recurse(self):
        occ = find_occurrence(range(1, 3001), range(1, 1500))
        assert occ.positions == tuple(range(1, 1500))

    def test_pattern_longer_than_host(self):
        assert find_occurrence(Permutation((1,)), Pattern((1, 2))) is None

    def test_exhaustive_agreement_small(self):
        """Every occurrence found is the lexicographically least one."""
        for host in all_permutations(4):
            for k in range(5):
                for pat_perm in all_permutations(k) if k else [None]:
                    pat = Pattern(()) if pat_perm is None else Pattern(pat_perm.values)
                    got = find_occurrence(host, pat)
                    want = contains_by_enumeration(host.values, pat.values)
                    assert (got is not None) == want
                    least = min(
                        (
                            tuple(p for p, _ in c)
                            for c in combinations(enumerate(host.values, 1), k)
                            if normalize(tuple(v for _, v in c)).values == pat.values
                        ),
                        default=None,
                    )
                    assert (None if got is None else got.positions) == least

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(1, n + 1))),
                st.integers(0, n),
            )
        ),
        st.randoms(use_true_random=False),
    )
    def test_random_agreement_with_enumeration(self, host_and_k, rng):
        host_values, k = host_and_k
        host = Permutation(tuple(host_values))
        pat = normalize(tuple(rng.sample(host_values, k)))
        got = find_occurrence(host, pat)
        assert (got is not None) == contains_by_enumeration(host.values, pat.values)
        assert avoids(host, pat) == (got is None)
