"""Concatenation operators: worked examples and algebraic properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlcp import Pattern, concat_minus, concat_plus, concat_rho, normalize

patterns = st.integers(0, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda v: Pattern(tuple(v)))
)
nonempty_patterns = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda v: Pattern(tuple(v)))
)


def test_plus_worked_example():
    got = concat_plus(Pattern((4, 3, 5, 2, 1)), Pattern((3, 1, 4, 2)))
    assert got.values == (4, 3, 5, 2, 1, 8, 6, 9, 7)


def test_minus_worked_example():
    got = concat_minus(Pattern((4, 3, 5, 2, 1)), Pattern((3, 1, 4, 2)))
    assert got.values == (8, 7, 9, 6, 5, 3, 1, 4, 2)


def test_plus_small_example():
    assert concat_plus(Pattern((2, 1)), Pattern((1, 2, 3))).values == (2, 1, 3, 4, 5)


def test_minus_singletons():
    assert concat_minus(Pattern((1,)), Pattern((1,))).values == (2, 1)


def test_empty_is_identity():
    pi = Pattern((3, 1, 2))
    eps = Pattern(())
    assert concat_plus(eps, pi).values == pi.values
    assert concat_plus(pi, eps).values == pi.values
    assert concat_minus(eps, pi).values == pi.values
    assert concat_minus(pi, eps).values == pi.values


def test_rho_worked_example():
    blocks = [
        Pattern((2, 1)),
        Pattern((3, 1, 2)),
        Pattern((4, 3, 2, 1)),
        Pattern((1, 2)),
        Pattern((2, 3, 1)),
    ]
    got = concat_rho(Pattern((2, 5, 3, 1, 4)), blocks)
    assert got.values == (4, 3, 14, 12, 13, 8, 7, 6, 5, 1, 2, 10, 11, 9)


def test_rho_single_block():
    pi = Pattern((2, 3, 1))
    assert concat_rho(Pattern((1,)), [pi]).values == pi.values


def test_rho_with_empty_blocks():
    got = concat_rho(Pattern((2, 1, 3)), [Pattern(()), Pattern((1, 2)), Pattern((1,))])
    assert got.values == (1, 2, 3)


def test_rho_arity_mismatch():
    with pytest.raises(ValueError):
        concat_rho(Pattern((2, 1)), [Pattern((1,))])
    with pytest.raises(ValueError):
        concat_rho(Pattern(()), [])


@given(patterns, patterns)
def test_rho_two_block_cases_match_signed_ops(p, q):
    # The signed concatenations by definition: one block shifted above the other.
    assert concat_rho(Pattern((1, 2)), [p, q]).values == p.values + tuple(v + len(p) for v in q)
    assert concat_rho(Pattern((2, 1)), [p, q]).values == tuple(v + len(q) for v in p) + q.values
    assert concat_plus(p, q) == concat_rho(Pattern((1, 2)), [p, q])
    assert concat_minus(p, q) == concat_rho(Pattern((2, 1)), [p, q])


@given(nonempty_patterns, st.data())
def test_closure_length_and_substructure(rho, data):
    blocks = [data.draw(patterns) for _ in range(len(rho))]
    result = concat_rho(rho, blocks)  # Pattern construction validates closure
    assert len(result) == sum(len(b) for b in blocks)
    pos = 0
    for block in blocks:
        segment = result.values[pos : pos + len(block)]
        assert normalize(segment).values == block.values
        pos += len(block)
