"""Keep the usage examples in the docstrings honest."""

import doctest

import permlcp.algebra
import permlcp.dp
import permlcp.perms


def test_perms_doctests():
    result = doctest.testmod(permlcp.perms)
    assert result.failed == 0 and result.attempted > 0


def test_algebra_doctests():
    result = doctest.testmod(permlcp.algebra)
    assert result.failed == 0 and result.attempted > 0


def test_lcp_doctests():
    result = doctest.testmod(permlcp.dp)
    assert result.failed == 0 and result.attempted > 0
