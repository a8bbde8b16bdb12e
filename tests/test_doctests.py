"""Keep the usage examples in the docstrings honest."""

import doctest
import importlib

import permlcp.algebra
import permlcp.perms

# The package re-exports the function lcp under the submodule's name.
lcp_module = importlib.import_module("permlcp.lcp")


def test_perms_doctests():
    result = doctest.testmod(permlcp.perms)
    assert result.failed == 0 and result.attempted > 0


def test_algebra_doctests():
    result = doctest.testmod(permlcp.algebra)
    assert result.failed == 0 and result.attempted > 0


def test_lcp_doctests():
    result = doctest.testmod(lcp_module)
    assert result.failed == 0 and result.attempted > 0
