"""Keep the usage examples in the docstrings and the README honest."""

import doctest
from pathlib import Path

import permlcp.algebra
import permlcp.decomposition
import permlcp.dp
import permlcp.perms


def test_perms_doctests():
    result = doctest.testmod(permlcp.perms)
    assert result.failed == 0 and result.attempted > 0


def test_algebra_doctests():
    result = doctest.testmod(permlcp.algebra)
    assert result.failed == 0 and result.attempted > 0


def test_decomposition_doctests():
    result = doctest.testmod(permlcp.decomposition)
    assert result.failed == 0 and result.attempted > 0


def test_lcp_doctests():
    result = doctest.testmod(permlcp.dp)
    assert result.failed == 0 and result.attempted > 0


def test_readme_quick_tour_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(block, scope)
    assert scope["result"].pattern.values == (2, 1, 3, 4, 5, 6)
    assert scope["is_separable"](scope["sigma"]) is False
    assert capsys.readouterr().out.startswith("P 3 1 4 2 ")
