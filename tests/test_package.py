"""The package surface: every exported name resolves, the DP's and the algebra's on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import permlcp

# The names that permlcp loads from their home module on first use.
DEFERRED = {
    "DpTable": "dp",
    "LcpPlan": "dp",
    "LcpResult": "dp",
    "lcp": "dp",
    "lcp_plan": "dp",
    "concat_plus": "algebra",
    "concat_minus": "algebra",
    "concat_rho": "algebra",
}


def fresh(code):
    """Stdout of a fresh ``python -S`` that imports permlcp from this checkout, then runs code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import permlcp; {code}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_star_import_binds_all_of_all():
    scope = "scope = {}; exec('from permlcp import *', scope); "
    assert fresh(scope + "print(sorted(set(permlcp.__all__) - set(scope)))") == "[]"


def test_every_name_in_all_resolves():
    assert fresh("print([name for name in permlcp.__all__ if not hasattr(permlcp, name)])") == "[]"


def test_submodules_resolve_as_attributes_after_a_bare_import():
    names = fresh("print(permlcp.dp.__name__, permlcp.algebra.__name__)")
    assert names == "permlcp.dp permlcp.algebra"


def test_dir_lists_all_of_all_before_any_load():
    assert fresh("print(sorted(set(permlcp.__all__) - set(dir(permlcp))))") == "[]"
    assert set(permlcp.__all__) <= set(dir(permlcp))


def test_deferred_name_is_the_object_in_its_home_module():
    """The first read of each name, for example permlcp.lcp, gives permlcp.dp.lcp."""
    code = (
        f"first = {{name: getattr(permlcp, name) for name in {list(DEFERRED)!r}}}; "
        "from importlib import import_module; "
        f"print([name for name, home in {DEFERRED!r}.items() "
        "if first[name] is not getattr(import_module('permlcp.' + home), name)])"
    )
    assert fresh(code) == "[]"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError) as exc:
        permlcp.no_such_name  # noqa: B018
    assert str(exc.value) == "module 'permlcp' has no attribute 'no_such_name'"
