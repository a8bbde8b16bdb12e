"""permlcp: longest common pattern between permutations.

Exact longest-common-pattern computation guided by decomposition trees:
polynomial when one input is separable or has bounded prime-node arity.
Its names from :mod:`permlcp.dp` and :mod:`permlcp.algebra` import their
module on first use (PEP 562), so ``permlcp tree`` and ``check`` never compile
the DP.  The tests' brute-force :mod:`permlcp.oracle` is never imported here.
"""

from .decomposition import (
    DecompNode,
    DecompTree,
    IntervalSpan,
    NotSeparableError,
    common_intervals,
    decomposition_tree,
    expand_tree,
    is_separable,
    max_prime_arity,
    tree_from_nested,
    tree_to_dict,
    tree_to_dot,
    tree_to_permutation,
    tree_to_text,
)
from .perms import (
    Occurrence,
    Pattern,
    Permutation,
    PermutationError,
    avoids,
    find_occurrence,
    normalize,
    parse_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "Pattern",
    "Occurrence",
    "PermutationError",
    "parse_permutation",
    "normalize",
    "find_occurrence",
    "avoids",
    "concat_plus",
    "concat_minus",
    "concat_rho",
    "IntervalSpan",
    "DecompNode",
    "DecompTree",
    "NotSeparableError",
    "common_intervals",
    "decomposition_tree",
    "expand_tree",
    "is_separable",
    "max_prime_arity",
    "tree_to_permutation",
    "tree_from_nested",
    "tree_to_dict",
    "tree_to_dot",
    "tree_to_text",
    "DpTable",
    "LcpResult",
    "LcpPlan",
    "lcp",
    "lcp_plan",
]

_DEFERRED = dict.fromkeys(("dp", "DpTable", "LcpPlan", "LcpResult", "lcp", "lcp_plan"), "dp")
_DEFERRED |= dict.fromkeys(("algebra", "concat_plus", "concat_minus", "concat_rho"), "algebra")


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Given a fromlist, __import__ returns the submodule, not the package.
    module = __import__(f"{__name__}.{_DEFERRED[name]}", fromlist=[name])
    value = globals()[name] = module if name == _DEFERRED[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})
