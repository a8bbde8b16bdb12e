"""permlcp: longest common pattern between permutations.

Exact longest-common-pattern computation guided by decomposition trees:
polynomial when one input is separable or has bounded prime-node arity.
The brute-force oracles that the tests check it against live in
:mod:`permlcp.oracle`, which this package does not import.
"""

from .algebra import concat_minus, concat_plus, concat_rho
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
from .dp import DpTable, LcpPlan, LcpResult, lcp, lcp_plan
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
