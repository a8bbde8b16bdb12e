"""Pattern concatenation operators.

These assemble patterns from blocks with value shifts: plus places the right
block above the left, minus places the left block above the right, and the
general form interleaves any number of blocks according to a template
permutation.  Every result is again a valid pattern.
"""

from __future__ import annotations

from collections.abc import Sequence

from .perms import Pattern, PermLike, _as_values


def concat_plus(left: PermLike, right: PermLike) -> Pattern:
    """Positive concatenation, ``concat_rho((1, 2), [left, right])``.

    >>> concat_plus(Pattern((2, 1)), Pattern((1, 2, 3))).values
    (2, 1, 3, 4, 5)
    """
    return concat_rho((1, 2), (left, right))


def concat_minus(left: PermLike, right: PermLike) -> Pattern:
    """Negative concatenation, ``concat_rho((2, 1), [left, right])``.

    >>> concat_minus(Pattern((1,)), Pattern((1,))).values
    (2, 1)
    """
    return concat_rho((2, 1), (left, right))


def concat_rho(rho: PermLike, blocks: Sequence[PermLike]) -> Pattern:
    """Concatenate ``blocks`` left to right, values arranged according to ``rho``.

    Block i keeps its internal order and is shifted up by the total size of
    the blocks ranked below it, i.e. by ``sum(len(block_j) for j with
    rho_j < rho_i)``.  Empty blocks are allowed and contribute nothing.
    The two-block cases are the signed concatenations: ``(1, 2)`` places
    the right block above the left one, ``(2, 1)`` the left above the right.
    """
    rv = _as_values(rho)
    if not rv:
        raise ValueError("rho must be non-empty")
    if len(blocks) != len(rv):
        raise ValueError(f"arity mismatch: |rho| = {len(rv)}, {len(blocks)} blocks")
    bvals = [_as_values(b) for b in blocks]
    sizes = [len(b) for b in bvals]
    out: list[int] = []
    for i, block in enumerate(bvals):
        shift = sum(sizes[j] for j in range(len(rv)) if rv[j] < rv[i])
        out.extend(v + shift for v in block)
    return Pattern(tuple(out))
