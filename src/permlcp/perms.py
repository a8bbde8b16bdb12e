"""Core permutation and pattern types, parsing, and pattern involvement.

Permutations are bijections of {1..n} written in one-line notation; patterns
are the same but may be empty (the pattern epsilon).  Everything here is
immutable and 1-based at the boundary, matching the usual combinatorics
convention.

``find_occurrence`` is the definitional backtracking search.  It is
exponential in the worst case and intended for validation, oracles and small
inputs only; the polynomial algorithms live in :mod:`permlcp.dp`.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence


class PermutationError(ValueError):
    """Input does not define a valid permutation, pattern or occurrence."""


def _check_one_line(values: tuple[int, ...]) -> None:
    """Check that values is a bijection of {1..n}, n = len(values)."""
    n = len(values)
    seen = [False] * (n + 1)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PermutationError(f"non-integer entry {v!r}")
        if not 1 <= v <= n:
            raise PermutationError(f"value {v} out of range 1..{n}")
        if seen[v]:
            raise PermutationError(f"duplicate value {v}")
        seen[v] = True


class Record:
    """Base of the package's read-only records: fields in ``__slots__``, compared by value.

    A subclass lists its fields in ``__slots__`` and sets each one once in
    ``__init__`` through ``object.__setattr__``; after that, assigning or
    deleting a field raises ``AttributeError``.  Equality, hashing and
    pickling work from the tuple of field values, so an unpickled record is
    built, and checked, by its constructor; equality with any other class
    is ``NotImplemented``.  The repr is ``Name(field=value, ...)``.

    The records are written by hand, not as frozen dataclasses: importing
    :mod:`dataclasses` loads ``inspect``, ``ast`` and ``dis``, 8.3-8.9 ms of
    every start-up of the CLI, and each decorated class cost another 0.9 ms
    (Python 3.11).  A record sets its fields through ``object.__setattr__``,
    as a frozen dataclass does, or through its slots' own setters.
    :class:`DecompNode` is the one value type that is not a record: a tree
    builds one per node, and set that way a leaf node cost 0.97 us to build
    against 0.20 us (Python 3.11, x86-64), so nodes set their slots
    directly, compare by identity and pickle their subtree flat.
    """

    __slots__ = ()

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a read-only {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a read-only {type(self).__name__}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __reduce__(self):
        return self.__class__, self._field_values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Permutation(Record):
    """A permutation of {1..n}, n >= 1, in one-line notation.

    >>> str(Permutation((3, 1, 2)))
    '3 1 2'
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = tuple(values)
        if not values:
            raise PermutationError("empty input: a permutation has size >= 1")
        _check_one_line(values)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(map(str, self.values))


class Pattern(Record):
    """A normalized permutation used as a pattern value; may be empty.

    >>> Pattern(()).length
    0
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = tuple(values)
        _check_one_line(values)
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(map(str, self.values)) if self.values else "<empty>"


class Occurrence(Record):
    """Strictly increasing 1-based positions into a host permutation."""

    __slots__ = ("positions",)

    def __init__(self, positions: tuple[int, ...]) -> None:
        positions = tuple(positions)
        prev = 0
        for p in positions:
            if not isinstance(p, int) or isinstance(p, bool) or p <= prev:
                raise PermutationError(
                    f"positions must be strictly increasing and >= 1, got {positions}"
                )
            prev = p
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def __str__(self) -> str:
        return " ".join(map(str, self.positions))


PermLike = Permutation | Pattern | Sequence[int]


def _as_values(x: PermLike) -> tuple[int, ...]:
    if isinstance(x, (Permutation, Pattern)):
        return x.values
    return tuple(x)


_TOKEN = re.compile(r"[1-9][0-9]*")
_SEP = re.compile(r"\s*,\s*|\s+")


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation: positive integers split by spaces or single commas.

    >>> parse_permutation("5, 1, 3, 2, 4").n
    5
    """
    stripped = text.strip()
    if not stripped:
        raise PermutationError("empty input")
    values = []
    for token in _SEP.split(stripped):
        if not _TOKEN.fullmatch(token):
            raise PermutationError(f"malformed token {token!r}")
        values.append(int(token))
    return Permutation(tuple(values))


def normalize(values: PermLike) -> Pattern:
    """Reduce a sequence of distinct integers to its order-isomorphic pattern.

    >>> normalize((5, 2, 9)).values
    (2, 1, 3)
    """
    vals = _as_values(values)
    order = sorted(vals)
    for x, y in zip(order, order[1:]):
        if x == y:
            raise PermutationError(f"duplicate value {x}")
    rank = {v: r + 1 for r, v in enumerate(order)}
    return Pattern(tuple(rank[v] for v in vals))


def find_occurrence(host: PermLike, pi: PermLike) -> Occurrence | None:
    """Find one occurrence of pattern ``pi`` in ``host``, or None.

    Backtracking over position choices, pruned by the value window forced by
    the already-matched prefix, on a list of chosen positions rather than the
    call stack, so a pattern of any length fits the recursion limit.  The
    empty pattern occurs everywhere with the empty position list.  Returned
    positions are the lexicographically least occurrence, which makes
    results reproducible.  Raises PermutationError when ``host`` or ``pi`` is
    a raw sequence that is not a pattern; Permutation and Pattern values go
    unchecked, as they already are patterns.
    """
    hvals, pvals = (
        x.values if isinstance(x, (Permutation, Pattern)) else Pattern(x).values
        for x in (host, pi)
    )
    k, n = len(pvals), len(hvals)
    if k > n:
        return None

    chosen: list[int] = []  # host indices matched to pattern entries 0..t-1
    start = 0  # the first host index to try for entry t
    while (t := len(chosen)) < k:
        lo, hi = 0, n + 1
        for s in range(t):
            if pvals[s] < pvals[t]:
                v = hvals[chosen[s]]
                if v > lo:
                    lo = v
            elif pvals[s] > pvals[t]:
                v = hvals[chosen[s]]
                if v < hi:
                    hi = v
        for pos in range(start, n - (k - t) + 1):
            if lo < hvals[pos] < hi:
                chosen.append(pos)
                start = pos + 1
                break
        else:
            if not chosen:
                return None
            start = chosen.pop() + 1
    return Occurrence(tuple(p + 1 for p in chosen))


def avoids(host: PermLike, pi: PermLike) -> bool:
    """True iff ``host`` contains no occurrence of ``pi``."""
    return find_occurrence(host, pi) is None
