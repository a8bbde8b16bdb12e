"""Common intervals, strong intervals, and decorated decomposition trees.

A common interval is a block of consecutive positions whose values form an
integer interval; the strong ones (those overlapping no other common
interval) nest into a tree.  Internal nodes are typed linear (children's
value ranges monotone, signed + or -) or prime (labeled by the simple
permutation ordering the children by value).  Expanding a linear node of
arity k into k-1 binary nodes of the same sign yields the binary tree shape
the dynamic programs walk.  Every such binarization spells the same
permutation (Bose, Buss & Lubiw, IPL 1998); a + node is cut at the child
boundary nearest the middle of its span, and each side again, which cuts
the DP's cells, and a - node becomes a left comb.

The tree is built in one left-to-right stack pass, and every walk over a
tree keeps its own stack, so a tree of any depth stays within Python's
recursion limit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterator

from .perms import Pattern, Permutation, normalize


class NotSeparableError(ValueError):
    """A separable-only operation was given a permutation with prime structure."""


@dataclass(frozen=True, slots=True)
class IntervalSpan:
    """Inclusive 1-based position interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"invalid span [{self.lo}, {self.hi}]")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def overlaps(self, other: "IntervalSpan") -> bool:
        """Proper overlap: both differences and the intersection non-empty."""
        return (self.lo < other.lo <= self.hi < other.hi) or (
            other.lo < self.lo <= other.hi < self.hi
        )

    def __str__(self) -> str:
        return f"{self.lo}-{self.hi}"


@dataclass(frozen=True, eq=False, slots=True)
class DecompNode:
    """One node of a decomposition tree, decorated with its span and value range.

    kind is "leaf", "linear" or "prime"; linear nodes carry a sign, prime
    nodes a simple-permutation label whose arity equals the child count.
    Nodes compare by identity (trees can be large and are never deduplicated);
    use :func:`tree_to_dict` for structural comparison.
    """

    kind: str
    span: IntervalSpan
    value_range: tuple[int, int]
    children: tuple["DecompNode", ...] = ()
    sign: str | None = None
    label: Pattern | None = None

    @property
    def arity(self) -> int:
        return len(self.children)

    @property
    def is_leaf(self) -> bool:
        return self.kind == "leaf"

    @property
    def leaf_value(self) -> int:
        if self.kind != "leaf":
            raise ValueError("leaf_value on internal node")
        return self.value_range[0]

    def walk(self) -> Iterator["DecompNode"]:
        """Preorder: each node before its children, children left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children[::-1])


@dataclass(frozen=True, eq=False, slots=True)
class DecompTree:
    """A decomposition tree over a permutation of size ``source_size``.

    ``expanded`` records whether linear nodes have been binarized.
    """

    root: DecompNode
    source_size: int
    expanded: bool

    def walk(self) -> Iterator[DecompNode]:
        return self.root.walk()


def common_intervals(sigma: Permutation) -> frozenset[IntervalSpan]:
    """All spans whose values form an integer interval (includes singletons and [1, n])."""
    vals = sigma.values
    n = len(vals)
    spans = []
    for lo in range(n):
        mn = mx = vals[lo]
        for hi in range(lo, n):
            v = vals[hi]
            if v < mn:
                mn = v
            elif v > mx:
                mx = v
            if mx - mn == hi - lo:
                spans.append(IntervalSpan(lo + 1, hi + 1))
    return frozenset(spans)


def strong_intervals(sigma: Permutation) -> frozenset[IntervalSpan]:
    """The common intervals that overlap no other common interval: the tree's node spans."""
    return frozenset(node.span for node in decomposition_tree(sigma).walk())


def _classify(children: tuple[DecompNode, ...], span: IntervalSpan) -> DecompNode:
    """Build the internal node over ``children``, typing and labeling it."""
    lo = min(c.value_range[0] for c in children)
    hi = max(c.value_range[1] for c in children)
    increasing = all(
        children[t + 1].value_range[0] == children[t].value_range[1] + 1
        for t in range(len(children) - 1)
    )
    if increasing:
        return DecompNode("linear", span, (lo, hi), children, sign="+")
    decreasing = all(
        children[t + 1].value_range[1] == children[t].value_range[0] - 1
        for t in range(len(children) - 1)
    )
    if decreasing:
        return DecompNode("linear", span, (lo, hi), children, sign="-")
    label = normalize(tuple(c.value_range[0] for c in children))
    return DecompNode("prime", span, (lo, hi), children, label=label)


def decomposition_tree(sigma: Permutation) -> DecompTree:
    """The labeled (non-expanded) decomposition tree of ``sigma``.

    One left-to-right stack pass: the node holding the newest position
    replaces the shortest stack suffix whose values, together with its own,
    form an interval.  The scan down the stack stops once the union's value
    range reaches a value not yet read, which a doubly linked list of the
    unread values tells in O(1).
    """
    vals = sigma.values
    n = len(vals)
    # Nearest unread value below / above v; 0 and n + 1 are sentinels.
    below = list(range(-1, n + 1))
    above = list(range(1, n + 3))
    stack: list[DecompNode] = []
    for pos, v in enumerate(vals, 1):
        floor, ceil = below[v], above[v]
        above[floor], below[ceil] = ceil, floor
        node = DecompNode("leaf", IntervalSpan(pos, pos), (v, v))
        lo = hi = v
        k = len(stack)
        while k:
            k -= 1
            top = stack[k]
            lo = min(lo, top.value_range[0])
            hi = max(hi, top.value_range[1])
            if lo <= floor or hi >= ceil:
                break
            if hi - lo == pos - top.span.lo:
                node = _classify((*stack[k:], node), IntervalSpan(top.span.lo, pos))
                if node.kind == "linear" and top.kind == "linear" and top.sign == node.sign:
                    # A same-sign linear first child is no strong interval.
                    node = replace(node, children=top.children + node.children[1:])
                del stack[k:]
                lo, hi = node.value_range
        stack.append(node)
    return DecompTree(stack[0], n, expanded=False)


def _fold(root: DecompNode, combine):
    """``combine(node, results for its children)``, children first, without recursion.

    Reversed preorder puts each node after its subtree, first child's result on top.
    """
    results: list = []
    for node in reversed(list(root.walk())):
        parts = [results.pop() for _ in node.children]
        results.append(combine(node, parts))
    return results[0]


def _join(children: list[DecompNode], ends: list[int], lo: int, hi: int) -> DecompNode:
    """Binary + nodes over ``children[lo:hi]``, cut nearest the middle of their span.

    ``ends`` holds each child's last position.  Cutting after child t
    leaves ``ends[t] - first + 1`` positions on the left, so the best cut
    minimizes ``|2 * ends[t] - first - last + 1|``, the smaller t on a tie.
    """
    if hi - lo == 1:
        return children[lo]
    first, last = children[lo].span.lo, ends[hi - 1]
    t = bisect_left(ends, (first + last) // 2, lo, hi - 1)
    if t > lo and (t == hi - 1 or ends[t - 1] + ends[t] >= first + last - 1):
        t -= 1
    left, right = _join(children, ends, lo, t + 1), _join(children, ends, t + 1, hi)
    return DecompNode(
        "linear",
        IntervalSpan(first, last),
        (left.value_range[0], right.value_range[1]),
        (left, right),
        sign="+",
    )


def expand_tree(tree: DecompTree) -> DecompTree:
    """Binarize every linear node into same-sign binary nodes.

    A + node is cut at the child boundary nearest the middle of its span
    (the earlier one on a tie), and each side again, so its k children sit
    about log2 k levels deep rather than k - 1, and the DP fills fewer
    cells.  A - node becomes a left comb: its scans skip dominated splits
    only within a row, so balancing it would cost cells.
    """
    if tree.expanded:
        raise ValueError("tree is already expanded")

    def expand(node: DecompNode, children: list[DecompNode]) -> DecompNode:
        if node.is_leaf:
            return node
        if node.kind == "prime" or len(children) == 2:
            return DecompNode(
                node.kind, node.span, node.value_range, tuple(children), node.sign, node.label
            )
        if node.sign == "+":
            return _join(children, [c.span.hi for c in children], 0, len(children))
        acc = children[0]
        for child in children[1:]:
            acc = DecompNode(
                "linear",
                IntervalSpan(acc.span.lo, child.span.hi),
                (child.value_range[0], acc.value_range[1]),
                (acc, child),
                sign="-",
            )
        return acc

    return DecompTree(_fold(tree.root, expand), tree.source_size, expanded=True)


def is_separable(sigma: Permutation) -> bool:
    """True iff the decomposition tree of ``sigma`` has no prime node."""
    return all(node.kind != "prime" for node in decomposition_tree(sigma).walk())


def separating_tree(sigma: Permutation) -> DecompTree:
    """A binary separating tree of a separable permutation, as :func:`expand_tree` shapes it."""
    tree = decomposition_tree(sigma)
    if any(node.kind == "prime" for node in tree.walk()):
        raise NotSeparableError(f"{sigma} is not separable")
    return expand_tree(tree)


def max_prime_arity(tree: DecompTree) -> int:
    """Largest arity over prime nodes; 0 when the tree has none."""
    return max((n.arity for n in tree.walk() if n.kind == "prime"), default=0)


def tree_to_permutation(tree: DecompTree) -> Permutation:
    """Rebuild the permutation from structure and labels alone (decoration ignored).

    Two linear passes: children before parents, count each node's leaves;
    then top down, give each node's children consecutive blocks of values
    in the order their sign or label ranks them.
    """
    order = list(tree.walk())
    size: dict[DecompNode, int] = {}
    for node in reversed(order):
        if node.is_leaf:
            size[node] = 1
            continue
        if node.kind == "linear":
            if node.arity < 2:
                raise ValueError("malformed tree: linear node with fewer than 2 children")
            if node.sign not in ("+", "-"):
                raise ValueError(f"malformed tree: linear node with sign {node.sign!r}")
        elif node.label is None:
            raise ValueError("malformed tree: prime node without label")
        elif len(node.label) != node.arity:
            raise ValueError(
                f"malformed tree: prime label of arity {len(node.label)} over {node.arity} children"
            )
        size[node] = sum(size[child] for child in node.children)
    low = {tree.root: 0}
    values = []
    for node in order:  # preorder meets the leaves left to right
        base = low[node]
        if node.is_leaf:
            values.append(base + 1)
            continue
        children = node.children
        if node.kind == "prime":
            rank = node.label.values
            children = [children[k] for k in sorted(range(node.arity), key=rank.__getitem__)]
        elif node.sign == "-":
            children = children[::-1]
        for child in children:
            low[child] = base
            base += size[child]
    return Permutation(tuple(values))


def tree_from_nested(spec) -> DecompTree:
    """Build a decorated tree from a nested description over leaf values.

    ``spec`` is an int (a leaf value), ``('+', c1, c2, ...)`` or
    ``('-', c1, c2, ...)`` for signed linear nodes, or
    ``((r1, ..., rd), c1, ..., cd)`` for a prime node labeled by the
    permutation ``r``.  Leaf positions run left to right; the leaves must
    spell out a permutation of {1..n}.  Useful for constructing alternative
    separating trees, which are not unique.
    """
    next_pos = 0

    def build(s) -> DecompNode:
        nonlocal next_pos
        if isinstance(s, int):
            next_pos += 1
            return DecompNode("leaf", IntervalSpan(next_pos, next_pos), (s, s))
        head, children_spec = s[0], s[1:]
        if len(children_spec) < 2:
            raise ValueError("internal node needs at least 2 children")
        children = tuple(build(c) for c in children_spec)
        span = IntervalSpan(children[0].span.lo, children[-1].span.hi)
        node = _classify(children, span)
        if node.value_range[1] - node.value_range[0] != span.hi - span.lo:
            raise ValueError(f"children of node over {span} do not tile a value interval")
        if head in ("+", "-"):
            if node.sign != head:
                raise ValueError(
                    f"children value ranges are not {'increasing' if head == '+' else 'decreasing'}"
                )
        elif node.kind != "prime" or node.label.values != tuple(head):
            raise ValueError(f"prime label {head} does not match the children's value order")
        return node

    root = build(spec)
    leaves = tuple(n.leaf_value for n in root.walk() if n.is_leaf)
    Permutation(leaves)  # validates the leaf decoration
    expanded = all(
        n.kind != "linear" or n.arity == 2 for n in root.walk()
    )
    return DecompTree(root, len(leaves), expanded=expanded)


def tree_to_dict(tree: DecompTree) -> dict:
    """JSON-ready dict: nested {kind, sign?, label?, span, value_range, children}."""

    def node_dict(node: DecompNode, children: list[dict]) -> dict:
        d: dict = {
            "kind": node.kind,
            "span": [node.span.lo, node.span.hi],
            "value_range": list(node.value_range),
        }
        if node.kind == "linear":
            d["sign"] = node.sign
        elif node.kind == "prime":
            d["label"] = list(node.label.values)
        d["children"] = children
        return d

    return {
        "size": tree.source_size,
        "expanded": tree.expanded,
        "root": _fold(tree.root, node_dict),
    }


def tree_to_dot(tree: DecompTree) -> str:
    """Graphviz DOT rendering; node ids follow preorder for stable diffs."""
    names = {node: f"n{k}" for k, node in enumerate(tree.walk())}
    lines = ["digraph decomposition_tree {"]
    for node, name in names.items():
        if node.is_leaf:
            lines.append(f'  {name} [shape=none, label="{node.leaf_value}"];')
        elif node.kind == "linear":
            lines.append(f'  {name} [shape=box, label="{node.sign}"];')
        else:
            text = " ".join(map(str, node.label.values))
            lines.append(f'  {name} [shape=box, label="{text}"];')
        lines.extend(f"  {name} -> {names[child]};" for child in node.children)
    lines.append("}")
    return "\n".join(lines)


def tree_to_text(tree: DecompTree) -> str:
    """Indented outline with decorations, one node per line."""
    out: list[str] = []
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if node.is_leaf:
            out.append(f"{pad}{node.leaf_value} (pos {node.span.lo})")
        else:
            vlo, vhi = node.value_range
            deco = f"(pos {node.span}, val {vlo}-{vhi})"
            if node.kind == "linear":
                out.append(f"{pad}{node.sign} {deco}")
            else:
                out.append(f"{pad}P {' '.join(map(str, node.label.values))} {deco}")
        stack.extend([(child, depth + 1) for child in node.children[::-1]])
    return "\n".join(out)
