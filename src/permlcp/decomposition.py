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

The tree is built in one left-to-right stack pass that builds each node
once: a linear node grows its child list in place while it is open on the
stack.  Expansion builds only the binary nodes and the copies of the nodes
above them, so an expanded tree shares every other subtree with its
source.  Every walk over a tree keeps its own stack, and the bottom-up
passes share one children-first list of the nodes, so a tree of any depth
stays within Python's recursion limit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from .perms import Pattern, Permutation, Record, normalize


class NotSeparableError(ValueError):
    """A separable-only operation was given a permutation with prime structure."""


class IntervalSpan(Record):
    """Inclusive 1-based position interval [lo, hi]; a record, so spans can live in sets."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if lo.__class__ is not int or hi.__class__ is not int or not 1 <= lo <= hi:
            raise ValueError(f"invalid span [{lo!r}, {hi!r}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self) -> str:
        return f"{self.lo}-{self.hi}"


# The slots' own setters, which Record.__setattr__ does not see.
_set_lo, _set_hi = IntervalSpan.lo.__set__, IntervalSpan.hi.__set__


class DecompNode:
    """One node of a decomposition tree, decorated with its span and value range.

    kind is "leaf", "linear" or "prime"; linear nodes carry a sign, prime
    nodes a simple-permutation label whose arity equals the child count.
    A node is read-only by contract: nothing writes its fields after it is
    built, and subtrees are shared between a tree and its expansion.
    Nodes compare and hash by identity (trees can be large and are never
    deduplicated); use :func:`tree_to_dict` for structural comparison, on
    trees less deep than the recursion limit: ``==`` between two of its
    results recurses.  A node pickles as a flat postorder list of its
    subtree, so ``pickle`` and ``copy`` take a node, or a tree, of any
    depth.  The repr shows the node alone, not its subtree:

    >>> from permlcp import parse_permutation
    >>> decomposition_tree(parse_permutation("2 4 1 3 5")).root
    <DecompNode linear sign='+' span=1-5 value_range=(1, 5) arity=2>
    """

    __slots__ = ("kind", "span", "value_range", "children", "sign", "label")

    def __init__(
        self,
        kind: str,
        span: IntervalSpan,
        value_range: tuple[int, int],
        children: tuple[DecompNode, ...] = (),
        sign: str | None = None,
        label: Pattern | None = None,
    ) -> None:
        self.kind = kind
        self.span = span
        self.value_range = value_range
        self.children = children
        self.sign = sign
        self.label = label

    def __repr__(self) -> str:
        deco = "" if self.sign is None else f" sign={self.sign!r}"
        if self.label is not None:
            deco += f" label={self.label.values}"
        return (
            f"<DecompNode {self.kind}{deco} span={self.span} "
            f"value_range={self.value_range} arity={len(self.children)}>"
        )

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

    def walk(self) -> Iterator[DecompNode]:
        """Preorder: each node before its children, children left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children[::-1])

    def __reduce__(self):
        nodes = [
            (n.kind, n.span.lo, n.span.hi, n.value_range, len(n.children), n.sign, n.label)
            for n in _postorder(self)
        ]
        return _from_postorder, (nodes,)


def _postorder(root: DecompNode) -> list[DecompNode]:
    """The nodes under ``root``, each after its subtree, children left to right."""
    # Reversed: a preorder that visits each node's children last first.
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    return order[::-1]


def _from_postorder(nodes: list[tuple]) -> DecompNode:
    """The subtree ``DecompNode.__reduce__`` flattened, each node built from the top of a stack."""
    built: list[DecompNode] = []
    for kind, lo, hi, value_range, arity, sign, label in nodes:
        children = ()
        if arity:
            children = tuple(built[-arity:])
            del built[-arity:]
        built.append(DecompNode(kind, IntervalSpan(lo, hi), value_range, children, sign, label))
    (root,) = built
    return root


class DecompTree(Record):
    """A decomposition tree over a permutation of size ``source_size``.

    ``expanded`` records whether linear nodes have been binarized.  Trees
    compare and hash by identity, as their nodes do; ``copy.copy`` shares
    the root.
    """

    __slots__ = ("root", "source_size", "expanded")

    def __init__(self, root: DecompNode, source_size: int, expanded: bool) -> None:
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "source_size", source_size)
        object.__setattr__(self, "expanded", expanded)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

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


def decomposition_tree(sigma: Permutation) -> DecompTree:
    """The labeled (non-expanded) decomposition tree of ``sigma``.

    One left-to-right stack pass: the node holding the newest position
    replaces the shortest stack suffix whose values, together with its own,
    form an interval.  The scan down the stack stops once the union's value
    range reaches a value not yet read, which a doubly linked list of the
    unread values tells in O(1).

    A merge of two entries is linear, signed by their value ranges; one of
    three or more is prime, since two adjacent entries whose union is an
    interval would have merged when the later one was pushed.  A linear
    node stays open on the stack: a same-sign merge appends the new child
    to its list in place, and the node is built once, when it becomes a
    child or the root.
    """
    vals = sigma.values
    n = len(vals)
    # Nearest unread value below / above v; 0 and n + 1 are sentinels.
    below = list(range(-1, n + 1))
    above = list(range(1, n + 3))
    # A stack entry is [first position, lowest value, highest value, node,
    # sign, children]: a built node with sign and children None, or an open
    # linear node with node None.  Lists, not tuples: the interpreter keeps
    # freed tuples for tuples of their size alone, which raised peak memory.
    stack: list[list] = []
    for pos, v in enumerate(vals, 1):
        floor, ceil = below[v], above[v]
        above[floor], below[ceil] = ceil, floor
        entry = [pos, v, v, DecompNode("leaf", IntervalSpan(pos, pos), (v, v)), None, None]
        lo = hi = v
        k = len(stack)
        while k:
            k -= 1
            top = stack[k]
            if top[1] < lo:
                lo = top[1]
            if top[2] > hi:
                hi = top[2]
            if lo <= floor or hi >= ceil:
                break
            if hi - lo == pos - top[0]:
                if k == len(stack) - 1:
                    sign = "+" if top[2] < entry[1] else "-"
                    if top[4] == sign:
                        # A same-sign linear first child is no strong interval.
                        children = top[5]
                        children.append(_built(entry))
                    else:
                        children = [_built(top), _built(entry)]
                    entry = [top[0], lo, hi, None, sign, children]
                else:
                    children = [_built(e) for e in stack[k:]]
                    children.append(_built(entry))
                    label = normalize(tuple(c.value_range[0] for c in children))
                    node = DecompNode(
                        "prime", IntervalSpan(top[0], pos), (lo, hi), tuple(children), label=label
                    )
                    entry = [top[0], lo, hi, node, None, None]
                del stack[k:]
        stack.append(entry)
    return DecompTree(_built(stack[0]), n, expanded=False)


def _built(entry: list) -> DecompNode:
    """The node of a stack entry, building an open linear node now."""
    first, lo, hi, node, sign, children = entry
    if node is None:
        node = DecompNode(
            "linear", IntervalSpan(first, first + hi - lo), (lo, hi), tuple(children), sign=sign
        )
    return node


def _join(children: tuple[DecompNode, ...], ends: list[int], lo: int, hi: int) -> DecompNode:
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

    A node whose children all come back unchanged is returned itself, so
    the expanded tree shares every subtree without a linear node of arity
    above 2 with its source, and a tree with none keeps its root.
    """
    if tree.expanded:
        raise ValueError("tree is already expanded")
    # In postorder, a node's children's results are the top of the stack.
    results: list[DecompNode] = []
    for node in _postorder(tree.root):
        d = len(node.children)
        if not d:
            results.append(node)
            continue
        children = tuple(results[-d:])
        del results[-d:]
        if node.kind == "prime" or d == 2:
            if children != node.children:  # nodes compare by identity
                node = DecompNode(
                    node.kind, node.span, node.value_range, children, node.sign, node.label
                )
        elif node.sign == "+":
            node = _join(children, [c.span.hi for c in children], 0, d)
        else:
            node = children[0]
            for child in children[1:]:
                node = DecompNode(
                    "linear",
                    IntervalSpan(node.span.lo, child.span.hi),
                    (child.value_range[0], node.value_range[1]),
                    (node, child),
                    sign="-",
                )
        results.append(node)
    return DecompTree(results[0], tree.source_size, expanded=True)


def is_separable(sigma: Permutation) -> bool:
    """True iff the decomposition tree of ``sigma`` has no prime node."""
    return all(node.kind != "prime" for node in decomposition_tree(sigma).walk())


def max_prime_arity(tree: DecompTree) -> int:
    """Largest arity over prime nodes; 0 when the tree has none."""
    return max((n.arity for n in tree.walk() if n.kind == "prime"), default=0)


def tree_to_permutation(tree: DecompTree) -> Permutation:
    """Rebuild the permutation from structure and labels alone (decoration ignored).

    Two linear passes: children before parents, count each node's leaves;
    then top down, give each node's children consecutive blocks of values
    in the order their sign or label ranks them.
    """
    order = _postorder(tree.root)
    size: dict[DecompNode, int] = {}
    for node in order:
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
    for node in reversed(order):  # parents first, leaves right to left
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
    return Permutation(tuple(values[::-1]))


def tree_from_nested(spec) -> DecompTree:
    """Build a decorated tree from a nested description over leaf values.

    ``spec`` is an int (a leaf value), ``('+', c1, c2, ...)`` or
    ``('-', c1, c2, ...)`` for signed linear nodes, or
    ``((r1, ..., rd), c1, ..., cd)`` for a prime node labeled by the
    permutation ``r``.  Leaf positions run left to right; the leaves must
    spell out a permutation of {1..n}, and each node's children, ranked by
    their lowest values, must rank as its head says.  A label that ranks
    them monotonically is rejected: such a node is linear.  Useful for
    constructing alternative separating trees, which are not unique.
    """
    next_pos = 0
    # Frames: (head, children's specs, children built); the bottom one holds the root.
    stack = [(None, (spec,), [])]
    while True:
        head, specs, children = stack[-1]
        if len(children) < len(specs):
            s = specs[len(children)]
            if isinstance(s, int):
                next_pos += 1
                children.append(DecompNode("leaf", IntervalSpan(next_pos, next_pos), (s, s)))
            else:
                head, children_spec = s[0], s[1:]
                if len(children_spec) < 2:
                    raise ValueError("internal node needs at least 2 children")
                stack.append((head, children_spec, []))
            continue
        stack.pop()
        if not stack:
            break
        span = IntervalSpan(children[0].span.lo, children[-1].span.hi)
        lo = min(c.value_range[0] for c in children)
        hi = max(c.value_range[1] for c in children)
        if hi - lo != span.hi - span.lo:
            raise ValueError(f"children of node over {span} do not tile a value interval")
        order = normalize(tuple(c.value_range[0] for c in children))
        up = tuple(range(1, len(children) + 1))
        if head in ("+", "-"):
            if order.values != (up if head == "+" else up[::-1]):
                raise ValueError(
                    f"children value ranges are not {'increasing' if head == '+' else 'decreasing'}"
                )
            node = DecompNode("linear", span, (lo, hi), tuple(children), sign=head)
        elif order.values != tuple(head) or order.values in (up, up[::-1]):
            raise ValueError(f"prime label {head} is monotone or not the children's value order")
        else:
            node = DecompNode("prime", span, (lo, hi), tuple(children), label=order)
        stack[-1][2].append(node)
    (root,) = children
    leaves = tuple(n.leaf_value for n in root.walk() if n.is_leaf)
    Permutation(leaves)  # validates the leaf decoration
    expanded = all(n.kind != "linear" or n.arity == 2 for n in root.walk())
    return DecompTree(root, len(leaves), expanded=expanded)


def tree_to_dict(tree: DecompTree) -> dict:
    """JSON-ready dict: nested {kind, sign?, label?, span, value_range, children}.

    Each node's dict is made when its parent is visited and appended to the
    parent's child list, so the order the stack pops nodes in is free.
    """
    root = _node_dict(tree.root)
    stack = [(tree.root, root["children"])]
    while stack:
        node, children = stack.pop()
        for child in node.children:
            d = _node_dict(child)
            children.append(d)
            if child.children:
                stack.append((child, d["children"]))
    return {"size": tree.source_size, "expanded": tree.expanded, "root": root}


def _node_dict(node: DecompNode) -> dict:
    """A node's own entries in :func:`tree_to_dict`, with an empty child list."""
    d: dict = {
        "kind": node.kind,
        "span": [node.span.lo, node.span.hi],
        "value_range": list(node.value_range),
    }
    if node.kind == "linear":
        d["sign"] = node.sign
    elif node.kind == "prime":
        d["label"] = list(node.label.values)
    d["children"] = []
    return d


def tree_to_dot(tree: DecompTree) -> str:
    """Graphviz DOT rendering; node ids follow preorder for stable diffs.

    One preorder pass: a node's edge lines take a slot after its own line
    and are filled in once its children have their ids.
    """
    lines = ["digraph decomposition_tree {"]
    # Each frame: an iterator over a node's children, its id, the edge lines
    # named so far and their slot in ``lines``.  The root's frame has slot 0,
    # the header, and its one edge line is dropped.
    stack = [(iter((tree.root,)), "", [], 0)]
    k = 0
    while stack:
        children, parent, edges, slot = stack[-1]
        for node in children:
            name = f"n{k}"
            k += 1
            edges.append(f"  {parent} -> {name};")
            if node.kind == "leaf":
                lines.append(f'  {name} [shape=none, label="{node.value_range[0]}"];')
                continue
            if node.kind == "linear":
                lines.append(f'  {name} [shape=box, label="{node.sign}"];')
            else:
                text = " ".join(map(str, node.label.values))
                lines.append(f'  {name} [shape=box, label="{text}"];')
            lines.append("")
            stack.append((iter(node.children), name, [], len(lines) - 1))
            break
        else:
            stack.pop()
            if slot:
                lines[slot] = "\n".join(edges)
    lines.append("}")
    return "\n".join(lines)


def tree_to_text(tree: DecompTree) -> str:
    """Indented outline with decorations, one node per line."""
    out: list[str] = []
    # Each frame: an iterator over a node's children and their indent.
    stack = [(iter((tree.root,)), "")]
    while stack:
        children, pad = stack[-1]
        for node in children:
            if node.kind == "leaf":
                out.append(f"{pad}{node.value_range[0]} (pos {node.span.lo})")
                continue
            vlo, vhi = node.value_range
            deco = f"(pos {node.span}, val {vlo}-{vhi})"
            if node.kind == "linear":
                out.append(f"{pad}{node.sign} {deco}")
            else:
                out.append(f"{pad}P {' '.join(map(str, node.label.values))} {deco}")
            stack.append((iter(node.children), pad + "  "))
            break
        else:
            stack.pop()
    return "\n".join(out)
