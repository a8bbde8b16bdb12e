"""Tree-guided dynamic programs for the longest common pattern.

The table M(V, i, j, a, b) holds, for a node V of the guiding tree and a
window of the target permutation (positions i..j, values a..b), the length
of a longest common pattern between the sub-permutation under V and that
window; it stores lengths, and the split that set each one.  Linear nodes combine the two child tables
over a split position h and a split value c; prime nodes of arity d slice
both windows into d weakly increasing pieces, matching position slices to
value slices through the node's simple-permutation label.  A binary linear
node is the d = 2 case, with ranks (1, 2) for + and (2, 1) for -.

Cells are evaluated top-down and memoized, so only states reachable from the
root query are ever touched.  The evaluation does not recurse: each cell's
scan is a generator that yields the child box it finds missing and is sent
that box's length, and one loop keeps the scans waiting on an explicit
stack, so a guide of any depth fills within the interpreter's recursion
limit.

Each scan reads the splits in one fixed order: position cuts in
lexicographic order, then value cuts in lexicographic order (for a linear
node, h ascending then c ascending).  Beside each exact length the fill
keeps the split that last raised the cell's best, which is the first split
in that order to reach the length.  The plain witness walks these stored
splits down from the root, so it is reproducible and runs no scan.  With
``canonical=True`` the lexicographically smallest pattern of maximal length
is kept instead, over every split that reaches each length, which the same
scan lists in its tie mode.  The scan order runs over the expanded guide,
so the way :func:`expand_tree` binarizes a linear node can pick another
plain witness among ties; no length and no canonical pattern depends on it.

No cell is longer than the number of target points (p, tau(p)) in its box:
a box with no point is 0 and a leaf box is 1 when it holds one, read from
tau.  The table finds a box's points from tau and its inverse alone,
walking in from the box's edges, so it holds nothing that grows as the
square of the target.  Each internal cell is the best sum of child cells
over all splits, and depends only on the points in its box.  So a scan cuts
only at i or a, or just after a window point: a cut moved past a position
or a value holding none repeats the split one step before it (Ibarra, IPL
1997).  Both scans list their cuts from the window's points themselves:
rows by the points' rank in position order, and columns from one sorted
list of their values.  A linear scan counts each child's points as it
goes, and a leaf child's length is its point count, so it asks no leaf
box; a prime scan takes a leaf child's length from a flag its value cuts
set.  A scan reads no child whose point counts, with the other children's,
cannot let its split beat the best so far; a linear scan reads only the one
run of rows whose bound can beat the best (see
:meth:`DpTable._linear_cell`), and a prime scan drops a whole prefix of
position cuts that cannot (see :func:`_position_cuts`).  No bound exceeds
the cell's own count, so a best that meets it stops all reads.  Every scan also
skips a split that an earlier split already beats.  A cell never shrinks when its
window grows, so along a scan axis one child's length never decreases and
the other's never increases; a split whose growing child did not grow past
what an earlier split read is at most as long as that split.  For a linear
node the growing child is the one taking the low values, and for a + node
it also grows with h; for a prime node, a value cut that adds nothing to
the slices before it leaves less to the slices after it.  So a skipped
split can only tie, every cell value stays the one the full scan gives, and
so does the first split in scan order that reaches it, which is the plain
witness.  A tied split can carry a smaller pattern, so the tie mode keeps
the bounds, with the best fixed one below the length, but skips only a
split that an earlier one strictly beats.
The tests check every materialized cell against the brute-force oracle.

Since an internal cell depends only on its box's points, it is scanned and
stored under its *tight box*: the first and last position and the lowest
and highest value of those points.  A box asked for under another key
whose tight box is already stored gets the value under its own key too, as
an alias, so later reads of that key hit at once.  The tight scan lists the
same splits as the scan of the box asked for, with the same child point
sets in the same order, so the lengths, the plain witness and the
canonical pick do not change; the witness walks read tight keys only.

A split can beat the best so far only if each child beats what the other
leaves it: the low child ``best - m_high``, where m_high bounds the high
child, and the high child ``best - u``.  So a linear scan asks each child
box with that *floor*, and the child's own scan starts its best there.  A
box that beats its floor comes back with its exact length; one that does
not comes back with the floor, which bounds it, and its table entry holds
the bound ``-1 - ub`` ("at most ub") in place of a length.  A later read at
a floor of at least ub takes the bound as it is; one at a lower floor scans
the box again.  A split that beats the best has both children above their
floors, so both come back exact, and the best rises through the same
splits as with every child exact.  A bound can stand in for an exact
length in the dominance skips below too: the split that read it could not
beat the best, and a split it dominates has a high child no longer than
that split's bound on it.  The tie mode starts its best one below the
cell's length, so it reads the children at floors no lower than the fill
did.  A prime scan starts at its own floor, but asks
its children for exact lengths.  :meth:`DpTable.cell`, ``root_cell`` and
``reconstruct`` ask at floor 0, so callers only ever see exact lengths.

:func:`lcp` is the single entry point.  The separable and the general
algorithm are this one program: :func:`lcp_plan` picks the guiding tree,
and a tree with no prime node is the separable case.  Before its walk,
:func:`lcp` asks the root at floor min(|sigma|, |tau|) - 1 whenever the
smaller input may occur in the larger, which makes the fill the pattern
involvement program of Bose, Buss and Lubiw (IPL 1998) and stores on a
miss only bounds that the walk rescans.  The table has O(m^4)
cells for a target of size m, and a node of arity d scans O(m^(2d - 2))
splits per cell, so under ``auto`` the plan predicts each input's cost as
a guide, the sum of m^(2d + 2) over its internal nodes, and takes the
cheaper one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .algebra import concat_rho
from .decomposition import (
    DecompNode,
    DecompTree,
    NotSeparableError,
    decomposition_tree,
    expand_tree,
    tree_to_permutation,
)
from .perms import Occurrence, Pattern, Permutation, normalize


def _ranks(node: DecompNode) -> tuple[int, ...]:
    """The value slice each child of an internal node takes, in child order."""
    if node.kind == "prime":
        return node.label.values
    return (1, 2) if node.sign == "+" else (2, 1)


def _position_cuts(hs: list[int], end: int, sizes: list[int], floor):
    """Yield (cuts, caps) for each position-cut tuple whose caps add up to more than ``floor()``.

    The children of a node take position slices of the window i..j in
    order.  The cuts are rows, as in a linear scan: ``hs`` is i, then one
    past each window point's position, and ``end`` is j + 1.  Rows x_1 <=
    ... <= x_{d-1} give ``cuts`` (i, hs[x_1], ..., hs[x_{d-1}], end); slice
    k holds positions cuts[k]..cuts[k + 1] - 1 and x_{k+1} - x_k points
    (x_0 = 0, x_d = P), and ``caps[k]`` is the smaller of that and
    ``sizes[k]``.  The tuples come in lexicographic order, built depth
    first one cut at a time.  A prefix x_1..x_k is dropped when the caps of
    the slices it closes plus the smaller of the later slices' sizes and
    the P - x_k points left cannot exceed the floor, since no tuple under
    it can; when the last slice it closes is already full, a later x_k only
    lowers that bound, so the level ends.  ``floor`` is called at every
    check and may only grow, so this yields exactly the tuples that pass
    the check when their turn comes.
    """
    d = len(sizes)
    total = len(hs) - 1
    rest = list(accumulate(reversed(sizes), initial=0))[::-1]  # rest[k]: sizes of slices k..d-1
    xs = [0] * d  # xs[k]: the row of cut h_k
    cuts = [hs[0]] * d + [end]
    held = [0] * d  # held[k]: the caps of slices 0..k-1
    caps = [0] * d
    k = 1
    xs[1] = -1  # the first step moves x_1 to 0
    while k:
        x = xs[k] + 1
        if x > total:
            k -= 1
            continue
        xs[k] = x
        cuts[k] = hs[x]
        size = sizes[k - 1]
        cap = x - xs[k - 1]
        if cap > size:
            cap = size
        more = total - x
        if more > rest[k]:
            more = rest[k]
        if held[k - 1] + cap + more <= floor():
            if cap == size:
                k -= 1
            continue
        caps[k - 1] = cap
        if k < d - 1:
            held[k] = held[k - 1] + cap
            k += 1
            xs[k] = x - 1
        else:
            caps[k] = more  # the last slice's cap, as rest[d - 1] is its size
            yield tuple(cuts), caps.copy()


@dataclass(frozen=True, slots=True)
class LcpResult:
    """A longest common pattern with one occurrence in each input."""

    pattern: Pattern
    occ_sigma: Occurrence
    occ_tau: Occurrence
    algorithm: str

    @property
    def length(self) -> int:
        return len(self.pattern)


class DpTable:
    """Memoized table of lengths M(V, i, j, a, b) for one guiding tree and one target.

    The guiding tree must be in expanded form (all linear nodes binary);
    prime nodes keep their arity.  Cells are computed on demand through
    :meth:`cell` and cached for the lifetime of the table, and
    :meth:`reconstruct` rebuilds a witness for any cell.  The scans and
    :meth:`cell` read a leaf's length from tau, so the table holds only tau,
    its inverse and, per internal node, a dict of entries and one of the
    splits that set them (see :meth:`_cell`): a scan counts
    its box's target points from tau itself, and no cell exceeds that
    count, so it bounds every cell and every child of a split.
    The dominance skips that cut each cell's scan short drop only
    splits that can at most tie one read earlier, so they change no cell
    value and no plain witness; the canonical walk runs the scans in tie
    mode, which skips only strictly beaten splits and lists every tied one.
    An internal box with points is evaluated under its tight box (see
    :meth:`_tight`), and the key it was asked for holds an alias of that
    entry once it exists; empty boxes keep the key asked for.

    An entry is an exact length (>= 0) or, for an internal box asked at a
    floor it did not beat, the bound ``-1 - ub``: the length is at most ub
    (see :meth:`_cell`).  :meth:`cell` reads through a bound, so it always
    returns the exact length.

    The fill keeps its own stack instead of Python's: an internal cell's
    scan is a generator that yields each child box missing from the table
    and resumes with its length, so the depth of the guide costs list
    entries, not interpreter frames.
    """

    def __init__(self, tree: DecompTree, tau: Permutation) -> None:
        self.tree = tree
        self.tau = tau
        self.n = len(tau)
        self._tauv = tau.values
        # Lengths live in one dict per node, keyed by (i, j, a, b) packed into
        # a single int: cheap to hash in the candidate loops.
        self._S = self.n + 2
        pos = self._pos = [0] * self.n  # pos[v - 1]: the position of value v
        for p, t in enumerate(tau.values, 1):
            pos[t - 1] = p
        self._tables: dict[DecompNode, dict[int, int]] = {}
        # The split that set each exact length, under the same keys (see _cell).
        self._splits: dict[DecompNode, dict[int, int | tuple]] = {}
        # Per binary linear node, from its first scan on (see _linear_cell).
        self._linear: dict[DecompNode, tuple] = {}
        self._nodes: set[DecompNode] = set()  # the guide's nodes, leaves included
        stack = [tree.root]
        while stack:
            node = stack.pop()
            kind = node.kind
            if kind != "leaf":
                if kind == "linear" and len(node.children) != 2:
                    raise ValueError(
                        "guiding tree must be expanded: found a linear node of "
                        f"arity {len(node.children)}"
                    )
                self._tables[node], self._splits[node] = {}, {}
            self._nodes.add(node)
            stack.extend(node.children)

    def cell(self, node: DecompNode, i: int, j: int, a: int, b: int) -> int:
        """The length M(node, i, j, a, b); ranges must satisfy 1 <= i <= j <= n, 1 <= a <= b <= n."""
        if not (1 <= i <= j <= self.n and 1 <= a <= b <= self.n):
            raise ValueError(f"cell ranges out of bounds: i={i} j={j} a={a} b={b}")
        if node not in self._nodes:
            raise ValueError("node does not belong to this table's guiding tree")
        if node.is_leaf:  # 1 when the box holds a target point, else 0
            return 0 if self._tight(i, j, a, b) is None else 1
        return self._cell(node, i, j, a, b)

    def root_cell(self) -> int:
        return self.cell(self.tree.root, 1, self.n, 1, self.n)

    def _cell(self, node: DecompNode, i: int, j: int, a: int, b: int, floor: int = 0) -> int:
        """The cell's length when it exceeds ``floor``, else a bound on it of at most ``floor``.

        An entry that answers the floor returns at once: an exact length, or
        a bound whose ub is at most the floor.  Otherwise the internal node's box is
        narrowed by :meth:`_tight`: one with no point is stored as 0, and
        one with points is read under its tight box.  When that entry
        answers the floor, it is stored under the box's own key too, as an
        alias.  Otherwise the tight box starts its scan at the floor, which
        waits on a stack as (scan, table, splits, key, floor) while the
        boxes it yields with their floors are evaluated the same way.  A
        scan's best is stored under the tight key only: when it beat the
        floor, as the exact length, with the split that set it in
        ``splits``; when not, as the bound "at most floor".  It is then sent
        to the scan below it.
        """
        S = self._S
        idx = ((i * S + j) * S + a) * S + b
        table = self._tables[node]
        length = table.get(idx)
        if length is not None and length >= -1 - floor:
            return length if length >= 0 else -1 - length
        stack = []
        while True:
            if (box := self._tight(i, j, a, b)) is None:
                length = table[idx] = 0
            else:
                i, j, a, b = box
                key = ((i * S + j) * S + a) * S + b
                length = table.get(key)
                if length is None or length < -1 - floor:
                    fill = self._linear_cell if node.kind == "linear" else self._prime_cell
                    scan = fill(node, i, j, a, b, floor)
                    stack.append((scan, table, self._splits[node], key, floor))
                    length = None  # a just-started scan takes no value
                else:
                    table[idx] = length  # the alias: the raw key of a stored tight box
                    if length < 0:
                        length = -1 - length
            while stack:
                scan, table, splits, idx, floor = stack[-1]
                try:
                    node, i, j, a, b, floor = scan.send(length)
                    break
                except StopIteration as done:
                    length, split = done.value
                    if length > floor:
                        splits[idx] = split
                    table[idx] = length if length > floor else -1 - floor
                    stack.pop()
            else:
                return length
            table = self._tables[node]
            idx = ((i * S + j) * S + a) * S + b

    def _run(self, scan):
        """Drive a tie-mode scan to its end, reading each box it yields under its tight key."""
        length = None
        try:
            while True:
                node, i, j, a, b, floor = scan.send(length)
                box = self._tight(i, j, a, b)
                length = 0 if box is None else self._cell(node, *box, floor)
        except StopIteration as done:
            return done.value

    def _tight(self, i: int, j: int, a: int, b: int) -> tuple[int, int, int, int] | None:
        """The tight box of the box's target points: their outermost positions and values, or None.

        That is their first and last position and their lowest and highest
        value, found by walking in from each edge over tau and its inverse.
        A box with no point, empty ranges j = i - 1 and b = a - 1 included,
        gives None.
        """
        tauv, pos = self._tauv, self._pos
        lo = i
        while lo <= j and not a <= tauv[lo - 1] <= b:
            lo += 1
        if lo > j:
            return None
        while not a <= tauv[j - 1] <= b:
            j -= 1
        while not lo <= pos[a - 1] <= j:
            a += 1
        while not lo <= pos[b - 1] <= j:
            b -= 1
        return lo, j, a, b

    def _linear_cell(
        self, node: DecompNode, i: int, j: int, a: int, b: int, floor: int = 0, ties=None
    ):
        """Scan a linear cell for (best, split), or with ``ties`` for the splits reaching a length.

        Like every scan, this is a generator: it yields each child box
        missing from the table, as (node, i, j, a, b, floor), is sent what
        :meth:`_cell` returns for it at that floor, and returns its result.
        The fill starts its best at ``floor`` and returns the best it
        reached with the split (h, c) that last raised it, packed as ``h *
        S + c``, or None.  The low child is asked at the floor ``best -
        m_high`` and the high one at ``best - u``, both at least 0, and a
        stored bound at or below that floor is read as it is: either way a
        child that cannot let the split beat the best comes back as a
        bound, and a bound read for u also feeds the dominance skips below.
        A leaf child is never asked: its length is its point count, 0 or 1.

        A split (h, c) gives positions i..h-1 to the left child and h..j to
        the right one, and values a..c-1 to the low child (the left one for
        +, the right one for -) and c..b to the high one.  The scan walks
        the window's P points, not its positions and values: row x is the
        cut h with x window points on its left (h = i for x = 0, else one
        past the x-th point's position), and the columns are c = a and one
        past each window value, in order.  A cut moved past a position or a
        value without a window point repeats the split before it, so these
        are all the splits there are to read.  Each child is bounded by its
        span's width and by its points, so with k_left and k_right the
        children's widths, row x is bounded by ``min(k_left, x) +
        min(k_right, P - x)``: the bound rises by one per row, stays at the
        cell's cap, then falls by one per row.  A split's length is at most
        its row's bound, so once a row on the rise passes the best, the best
        stays below the bound of each later row until the fall: the rows
        that can beat the best form one run.  The scan starts at the first
        row whose bound ``x + k_right`` passes the best and stops at the
        first row after it that fails.  Along a row, the children's points
        below c and from c on are counted one column at a time.

        The low child's length u(h, c) never decreases in c and the high
        child's never increases; for a + node the same holds in h.  u is
        read first.  The split is skipped when u does not exceed the largest
        u read at a split (h', c') before it whose high child is at least
        as long: one with h' = h for a - node, h' <= h and c' <= c for a +
        node.  Then it is no longer than that split, or than the bound that
        skipped it.  A split whose bounds cannot beat the best is not read,
        and the row ends at the first one whose high bound plus the low
        child's row bound cannot: later columns only lower the high bound.
        The high child is not read when u plus its bound cannot beat the
        best.  With a ``ties`` list (tie mode), called at a floor one below
        the cell's length, the scan appends the cuts ((i, h, j + 1), (a, c,
        b + 1)) of every split that beats the floor and returns (floor,
        None): the best stays at the floor, and ``top`` holds the u read less
        one, so only a split that u strictly beats is skipped, and the row
        break on ``top`` never fires.
        """
        facts = self._linear.get(node)
        if facts is None:  # the node's first scan
            positive = node.sign == "+"
            low, high = node.children if positive else node.children[::-1]
            facts = self._linear[node] = (
                low, high, low.span.width, high.span.width, positive, low.is_leaf, high.is_leaf,
                self._tables.get(low), self._tables.get(high),
            )
        low, high, k_low, k_high, positive, low_leaf, high_leaf, low_tab, high_tab = facts
        tauv, pos = self._tauv, self._pos
        hs = [i]  # hs[x]: the cut of row x
        for h in range(i + 1, j + 2):
            if a <= tauv[h - 2] <= b:
                hs.append(h)
        P = len(hs) - 1
        # side[t] < cut: value cols[t] - 1 is in the row's low child.  Positions
        # are negated for a - node, whose low child holds positions h..j, and
        # column a adds no value, so its side is past every cut.
        cols = [a]
        sides = [j + 1]
        for v in range(a, b + 1):
            p = pos[v - 1]
            if i <= p <= j:
                cols.append(v + 1)
                sides.append(p if positive else -p)
        tie = 0 if ties is None else 1
        S = self._S
        # seen[c]: for a + node, the low length last read in column c.
        seen = [-1] * (b + 2) if positive else None

        best, split = floor, None
        k_right = k_high if positive else k_low
        for x in range(best - k_right + 1 if best >= k_right else 0, P + 1):
            h = hs[x]
            if positive:
                lo_i, lo_j, hi_i, hi_j, cut, n_low = i, h - 1, h, j, h, x
            else:
                lo_i, lo_j, hi_i, hi_j, cut, n_low = h, j, i, h - 1, 1 - h, P - x
            mk_low = n_low if n_low < k_low else k_low
            mk_high = P - n_low if P - n_low < k_high else k_high
            if mk_low + mk_high <= best:
                break  # the run of rows that can beat the best is over
            low_base = ((lo_i * S + lo_j) * S + a) * S - 1  # + c: values a..c-1
            high_base = (hi_i * S + hi_j) * S * S + b  # + c * S: values c..b
            top = -1  # the largest low length (less tie) read at a split this one cannot beat
            below = 0  # the low child's points with values below c
            above = P - n_low + 1  # the high child's points from c on; column a takes the 1
            for c, side in zip(cols, sides):
                if side < cut:
                    below += 1
                else:
                    above -= 1
                if positive and seen[c] > top:
                    top = seen[c]
                if top >= mk_low:
                    break  # every later split of the row at most ties
                m_low = below if below < k_low else k_low
                m_high = above if above < k_high else k_high
                if m_low + m_high <= best:
                    if mk_low + m_high <= best:
                        break  # no later split's bound can beat the best
                    continue
                if m_low and not low_leaf:
                    need = best - m_high if best > m_high else 0
                    u = low_tab.get(low_base + c)
                    if u is None or u < -1 - need:
                        u = yield (low, lo_i, lo_j, a, c - 1, need)
                    elif u < 0:
                        u = -1 - u
                else:
                    u = m_low
                if u <= top:
                    continue
                top = u - tie
                if positive:
                    seen[c] = top
                if u + m_high <= best:
                    continue
                if m_high and not high_leaf:
                    need = best - u if best > u else 0
                    v = high_tab.get(high_base + c * S)
                    if v is None or v < -1 - need:
                        v = yield (high, hi_i, hi_j, c, b, need)
                    elif v < 0:
                        v = -1 - v
                else:
                    v = m_high
                if u + v > best:
                    if tie:
                        ties.append(((i, h, j + 1), (a, c, b + 1)))
                        continue
                    best, split = u + v, h * S + c
        return best, split

    def _prime_cell(
        self, node: DecompNode, i: int, j: int, a: int, b: int, floor: int = 0, ties=None
    ):
        """Scan a prime cell for (best, split), or with ``ties`` for the splits reaching a length.

        The fill starts its best at ``floor``.  Like :meth:`_linear_cell`, it
        lists the window's rows ``hs`` and columns ``cols`` once, and keeps
        j + 1 and b + 1 as the outer cuts.  Position cuts come from
        :func:`_position_cuts` with the best so far as its floor, so a prefix
        of cuts whose point counts cannot beat the best is dropped whole; once
        the best meets the cell's own count, every prefix is.  The value
        slices' children are asked for exact lengths, at floor 0, and a
        stored bound is read as a miss.  The split returned is the last to
        raise the best, as its cuts (i, h_1, ..., h_{d-1}, j + 1) and, in
        value slice order, (a, c_1, ..., c_{d-1}, b + 1); ``ties`` works as
        in :meth:`_linear_cell`.
        """
        hs = [i] + [h for h in range(i + 1, j + 2) if a <= self._tauv[h - 2] <= b]
        cols = [a] + [v + 1 for v in range(a, b + 1) if i <= self._pos[v - 1] <= j]
        sizes = [c.span.width for c in node.children]
        d = len(sizes)
        order = sorted(range(d), key=node.label.values.__getitem__)
        path = [0] * d  # column 0, then the columns of c_1..c_{d-1} as they are made
        tie = 0 if ties is None else 1
        found = ties if tie else []  # every split that raised the best, or every tied one
        best = floor
        for cuts, pos_caps in _position_cuts(hs, j + 1, sizes, lambda: best):
            # suffix_caps[t]: the position caps of value slices t + 1..d.
            suffix_caps = [0] * (d + 1)
            for t in range(d - 1, -1, -1):
                suffix_caps[t] = suffix_caps[t + 1] + pos_caps[order[t]]
            best = yield from self._prime_values(
                node, order, cuts, cols, suffix_caps, 1, path, 0, b, best, found, tie
            )
        return best, None if tie or not found else found[-1]

    def _prime_values(
        self, node, order, cuts, cols, suffix_caps, t, path, partial, b, best, found, tie
    ):
        """Scan the value cuts of a prime cell from slice t (1-based) on, in lexicographic order.

        A generator, as the scans are.  ``path[:t]`` holds column 0 of
        ``cols`` and the columns of the cuts made so far, so value slice t
        starts at column z0 = ``path[t - 1]``, and ``order[t - 1]`` is the
        child taking it; ``partial`` is the length of slices 1..t-1.  For t
        < d the cut ct runs over ``cols`` from z0 on, as column z; the last
        slice ends at b, as the last column.  ``held`` says whether a value
        c_prev..ct-1 sits at a position p_lo..p_hi: a leaf child's length is
        ``held``.  An internal child is read only when it holds, since a
        slice with no point is 0, and when ``partial``, its bound (its width
        or its z - z0 window values c_prev..ct-1) and the later slices'
        (their position caps or the window values from ct on) can beat
        ``best``.  The later slices only lose values as ct grows, so a ct
        whose total does not exceed the last read ct's cannot win, and its
        later slices are not scanned; in tie mode (``tie`` 1) only a total
        below that one is.  A split beating ``best`` goes to ``found``, and
        outside tie mode raises the best.
        """
        d = len(order)
        z0 = path[t - 1]
        c_prev = cols[z0]
        k = order[t - 1]
        child = node.children[k]
        # The child's width, the later slices' position caps and the last column.
        width, rest, end = child.span.width, suffix_caps[t], len(cols) - 1
        p_lo, p_hi = cuts[k], cuts[k + 1] - 1
        table = self._tables.get(child)  # None for a leaf
        S = self._S
        base = ((p_lo * S + p_hi) * S + c_prev) * S - 1  # + ct: values c_prev..ct-1
        last = -1
        pos = self._pos
        held = t == d and any(p_lo <= p <= p_hi for p in pos[c_prev - 1 : b])
        for z, ct in enumerate(cols[z0:], z0) if t < d else ((end, b + 1),):
            if z > z0:  # column z adds the window value ct - 1
                held = held or p_lo <= pos[ct - 2] <= p_hi
            if table is None or not held:
                total = partial + held
            elif partial + (z - z0 if z - z0 < width else width) + min(rest, end - z) <= best:
                continue  # the child's bound and the later slices' cannot beat the best
            else:
                got = table.get(base + ct)
                if got is None or got < 0:
                    got = yield (child, p_lo, p_hi, c_prev, ct - 1, 0)
                total = partial + got
            if t == d:
                if total > best:
                    found.append((cuts, (*[cols[x] for x in path], b + 1)))
                    if not tie:
                        best = total
            elif total > last:
                last = total - tie
                if total + (end - z if end - z < rest else rest) > best:
                    path[t] = z
                    best = yield from self._prime_values(
                        node, order, cuts, cols, suffix_caps, t + 1, path, total, b, best, found,
                        tie,
                    )
        return best

    def _boxes(self, node: DecompNode, cuts: tuple) -> list[tuple | None]:
        """The child boxes (child, i, j, a, b) of the split a scan gave as ``cuts``.

        Child k takes position slice k and the value slice of its rank, as
        its tight box, so tied splits whose children hold the same points
        give the same boxes.  A box with no target point, the only kind of
        length 0, is None.
        """
        pos, val = cuts
        split: list[tuple | None] = []
        for k, (child, r) in enumerate(zip(node.children, _ranks(node))):
            box = self._tight(pos[k], pos[k + 1] - 1, val[r - 1], val[r] - 1)
            split.append(None if box is None else (child, *box))
        return split

    def reconstruct(
        self,
        node: DecompNode | None = None,
        i: int | None = None,
        j: int | None = None,
        a: int | None = None,
        b: int | None = None,
        *,
        canonical: bool = False,
    ) -> tuple[Pattern, Occurrence, Occurrence]:
        """Rebuild (pattern, occurrence in the tree's permutation, occurrence in tau).

        Give all of the cell's node, i, j, a and b, or none of them for the
        root cell; anything else raises ValueError.  Walks down from the
        cell's tight box: each internal box takes the split the fill stored
        with its length, the first to reach it, or with ``canonical`` the
        split of lexicographically smallest pattern (the first on ties);
        each leaf, a tight box too, adds the point at its first position.
        Raises RuntimeError when the stored lengths do not rebuild to a
        pattern of the cell's length common to both sides.
        """
        box = (node, i, j, a, b)
        if box.count(None) == 5:
            box = (self.tree.root, 1, self.n, 1, self.n)
        elif None in box:
            raise ValueError("reconstruct takes all of node, i, j, a, b, or none of them")
        length = self.cell(*box)
        box = (box[0], *(self._tight(*box[1:]) or box[1:]))  # a box without a point stays as it is
        memo = self._resolve(box) if canonical and length else {}
        S = self._S
        hits = []  # (position in the guide, value there, position in tau)
        stack: list[tuple] = [box] if length else []
        while stack:
            box = stack.pop()
            if box[0].is_leaf:
                # Leaf boxes on the walk are tight, so a point sits at the first position.
                hits.append((box[0].span.lo, box[0].leaf_value, box[1]))
                continue
            if canonical:
                split = memo[box][1]
            else:
                node, i, j, a, b = box
                cuts = self._splits[node][((i * S + j) * S + a) * S + b]
                if node.kind == "linear":  # packed as h * S + c
                    h, c = divmod(cuts, S)
                    cuts = ((i, h, j + 1), (a, c, b + 1))
                split = self._boxes(node, cuts)
            stack.extend(c for c in split if c is not None)
        hits.sort()
        pattern = normalize(tuple(self._tauv[h - 1] for _, _, h in hits))
        if len(pattern) != length or normalize(tuple(v for _, v, _ in hits)) != pattern:
            raise RuntimeError("the stored lengths do not rebuild to a common pattern")
        return (
            pattern,
            Occurrence(tuple(p for p, _, _ in hits)),
            Occurrence(tuple(h for _, _, h in hits)),
        )

    def _resolve(self, box: tuple) -> dict[tuple, tuple]:
        """Map ``box``, and every box under its splits that reach its length, to (pattern, split).

        A box's pattern is the smallest, over its splits that reach its
        length, of the children's patterns concatenated by the node's ranks;
        ties go to the first split.  Leaves have the pattern 1.
        """
        memo: dict[tuple, tuple] = {}
        stack: list[tuple[tuple, list | None]] = [(box, None)]
        while stack:
            top, splits = stack.pop()
            if top in memo:
                continue
            node = top[0]
            if node.is_leaf:
                memo[top] = ((1,), None)
                continue
            if splits is None:
                ties: list[tuple] = []
                scan = self._linear_cell if node.kind == "linear" else self._prime_cell
                self._run(scan(*top, self._cell(*top) - 1, ties))
                if not ties:
                    raise RuntimeError("no split reaches the stored length")
                splits = [self._boxes(node, cuts) for cuts in ties]
            waiting = [c for s in splits for c in s if c is not None and c not in memo]
            if waiting:
                stack.append((top, splits))
                stack.extend((c, None) for c in waiting)
                continue
            ranks = _ranks(node)
            pats = [
                concat_rho(ranks, [memo[c][0] if c else () for c in s]).values
                for s in splits
            ]
            pick = min(range(len(splits)), key=pats.__getitem__)
            memo[top] = (pats[pick], splits[pick])
        return memo


@dataclass(frozen=True, slots=True)
class LcpPlan:
    """Which input guides the dynamic program, and what each choice is predicted to cost."""

    guided_by: str  # "sigma" | "tau"
    tree: DecompTree  # expanded guiding tree
    prime_arity: int
    algorithm: str  # "separable" | "general"
    cost_sigma: int | None  # predicted split reads with sigma guiding
    cost_tau: int | None  # with tau guiding; None when that tree is never built


def _guide_cost(tree: DecompTree, m: int) -> tuple[int, int]:
    """Worst-case split reads when ``tree`` guides a target of size ``m``, and its max prime arity.

    The cost is the sum over the internal nodes of the expanded tree of
    m^(2d + 2): a node of arity d (2 for a binary linear node) has O(m^4)
    cells, and each scans O(m^(2d - 2)) splits.  A linear node of arity k
    expands into k - 1 binary nodes, so the unexpanded tree gives the same
    sum.  The arity is 0 for a tree without a prime node.  One pass over
    the tree gives both.

    >>> from permlcp import parse_permutation
    >>> _guide_cost(decomposition_tree(parse_permutation("2 4 1 3 5")), 3)
    (59778, 4)
    """
    links = prime = arity = 0  # child links below linear nodes, prime nodes' sum, largest arity
    stack = [tree.root]
    while stack:
        node = stack.pop()
        kind = node.kind
        if kind == "linear":
            links += len(node.children) - 1
        elif kind == "prime":
            d = len(node.children)
            prime += m ** (2 * d + 2)
            if d > arity:
                arity = d
        stack.extend(node.children)
    return links * m**6 + prime, arity


def lcp_plan(sigma: Permutation, tau: Permutation, algo: str = "auto") -> LcpPlan:
    """Pick the guiding tree for ``algo``: auto, separable or general.

    ``separable`` and ``general`` guide with sigma, and ``separable`` rejects
    a sigma with prime structure; they predict sigma's cost only.  ``auto``
    guides with the input that predicts fewer split reads, which is sound
    because the common-pattern relation is symmetric.  A guide's cost is
    the sum, over the internal nodes of its expanded tree, of m^(2d + 2),
    where m is the other input's size and d the node's arity (2 for a
    binary linear node).  The model holds the arity comparison: with both
    inputs of size n the guide of smaller max prime arity wins, and with
    equal arities the longer input mostly guides, since the table grows
    with the target's size.  Equal costs go to the smaller max prime
    arity, then to the shorter input, then to sigma.
    """
    if algo not in ("auto", "separable", "general"):
        raise ValueError(f"unknown algo {algo!r}")
    guided_by, chosen = "sigma", decomposition_tree(sigma)
    cost_sigma, arity = _guide_cost(chosen, tau.n)
    if algo == "separable" and arity:
        raise NotSeparableError(f"{sigma} is not separable")
    cost_tau = None
    if algo == "auto":
        t_tau = decomposition_tree(tau)
        cost_tau, d_tau = _guide_cost(t_tau, sigma.n)
        if (cost_tau, d_tau, tau.n) < (cost_sigma, arity, sigma.n):
            guided_by, chosen, arity = "tau", t_tau, d_tau
    algorithm = "general" if algo == "general" or arity else "separable"
    return LcpPlan(guided_by, expand_tree(chosen), arity, algorithm, cost_sigma, cost_tau)


def _monotone(values) -> tuple[int, int]:
    """The lengths of a longest increasing and a longest decreasing subsequence of ``values``.

    One patience-sorting pass: ``up[k]`` is the least last value of an
    increasing run of length k + 1 so far, and ``down[k]`` the same for
    decreasing runs, with values negated.

    >>> _monotone((2, 4, 1, 3, 5))
    (3, 2)
    """
    up: list[int] = []
    down: list[int] = []
    for v in values:
        k = bisect_left(up, v)
        if k < len(up):
            up[k] = v
        else:
            up.append(v)
        k = bisect_left(down, -v)
        if k < len(down):
            down[k] = -v
        else:
            down.append(-v)
    return len(up), len(down)


def _may_contain(small: Permutation, large: Permutation) -> bool:
    """False only when ``small`` cannot occur in ``large``, whose size is at least its own.

    At equal sizes it occurs only when the two are equal.  Otherwise an
    occurrence carries the smaller input's longest increasing and longest
    decreasing subsequences into the larger one, so neither may be longer
    than the larger one's.
    """
    if small.n == large.n:
        return small == large
    return all(s <= t for s, t in zip(_monotone(small.values), _monotone(large.values)))


def lcp(
    sigma: Permutation,
    tau: Permutation,
    algo: str | LcpPlan = "auto",
    *,
    canonical: bool = False,
) -> LcpResult:
    """A longest common pattern of ``sigma`` and ``tau``, with one occurrence in each.

    :func:`lcp_plan` picks the guiding tree for ``algo``; one table over the
    other input then yields the pattern and both occurrences.  ``algo`` may
    also be the plan :func:`lcp_plan` already made for these two inputs;
    a plan whose guiding tree is not of the guide it names raises ValueError.
    No common pattern is longer than the cap min(|sigma|, |tau|), so when
    :func:`_may_contain` allows the smaller input to occur in the larger,
    the root is first asked at floor cap - 1; on a miss it holds the bound
    "at most cap - 1", which the walk rescans at floor 0.

    >>> from permlcp import parse_permutation
    >>> lcp(parse_permutation("2 4 1 3"), parse_permutation("1 3 2 4")).length
    3
    """
    plan = algo if isinstance(algo, LcpPlan) else lcp_plan(sigma, tau, algo)
    guide, target = (sigma, tau) if plan.guided_by == "sigma" else (tau, sigma)
    if plan.tree.source_size != guide.n:
        raise ValueError("the plan was made for inputs of other sizes")
    if plan is algo and tree_to_permutation(plan.tree) != guide:
        raise ValueError("the plan was made for other inputs")
    table = DpTable(plan.tree, target)
    if not plan.tree.root.is_leaf and _may_contain(*sorted((guide, target), key=len)):
        table._cell(plan.tree.root, 1, target.n, 1, target.n, min(guide.n, target.n) - 1)
    pattern, occ_guide, occ_target = table.reconstruct(canonical=canonical)
    if plan.guided_by == "sigma":
        return LcpResult(pattern, occ_guide, occ_target, plan.algorithm)
    return LcpResult(pattern, occ_target, occ_guide, plan.algorithm)
