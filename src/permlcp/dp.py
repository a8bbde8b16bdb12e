"""Tree-guided dynamic programs for the longest common pattern.

``lcp`` is the single entry point; a guide with no prime node is the
separable case.  Each rule of the fill is stated once, below; a function's
docstring gives only its contract and the mechanics local to it.

1. Table and recurrence.  M(V, i, j, a, b) is the length of a longest
   common pattern between the sub-permutation under node V of the guiding
   tree and the window of the target tau at positions i..j and values a..b.
   A linear node combines its two children over a split position h and a
   split value c; a prime node of arity d slices both windows into d weakly
   increasing pieces, matched through its simple-permutation label.  A
   binary linear node is the d = 2 case, with ranks (1, 2) for + and (2, 1)
   for -.  A box with no target point is 0 and a leaf box holding one is 1,
   both read from tau, so only internal nodes have table entries.

2. Fill.  Cells are evaluated top-down and memoized, so only boxes reachable
   from the root query are touched.  The fill does not recurse: an internal
   cell's scan is a generator that yields each child box it finds missing,
   as (node, i, j, a, b, floor), and is sent that box's length; one loop
   keeps the waiting scans on an explicit stack, so a guide of any depth
   fills within the interpreter's recursion limit.

3. Scan order and plain witness.  A scan reads its splits in one fixed
   order: position cuts in lexicographic order, then value cuts in
   lexicographic order (h, then c, for a linear node).  The one exception
   is a - node whose children[1], its low child, is a leaf or a prime node:
   it reads h falling, from j + 1 to i, so that its low child grows row by
   row as a + node's does (rule 6).  An expanded - node is a left comb, so
   its children[1] is an original child; over a + child it keeps h rising,
   as h falling would first ask its high child, the comb holding most of the
   node, for every point.  Beside each exact length the table keeps the
   split that last raised the cell's best, the first in that order to reach
   the length, as its position and value cuts for every node kind.  The
   plain witness walks these splits down from the root, so it is
   reproducible and stores nothing.  A box of one or two points may have
   no stored split (rule 5); it takes its split of smallest cuts, as every
   such box on the canonical walk does (rule 4).  At length 1 the last
   child takes the lower-valued point, and both when its value slice is
   the top one.  At length 2 the first-position point goes to the last
   child k1, and the other to the last child k2 >= k1, that can take them:
   k1 = k2 if that child contains their pattern, else k1 < k2 if the two
   children's ranks order them as their values are ordered.  The order
   runs over the expanded guide, so how ``expand_tree`` binarizes a linear
   node can pick another plain witness among ties; no length and no
   canonical pattern depends on it.

4. Tie mode and canonical walk.  With ``canonical=True`` the witness is the
   lexicographically smallest pattern of maximal length.  Each box on the
   walk lists the splits reaching its length with its own scan in tie mode:
   the best stays one below the length, each split beating it is recorded,
   and a dominance skip drops only a split an earlier one strictly beats.
   Of the splits giving the smallest pattern the walk takes the one of
   smallest cuts, so no scan order can move a canonical answer.  A box of
   at most two points has one pattern, read from its points and the node's
   flags (rule 5), so it gets no tie scan and takes its split of smallest
   cuts (rule 3), not one a prime fill stored.

5. Point-count bound (Ibarra, IPL 1997).  No cell is longer than the target
   points in its box, found from tau and its inverse alone, so the table
   holds nothing that grows as the square of the target.  A cell depends
   only on its box's points, so a cut moved past a position or a value
   holding none repeats the split before it: scans cut only at i or a or
   just after a window point, as rows (the points in position order) and
   columns (their sorted values).  A scan reads no child whose bound, the
   smaller of its width and its points, with the other children's cannot
   let the split beat the best so far; no bound exceeds the cell's own, so a
   best that meets it stops all reads.  A box of k <= 2 points has a known
   length: k when the node contains the points' pattern, else 1.  A node
   contains 1 2 unless its leaves fall and 2 1 unless they rise, so the
   table keeps two flags per node, set children first: a leaf has neither,
   a prime node both, a + node 1 2, and 2 1 if a child has it, and a - node
   the mirror case.  A linear scan takes a child's bound as its length when
   the bound is below 2, and a child of two points from the flags, so it
   asks for neither; ``cell``, tie scans and the canonical walk read every
   box of at most two points so.  A prime fill scan reads a leaf child from
   tau, and scans and stores its other children of one or two points.

6. Dominance skip.  A cell never shrinks when its window grows, so along a
   scan axis one child's length never decreases and the other's never
   increases.  A split whose growing child did not grow past what an
   earlier split read is at most as long as that split, and is skipped.
   For a linear node the growing child takes the low values.  At a + node,
   and at a - node read with h falling (rule 3), it also grows from row to
   row, so the skip compares a split with those of earlier rows at the same
   or a lower c; at any other - node it compares within the row only.  For
   a prime node, a value cut that adds nothing to the slices before it
   leaves less to the slices after it.  A skipped split can only tie, so
   every length, and the first split in scan order to reach it, is the one
   the full scan gives.

7. Tight keys and aliases.  An internal box is scanned and stored under its
   tight box, the first and last position and the lowest and highest value
   of its points, whose scan lists the same splits with the same child point
   sets in the same order.  The key asked for then holds the tight entry as
   an alias, so later reads hit at once; walks read tight keys only.

8. Floors and bound entries.  A split beats the best only if each child
   beats what the other leaves it: the low child ``best - m_high``, with
   m_high the high child's bound, and the high child ``best - u``.  A linear
   scan asks each child at that floor, where the child's scan starts its
   best.  A box that does not beat its floor comes back as the floor and is
   stored as the bound ``-1 - ub``, "at most ub"; a read at a lower floor
   scans it again.  A split that beats the best has both children exact, so
   the best rises through the same splits as with every child exact, and a
   bound may stand in for a length in a dominance skip.  Tie mode reads at
   floors no lower than the fill did.  A prime scan starts at its own floor
   but asks its children for exact lengths; the public reads ask at floor
   0, so callers see exact lengths only.

9. Cap try and cost model.  No common pattern is longer than the cap
   min(|sigma|, |tau|).  When ``_may_contain`` allows the smaller input to
   occur in the larger, ``lcp`` first asks the root at floor cap - 1, which
   makes the fill the pattern involvement program of Bose, Buss and Lubiw
   (IPL 1998); a miss stores the root's bound "at most cap - 1", and the
   walk rescans it at floor 0, reusing the exact entries the try stored.
   The table has O(m^4) cells for a target of size m, and a node of arity d
   scans O(m^(2d - 2)) splits per cell, so a guide's predicted cost is the
   sum of m^(2d + 2) over its expanded tree's internal nodes (d = 2 for a
   binary linear node): the guide of smaller max prime arity mostly wins,
   and between equal arities the longer input.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from .algebra import concat_rho
from .decomposition import (
    DecompNode,
    DecompTree,
    NotSeparableError,
    _postorder,
    decomposition_tree,
    expand_tree,
)
from .perms import Occurrence, Pattern, Permutation, Record, normalize


def _ranks(node: DecompNode) -> tuple[int, ...]:
    """The value slice each child of an internal node takes, in child order."""
    if node.kind == "prime":
        return node.label.values
    return (1, 2) if node.sign == "+" else (2, 1)


class LcpResult(Record):
    """A longest common pattern with one occurrence in each input."""

    __slots__ = ("pattern", "occ_sigma", "occ_tau", "algorithm")

    def __init__(
        self, pattern: Pattern, occ_sigma: Occurrence, occ_tau: Occurrence, algorithm: str
    ) -> None:
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "occ_sigma", occ_sigma)
        object.__setattr__(self, "occ_tau", occ_tau)
        object.__setattr__(self, "algorithm", algorithm)

    @property
    def length(self) -> int:
        return len(self.pattern)


class DpTable:
    """Memoized table of lengths M(V, i, j, a, b) for one guiding tree and one target.

    The tree must be expanded: every linear node binary.  Per internal node
    the table holds a dict of entries, exact lengths (>= 0) or bounds ``-1 -
    ub``, and one of the splits that set the exact ones, under packed (i, j,
    a, b) keys.  :meth:`cell` fills on demand and returns exact lengths, and
    :meth:`reconstruct` rebuilds a witness for any cell.
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
        self._splits: dict[DecompNode, dict[int, tuple]] = {}
        # Per binary linear node, from its first scan on (see _linear_cell).
        self._linear: dict[DecompNode, tuple] = {}
        # Per node of the guide, leaves included: 2 if it contains 1 2, plus 1
        # if it contains 2 1 (rule 5), children first.
        flags = self._flags = {}
        for node in _postorder(tree.root):
            kind, children = node.kind, node.children
            if kind == "linear":
                if len(children) != 2:
                    raise ValueError(
                        "guiding tree must be expanded: found a linear node of "
                        f"arity {len(children)}"
                    )
                left, right = children
                flags[node] = flags[left] | flags[right] | (2 if node.sign == "+" else 1)
            else:
                flags[node] = 3 if kind == "prime" else 0
            if kind != "leaf":
                self._tables[node], self._splits[node] = {}, {}

    def cell(self, node: DecompNode, i: int, j: int, a: int, b: int) -> int:
        """The exact length M(node, i, j, a, b), ints with 1 <= i <= j <= n and 1 <= a <= b <= n."""
        if any(x.__class__ is not int for x in (i, j, a, b)) or not (
            1 <= i <= j <= self.n and 1 <= a <= b <= self.n
        ):
            raise ValueError(f"cell ranges must be ints in bounds: i={i!r} j={j!r} a={a!r} b={b!r}")
        if node not in self._flags:
            raise ValueError("node does not belong to this table's guiding tree")
        return self._length(node, i, j, a, b)

    def root_cell(self) -> int:
        return self.cell(self.tree.root, 1, self.n, 1, self.n)

    def _length(self, node: DecompNode, i: int, j: int, a: int, b: int, floor: int = 0) -> int:
        """Read a box as :meth:`_cell` does, but one of at most two points as rule 5 says."""
        tauv, held = self._tauv, []
        for p in range(i - 1, j):
            if a <= tauv[p] <= b:
                if len(held) == 2 and not node.is_leaf:
                    return self._cell(node, i, j, a, b, floor)  # a third point
                held.append(tauv[p])
        if len(held) < 2:
            return len(held)
        return 1 + (self._flags[node] >> (held[0] < held[1]) & 1)  # a leaf's flags are 0

    def _cell(self, node: DecompNode, i: int, j: int, a: int, b: int, floor: int = 0) -> int:
        """A box's length if above ``floor``, else a bound of at most ``floor``.

        The box must hold a point.  An entry under its own key that answers the
        floor returns at once; otherwise an answering tight entry is stored under
        it as an alias, or the tight box is scanned.  Waiting scans sit on the
        stack as (scan, table, splits, key, floor); a finished scan's best is
        stored under its tight key, exact with its split or as the bound, and sent
        to the scan below.
        """
        S = self._S
        idx = ((i * S + j) * S + a) * S + b
        table = self._tables[node]
        length = table.get(idx)
        if length is not None and length >= -1 - floor:
            return length if length >= 0 else -1 - length
        stack = []
        while True:
            i, j, a, b = self._tight(i, j, a, b)
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

    def _run(self, scan, small: bool = True):
        """Drive a tie-mode scan to its end, reading each box it yields, made tight.

        A box is read through :meth:`_length`, or with ``small`` false through
        :meth:`_cell`, which skips the point count: a linear scan yields no
        box of fewer than three points.
        """
        read = self._length if small else self._cell
        length = None
        try:
            while True:
                node, i, j, a, b, floor = scan.send(length)
                length = read(node, *self._tight(i, j, a, b), floor)
        except StopIteration as done:
            return done.value

    def _tight(self, i: int, j: int, a: int, b: int) -> tuple[int, int, int, int] | None:
        """The tight box of the box's target points, or None when it holds none.

        Walks in from each edge over tau and its inverse; j = i - 1 or b = a - 1 is empty.
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

        A generator: it yields each missing child box and is sent what
        :meth:`_cell` returns for it.  It returns the best reached from ``floor``
        and the cuts ((i, h, j + 1), (a, c, b + 1)) of the split (h, c) that last
        raised it, or None; with a ``ties`` list it appends the cuts of every split
        beating ``floor`` and returns (floor, None).

        Split (h, c) gives positions i..h-1 to the left child and values a..c-1 to
        the low child (left for +, right for -).  Row x is the cut h with x of the
        window's P points on its left, or on its right where h falls (rule 3), and
        each child's points are counted one column at a time.  The child holding
        those x points grows row by row: the low child where ``grows``, else the
        high one.  Row x is bounded by ``min(k_grown, x) + min(k_other, P - x)``,
        with k the children's widths, which rises by one per row, levels off and
        falls, so the rows that can beat the best form one run, from the first
        whose ``x + k_other`` passes it.  A row ends at the first column whose high
        bound plus the low child's row bound cannot beat the best.  A child of two
        points takes its length from its flags (rule 5).  The low child's points
        are the last two low-side columns read; the high child's are the row's
        last two high-side columns, found from the end of ``sides`` at its first
        such read.  Their pattern rises when the first side is below the second at
        a + node, and above it at a - node, whose sides are negated.  ``top`` is
        the largest low length read (less one in tie mode) at a split whose high
        child is at least as long: at c' <= c in the same row, and where the low
        child grows row by row, at the same or lower c' in earlier rows too,
        through ``seen``.
        """
        facts = self._linear.get(node)
        if facts is None:  # the node's first scan
            positive = node.sign == "+"
            low, high = node.children if positive else node.children[::-1]
            facts = self._linear[node] = (
                low, high, low.span.width, high.span.width, positive,
                positive or node.children[1].kind != "linear",  # or a - node read with h falling
                self._flags[low], self._flags[high], self._tables.get(low), self._tables.get(high),
            )
        low, high, k_low, k_high, positive, grows, low_flags, high_flags, low_tab, high_tab = facts
        tauv, pos = self._tauv, self._pos
        hs = [i]  # hs[x]: the cut with x window points on its left
        for h in range(i + 1, j + 2):
            if a <= tauv[h - 2] <= b:
                hs.append(h)
        P = len(hs) - 1
        if grows and not positive:
            hs.reverse()  # rows with h falling: row x holds x points on the right
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
        # seen[c]: where the low child grows row by row, the low length last read in column c.
        seen = [-1] * (b + 2) if grows else None

        best, split = floor, None
        k_other = k_high if grows else k_low  # the width of the child that shrinks row by row
        for x in range(best - k_other + 1 if best >= k_other else 0, P + 1):
            h = hs[x]
            if positive:
                lo_i, lo_j, hi_i, hi_j, cut, n_low = i, h - 1, h, j, h, x
            else:
                lo_i, lo_j, hi_i, hi_j, cut, n_low = h, j, i, h - 1, 1 - h, x if grows else P - x
            mk_low = n_low if n_low < k_low else k_low
            mk_high = P - n_low if P - n_low < k_high else k_high
            if mk_low + mk_high <= best:
                break  # the run of rows that can beat the best is over
            two = 0  # the high child's length while it holds two points
            low_base = ((lo_i * S + lo_j) * S + a) * S - 1  # + c: values a..c-1
            high_base = (hi_i * S + hi_j) * S * S + b  # + c * S: values c..b
            top = -1  # the largest low length (less tie) read at a split this one cannot beat
            below = 0  # the low child's points with values below c
            above = P - n_low + 1  # the high child's points from c on; column a takes the 1
            low2 = 0  # with low1, the sides of the last two low-side columns read
            for c, side in zip(cols, sides):
                if side < cut:
                    below += 1
                    low1, low2 = low2, side
                else:
                    above -= 1
                if grows and seen[c] > top:
                    top = seen[c]
                if top >= mk_low:
                    break  # every later split of the row at most ties
                m_low = below if below < k_low else k_low
                m_high = above if above < k_high else k_high
                if m_low + m_high <= best:
                    if mk_low + m_high <= best:
                        break  # no later split's bound can beat the best
                    continue
                if m_low < 2:
                    u = m_low
                elif below == 2:
                    u = 1 + (low_flags >> ((low1 < low2) == positive) & 1)
                else:
                    need = best - m_high if best > m_high else 0
                    u = low_tab.get(low_base + c)
                    if u is None or u < -1 - need:
                        u = yield (low, lo_i, lo_j, a, c - 1, need)
                    elif u < 0:
                        u = -1 - u
                if u <= top:
                    continue
                top = u - tie
                if grows:
                    seen[c] = top
                if u + m_high <= best:
                    continue
                if m_high < 2:
                    v = m_high
                elif above == 2:
                    if not two:  # its points are the row's last two high-side columns
                        last = P
                        while sides[last] < cut:
                            last -= 1
                        first = last - 1
                        while sides[first] < cut:
                            first -= 1
                        two = 1 + (high_flags >> ((sides[first] < sides[last]) == positive) & 1)
                    v = two
                else:
                    need = best - u if best > u else 0
                    v = high_tab.get(high_base + c * S)
                    if v is None or v < -1 - need:
                        v = yield (high, hi_i, hi_j, c, b, need)
                    elif v < 0:
                        v = -1 - v
                if u + v > best:
                    if tie:
                        ties.append(((i, h, j + 1), (a, c, b + 1)))
                        continue
                    best, split = u + v, ((i, h, j + 1), (a, c, b + 1))
        return best, split

    def _prime_cell(
        self, node: DecompNode, i: int, j: int, a: int, b: int, floor: int = 0, ties=None
    ):
        """Scan a prime cell for (best, split), or with ``ties`` for the splits reaching a length.

        A generator like :meth:`_linear_cell`, with the same rows, columns,
        split and ``ties``.  Two nested walks read the splits depth first in
        lexicographic order: ``positions`` the position cuts (i, h_1, ...,
        h_{d-1}, j + 1), and ``values``, for each, the value cuts in value slice
        order (a, c_1, ..., c_{d-1}, b + 1).  Each returns the best it reached.
        Together they nest up to 2d - 1 generators, so a scan needs that many
        frames below the recursion limit.
        """
        tables, pos, S = self._tables, self._pos, self._S
        hs = [i] + [h for h in range(i + 1, j + 2) if a <= self._tauv[h - 2] <= b]
        P = len(hs) - 1  # the window's points
        cols = [a] + [v + 1 for v in range(a, b + 1) if i <= pos[v - 1] <= j]
        end = len(cols) - 1  # the last column
        children = node.children
        sizes = [c.span.width for c in children]
        d = len(sizes)
        rest = list(accumulate(reversed(sizes), initial=0))[::-1]  # rest[k]: sizes of slices k..d-1
        order = sorted(range(d), key=node.label.values.__getitem__)
        cuts = [i] * d + [j + 1]  # the position cuts, h_k as level k of positions makes it
        caps = [0] * d  # caps[k]: the smaller of position slice k's points and its child's width
        suffix_caps = [0] * (d + 1)  # suffix_caps[t]: the caps of value slices t + 1..d
        path = [0] * d  # column 0, then the columns of c_1..c_{d-1} as they are made
        tie = 0 if ties is None else 1
        found = ties if tie else []  # every split that raised the best, or every tied one

        def positions(k, x0, held, best):
            """Scan the position cuts from h_k (1-based) on, and return the best.

            Cut h_{k-1} sits at row x0, so h_k tries the rows x >= x0 in order,
            and slice k - 1 holds x - x0 points; ``held`` is the caps of slices
            0..k-2.  A cut is dropped when the cap it closes, with ``held`` and
            the smaller of the later slices' sizes and the points left, cannot
            beat ``best``; when its slice is full, a later row only lowers that
            sum, so the level ends.  The last cut hands its tuple to ``values``.
            """
            size, room = sizes[k - 1], rest[k]
            for x in range(x0, P + 1):
                cap = x - x0 if x - x0 < size else size
                more = P - x if P - x < room else room
                if held + cap + more <= best:
                    if cap == size:
                        break
                    continue
                cuts[k] = hs[x]
                caps[k - 1] = cap
                if k < d - 1:
                    best = yield from positions(k + 1, x, held + cap, best)
                    continue
                caps[k] = more  # the last slice's cap, as rest[d - 1] is its size
                for t in range(d - 1, -1, -1):
                    suffix_caps[t] = suffix_caps[t + 1] + caps[order[t]]
                best = yield from values(1, 0, best)
            return best

        def values(t, partial, best):
            """Scan the value cuts from value slice t (1-based) on, and return the best.

            ``path[:t]`` holds the columns of the cuts made so far, so slice t
            starts at column z0 = ``path[t - 1]`` and goes to child ``order[t -
            1]``; ``partial`` is the length of slices 1..t-1.  ``held``, a leaf
            child's length, says whether the slice holds a point of the child's
            position slice.  An internal child is read only when it holds and its
            bound, min(width, z - z0), with the later slices' ``suffix_caps`` or
            columns left can beat ``best``.  A cut whose total does not pass
            ``last``, the largest so far (less one in tie mode), is not extended.
            A split beating ``best`` goes to ``found`` and, outside tie mode,
            raises it.
            """
            z0 = path[t - 1]
            c_prev = cols[z0]
            k = order[t - 1]
            child = children[k]
            width, rest = child.span.width, suffix_caps[t]  # rest: the later slices' position caps
            p_lo, p_hi = cuts[k], cuts[k + 1] - 1
            table = tables.get(child)  # None for a leaf
            base = ((p_lo * S + p_hi) * S + c_prev) * S - 1  # + ct: values c_prev..ct-1
            last = -1
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
                        found.append((tuple(cuts), (*[cols[x] for x in path], b + 1)))
                        if not tie:
                            best = total
                elif total > last:
                    last = total - tie
                    if total + (end - z if end - z < rest else rest) > best:
                        path[t] = z
                        best = yield from values(t + 1, total, best)
            return best

        best = yield from positions(1, 0, 0, floor)
        # Each walk refers to itself through its closure: unbinding them breaks those cycles.
        del positions, values
        return best, None if tie or not found else found[-1]

    def _boxes(self, node: DecompNode, cuts: tuple) -> list[tuple | None]:
        """The tight child boxes (child, i, j, a, b) of the split ``cuts``, None for an empty one.

        So tied splits whose children hold the same points give the same boxes.
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

        Give all of the cell's node, i, j, a and b, or none of them for the root
        cell; anything else raises ValueError.  The walk takes each box's stored
        split, whose cuts :meth:`_boxes` turns into child boxes, or with
        ``canonical`` the split of smallest pattern (of smallest cuts on ties); a
        box of one or two points without one, on the canonical walk any such
        box, takes its split of smallest cuts.  Each leaf box adds the point at
        its first position.  Raises RuntimeError when the lengths do not rebuild
        to a common pattern.
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
            node, i, j, a, b = box
            if canonical:  # the memo holds no split of a small box, nor its children placed here
                split = memo[box][1] if box in memo else None
            else:
                split = self._splits[node].get(((i * S + j) * S + a) * S + b)
                if split is not None:
                    split = self._boxes(node, split)
            if split is None:  # a box of one or two points
                split = self._small_boxes(*box)
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

    def _small_boxes(self, node: DecompNode, i: int, j: int, a: int, b: int) -> list[tuple]:
        """The child boxes of a small box's split of smallest cuts, placed by rule 3.

        The box is an internal node's tight box of one or two points, at
        positions i and j and values a and b.  At length 1 the last child takes
        the whole box when its rank is d, else the point of value a.  At length
        2 child k1 takes the first point and child k2 the second, or k1 = k2 the
        whole box: the later the first point's child, then the second's, the
        smaller the position cuts.
        """
        ranks, flags, children = _ranks(node), self._flags, node.children
        d = len(ranks)
        first, second = self._tauv[i - 1], self._tauv[j - 1]
        rises = first < second  # False for one point
        if i == j or not flags[node] >> rises & 1:  # length 1
            if ranks[-1] == d:
                return [(children[-1], i, j, a, b)]
            p = self._pos[a - 1]
            return [(children[-1], p, p, a, a)]
        k1 = k2 = d - 1  # k2 falls to k1, then k1 falls by one and k2 restarts at d - 1
        while not (
            flags[children[k1]] >> rises & 1 if k1 == k2 else (ranks[k1] < ranks[k2]) == rises
        ):
            k1, k2 = (k1 - 1, d - 1) if k1 == k2 else (k1, k2 - 1)
        if k1 == k2:
            return [(children[k1], i, j, a, b)]
        return [(children[k1], i, i, first, first), (children[k2], j, j, second, second)]

    def _resolve(self, box: tuple) -> dict[tuple, tuple]:
        """Map ``box``, and every box under its splits that reach its length, to (pattern, split).

        The pattern is the smallest concatenation of the children's by the node's
        ranks over those splits, the split of smallest cuts on ties, so no scan
        order can move it.  A leaf box, and a box of one or two points, maps to
        its one pattern and no split (rule 4).
        """
        memo: dict[tuple, tuple] = {}
        stack: list[tuple[tuple, list | None]] = [(box, None)]
        tauv = self._tauv
        while stack:
            top, splits = stack.pop()
            if top in memo:
                continue
            node, i, j, a, b = top
            if node.is_leaf:
                memo[top] = ((1,), None)
                continue
            if splits is None:
                if not any(a <= v <= b for v in tauv[i : j - 1]):  # no point between i and j
                    rises = tauv[i - 1] < tauv[j - 1]  # False for one point
                    two = i < j and self._flags[node] >> rises & 1
                    memo[top] = (((2, 1), (1, 2))[rises] if two else (1,), None)
                    continue
                ties: list[tuple] = []
                linear = node.kind == "linear"
                scan = self._linear_cell if linear else self._prime_cell
                self._run(scan(*top, self._cell(*top) - 1, ties), small=not linear)
                if not ties:
                    raise RuntimeError("no split reaches the stored length")
                ties.sort()  # so the first smallest pattern has the smallest cuts
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


class LcpPlan(Record):
    """Which input guides the dynamic program, and what each choice is predicted to cost."""

    __slots__ = ("guided_by", "tree", "prime_arity", "algorithm", "cost_sigma", "cost_tau")

    def __init__(
        self,
        guided_by: str,  # "sigma" | "tau"
        tree: DecompTree,  # expanded guiding tree
        prime_arity: int,
        algorithm: str,  # "separable" | "general"
        cost_sigma: int | None,  # predicted split reads with sigma guiding
        cost_tau: int | None,  # with tau guiding; None when that tree is never built
    ) -> None:
        object.__setattr__(self, "guided_by", guided_by)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "prime_arity", prime_arity)
        object.__setattr__(self, "algorithm", algorithm)
        object.__setattr__(self, "cost_sigma", cost_sigma)
        object.__setattr__(self, "cost_tau", cost_tau)


def _guide_cost(tree: DecompTree, m: int) -> tuple[int, int]:
    """The predicted cost of ``tree`` guiding a target of size ``m``, and its max prime arity.

    A linear node of arity k expands into k - 1 binary nodes, so the unexpanded tree will do.

    >>> from permlcp import parse_permutation
    >>> _guide_cost(decomposition_tree(parse_permutation("2 4 1 3 5")), 3)
    (59778, 4)
    """
    links = prime = arity = 0  # child links below linear nodes, prime nodes' sum, largest arity
    for node in _postorder(tree.root):
        kind = node.kind
        if kind == "linear":
            links += len(node.children) - 1
        elif kind == "prime":
            d = len(node.children)
            prime += m ** (2 * d + 2)
            arity = max(arity, d)
    return links * m**6 + prime, arity


def lcp_plan(sigma: Permutation, tau: Permutation, algo: str = "auto") -> LcpPlan:
    """Pick the guiding tree for ``algo``: auto, separable or general.

    ``separable`` and ``general`` guide with sigma and predict its cost only;
    ``separable`` rejects a sigma with a prime node.  ``auto`` guides with the
    cheaper input, sound as the common-pattern relation is symmetric; equal
    costs go to the smaller max prime arity, the shorter input, then sigma.
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
    """Lengths of a longest increasing and a longest decreasing subsequence, by patience sorting.

    >>> _monotone((2, 4, 1, 3, 5))
    (3, 2)
    """
    lengths = []
    for sign in (1, -1):  # the LDS is the LIS of the negated values
        tops: list[int] = []  # tops[k]: the least last value of an increasing run of k + 1
        for v in values:
            v *= sign
            k = bisect_left(tops, v)
            if k < len(tops):
                tops[k] = v
            else:
                tops.append(v)
        lengths.append(len(tops))
    return lengths[0], lengths[1]


def _may_contain(small: Permutation, large: Permutation) -> bool:
    """False only when ``small`` cannot occur in ``large``, whose size is at least its own.

    At equal sizes it occurs only when the two are equal.  Otherwise an
    occurrence carries its longest increasing and decreasing subsequences into
    ``large``, so neither may be longer than ``large``'s.
    """
    if small.n == large.n:
        return small == large
    return all(s <= t for s, t in zip(_monotone(small.values), _monotone(large.values)))


def lcp(
    sigma: Permutation,
    tau: Permutation,
    algo: str = "auto",
    *,
    canonical: bool = False,
) -> LcpResult:
    """A longest common pattern of ``sigma`` and ``tau``, with one occurrence in each.

    :func:`lcp_plan` picks the guiding tree for ``algo``; one table over the
    other input, after the cap try, yields the pattern and both occurrences.

    >>> from permlcp import parse_permutation
    >>> lcp(parse_permutation("2 4 1 3"), parse_permutation("1 3 2 4")).length
    3
    """
    return _solve(lcp_plan(sigma, tau, algo), sigma, tau, canonical)


def _solve(plan: LcpPlan, sigma: Permutation, tau: Permutation, canonical: bool) -> LcpResult:
    """The :func:`lcp` answer of ``plan``, which :func:`lcp_plan` made for sigma and tau."""
    guide, target = (sigma, tau) if plan.guided_by == "sigma" else (tau, sigma)
    table = DpTable(plan.tree, target)
    if _may_contain(*sorted((guide, target), key=len)):
        table._length(plan.tree.root, 1, target.n, 1, target.n, min(guide.n, target.n) - 1)
    pattern, occ_guide, occ_target = table.reconstruct(canonical=canonical)
    if plan.guided_by == "sigma":
        return LcpResult(pattern, occ_guide, occ_target, plan.algorithm)
    return LcpResult(pattern, occ_target, occ_guide, plan.algorithm)
