"""Tree-guided dynamic programs for the longest common pattern.

The table M(V, i, j, a, b) holds, for a node V of the guiding tree and a
window of the target permutation (positions i..j, values a..b), the length
of a longest common pattern between the sub-permutation under V and that
window, together with back-references sufficient to rebuild one witness.
Linear nodes combine the two child tables over a split position h and a
split value c; prime nodes of arity d slice both windows into d weakly
increasing pieces, matching position slices to value slices through the
node's simple-permutation label.

Cells are evaluated top-down and memoized, so only states reachable from the
root query are ever touched.  Candidate scans run in a fixed order (h
ascending then c ascending; cut sequences in lexicographic order) so the
stored witness is reproducible; ``canonical=True`` instead materializes
patterns and keeps the lexicographically smallest one of maximal length.
Pruning by interval-width bounds never changes any cell value and can be
switched off to check exactly that.

:func:`lcp` is the single entry point.  The separable and the general
algorithm are this one program: :func:`lcp_plan` picks the guiding tree,
and a tree with no prime node is the separable case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import concat_minus, concat_plus, concat_rho
from .decomposition import (
    DecompNode,
    DecompTree,
    NotSeparableError,
    decomposition_tree,
    expand_tree,
    max_prime_arity,
)
from .perms import Occurrence, Pattern, Permutation


class DpCell(NamedTuple):
    """One table entry: a length plus provenance for reconstruction.

    provenance is None (empty), ("leaf", h), ("+", left_key, right_key),
    ("-", left_key, right_key) or ("rho", child_keys); keys are
    (node, i, j, a, b) tuples and None marks an empty slice.  ``pattern``
    is populated in canonical mode only.
    """

    length: int
    provenance: tuple | None
    pattern: tuple[int, ...] | None = None


_EMPTY = DpCell(0, None)
_EMPTY_CANONICAL = DpCell(0, None, ())


class _CapReached(Exception):
    """Internal: a candidate met the cell's upper bound, stop scanning."""


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
    """Memoized table M(V, i, j, a, b) for one guiding tree and one target.

    The guiding tree must be in expanded form (all linear nodes binary);
    prime nodes keep their arity.  Cells are computed on demand through
    :meth:`cell` and cached for the lifetime of the table.  Leaf cells do
    not depend on which leaf is asked, so all leaves share one sub-table.
    """

    def __init__(
        self,
        tree: DecompTree,
        tau: Permutation,
        *,
        canonical: bool = False,
        prune: bool = True,
    ) -> None:
        self.tree = tree
        self.tau = tau
        self.n = len(tau)
        self.canonical = canonical
        self.prune = prune
        self._tauv = tau.values
        self._empty = _EMPTY_CANONICAL if canonical else _EMPTY
        # Cells live in one dict per node, keyed by (i, j, a, b) packed into
        # a single int: cheap to hash in the candidate loops.
        self._S = self.n + 2
        self._tables: dict[DecompNode, dict[int, DpCell]] = {}
        leaf_table: dict[int, DpCell] = {}
        for node in tree.walk():
            if node.kind == "linear" and node.arity != 2:
                raise ValueError(
                    "guiding tree must be expanded: found a linear node of "
                    f"arity {node.arity}"
                )
            self._tables[node] = leaf_table if node.is_leaf else {}

    def cell(self, node: DecompNode, i: int, j: int, a: int, b: int) -> DpCell:
        """The entry M(node, i, j, a, b); ranges must satisfy 1 <= i <= j <= n, 1 <= a <= b <= n."""
        if not (1 <= i <= j <= self.n and 1 <= a <= b <= self.n):
            raise ValueError(f"cell ranges out of bounds: i={i} j={j} a={a} b={b}")
        if node not in self._tables:
            raise ValueError("node does not belong to this table's guiding tree")
        return self._cell(node, i, j, a, b)

    def root_cell(self) -> DpCell:
        return self._cell(self.tree.root, 1, self.n, 1, self.n)

    def _cell(self, node: DecompNode, i: int, j: int, a: int, b: int) -> DpCell:
        S = self._S
        idx = ((i * S + j) * S + a) * S + b
        table = self._tables[node]
        got = table.get(idx)
        if got is not None:
            return got
        kind = node.kind
        if kind == "leaf":
            cell = self._leaf_cell(i, j, a, b)
        elif kind == "linear":
            cell = self._linear_cell(node, i, j, a, b)
        else:
            cell = self._prime_cell(node, i, j, a, b)
        table[idx] = cell
        return cell

    def _leaf_cell(self, i: int, j: int, a: int, b: int) -> DpCell:
        tauv = self._tauv
        for h in range(i, j + 1):
            if a <= tauv[h - 1] <= b:
                return DpCell(1, ("leaf", h), (1,) if self.canonical else None)
        return self._empty

    def _linear_cell(self, node: DecompNode, i: int, j: int, a: int, b: int) -> DpCell:
        left, right = node.children
        k_left = left.span.hi - left.span.lo + 1
        k_right = right.span.hi - right.span.lo + 1
        span_v = b - a + 1
        cap = k_left + k_right
        if j - i + 1 < cap:
            cap = j - i + 1
        if span_v < cap:
            cap = span_v
        positive = node.sign == "+"
        canonical = self.canonical
        prune = self.prune
        cellf = self._cell
        ltab = self._tables[left]
        rtab = self._tables[right]
        S = self._S

        best = 0
        best_prov: tuple | None = None
        best_pat: tuple[int, ...] = ()
        hit_cap = False
        for h in range(i, j + 2):
            w_left = h - i
            w_right = j - h + 1
            mkl = k_left if k_left < w_left else w_left
            mkr = k_right if k_right < w_right else w_right
            if prune:
                h_bound = mkl + mkr
                if h_bound > span_v:
                    h_bound = span_v
                if h_bound < best or (not canonical and h_bound == best):
                    continue
            h1 = h - 1
            if positive:
                lbase = ((i * S + h1) * S + a) * S  # + (c - 1)
                rbase = (h * S + j) * S * S + b  # + c * S
            else:
                lbase = (i * S + h1) * S * S + b  # + c * S
                rbase = ((h * S + j) * S + a) * S  # + (c - 1)
            for c in range(a, b + 2):
                if positive:
                    v_left = c - a
                    v_right = b - c + 1
                else:
                    v_left = b - c + 1
                    v_right = c - a
                if prune:
                    ml = mkl if mkl < v_left else v_left
                    mr = mkr if mkr < v_right else v_right
                    bound = ml + mr
                    if bound < best or (not canonical and bound == best):
                        continue
                if w_left and v_left:
                    lc = ltab.get(lbase + c - 1 if positive else lbase + c * S)
                    if lc is None:
                        lc = (
                            cellf(left, i, h1, a, c - 1)
                            if positive
                            else cellf(left, i, h1, c, b)
                        )
                    llen = lc[0]
                else:
                    lc = None
                    llen = 0
                if w_right and v_right:
                    rc = rtab.get(rbase + c * S if positive else rbase + c - 1)
                    if rc is None:
                        rc = (
                            cellf(right, h, j, c, b)
                            if positive
                            else cellf(right, h, j, a, c - 1)
                        )
                    rlen = rc[0]
                else:
                    rc = None
                    rlen = 0
                total = llen + rlen
                if total == 0:
                    continue
                if canonical:
                    if total < best:
                        continue
                    lpat = lc[2] if lc is not None else ()
                    rpat = rc[2] if rc is not None else ()
                    if positive:
                        shift = len(lpat)
                        pat = lpat + tuple(v + shift for v in rpat)
                    else:
                        shift = len(rpat)
                        pat = tuple(v + shift for v in lpat) + rpat
                    if total == best and not pat < best_pat:
                        continue
                    best_pat = pat
                elif total <= best:
                    continue
                if positive:
                    lkey = (left, i, h1, a, c - 1) if llen else None
                    rkey = (right, h, j, c, b) if rlen else None
                    best_prov = ("+", lkey, rkey)
                else:
                    lkey = (left, i, h1, c, b) if llen else None
                    rkey = (right, h, j, a, c - 1) if rlen else None
                    best_prov = ("-", lkey, rkey)
                best = total
                if prune and not canonical and best == cap:
                    hit_cap = True
                    break
            if hit_cap:
                break
        return DpCell(best, best_prov, best_pat if canonical else None)

    def _prime_cell(self, node: DecompNode, i: int, j: int, a: int, b: int) -> DpCell:
        children = node.children
        d = len(children)
        rho = node.label.values
        sizes = tuple(c.span.width for c in children)
        inv = [0] * d  # value slice t (1-based) -> child index
        for k, r in enumerate(rho):
            inv[r - 1] = k
        span_v = b - a + 1
        cap = min(sum(sizes), j - i + 1, span_v)
        canonical = self.canonical
        prune = self.prune
        cellf = self._cell
        top = j + 1

        suffix_sizes = [0] * (d + 1)
        for k in range(d - 1, -1, -1):
            suffix_sizes[k] = suffix_sizes[k + 1] + sizes[k]

        best = 0
        best_prov: tuple | None = None
        best_pat: tuple[int, ...] = ()
        cuts = [0] * (d + 1)
        cuts[0] = i
        cuts[d] = top
        keys: list[tuple | None] = [None] * d
        pats: list[tuple[int, ...]] = [()] * d

        def rho_cat(blocks: list[tuple[int, ...]]) -> tuple[int, ...]:
            lens = [len(p) for p in blocks]
            out: list[int] = []
            for k in range(d):
                shift = sum(lens[m] for m in range(d) if rho[m] < rho[k])
                out.extend(v + shift for v in blocks[k])
            return tuple(out)

        def rec_values(t: int, c_prev: int, partial: int, suffix_caps: list[int]) -> None:
            nonlocal best, best_prov, best_pat
            k = inv[t - 1]
            p_lo = cuts[k]
            p_hi = cuts[k + 1] - 1
            choices = (b + 1,) if t == d else range(c_prev, b + 2)
            for ct in choices:
                if p_hi < p_lo or ct == c_prev:
                    clen = 0
                    keys[k] = None
                    if canonical:
                        pats[k] = ()
                else:
                    cc = cellf(children[k], p_lo, p_hi, c_prev, ct - 1)
                    clen = cc[0]
                    keys[k] = (children[k], p_lo, p_hi, c_prev, ct - 1) if clen else None
                    if canonical:
                        pats[k] = cc[2]
                new_partial = partial + clen
                if t == d:
                    if new_partial == 0:
                        continue
                    if canonical:
                        pat = rho_cat(pats)
                        if new_partial > best or (new_partial == best and pat < best_pat):
                            best = new_partial
                            best_pat = pat
                            best_prov = ("rho", tuple(keys))
                    elif new_partial > best:
                        best = new_partial
                        best_prov = ("rho", tuple(keys))
                        if prune and best == cap:
                            raise _CapReached
                else:
                    if prune:
                        bound = new_partial + min(suffix_caps[t], b + 1 - ct)
                        if bound < best or (not canonical and bound == best):
                            continue
                    rec_values(t + 1, ct, new_partial, suffix_caps)

        def rec_positions(k: int, partial_cap: int) -> None:
            if k == d:
                pos_caps = [min(sizes[m], cuts[m + 1] - cuts[m]) for m in range(d)]
                if prune:
                    h_bound = min(sum(pos_caps), span_v)
                    if h_bound < best or (not canonical and h_bound == best):
                        return
                # Per-value-slice suffix bounds for pruning the value cuts.
                suffix_caps = [0] * (d + 1)
                for t in range(d, 0, -1):
                    suffix_caps[t - 1] = suffix_caps[t] + pos_caps[inv[t - 1]]
                rec_values(1, a, 0, suffix_caps)
                return
            prev = cuts[k - 1]
            for hk in range(prev, top + 1):
                cuts[k] = hk
                new_cap = partial_cap + min(sizes[k - 1], hk - prev)
                if prune:
                    bound = min(new_cap + min(suffix_sizes[k], top - hk), span_v)
                    if bound < best or (not canonical and bound == best):
                        continue
                rec_positions(k + 1, new_cap)

        try:
            rec_positions(1, 0)
        except _CapReached:
            pass
        return DpCell(best, best_prov, best_pat if canonical else None)

    def reconstruct(
        self,
        node: DecompNode | None = None,
        i: int | None = None,
        j: int | None = None,
        a: int | None = None,
        b: int | None = None,
    ) -> tuple[Pattern, Occurrence, Occurrence]:
        """Rebuild (pattern, occurrence in the tree's permutation, occurrence in tau).

        Defaults to the root cell.  Walks the provenance back-references:
        leaves contribute one position on each side, combine steps splice
        their children with the matching concatenation operator.
        """
        if node is None:
            node, i, j, a, b = self.tree.root, 1, self.n, 1, self.n
        cell = self.cell(node, i, j, a, b)
        pattern, spos, tpos = self._walk_provenance(node, i, j, a, b)
        if len(pattern) != cell.length:
            raise RuntimeError("provenance does not rebuild to the stored length")
        return Pattern(pattern), Occurrence(spos), Occurrence(tpos)

    def _walk_provenance(self, node, i, j, a, b):
        prov = self._cell(node, i, j, a, b).provenance
        if prov is None:
            return (), (), ()
        tag = prov[0]
        if tag == "leaf":
            return (1,), (node.span.lo,), (prov[1],)
        if tag == "rho":
            blocks = []
            spos: tuple[int, ...] = ()
            tpos: tuple[int, ...] = ()
            for key in prov[1]:
                if key is None:
                    blocks.append(Pattern(()))
                    continue
                bp, bs, bt = self._walk_provenance(*key)
                blocks.append(Pattern(bp))
                spos += bs
                tpos += bt
            return concat_rho(node.label, blocks).values, spos, tpos
        lkey, rkey = prov[1], prov[2]
        lp, ls, lt = self._walk_provenance(*lkey) if lkey else ((), (), ())
        rp, rs, rt = self._walk_provenance(*rkey) if rkey else ((), (), ())
        cat = concat_plus if tag == "+" else concat_minus
        return cat(Pattern(lp), Pattern(rp)).values, ls + rs, lt + rt


@dataclass(frozen=True, slots=True)
class LcpPlan:
    """Which input guides the dynamic program, and what that costs."""

    guided_by: str  # "sigma" | "tau"
    tree: DecompTree  # expanded guiding tree
    prime_arity: int
    algorithm: str  # "separable" | "general"


def lcp_plan(sigma: Permutation, tau: Permutation, algo: str = "auto") -> LcpPlan:
    """Pick the guiding tree for ``algo``: auto, separable or general.

    ``separable`` and ``general`` guide with sigma, and ``separable`` rejects
    a sigma with prime structure.  ``auto`` guides with the input of smaller
    max prime arity, ties to the shorter input, which is sound because the
    common-pattern relation is symmetric.
    """
    if algo not in ("auto", "separable", "general"):
        raise ValueError(f"unknown algo {algo!r}")
    guided_by, chosen = "sigma", decomposition_tree(sigma)
    arity = max_prime_arity(chosen)
    if algo == "separable" and arity:
        raise NotSeparableError(f"{sigma} is not separable")
    if algo == "auto":
        t_tau = decomposition_tree(tau)
        d_tau = max_prime_arity(t_tau)
        if (d_tau, tau.n) < (arity, sigma.n):
            guided_by, chosen, arity = "tau", t_tau, d_tau
    algorithm = "general" if algo == "general" or arity else "separable"
    return LcpPlan(guided_by, expand_tree(chosen), arity, algorithm)


def lcp(
    sigma: Permutation, tau: Permutation, algo: str = "auto", *, canonical: bool = False
) -> LcpResult:
    """A longest common pattern of ``sigma`` and ``tau``, with one occurrence in each.

    :func:`lcp_plan` picks the guiding tree for ``algo``; one table over the
    other input then yields the pattern and both occurrences.

    >>> from permlcp import parse_permutation
    >>> lcp(parse_permutation("2 4 1 3"), parse_permutation("1 3 2 4")).length
    3
    """
    plan = lcp_plan(sigma, tau, algo)
    if plan.guided_by == "sigma":
        table = DpTable(plan.tree, tau, canonical=canonical)
        pattern, occ_sigma, occ_tau = table.reconstruct()
    else:
        table = DpTable(plan.tree, sigma, canonical=canonical)
        pattern, occ_tau, occ_sigma = table.reconstruct()
    return LcpResult(pattern, occ_sigma, occ_tau, plan.algorithm)
