"""Shared test utilities: random generators and tiny independent oracles."""

from __future__ import annotations

import random
from itertools import combinations, permutations

from permlcp import (
    IntervalSpan,
    NotSeparableError,
    Pattern,
    Permutation,
    concat_minus,
    concat_plus,
    concat_rho,
    decomposition_tree,
    max_prime_arity,
    normalize,
    tree_from_nested,
)


def random_permutation(rng: random.Random, n: int) -> Permutation:
    return Permutation(tuple(rng.sample(range(1, n + 1), n)))


def random_separable(rng: random.Random, n: int) -> Permutation:
    """Random separable permutation built from random signed splits."""

    def build(k: int) -> Pattern:
        if k == 1:
            return Pattern((1,))
        u = rng.randint(1, k - 1)
        cat = concat_plus if rng.random() < 0.5 else concat_minus
        return cat(build(u), build(k - u))

    return Permutation(build(n).values)


def prime_inflation(rng: random.Random, n: int) -> Permutation:
    """A simple permutation of arity 4 or 5 inflated by separable blocks to size n."""
    while True:
        skeleton = random_permutation(rng, rng.choice((4, 5)))
        if max_prime_arity(decomposition_tree(skeleton)) == skeleton.n:
            break
    sizes = [1] * skeleton.n
    for _ in range(n - skeleton.n):
        sizes[rng.randrange(skeleton.n)] += 1
    blocks = [random_separable(rng, s) for s in sizes]
    return Permutation(concat_rho(skeleton, blocks).values)


def alternating_chain(n: int) -> Permutation:
    """((1 (+) 1) (-) 1) (+) 1 ...: a separable permutation whose tree is n - 1 deep.

    Built from the last step back: step t appends a new maximum when t is odd
    and a new minimum when t is even.
    """
    values = [0] * n
    lo, hi = 1, n
    for step in range(n - 1, 0, -1):
        if step % 2:
            values[step], hi = hi, hi - 1
        else:
            values[step], lo = lo, lo + 1
    values[0] = lo
    return Permutation(tuple(values))


def all_permutations(n: int):
    for p in permutations(range(1, n + 1)):
        yield Permutation(p)


def contains_by_enumeration(host, pattern) -> bool:
    """Ground-truth involvement: try every index subset."""
    hv = tuple(host)
    pv = tuple(pattern)
    if not pv:
        return True
    for idxs in combinations(range(len(hv)), len(pv)):
        if normalize(tuple(hv[i] for i in idxs)).values == pv:
            return True
    return False


def common_intervals_by_rescan(sigma: Permutation) -> list[IntervalSpan]:
    """Every span whose values form an integer interval, in (lo, hi) order."""
    vals = sigma.values
    n = len(vals)
    return [
        IntervalSpan(lo, hi)
        for lo in range(1, n + 1)
        for hi in range(lo, n + 1)
        if max(vals[lo - 1 : hi]) - min(vals[lo - 1 : hi]) == hi - lo
    ]


def overlaps(s: IntervalSpan, t: IntervalSpan) -> bool:
    """Proper overlap: both differences and the intersection non-empty."""
    return (s.lo < t.lo <= s.hi < t.hi) or (t.lo < s.lo <= t.hi < s.hi)


def strong_intervals_by_overlap(sigma: Permutation) -> frozenset[IntervalSpan]:
    """Strong intervals by definition: common intervals that overlap no other one."""
    common = common_intervals_by_rescan(sigma)
    return frozenset(s for s in common if not any(overlaps(s, t) for t in common))


def all_common_pattern_values(sigma, tau):
    """Every pattern (as a value tuple) common to both inputs, by exhaustion."""
    sv, tv = tuple(sigma), tuple(tau)
    found = {()}
    for size in range(1, min(len(sv), len(tv)) + 1):
        tau_patterns = {
            normalize(tuple(tv[i] for i in idxs)).values
            for idxs in combinations(range(len(tv)), size)
        }
        for idxs in combinations(range(len(sv)), size):
            pat = normalize(tuple(sv[i] for i in idxs)).values
            if pat in tau_patterns:
                found.add(pat)
    return found


def all_binary_separating_trees(values: tuple[int, ...]):
    """Yield every valid binary separating tree of the given block, as nested specs."""
    if len(values) == 1:
        yield values[0]
        return
    for split in range(1, len(values)):
        left, right = values[:split], values[split:]
        if max(left) < min(right):
            for lt in all_binary_separating_trees(left):
                for rt in all_binary_separating_trees(right):
                    yield ("+", lt, rt)
        if min(left) > max(right):
            for lt in all_binary_separating_trees(left):
                for rt in all_binary_separating_trees(right):
                    yield ("-", lt, rt)


def separating_trees_of(sigma: Permutation):
    for spec in all_binary_separating_trees(sigma.values):
        yield tree_from_nested(spec)


def assert_valid_result(sigma: Permutation, tau: Permutation, result) -> None:
    """The returned pattern must occur at the returned positions in both inputs."""
    sub_sigma = normalize(tuple(sigma.values[p - 1] for p in result.occ_sigma))
    sub_tau = normalize(tuple(tau.values[p - 1] for p in result.occ_tau))
    assert sub_sigma.values == result.pattern.values, (
        sigma.values,
        tau.values,
        result.pattern.values,
        result.occ_sigma.positions,
    )
    assert sub_tau.values == result.pattern.values, (
        sigma.values,
        tau.values,
        result.pattern.values,
        result.occ_tau.positions,
    )


def plan_by_formula(sigma: Permutation, tau: Permutation, algo: str) -> tuple:
    """(guided_by, algorithm, prime_arity, cost_sigma, cost_tau) by lcp_plan's written rule.

    A guide's cost is the sum over the nodes of its unexpanded tree of
    (arity - 1) * m^6 per linear node and m^(2d + 2) per prime node of
    arity d, where m is the other input's size.  ``auto`` takes tau when
    (cost, max prime arity, size) is smaller for it.  Raises
    NotSeparableError for ``separable`` with a prime sigma.
    """

    def cost(guide: Permutation, m: int) -> int:
        total = 0
        for node in decomposition_tree(guide).walk():
            if node.kind == "linear":
                total += (node.arity - 1) * m**6
            elif node.kind == "prime":
                total += m ** (2 * node.arity + 2)
        return total

    arity = max_prime_arity(decomposition_tree(sigma))
    if algo == "separable" and arity:
        raise NotSeparableError(f"{sigma} is not separable")
    guided_by, cost_sigma, cost_tau = "sigma", cost(sigma, tau.n), None
    if algo == "auto":
        d_tau = max_prime_arity(decomposition_tree(tau))
        cost_tau = cost(tau, sigma.n)
        if (cost_tau, d_tau, tau.n) < (cost_sigma, arity, sigma.n):
            guided_by, arity = "tau", d_tau
    algorithm = "general" if algo == "general" or arity else "separable"
    return guided_by, algorithm, arity, cost_sigma, cost_tau


def materialized_cells(table):
    """Yield (node, i, j, a, b, entry) for every entry a DpTable holds, aliases included.

    ``entry`` is the stored int: a length, or -1 - ub for a bound "at most
    ub".  Decodes the packed (i, j, a, b) keys.  Only internal nodes have
    entries: a leaf's length is read from tau, never stored.
    """
    S = table._S
    for node, memo in list(table._tables.items()):
        for idx, entry in list(memo.items()):
            idx, b = divmod(idx, S)
            idx, a = divmod(idx, S)
            i, j = divmod(idx, S)
            yield node, i, j, a, b, entry


def tight_box(tau: Permutation, i: int, j: int, a: int, b: int):
    """(first position, last position, lowest value, highest value) of tau's points in the box.

    None when the box holds no point.
    """
    points = [(p, v) for p, v in enumerate(tau.values, 1) if i <= p <= j and a <= v <= b]
    if not points:
        return None
    positions, values = zip(*points)
    return min(positions), max(positions), min(values), max(values)


def evaluated_cells(table):
    """The cells of ``materialized_cells`` that the fill evaluated, without the aliases.

    A box is evaluated under its tight box, and its other keys are aliases
    of that entry.  A box with no point is never stored.
    """
    for cell in materialized_cells(table):
        node, i, j, a, b, _ = cell
        if tight_box(table.tau, i, j, a, b) == (i, j, a, b):
            yield cell
