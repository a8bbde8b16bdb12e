"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Everything asserts exactly; no tolerances apply because all
quantities are integers or exact structures.  The exhaustive sweeps take a
couple of minutes in total.
"""

import itertools
import random
import time

from helpers import (
    assert_valid_result,
    random_permutation,
    random_separable,
)
from permlcp import (
    DpTable,
    Pattern,
    Permutation,
    avoids,
    concat_minus,
    concat_plus,
    concat_rho,
    decomposition_tree,
    expand_tree,
    find_occurrence,
    is_separable,
    lcp,
    lcp_plan,
    normalize,
    parse_permutation,
    tree_from_nested,
    tree_to_permutation,
)
from permlcp.cli import main
from permlcp.oracle import oracle_is_simple, oracle_lcp, oracle_separable


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, failures[:5]


def _all_perms(n: int):
    for values in itertools.permutations(range(1, n + 1)):
        yield Permutation(values)


def test_criterion_1_oracle_equivalence_exhaustive():
    """All pairs up to size 5: DP length equals oracle length, witness valid."""
    failures = []
    perms = [sigma for n in range(1, 6) for sigma in _all_perms(n)]
    for sigma in perms:
        for tau in perms:
            got = lcp(sigma, tau, "general")
            want = oracle_lcp(sigma, tau)
            if got.length != len(want):
                failures.append((sigma.values, tau.values, got.length, len(want)))
                continue
            try:
                assert_valid_result(sigma, tau, got)
            except AssertionError:
                failures.append(("witness", sigma.values, tau.values))
    _report(1, "oracle equivalence, exhaustive to size 5", failures)


def test_criterion_2_oracle_equivalence_sampled():
    """500 random pairs of sizes up to 8 with guide prime arity at most 5."""
    rng = random.Random(20240501)
    failures = []
    checked = 0
    while checked < 500:
        sigma = random_permutation(rng, rng.randint(1, 8))
        tau = random_permutation(rng, rng.randint(1, 8))
        if lcp_plan(sigma, tau).prime_arity > 5:
            continue
        checked += 1
        got = lcp(sigma, tau)
        want = oracle_lcp(sigma, tau)
        if got.length != len(want):
            failures.append((sigma.values, tau.values, got.length, len(want)))
    _report(2, "oracle equivalence, 500 sampled pairs to size 8", failures)


def test_criterion_3_separable_path_agreement():
    """All separable sigma up to size 6 against 100 random tau of sizes up to 8."""
    rng = random.Random(20240502)
    taus = [random_permutation(rng, rng.randint(1, 8)) for _ in range(100)]
    failures = []
    for n in range(1, 7):
        for sigma in _all_perms(n):
            if not oracle_separable(sigma):
                continue
            for tau in taus:
                a = lcp(sigma, tau, "separable").length
                b = lcp(sigma, tau, "general").length
                c = len(oracle_lcp(sigma, tau))
                if not a == b == c:
                    failures.append((sigma.values, tau.values, a, b, c))
    _report(3, "separable-path agreement", failures)


def test_criterion_4_worked_fixtures_bit_exact():
    failures = []

    # (a) hand-checked cells for sigma(V) = 2 1, tau = 6 4 2 5 3 1
    tree21 = expand_tree(decomposition_tree(parse_permutation("2 1")))
    table = DpTable(tree21, parse_permutation("6 4 2 5 3 1"))
    v = table.tree.root
    if table.cell(v, 2, 4, 3, 5) != 1:
        failures.append("cell (V,2,4,3,5) != 1")
    if table.reconstruct(v, 2, 5, 3, 4)[0].values != (2, 1):
        failures.append("cell (V,2,5,3,4) != 2 1")
    if table.cell(v, 4, 5, 1, 2) != 0:
        failures.append("cell (V,4,5,1,2) != empty")

    # (b) signed concatenation examples
    if concat_plus(Pattern((4, 3, 5, 2, 1)), Pattern((3, 1, 4, 2))).values != (
        4, 3, 5, 2, 1, 8, 6, 9, 7,
    ):
        failures.append("plus concatenation example")
    if concat_minus(Pattern((4, 3, 5, 2, 1)), Pattern((3, 1, 4, 2))).values != (
        8, 7, 9, 6, 5, 3, 1, 4, 2,
    ):
        failures.append("minus concatenation example")

    # (c) template concatenation example
    rho_result = concat_rho(
        Pattern((2, 5, 3, 1, 4)),
        [
            Pattern((2, 1)),
            Pattern((3, 1, 2)),
            Pattern((4, 3, 2, 1)),
            Pattern((1, 2)),
            Pattern((2, 3, 1)),
        ],
    )
    if rho_result.values != (4, 3, 14, 12, 13, 8, 7, 6, 5, 1, 2, 10, 11, 9):
        failures.append("template concatenation example")

    # (d) decomposition tree of the 11-element fixture permutation
    sigma11 = parse_permutation("5 1 10 9 6 7 8 11 2 4 3")
    root = decomposition_tree(sigma11).root
    ok = (
        root.kind == "prime"
        and root.label.values == (3, 1, 4, 2)
        and [(c.span.lo, c.span.hi) for c in root.children]
        == [(1, 1), (2, 2), (3, 8), (9, 11)]
        and root.children[2].sign == "+"
        and root.children[2].children[0].sign == "-"
        and root.children[2].children[0].children[2].sign == "+"
        and root.children[3].sign == "+"
        and root.children[3].children[1].sign == "-"
    )
    if not ok:
        failures.append("11-element fixture tree structure")

    # (e) hand-checked cells on an explicitly chosen separating tree
    spec = ("+", 1, ("+", ("-", 4, ("+", 2, 3)), ("+", ("-", 6, 5), ("+", 7, 8))))
    ptree = tree_from_nested(spec)
    if tree_to_permutation(ptree).values != (1, 4, 2, 3, 6, 5, 7, 8):
        failures.append("chosen-tree decoration")
    ptable = DpTable(ptree, parse_permutation("4 1 3 2 5 6 8 9 7"))
    v_left = ptree.root.children[1].children[0]
    v_right = ptree.root.children[1].children[1]
    if ptable.reconstruct(v_left, 2, 4, 2, 3)[0].values != (2, 1):
        failures.append("cell (V_L,2,4,2,3) != 2 1")
    if ptable.reconstruct(v_right, 5, 7, 4, 8)[0].values != (1, 2, 3):
        failures.append("cell (V_R,5,7,4,8) != 1 2 3")

    _report(4, "worked fixtures, bit-exact", failures)


def test_criterion_5_definition_cross_checks():
    failures = []
    forb1, forb2 = Pattern((3, 1, 4, 2)), Pattern((2, 4, 1, 3))
    separable_counts = []
    for n in range(1, 9):
        count = 0
        for sigma in _all_perms(n):
            by_tree = is_separable(sigma)
            by_avoidance = avoids(sigma, forb1) and avoids(sigma, forb2)
            if by_tree != by_avoidance:
                failures.append(("separability mismatch", sigma.values))
            if by_avoidance:
                count += 1
        if n <= 7:
            separable_counts.append(count)
    # Regression fixtures, computed by the avoidance oracle (these are the
    # large Schroeder numbers, which is a reassuring cross-reference).
    if separable_counts != [1, 2, 6, 22, 90, 394, 1806]:
        failures.append(("separable counts", separable_counts))
    simple_counts = [
        sum(1 for sigma in _all_perms(n) if oracle_is_simple(sigma)) for n in (4, 5, 6)
    ]
    if simple_counts != [2, 6, 46]:
        failures.append(("simple counts", simple_counts))
    _report(5, "definition cross-checks to size 8", failures)


def test_criterion_6_structural_properties():
    rng = random.Random(20240503)
    failures = []
    for _ in range(1000):
        sigma = random_permutation(rng, rng.randint(1, 20))
        labeled = decomposition_tree(sigma)
        if tree_to_permutation(labeled).values != sigma.values:
            failures.append(("round trip labeled", sigma.values))
            continue
        expanded = expand_tree(labeled)
        if tree_to_permutation(expanded).values != sigma.values:
            failures.append(("round trip expanded", sigma.values))
        for node in labeled.walk():
            if node.kind == "linear":
                if node.arity < 2:
                    failures.append(("linear arity", sigma.values))
                for child in node.children:
                    if child.kind == "linear" and child.sign == node.sign:
                        failures.append(("same-sign contraction", sigma.values))
            elif node.kind == "prime":
                if not oracle_is_simple(Permutation(node.label.values)):
                    failures.append(("prime label not simple", sigma.values))
        for node in expanded.walk():
            if node.kind == "linear" and node.arity != 2:
                failures.append(("expanded linear not binary", sigma.values))
    _report(6, "structural properties on 1000 random permutations", failures)


def test_criterion_7_involvement_reduction():
    failures = []
    targets = [tau for n in range(1, 7) for tau in _all_perms(n)]
    for n in range(1, 5):
        for sigma in _all_perms(n):
            pattern = normalize(sigma.values)
            for tau in targets:
                by_lcp = lcp(sigma, tau).length == sigma.n
                by_search = find_occurrence(tau, pattern) is not None
                if by_lcp != by_search:
                    failures.append((sigma.values, tau.values))
    _report(7, "involvement reduction, exhaustive", failures)


def test_criterion_8_complexity_smoke(capsys):
    failures = []
    rng = random.Random(20240504)
    sigma = random_separable(rng, 20)
    tau = random_permutation(rng, 20)
    start = time.time()
    result = lcp(sigma, tau, "separable")
    elapsed = time.time() - start
    if elapsed >= 60.0:
        failures.append(f"separable k=20 n=20 took {elapsed:.1f}s")
    try:
        assert_valid_result(sigma, tau, result)
    except AssertionError:
        failures.append("smoke witness invalid")

    # A guiding tree with a prime node of arity >= 6 must trigger a warning.
    code = main(["lcp", "2 4 6 1 3 5", "3 1 2 4 6 5", "--algo", "general"])
    captured = capsys.readouterr()
    if code != 0:
        failures.append(f"warning run exited {code}")
    if "warning" not in captured.err or "arity 6" not in captured.err:
        failures.append("missing complexity warning for prime arity 6")

    with capsys.disabled():
        print(f"\n[criterion 8] separable k=20 vs n=20 in {elapsed:.1f}s (budget 60s)")
    _report(8, "complexity smoke and arity warning", failures)
