"""Command-line interface.

Commands: ``lcp`` (longest common pattern between two permutations),
``plan`` (which input would guide ``lcp``, and the predicted costs),
``tree`` (inspect decomposition trees), ``check`` (separability/simplicity
predicates with witnesses) and ``contains`` (pattern involvement through the
LCP reduction).  Each command returns its exit code, a JSON-ready payload
and its text, and :func:`main` renders the result once: the payload under
``-o json``, the text otherwise (``tree`` has ``--format`` instead, and
returns the rendering it picks).  ``--quiet`` only drops that stdout, so it
never changes an exit code.  Diagnostics go to stderr.

Exit codes: 0 ok/true, 1 predicate false, 2 input error, 3 algorithm
precondition violated, a JSON tree nested past the recursion limit or an
internal fault.  Every error is reported as one ``error:`` line on stderr.
Only ``lcp``, ``plan`` and ``contains`` import :mod:`permlcp.dp` (the DP),
when they run, so this module, ``tree`` and ``check`` never compile it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .decomposition import (
    IntervalSpan,
    NotSeparableError,
    decomposition_tree,
    expand_tree,
    tree_to_dict,
    tree_to_dot,
    tree_to_text,
)
from .perms import Occurrence, Pattern, find_occurrence, parse_permutation

# Prime arity at which the per-cell cost n^(2d-2) starts to hurt.
ARITY_WARN_THRESHOLD = 6


def _text(fields: dict) -> str:
    """One ``name: value`` line per field; a value of None reads ``not built``."""
    return "\n".join(
        f"{name}: {'not built' if value is None else value}" for name, value in fields.items()
    )


def cmd_lcp(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .dp import _solve, lcp_plan
    sigma = parse_permutation(args.sigma)
    tau = parse_permutation(args.tau)
    plan = lcp_plan(sigma, tau, args.algo)
    arity = plan.prime_arity
    if arity >= ARITY_WARN_THRESHOLD:
        print(
            f"warning: guiding tree has a prime node of arity {arity}; the per-cell "
            f"cost grows like n^(2*{arity}-2), this may be very slow",
            file=sys.stderr,
        )
    result = _solve(plan, sigma, tau, args.canonical)
    fields = {
        "pattern": result.pattern,
        "length": result.length,
        "occ_sigma": result.occ_sigma,
        "occ_tau": result.occ_tau,
        "algorithm": result.algorithm,
    }
    payload = {
        name: list(v) if isinstance(v, (Pattern, Occurrence)) else v for name, v in fields.items()
    }
    return 0, payload, _text(fields)


def _cost(value: int | None) -> int | str | None:
    """A predicted cost for output: exact, or past about 3900 digits, where
    Python stops converting ints to text, a lower bound as a power of ten."""
    if value is None or value.bit_length() <= 13_000:
        return value
    return f">=1e{int((value.bit_length() - 1) * math.log10(2))}"


def cmd_plan(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .dp import lcp_plan
    plan = lcp_plan(parse_permutation(args.sigma), parse_permutation(args.tau), args.algo)
    fields = {
        "guided_by": plan.guided_by,
        "algorithm": plan.algorithm,
        "prime_arity": plan.prime_arity,
        "cost_sigma": _cost(plan.cost_sigma),
        "cost_tau": _cost(plan.cost_tau),
    }
    return 0, fields, _text(fields)


def cmd_tree(args: argparse.Namespace) -> tuple[int, None, str]:
    tree = decomposition_tree(parse_permutation(args.sigma))
    if args.kind == "expanded":
        tree = expand_tree(tree)
    if args.format == "dot":
        return 0, None, tree_to_dot(tree)
    if args.format == "json":
        return 0, None, json.dumps(tree_to_dict(tree))
    return 0, None, tree_to_text(tree)


def cmd_check(args: argparse.Namespace) -> tuple[int, dict, str]:
    sigma = parse_permutation(args.sigma)
    tree = decomposition_tree(sigma)

    if args.separable:
        prime = next((node for node in tree.walk() if node.kind == "prime"), None)
        if prime is None:
            return 0, {"predicate": "separable", "value": True}, "separable"
        # The label is simple, so it holds 3 1 4 2 or 2 4 1 3; one
        # position from each matched child spells the same pattern in sigma.
        pattern_name = "3 1 4 2"
        hit = find_occurrence(prime.label, Pattern((3, 1, 4, 2)))
        if hit is None:
            pattern_name = "2 4 1 3"
            hit = find_occurrence(prime.label, Pattern((2, 4, 1, 3)))
        witness = Occurrence(tuple(prime.children[k - 1].span.lo for k in hit))
        payload = {
            "predicate": "separable",
            "value": False,
            "witness": list(witness.positions),
            "forbidden_pattern": pattern_name,
        }
        values = " ".join(str(sigma.values[p - 1]) for p in witness)
        return 1, payload, (
            f"not separable: {pattern_name} occurs at positions {witness} (values {values})"
        )

    # --simple: the whole permutation is one prime node over leaves.
    if tree.root.kind == "prime" and all(child.is_leaf for child in tree.root.children):
        return 0, {"predicate": "simple", "value": True}, "simple"
    # The first proper common interval is the span of a non-root internal
    # node or of two neighbouring children of a linear node.
    spans = []
    for node in tree.walk():
        spans += [child.span for child in node.children if child.children]
        if node.kind == "linear":
            spans += [IntervalSpan(a.span.lo, b.span.hi) for a, b in zip(node.children, node.children[1:])]
    span = min((s for s in spans if s.width < sigma.n), key=lambda s: (s.lo, s.hi), default=None)
    payload = {"predicate": "simple", "value": False}
    if span is None:
        return 1, payload, (
            f"not simple: size {sigma.n} < 4 (smallest simple size is 4; whole span 1-{sigma.n})"
        )
    payload["witness_span"] = [span.lo, span.hi]
    return 1, payload, f"not simple: common interval at positions {span}"


def cmd_contains(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .dp import lcp
    pattern = parse_permutation(args.pattern)
    sigma = parse_permutation(args.sigma)
    result = lcp(pattern, sigma, "auto")
    if result.length != len(pattern):
        return 1, {"contains": False}, "no occurrence"
    values = " ".join(str(sigma.values[p - 1]) for p in result.occ_tau)
    payload = {"contains": True, "occurrence": list(result.occ_tau.positions)}
    return 0, payload, f"occurrence at positions {result.occ_tau} (values {values})"


class _Command(argparse.ArgumentParser):
    """A subcommand's parser: it rejects an unknown argument itself, under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output", "-o", choices=("text", "json"), default="text", help="output format"
    )
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress stdout, keep exit codes")

    parser = argparse.ArgumentParser(
        prog="permlcp",
        description="Longest common pattern between permutations, and the trees behind it.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("sigma", help="first permutation, e.g. '5 1 4 3 2'")
    pair.add_argument("tau", help="second permutation")
    pair.add_argument(
        "--algo",
        choices=("auto", "separable", "general"),
        default="auto",
        help="algorithm selection (default: auto)",
    )

    p_lcp = sub.add_parser("lcp", parents=[output, quiet, pair], help="longest common pattern")
    p_lcp.add_argument(
        "--canonical",
        action="store_true",
        help="break ties towards the lexicographically smallest pattern",
    )
    p_lcp.set_defaults(func=cmd_lcp)

    p_plan = sub.add_parser(
        "plan", parents=[output, quiet, pair], help="which input guides lcp, and the predicted costs"
    )
    p_plan.set_defaults(func=cmd_plan)

    p_tree = sub.add_parser("tree", parents=[quiet], help="print a decomposition tree")
    p_tree.add_argument("sigma")
    p_tree.add_argument("--kind", choices=("labeled", "expanded"), default="labeled")
    p_tree.add_argument("--format", choices=("text", "dot", "json"), default="text")
    p_tree.set_defaults(func=cmd_tree)

    p_check = sub.add_parser("check", parents=[output, quiet], help="test a permutation predicate")
    p_check.add_argument("sigma")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--separable", action="store_true")
    group.add_argument("--simple", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_contains = sub.add_parser(
        "contains", parents=[output, quiet], help="does the pattern occur in the permutation?"
    )
    p_contains.add_argument("pattern")
    p_contains.add_argument("sigma")
    p_contains.set_defaults(func=cmd_contains)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.func(args)
        out = json.dumps(payload) if getattr(args, "output", "text") == "json" else text
    except NotSeparableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # PermutationError and other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # RecursionError on a deep JSON tree, or an internal fault
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(out)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
