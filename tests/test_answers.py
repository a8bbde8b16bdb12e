"""Pinned answers: lcp() over a seeded pair set hashes to two recorded digests.

The full digest covers the pattern, both occurrences and the algorithm of
every result, for all three algos and both values of ``canonical``.  The
second covers what no change of scan order or tree shape may move: every
length, and every ``canonical=True`` answer in full.  An error is an answer
too, hashed by type and message: ``separable`` raises
``NotSeparableError`` on a guide with a prime node.  A change meant to keep
every answer (a faster scan, a new skip) keeps both digests; a change meant
to alter a plain witness records a new full digest and says why.

Run as a script (``PYTHONPATH=src python tests/test_answers.py``), it prints
the lines the full digest hashes, one per pair, algo and ``canonical``, so a
``diff`` of two trees' outputs lists the answers a change moved.
"""

import functools
import hashlib
import random

from helpers import prime_inflation, random_permutation, random_separable
from permlcp import lcp

DIGEST = "cb3143a1d5c3681eac83750601eb534dd0a842163e4a0e86a17c03da96c3c19f"
LENGTHS_AND_CANONICAL_DIGEST = "a322f82086727904edb353e94f16a0c057fe86f30e53b9d9ebedf426336bdd43"


def _pairs():
    """Random pairs of sizes 1-8, separable 14 vs random 14, separable 28 vs 5 and 5 vs 28.

    Last come pairs of size-9 inflations of arity-4/5 simple permutations.
    Only one pair puts the 5 first, since ``separable`` and ``general`` then
    guide with it, and its canonical walk takes seconds.
    """
    rng = random.Random(18)
    pairs = [
        (random_permutation(rng, rng.randint(1, 8)), random_permutation(rng, rng.randint(1, 8)))
        for _ in range(150)
    ]
    pairs += [(random_separable(rng, 14), random_permutation(rng, 14)) for _ in range(3)]
    pairs += [(random_separable(rng, 28), random_separable(rng, 5)) for _ in range(3)]
    pairs.append((random_separable(rng, 5), random_separable(rng, 28)))
    pairs += [(prime_inflation(rng, 9), prime_inflation(rng, 9)) for _ in range(6)]
    return pairs


def _answer(sigma, tau, algo, canonical) -> tuple[str, str]:
    """The full answer line's tail, and the part of it the second digest keeps."""
    try:
        r = lcp(sigma, tau, algo, canonical=canonical)
    except ValueError as error:
        text = f"{type(error).__name__}: {error}"
        return text, text
    text = f"{r.pattern} | {r.occ_sigma} | {r.occ_tau} | {r.algorithm}"
    return text, text if canonical else f"length {r.length}"


def _lines():
    """Yield each full answer line, and the line the second digest keeps, in hashing order."""
    for sigma, tau in _pairs():
        for algo in ("auto", "separable", "general"):
            for canonical in (False, True):
                head = f"{sigma} / {tau} {algo} {canonical}: "
                text, part = _answer(sigma, tau, algo, canonical)
                yield f"{head}{text}", f"{head}{part}"


@functools.cache
def answers_digests() -> tuple[str, str]:
    """The full digest and the lengths-and-canonical digest, in one pass."""
    full, kept = hashlib.sha256(), hashlib.sha256()
    for line, part in _lines():
        full.update(f"{line}\n".encode())
        kept.update(f"{part}\n".encode())
    return full.hexdigest(), kept.hexdigest()


def test_answers_match_the_recorded_digest():
    assert answers_digests()[0] == DIGEST


def test_lengths_and_canonical_answers_match_their_digest():
    assert answers_digests()[1] == LENGTHS_AND_CANONICAL_DIGEST


if __name__ == "__main__":
    for line, _ in _lines():
        print(line)
