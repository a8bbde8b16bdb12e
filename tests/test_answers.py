"""Pinned answers: lcp() over a seeded pair set hashes to one recorded digest.

The digest covers the pattern, both occurrences and the algorithm of every
result, for all three algos and both values of ``canonical``.  An error is
an answer too, hashed by type and message: ``separable`` raises
``NotSeparableError`` on a guide with a prime node.  A change meant to keep
every answer (a faster scan, a new skip) keeps the digest; a change meant
to alter an answer records the new digest and says why.
"""

import hashlib
import random

from helpers import random_permutation, random_separable
from permlcp import Permutation, concat_rho, decomposition_tree, lcp, max_prime_arity

DIGEST = "57fa4708c408a9ced22050be01bb9d81527234a66762cbf9c677e9ddfbcd3157"


def _prime_inflation(rng: random.Random, n: int) -> Permutation:
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
    pairs += [(_prime_inflation(rng, 9), _prime_inflation(rng, 9)) for _ in range(6)]
    return pairs


def _answer(sigma, tau, algo, canonical) -> str:
    try:
        r = lcp(sigma, tau, algo, canonical=canonical)
    except ValueError as error:
        return f"{type(error).__name__}: {error}"
    return f"{r.pattern} | {r.occ_sigma} | {r.occ_tau} | {r.algorithm}"


def answers_digest() -> str:
    digest = hashlib.sha256()
    for sigma, tau in _pairs():
        for algo in ("auto", "separable", "general"):
            for canonical in (False, True):
                line = f"{sigma} / {tau} {algo} {canonical}: {_answer(sigma, tau, algo, canonical)}\n"
                digest.update(line.encode())
    return digest.hexdigest()


def test_answers_match_the_recorded_digest():
    assert answers_digest() == DIGEST
