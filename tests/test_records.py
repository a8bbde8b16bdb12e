"""The seven public records: read-only, compared by value (trees by identity), pickled whole."""

import copy
import pickle

import pytest

from permlcp import (
    DecompTree,
    IntervalSpan,
    LcpPlan,
    LcpResult,
    Occurrence,
    Pattern,
    Permutation,
    PermutationError,
    decomposition_tree,
    parse_permutation,
    tree_to_text,
)


def _tree():
    return decomposition_tree(parse_permutation("2 1"))


# Each record: a builder of a sample, its fields in order, and its repr.
RECORDS = {
    Permutation: (
        lambda: Permutation((3, 1, 2)),
        ("values",),
        "Permutation(values=(3, 1, 2))",
    ),
    Pattern: (lambda: Pattern(()), ("values",), "Pattern(values=())"),
    Occurrence: (
        lambda: Occurrence((1, 4)),
        ("positions",),
        "Occurrence(positions=(1, 4))",
    ),
    IntervalSpan: (lambda: IntervalSpan(2, 5), ("lo", "hi"), "IntervalSpan(lo=2, hi=5)"),
    DecompTree: (
        _tree,
        ("root", "source_size", "expanded"),
        "DecompTree(root=<DecompNode linear sign='-' span=1-2 value_range=(1, 2) arity=2>, "
        "source_size=2, expanded=False)",
    ),
    LcpResult: (
        lambda: LcpResult(Pattern((2, 1)), Occurrence((1, 3)), Occurrence((2, 4)), "separable"),
        ("pattern", "occ_sigma", "occ_tau", "algorithm"),
        "LcpResult(pattern=Pattern(values=(2, 1)), occ_sigma=Occurrence(positions=(1, 3)), "
        "occ_tau=Occurrence(positions=(2, 4)), algorithm='separable')",
    ),
    LcpPlan: (
        # One tree for every plan, so plans built apart compare equal.
        (lambda tree=_tree(): LcpPlan("tau", tree, 0, "separable", 59778, None)),
        ("guided_by", "tree", "prime_arity", "algorithm", "cost_sigma", "cost_tau"),
        "LcpPlan(guided_by='tau', tree=DecompTree(root=<DecompNode linear sign='-' span=1-2 "
        "value_range=(1, 2) arity=2>, source_size=2, expanded=False), prime_arity=0, "
        "algorithm='separable', cost_sigma=59778, cost_tau=None)",
    ),
}

records = pytest.mark.parametrize("kind", list(RECORDS), ids=lambda kind: kind.__name__)


def same(a, b):
    """Equal field by field, a tree by its outline, size and expansion."""
    if isinstance(a, DecompTree):
        return (tree_to_text(a), a.source_size, a.expanded) == (
            tree_to_text(b),
            b.source_size,
            b.expanded,
        )
    if isinstance(a, LcpPlan):
        return same(a.tree, b.tree) and all(
            getattr(a, name) == getattr(b, name) for name in RECORDS[LcpPlan][1] if name != "tree"
        )
    return a == b


@records
def test_equality_and_hash(kind):
    build = RECORDS[kind][0]
    a, b = build(), build()
    assert a is not b and a == a and hash(a) == hash(a)
    if kind is DecompTree:
        assert a != b and len({a, b}) == 2
    else:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != tuple(getattr(a, name) for name in RECORDS[kind][1])


@records
def test_repr(kind):
    build, _, want = RECORDS[kind]
    assert repr(build()) == want


@records
def test_fields_are_read_only(kind):
    build, fields, _ = RECORDS[kind]
    record = build()
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    assert not hasattr(record, "__dict__")


@records
def test_new_attribute_is_attribute_error(kind):
    """A frozen slotted dataclass raised TypeError here, from its own ``__setattr__``."""
    record = RECORDS[kind][0]()
    with pytest.raises(AttributeError):
        record.extra = 0
    with pytest.raises(AttributeError):
        del record.extra


@records
def test_keyword_construction(kind):
    build, fields, _ = RECORDS[kind]
    record = build()
    values = [getattr(record, name) for name in fields]
    for again in (kind(**dict(zip(fields, values))), kind(*values)):
        assert same(again, record)
        assert [getattr(again, name) for name in fields] == values


@records
def test_pickles_and_copies(kind):
    record = RECORDS[kind][0]()
    protocols = (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL)
    copies = [pickle.loads(pickle.dumps(record, p)) for p in protocols]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for again in copies:
        assert type(again) is kind and repr(again) == repr(record) and same(again, record)


INVALID = {
    Permutation: [(), (1, 1), (1, 3), (0,), (True,)],
    Pattern: [(1, 1), (2,), (1, "2")],
    Occurrence: [(0,), (2, 2), (3, 1), (1.0,), (True,)],
}
validated = pytest.mark.parametrize("kind", list(INVALID), ids=lambda kind: kind.__name__)


@validated
def test_construction_validates(kind):
    for values in INVALID[kind]:
        with pytest.raises(PermutationError):
            kind(values)
        with pytest.raises(PermutationError):
            kind(**{RECORDS[kind][1][0]: values})


@validated
def test_unpickling_validates(kind):
    """A pickle whose values were altered to (1, 1) fails as the constructor does."""
    good = pickle.dumps(kind((1, 2)), 0)
    assert good.count(b"I2\n") == 1
    with pytest.raises(PermutationError):
        pickle.loads(good.replace(b"I2\n", b"I1\n"))
