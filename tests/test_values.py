"""The contract every value class keeps: construction by position or keyword
with the same defaults, the repr text, equality and hashing by field within
one class only, and no assignment or deletion of a field."""

import dataclasses

import pytest

from halfgrids.dyadic import Dyadic, SdInterval, SdPartition
from halfgrids.halfgrid import (
    GridDiagram, HalfGrid, Permutation, format_grid, parse_grid, perm_decode, perm_encode,
)
from halfgrids.linkdiag import Crossing, FrontStats
from halfgrids.linkgroup import GroupPresentation
from halfgrids.thompson import Tree, TreePair
from halfgrids.verify import CheckResult, Report

HALF = Dyadic(1, 1)
PASSED = CheckResult("x", 3, True)

# class, constructor arguments by name in signature order, the defaults of
# the arguments left out, and the repr of the value
CASES = [
    (Tree, {"depths": (1, 2, 2)}, {}, "Tree(depths=(1, 2, 2))"),
    (TreePair, {"top": Tree((1, 1)), "bottom": Tree((1, 1))}, {},
     "TreePair(top=Tree(depths=(1, 1)), bottom=Tree(depths=(1, 1)))"),
    (HalfGrid, {"n": 2, "x_cols": (1, 3), "o_cols": (2, 4)}, {},
     "HalfGrid(n=2, x_cols=(1, 3), o_cols=(2, 4))"),
    (GridDiagram, {"size": 2, "x_cols": (1, 2), "o_cols": (2, 1)}, {"oriented": True},
     "GridDiagram(size=2, x_cols=(1, 2), o_cols=(2, 1), oriented=True)"),
    (Permutation, {"images": (2, 1, 3)}, {}, "Permutation(images=(2, 1, 3))"),
    (Dyadic, {"num": 6}, {"exp": 0}, "Dyadic(num=6, exp=0)"),
    (Dyadic, {"num": 6, "exp": 3}, {}, "Dyadic(num=3, exp=2)"),
    (SdInterval, {"k": 1, "m": 2}, {}, "SdInterval(k=1, m=2)"),
    (SdPartition, {"breakpoints": (Dyadic(0), HALF, Dyadic(1))}, {},
     "SdPartition(breakpoints=(Dyadic(num=0, exp=0), Dyadic(num=1, exp=1),"
     " Dyadic(num=1, exp=0)))"),
    (Crossing, {"row": 1, "col": 2, "sign": -1}, {}, "Crossing(row=1, col=2, sign=-1)"),
    (FrontStats, {"writhe": 0, "cusps": 2, "up_cusps": 1, "down_cusps": 1, "tb": -1, "rot": 0},
     {}, "FrontStats(writhe=0, cusps=2, up_cusps=1, down_cusps=1, tb=-1, rot=0)"),
    (GroupPresentation, {"generator_count": 2, "relators": ((1, -2), (2,))}, {},
     "GroupPresentation(generator_count=2, relators=((1, -2), (2,)))"),
    (CheckResult, {"name": "x", "instances": 3, "passed": True}, {"counterexample": None},
     "CheckResult(name='x', instances=3, passed=True, counterexample=None)"),
    (Report, {"max_leaves": 3, "results": (PASSED,)}, {"notes": ()},
     "Report(max_leaves=3, results=(CheckResult(name='x', instances=3, passed=True,"
     " counterexample=None),), notes=())"),
]
# the stored fields where they are not the constructor's arguments
FIELDS = {Tree: ("ids",)}


@pytest.mark.parametrize("cls, kwargs, defaults, text", CASES,
                         ids=[f"{c[0].__name__}-{len(c[1])}" for c in CASES])
def test_value_contract(cls, kwargs, defaults, text):
    value = cls(*kwargs.values())
    by_name = cls(**kwargs)
    assert repr(value) == repr(by_name) == text
    assert value == by_name and not value != by_name and value is not by_name
    assert hash(value) == hash(by_name)
    for name, default in defaults.items():
        assert getattr(value, name) == default
        assert value == cls(**kwargs, **{name: default})

    fields = FIELDS.get(cls, (*kwargs, *defaults))
    lookalike = dataclasses.make_dataclass(cls.__name__, fields)(
        *(getattr(value, f) for f in fields))
    assert value != lookalike and lookalike != value
    assert not value == lookalike

    for name in fields:
        before = getattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name) == before


# classes with sequence fields, arguments given as lists, and the text or
# permutation codec that writes a value and reads it back, or, where a class
# has no codec, a rebuild from its fields by the route the package takes
LIST_BUILT = [
    (HalfGrid, (2, [1, 3], [2, 4]), lambda h: perm_decode(perm_encode(h))),
    (GridDiagram, (2, [1, 2], [2, 1]), lambda g: parse_grid(format_grid(g))),
    (Permutation, ([2, 1, 4, 3],), lambda s: perm_encode(perm_decode(s))),
    (GroupPresentation, (2, [[2], (1, -2), [-1, 2, 1]]),
     lambda p: GroupPresentation(p.generator_count, p.sorted_relators())),
    (Report, (3, [PASSED, CheckResult("y", 0, False, "pair .|.")], ["a note"]),
     lambda r: Report(r.max_leaves, sorted(r.results, key=lambda c: c.name), list(r.notes))),
]


@pytest.mark.parametrize("cls, args, round_trip", LIST_BUILT,
                         ids=[c[0].__name__ for c in LIST_BUILT])
def test_list_arguments_are_stored_as_tuples(cls, args, round_trip):
    value = cls(*args)
    by_tuples = cls(*(tuple(a) if isinstance(a, list) else a for a in args))
    assert value == by_tuples and hash(value) == hash(by_tuples)
    assert repr(value) == repr(by_tuples)
    assert round_trip(value) == value
