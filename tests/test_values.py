"""The value classes against `@dataclass(frozen=True)` twins.

Every class that annotates fields is found by walking the package's modules,
so a class added later is checked too. Each must be a `value_class`, and is
compared with a `dataclasses.make_dataclass(..., frozen=True)` twin of the same
fields, defaults and class body.
"""

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import balleans
from balleans import _values
from balleans.ballean import ExplicitBallean, ZWindow
from balleans.groups import ZERO, CardinalToken, FAGSubgroup, FiniteAbelianGroup
from balleans.lattices import INFINITE, ExtNat, lattice_from_generators

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _modules():
    return [importlib.import_module(f"balleans.{m.name}")
            for m in pkgutil.iter_modules(balleans.__path__)]


def _classes(predicate):
    return sorted({obj for mod in _modules() for obj in vars(mod).values()
                   if isinstance(obj, type) and obj.__module__ == mod.__name__
                   and predicate(obj)}, key=lambda c: c.__qualname__)


# a class of the package that annotates fields in its body is a value class
VALUE_CLASSES = _classes(lambda c: "__annotations__" in vars(c))

Z6 = FiniteAbelianGroup((6,))
Z2_2 = FiniteAbelianGroup((2, 2))
FULL_1, HALF_1 = lattice_from_generators(1, [[1]]), lattice_from_generators(1, [[2]])
SUB_Z6 = FAGSubgroup.from_elements(Z6, [(2,)])

# Two distinct instances' arguments per class, every field given positionally;
# the first stays valid with its defaulted fields left out.
SAMPLES = {
    "AsdimReport": [("zero", None, None), ("unknown", None, 1)],
    "BalleanValidation": [(True, None, None, None), (False, (0, 1), None, None)],
    "CardinalToken": [("finite", 3, None), ("power", 0, CardinalToken.omega())],
    "ComponentCensus": [("Z^n", ZERO, "none", ()), ("Z^n", ZERO, "some", ("a", "b"))],
    "ExplicitBallean": [((0, 1), (0,), {(0, 0): frozenset({0}), (1, 0): frozenset({1})}),
                        (("p",), ("r",), {("p", "r"): frozenset({"p"})})],
    "ExtNat": [(3,), (None,)],
    "FAGSubgroup": [(Z6, SUB_Z6.lift), (Z2_2, lattice_from_generators(2, [[1, 0], [0, 1]]))],
    "FiniteAbelianGroup": [((6,),), ((2, 4),)],
    "FiniteSubset": [(Z6, frozenset({(0,), (3,)})), (ZWindow(4), frozenset({-1, 2}))],
    "GroupDescriptor": [(ZERO, ZERO, (), ()), (CardinalToken.finite(1), ZERO,
                                               ((3, CardinalToken.omega()),), ())],
    "HammingPoint": [(frozenset({1, 2}),), (frozenset(),)],
    "IsoPointsReport": [(ZERO, "none"), (CardinalToken.finite(2), "two")],
    "Lattice": [(1, FULL_1.basis), (1, HALF_1.basis)],
    "MuReport": [(ExtNat(2), INFINITE), (ExtNat(1), ExtNat(3))],
    "PrimeTuple": [((2, 3),), ((5,),)],
    "PruferSubgroup": [(2, 3), (3, None)],
    "ReducedTorsionPart": [("layerly_finite", None), ("finite", 4)],
    "TaxiPoint": [((1, 2),), ((0,),)],
    "TreeCertificate": [((SUB_Z6,), (), 0, 0, True), ((SUB_Z6, SUB_Z6), ((1, 0),), 0, 1, False)],
    "VerificationReport": [("claim", 3, (), None), ("other", 1, ((1, 2),), 1.5)],
    "ZWindow": [(0,), (7,)],
}


# what value_class or the class statement put in a class's namespace
GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
             "__match_args__", "__annotations__", "__dict__", "__weakref__",
             "__module__", "__qualname__"}


def _twin(cls):
    """The class's own body (methods, `__post_init__`, `__reduce__`, a
    `__hash__` it defines, ...) under `@dataclass(frozen=True)`."""
    names = tuple(cls.__annotations__)
    spec = [(n, cls.__annotations__[n], dataclasses.field(default=cls.__dict__[n]))
            if n in cls.__dict__ else (n, cls.__annotations__[n]) for n in names]
    # value_class's generated methods belong to no module
    namespace = {k: v for k, v in vars(cls).items() if k not in names and (
        k not in GENERATED or getattr(v, "__module__", None) == cls.__module__)}
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True,
                                      namespace=namespace)
    twin.__qualname__, twin.__module__ = cls.__qualname__, "value_twins"
    return twin


def outcome(fn):
    """What fn() gave: its value, or the type and text of what it raised."""
    try:
        return ("value", fn())
    except Exception as exc:  # the point is to compare failures too
        return ("raised", type(exc).__name__, str(exc))


@pytest.fixture(params=VALUE_CLASSES, ids=lambda c: c.__qualname__)
def pair(request, monkeypatch):
    """A value class, its twin (picklable through a stand-in module) and
    the sample arguments."""
    cls = request.param
    assert cls.__qualname__ in SAMPLES, f"add sample arguments for {cls.__qualname__}"
    twin = _twin(cls)
    module = types.ModuleType("value_twins")
    setattr(module, twin.__qualname__, twin)
    monkeypatch.setitem(sys.modules, "value_twins", module)
    return cls, twin, SAMPLES[cls.__qualname__]


def test_every_value_class_has_samples_and_none_is_a_dataclass():
    assert {c.__qualname__ for c in VALUE_CLASSES} == set(SAMPLES)
    assert all(c.__repr__ is _values._repr for c in VALUE_CLASSES)
    assert _classes(dataclasses.is_dataclass) == []


class TestAgainstDataclassTwin:
    def test_match_args_and_repr(self, pair):
        cls, twin, samples = pair
        assert cls.__match_args__ == twin.__match_args__ == tuple(
            f.name for f in dataclasses.fields(twin))
        for args in samples:
            assert repr(cls(*args)) == repr(twin(*args))
            assert repr(cls(**dict(zip(cls.__match_args__, args)))) == repr(twin(*args))

    def test_equality_and_hash(self, pair):
        cls, twin, samples = pair
        ours = [cls(*args) for args in samples] + [cls(*samples[0])]
        theirs = [twin(*args) for args in samples] + [twin(*samples[0])]
        for (x, tx) in zip(ours, theirs):
            for (y, ty) in zip(ours, theirs):
                assert (x == y, x != y) == (tx == ty, tx != ty)
            # an instance of another class with equal fields is not equal
            assert (x == tx, x != tx, tx == x, tx != x) == (False, True, False, True)
            assert outcome(lambda: hash(x)) == outcome(lambda: hash(tx))
        assert ours[0] == ours[-1] and ours[0] != ours[1]

    def test_type_errors_and_defaults(self, pair):
        cls, twin, samples = pair
        names, args = cls.__match_args__, samples[0]
        required = sum(n not in cls.__dict__ for n in names)
        calls = [lambda c: c(*args, None),                  # extra
                 lambda c: c(*args, unknown_field=None),    # unknown keyword
                 lambda c: c(*args, **{names[0]: args[0]})]  # given twice
        if required:
            calls.append(lambda c: c(*args[:required - 1]))  # missing
        for call in calls:
            got = outcome(lambda: call(cls))
            assert got[:2] == ("raised", "TypeError")
            assert got == outcome(lambda: call(twin))
        assert repr(cls(*args[:required])) == repr(twin(*args[:required]))

    def test_frozen(self, pair):
        cls, twin, samples = pair
        for c in (cls, twin):
            x = c(*samples[0])
            for name in (*c.__match_args__, "not_a_field"):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(x, name, None)
                with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                    delattr(x, name)
            assert repr(x) == repr(c(*samples[0]))

    def test_pickle_and_deepcopy(self, pair):
        cls, twin, samples = pair
        for args in samples:
            for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
                def back(c):
                    x = c(*args)
                    y = round_trip(x)
                    return type(y) is c, y == x, repr(y)
                assert outcome(lambda: back(cls)) == outcome(lambda: back(twin))

    def test_post_init_runs_once_after_the_fields_are_set(self, pair, monkeypatch):
        cls, twin, samples = pair
        if not hasattr(cls, "__post_init__"):
            assert not hasattr(twin, "__post_init__")
            return
        for c in (cls, twin):
            seen = []
            monkeypatch.setattr(c, "__post_init__", lambda self: seen.append(
                tuple(getattr(self, n) for n in c.__match_args__)))
            c(*samples[0])
            assert seen == [samples[0]]


def test_fields_set_past_the_frozen_setattr():
    """`__post_init__` and the `_canonical` builders set fields through
    `object.__setattr__` or the instance dict; a rejected value raises."""
    with pytest.raises(ValueError, match="window half-width"):
        ZWindow(-1)
    b = ExplicitBallean((0,), (0,), {(0, 0): frozenset({0})})
    assert type(b.balls).__name__ == "mappingproxy"
    assert ExplicitBallean._canonical((0,), (0,), {(0, 0): frozenset({0})}) == b
    assert FAGSubgroup._canonical(Z6, SUB_Z6.lift) == SUB_Z6


def test_a_ball_table_hashes_by_value():
    """A class-defined `__hash__` stays: the table's own, over support and
    radii, since its read-only ball view does not hash."""
    assert [c.__qualname__ for c in VALUE_CLASSES
            if c.__hash__.__module__ == c.__module__] == ["ExplicitBallean"]
    b = ExplicitBallean.from_table((0, 1, 2), (0, 1), {(0, 1): {0, 1}, (1, 1): {0, 1}})
    back = ExplicitBallean.from_json(b.to_json())
    assert back == b and hash(back) == hash(b)
    other = ExplicitBallean.from_table((0, 1, 2), (0, 1), {(0, 1): {0, 2}, (2, 1): {0, 2}})
    assert len({b, back, other}) == 2 and {b: 1}[back] == 1 and other not in {b}


def test_import_leaves_dataclasses_and_inspect_out():
    script = ("import sys, balleans.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
