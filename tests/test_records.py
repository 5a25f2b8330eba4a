"""The contract every kdnf record keeps: value equality within one class,
hashing over the compared fields, a fixed repr, immutability, pickling and
copying, positional and keyword construction, the constructors' validation
and the binding rules of the constructor the plain records share."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from kdnf import (
    CarrierSet,
    ChainShapeReport,
    CoverInstance,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    LevelDecomposition,
    MaxRepresentation,
    MinimizationResult,
    PartialKFunction,
    PsiEstimate,
    ReducedDnf,
    ValueOrder,
)
from kdnf.core import _Record
from kdnf.minimize import LevelCover
from kdnf.reduce import LevelTerms

from .instances import carrier_of

IV = Interval(k=2, factors=(2,))
EC = ElementaryConjunction(interval=IV, gamma=1)
EC_TEXT = "ElementaryConjunction(interval=Interval(k=2, factors=(2,)), gamma=1)"
EMPTY = Dnf(k=2, n=1)

# class, keyword arguments, repr (recorded from the frozen dataclasses these
# records replaced), and keyword arguments the constructor rejects with the
# ValueError text given, or None where it does not validate
CASES = [
    (Interval, dict(k=3, factors=(1, 6, 7)), "Interval(k=3, factors=(1, 6, 7))",
     (dict(k=3, factors=(1, 0)), "factor 2 mask 0 is not a nonempty subset")),
    (ElementaryConjunction, dict(interval=Interval(3, (1, 6, 7)), gamma=2),
     "ElementaryConjunction(interval=Interval(k=3, factors=(1, 6, 7)), gamma=2)",
     (dict(interval=IV, gamma=2), r"gamma=2 outside \[1, 1\]")),
    (Dnf, dict(k=2, n=1, terms=(EC,)), f"Dnf(k=2, n=1, terms=({EC_TEXT},))",
     (dict(k=3, n=1, terms=(EC,)), "term shape does not match the DNF shape")),
    (KFunction, dict(k=2, n=1, table=b"\x00\x01"), r"KFunction(k=2, n=1, table=b'\x00\x01')",
     (dict(k=2, n=1, table=b"\x00\x02"), "table entry outside the alphabet")),
    (PartialKFunction, dict(k=3, n=2, table=b"\xff\x02\xff\xff\xff\xff\xff\xff\x00"),
     "PartialKFunction(k=3, n=2, defined=2)",
     (dict(k=3, n=2, table=b"\xff\x03" + b"\xff" * 7), "table entry outside the alphabet and not UNDEFINED")),
    (CarrierSet, dict(k=2, n=2, bits=0b0010), "CarrierSet(k=2, n=2, bits=2)",
     (dict(k=2, n=2, bits=1 << 4), r"bits outside the 2\*\*2 lattice")),
    (LevelTerms, dict(k=2, n=1, gamma=1, level_bits=2, carrier_bits=2, terms=(EC,), term_bits=(2,)),
     f"LevelTerms(k=2, n=1, gamma=1, terms=({EC_TEXT},))", None),
    (ReducedDnf, dict(dnf=EMPTY, levels=()), "ReducedDnf(dnf=Dnf(k=2, n=1, terms=()), levels=())", None),
    (LevelCover, dict(k=2, n=1, gamma=1, level_bits=2, candidates=(EC,), covers=(2,)),
     f"LevelCover(k=2, n=1, gamma=1, candidates=({EC_TEXT},))", None),
    (CoverInstance, dict(k=2, n=1, levels=()), "CoverInstance(k=2, n=1, levels=())", None),
    (MinimizationResult, dict(dnf=EMPTY, metric="terms", objective_value=0),
     "MinimizationResult(dnf=Dnf(k=2, n=1, terms=()), metric='terms', objective_value=0)", None),
    (ValueOrder, dict(k=3, geq=(1, 3, 5)), "ValueOrder(k=3, geq=(1, 3, 5))",
     (dict(k=3, geq=(1, 3)), "relation size does not match the alphabet")),
    (PsiEstimate, dict(n=2, k=3, log2_psi=5.5, d=2, big_d=0.25),
     "PsiEstimate(n=2, k=3, log2_psi=5.5, d=2, big_d=0.25)", None),
    (ChainShapeReport,
     dict(reduced=ReducedDnf(EMPTY, ()), factors_upper=True, dead_end_count=1, dead_end_equals_reduced=True,
          core_points=((1,),), cores_exclusive=False),
     "ChainShapeReport(reduced=ReducedDnf(dnf=Dnf(k=2, n=1, terms=()), levels=()), factors_upper=True,"
     " dead_end_count=1, dead_end_equals_reduced=True, core_points=((1,),), cores_exclusive=False)", None),
    (LevelDecomposition, dict(k=2, n=1, levels=((1, frozenset({(1,)})),)),
     "LevelDecomposition(k=2, n=1, levels=((1, frozenset({(1,)})),))", None),
    (MaxRepresentation, dict(k=2, n=1, carriers=((1, frozenset({(1,)})),)),
     "MaxRepresentation(k=2, n=1, carriers=((1, frozenset({(1,)})),))", None),
]


@pytest.mark.parametrize("cls,kwargs,text,bad", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, kwargs, text, bad):
    record = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert record == twin and hash(record) == hash(twin)
    assert repr(record) == text

    other = type("Other", (cls,), {"__slots__": ()})(**kwargs)
    assert record != other and other != record

    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == twin

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record) and repr(clone) == text

    if bad is not None:
        bad_kwargs, message = bad
        with pytest.raises(ValueError, match=message):
            cls(**bad_kwargs)


# the records that do no validation and take _Record's constructor
INHERITING = [(cls, kwargs) for cls, kwargs, _, _ in CASES if cls.__init__ is _Record.__init__]


def test_the_plain_records_inherit_the_shared_constructor():
    assert {cls.__name__ for cls, _ in INHERITING} == {
        "LevelTerms", "ReducedDnf", "LevelCover", "CoverInstance", "MinimizationResult", "PsiEstimate",
        "ChainShapeReport", "LevelDecomposition", "MaxRepresentation",
    }


@pytest.mark.parametrize("cls,kwargs", INHERITING, ids=[c[0].__name__ for c in INHERITING])
def test_shared_constructor_binds_each_field_once(cls, kwargs):
    values = list(kwargs.values())
    first, *rest = kwargs
    assert cls(values[0], **{name: kwargs[name] for name in rest}) == cls(**kwargs)
    with pytest.raises(TypeError, match="takes the fields"):  # a missing field, positionally
        cls(*values[:-1])
    with pytest.raises(TypeError, match="takes the fields"):  # a missing field, by keyword
        cls(**{name: kwargs[name] for name in rest})
    with pytest.raises(TypeError, match="takes the fields"):  # an extra positional value
        cls(*values, None)
    with pytest.raises(TypeError, match="unknown or repeated field 'extra'"):
        cls(**kwargs, extra=None)
    with pytest.raises(TypeError, match=f"unknown or repeated field '{first}'"):
        cls(values[0], **kwargs)


def test_copies_of_a_carrier_keep_its_bits():
    carrier = carrier_of(2, 2, [(0, 1), (1, 1)])
    assert carrier.bits == 0b1010
    assert copy.copy(carrier).bits == 0b1010
    assert pickle.loads(pickle.dumps(carrier)).points == frozenset({(0, 1), (1, 1)})


def test_import_generates_no_code():
    # the records are plain classes: importing the CLI loads no dataclasses
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = "import sys, kdnf.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
