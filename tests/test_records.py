"""The package's value records (`errors.Record`): each compares, hashes and
prints as the frozen dataclass with its fields did, refuses assignment,
and keeps its constructor's checks; and the modules that build only
records import no `dataclasses`."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from azenum.automorphisms import AutWord, BetaStar, Perm
from azenum.az import NormalizedFamily
from azenum.central_product import CPContext
from azenum.errors import InputError, Record
from azenum.groups import GroupAnalysis, GroupTable, KGroupSpec, catalog_group, make_kgroup
from azenum.quadratic import AmalgamResult, QSMorphism, QuadraticStructure
from azenum.rado import ObstructionReport
from azenum.wqo import Embedding, PairResult, Word


def _records():
    """One record of each of the 14 record types, built as the library
    builds it or from fields of the kind it holds."""
    table, analysis, k = catalog_group("C4")
    spec = make_kgroup(table, analysis, k)
    word = Word(((0,), (1,)))
    emb = Embedding((0, 2))
    perm, ladder = Perm.from_cycles([[0, 2]]), BetaStar((0, 1, 2, 3, 4, 5))
    qs = QuadraticStructure(1, 1, (1,), ((0,),))
    morphism = QSMorphism((1,), (1,))
    return [
        table,
        analysis,
        spec,
        word,
        emb,
        PairResult(0, 1, emb),
        perm,
        ladder,
        AutWord((perm, ladder)),
        NormalizedFamily(CPContext(spec), 1, (0, 2), (word, word), ((1,), (1,)), (word.letters[0],)),
        qs,
        morphism,
        AmalgamResult(qs, morphism, morphism),
        ObstructionReport([{"from_n": 4, "to_n": 5, "obstructed": True}], []),
    ]


RECORDS = _records()


def _values(record):
    return [getattr(record, f) for f in record._fields]


def _frozen_twin(record):
    """The frozen dataclass of the record's name and fields, holding its values."""
    return dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=True)(
        *_values(record)
    )


def test_every_record_type_is_covered():
    assert len({type(r) for r in RECORDS}) == 14
    assert all(isinstance(r, Record) for r in RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_is_a_value(record):
    rebuilt = type(record)(*_values(record))
    assert rebuilt == record and not rebuilt != record
    assert copy.copy(record) == record
    twin = _frozen_twin(record)
    assert repr(record) == repr(twin)
    if isinstance(record, ObstructionReport):
        # its fields are lists, so like a tuple of lists it has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(rebuilt) == hash(record) == hash(twin)

    # a record of another type holding the same field values differs
    other = type("Other", (Record,), {"__slots__": record._fields})()
    for name, value in zip(record._fields, _values(record)):
        object.__setattr__(other, name, value)
    assert record != other and other != record
    assert record != twin

    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert rebuilt == record


def test_cached_element_order_is_kept():
    spec = RECORDS[2]
    assert isinstance(spec, KGroupSpec)
    assert spec.element_order is spec.element_order
    assert sorted(spec.element_order) == list(range(spec.group.order))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Embedding((0, 0)), "embedding positions must strictly increase"),
        (lambda: Embedding((2, 1)), "embedding positions must strictly increase"),
        (lambda: BetaStar(()), "a ladder needs at least one coordinate"),
        (lambda: BetaStar((1, 2, 1)), "ladder coordinates must be distinct"),
        (lambda: BetaStar((0, -1)), "negative ladder coordinate"),
        (lambda: QuadraticStructure(2, 1, (1,), ((0, 0), (0, 0))),
         "q_basis must have one value per U basis vector"),
        (lambda: QuadraticStructure(1, 1, (1,), ((0, 0),)), "gamma_basis must be a dim_u x dim_u table"),
        (lambda: QuadraticStructure(1, 1, (2,), ((0,),)), r"q_basis\[0\] exceeds dim_v"),
        (lambda: QuadraticStructure(1, 1, (1,), ((1,),)), r"gamma must have zero diagonal \(alternating\)"),
        (lambda: QuadraticStructure(2, 1, (1, 1), ((0, 1), (0, 0))), "gamma must be symmetric"),
        (lambda: QuadraticStructure(2, 1, (1, 1), ((0, 2), (2, 0))), "gamma value exceeds dim_v"),
    ],
)
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        build()


def test_record_modules_import_no_dataclasses():
    # a later @dataclass on these import paths shows up here
    code = (
        "import sys, azenum.groups, azenum.wqo, azenum.quadratic; "
        "sys.exit('dataclasses' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
