"""The package's value records (`errors.Record`): each compares, hashes and
prints as the frozen dataclass with its fields did, refuses assignment,
is built alike from positional and keyword values and refuses any other
binding, and keeps its constructor's checks; and the modules that build
only records import no `dataclasses`."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import azenum
from azenum.automorphisms import AutWord, BetaStar, Perm
from azenum.az import BetaMap, NormalizedFamily, TupleFamily, build_beta, normalize_family
from azenum.central_product import CPContext
from azenum.errors import InputError, Record
from azenum.groups import GroupAnalysis, GroupTable, KGroupSpec, catalog_group, make_kgroup
from azenum.quadratic import AmalgamResult, QSMorphism, QuadraticStructure
from azenum.rado import ObstructionReport
from azenum.wqo import Embedding, PairResult, Word


def _records():
    """One record of each of the 15 record types, built as the library
    builds it or from fields of the kind it holds."""
    table, analysis, k = catalog_group("C4")
    spec = make_kgroup(table, analysis, k)
    ctx, g = CPContext(spec), table.index_of_name("g")
    family = TupleFamily(ctx, 1, [(ctx.make({0: g}),), (ctx.make({c: g for c in range(5)}),)])
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
        NormalizedFamily(ctx, 1, (0, 2), (word, word), ((1,), (1,)), (word.letters[0],)),
        build_beta(normalize_family(family)),
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
    assert len({type(r) for r in RECORDS}) == 15
    assert all(isinstance(r, Record) for r in RECORDS)
    # every record type of the package, so a new one must join RECORDS
    package = {t for t in Record.__subclasses__() if t.__module__.startswith("azenum.")}
    assert package == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_is_a_value(record):
    rebuilt = type(record)(*_values(record))
    assert rebuilt == record and not rebuilt != record
    assert copy.copy(record) == record
    twin = _frozen_twin(record)
    assert repr(record) == repr(twin)
    if isinstance(record, (ObstructionReport, BetaMap)):
        # some fields are lists or dicts, so like a tuple of them it has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(rebuilt) == hash(record) == hash(twin)

    # a record of another type holding the same field values differs
    other = type("Other", (Record,), {"__slots__": record._fields})(*_values(record))
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


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_positional_and_keyword_values_build_equal_records(record):
    values = _values(record)
    by_keyword = type(record)(**dict(zip(record._fields, values)))
    assert by_keyword == type(record)(*values) == record
    # keywords may follow positional values, in any order
    assert type(record)(values[0], **dict(reversed(list(zip(record._fields, values))[1:]))) == record


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_each_field_is_bound_exactly_once(record):
    cls, fields, values = type(record), record._fields, _values(record)
    for bind in (
        lambda: cls(*values, values[0]),  # too many values
        lambda: cls(*values[:-1]),  # too few
        lambda: cls(*values, no_such_field=1),  # an unknown keyword
        lambda: cls(*values, **{fields[0]: values[0]}),  # by position and by keyword
    ):
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b") as err:
            bind()
        if "__init__" not in vars(cls):
            # the base constructor's message lists the fields
            assert f"{cls.__name__}({', '.join(fields)})" in str(err.value)


def test_only_records_with_checks_define_a_constructor():
    own = {type(r).__name__ for r in RECORDS if "__init__" in vars(type(r))}
    assert own == {"Embedding", "BetaStar", "QuadraticStructure"}
    # fields are written by Record alone, through its slots' setters
    modules = sorted(Path(azenum.__file__).parent.glob("*.py"))
    assert not [p.name for p in modules if p.name != "errors.py" and "object.__setattr__" in p.read_text()]


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
