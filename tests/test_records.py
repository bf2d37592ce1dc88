"""The package's nine records: immutable namedtuples whose _replace and _make check like the constructor."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from twistoric import (
    ConformalRoots,
    ModelEquations,
    RootCollision,
    RootOrderViolation,
    analyze_sequence,
    system_meta,
    validate,
)
from twistoric.lattice import check


def records() -> list:
    """One instance of each record type, from one report."""
    report = analyze_sequence(validate([(0, 1), (1, 1), (2, 1), (1, 0)]))
    eqs, classes = report.models[0]
    violation = check([(0, 1), (1, 2), (1, 0)])[0]
    return [report, report.sequence, report.surface, report.roots, report.divisors[1], eqs, classes[0], system_meta(*report.divisors[:2]), violation]


def test_records_are_immutable():
    recs = records()
    assert len({type(rec) for rec in recs}) == 9
    for rec in recs:
        assert rec == tuple(rec) and rec._fields
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1


ROOTS = ConformalRoots(k=4, tail=(Fraction(1), Fraction(2)))


@pytest.mark.parametrize(
    ("change", "error"),
    [
        ({"tail": (Fraction(2), Fraction(1))}, RootOrderViolation),
        ({"tail": (Fraction(1), Fraction(1))}, RootCollision),
        ({"tail": (5.0, 1)}, ValueError),
        ({"k": 3}, RootOrderViolation),
        ({"k": 4.0}, ValueError),
    ],
)
def test_conformal_roots_replace_and_make_check_like_the_constructor(change, error):
    fields = {**ROOTS._asdict(), **change}
    for build in (lambda: ConformalRoots(**fields), lambda: ROOTS._replace(**change), lambda: ConformalRoots._make(fields.values())):
        with pytest.raises(error):
            build()


def test_conformal_roots_replace_keeps_types_like_the_constructor():
    """Roots stay the ints and Fractions they are given, through _replace as through the constructor."""
    for tail in ((1, 3), (1, Fraction(5, 2)), (Fraction(1), Fraction(3))):
        replaced, built = ROOTS._replace(tail=tail), ConformalRoots(k=4, tail=tail)
        assert replaced == built
        assert [type(r) for r in replaced.tail] == [type(r) for r in built.tail] == [type(r) for r in tail]


MODEL = ModelEquations(i=1, j=2, m_i=1, m_j=1, constants=(Fraction(1), Fraction(1)), p1=(Fraction(-1), Fraction(1)), p2=(Fraction(0), Fraction(1)))


@pytest.mark.parametrize(
    "change",
    [
        {"constants": (2, 3)},  # written as "c": ["2", "3"], then refused by parse_model_record
        {"constants": (1, 3)},
        {"constants": (1,)},
        {"p2": (Fraction(0), Fraction(2))},
        {"p1": ()},
    ],
)
def test_model_constants_must_lead_p1_and_p2(change):
    fields = {**MODEL._asdict(), **change}
    for build in (lambda: ModelEquations(**fields), lambda: MODEL._replace(**change), lambda: ModelEquations._make(fields.values())):
        with pytest.raises(ValueError, match="'constants'"):
            build()


@pytest.mark.parametrize(
    "change",
    [
        {"m_j": 2},  # model_record would write "mu": -1
        {"constants": (1,), "p2": ()},  # one row
        {"constants": (1, 1, 3)},  # three rows where m_i == m_j takes two
        {"m_i": 2, "constants": (1, 1, 0)},  # a zero third row
    ],
)
def test_model_shape_must_be_one_its_reader_reads(change):
    """A model whose record parse_model_record would refuse is refused when it is built: one nonzero constant per row, 2 or mu + 2 rows, mu >= 0."""
    fields = {**MODEL._asdict(), **change}
    for build in (lambda: ModelEquations(**fields), lambda: MODEL._replace(**change), lambda: ModelEquations._make(fields.values())):
        with pytest.raises(ValueError, match="'constants' must be 2 or mu \\+ 2 nonzero values"):
            build()


def test_model_labels_must_differ():
    """A model of one label with itself is refused, as its reader refuses it."""
    for build in (lambda: ModelEquations(**{**MODEL._asdict(), "j": 1}), lambda: MODEL._replace(i=2), lambda: ModelEquations._make([1, 1, *MODEL[2:]])):
        with pytest.raises(ValueError, match="'i' and 'j' must be two labels"):
            build()


def test_roots_survive_copy_and_pickle():
    for twin in (copy.copy(ROOTS), copy.deepcopy(ROOTS), pickle.loads(pickle.dumps(ROOTS))):
        assert twin == ROOTS and type(twin) is ConformalRoots
