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


def test_conformal_roots_replace_converts_like_the_constructor():
    assert ROOTS._replace(tail=(1, Fraction(5, 2))) == ConformalRoots(k=4, tail=(1, Fraction(5, 2)))
    assert [type(r) for r in ROOTS._replace(tail=(1, 3)).tail] == [Fraction, Fraction]


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


def test_model_labels_must_differ():
    """The writer keys each row by its label, so a model of one label with itself is refused, as its reader refuses it."""
    for build in (lambda: ModelEquations(**{**MODEL._asdict(), "j": 1}), lambda: MODEL._replace(i=2), lambda: ModelEquations._make([1, 1, *MODEL[2:]])):
        with pytest.raises(ValueError, match="'i' and 'j' must be two labels"):
            build()


def test_roots_survive_copy_and_pickle():
    for twin in (copy.copy(ROOTS), copy.deepcopy(ROOTS), pickle.loads(pickle.dumps(ROOTS))):
        assert twin == ROOTS and type(twin) is ConformalRoots
