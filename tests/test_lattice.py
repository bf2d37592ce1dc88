"""Validation, normalization, and enumeration of action sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from twistoric import (
    ActionSequence,
    NotNormalizable,
    SequenceValidationError,
    check,
    enumerate_sequences,
    normalize,
    reversal_dual,
    validate,
)
from twistoric.errors import (
    DETERMINANT_VIOLATION,
    EMPTY_SEQUENCE,
    ENDPOINT_MISMATCH,
    NON_PRIMITIVE_VECTOR,
    POSITIVITY_VIOLATION,
)

from oracles import NEG, ROT, SHEAR, SHEAR_INV, brute_force_sequences, grow_by_mediants, mat_apply, mat_mul


def test_validate_hexagon_data():
    seq = validate([(0, 1), (1, 1), (1, 0)])
    assert seq.n == 1
    assert seq.vectors == ((0, 1), (1, 1), (1, 0))


def test_validate_base_case():
    seq = validate([(0, 1), (1, 0)])
    assert seq.n == 0 and seq.k == 2


def test_validate_reports_determinant_violation_with_position():
    violations = check([(0, 1), (1, 2), (2, 1), (1, 0)])
    assert [(v.code, v.index) for v in violations] == [(DETERMINANT_VIOLATION, 2)]
    with pytest.raises(SequenceValidationError):
        validate([(0, 1), (1, 2), (2, 1), (1, 0)])


def test_validate_reports_every_violation():
    assert [(v.code, v.index) for v in check([])] == [(EMPTY_SEQUENCE, None)]
    violations = check([(1, 1), (-2, 4), (1, 0)])
    codes = {(v.code, v.index) for v in violations}
    assert (ENDPOINT_MISMATCH, 1) in codes
    assert (NON_PRIMITIVE_VECTOR, 2) in codes
    assert (POSITIVITY_VIOLATION, 2) in codes
    assert any(c == DETERMINANT_VIOLATION for c, _ in codes)


def test_validate_rejects_non_primitive():
    violations = check([(0, 1), (2, 2), (1, 0)])
    assert (NON_PRIMITIVE_VECTOR, 2) in {(v.code, v.index) for v in violations}


def test_validate_rejects_zero_vector():
    violations = check([(0, 1), (0, 0), (1, 0)])
    assert (NON_PRIMITIVE_VECTOR, 2) in {(v.code, v.index) for v in violations}


def test_normalize_fixes_already_normalized():
    seq, mat = normalize([(0, 1), (1, 1), (1, 0)])
    assert seq.vectors == ((0, 1), (1, 1), (1, 0))
    assert mat == ((1, 0), (0, 1))


def test_normalize_rotated_chain():
    seq, mat = normalize([(1, 0), (1, -1), (0, -1)])
    assert seq.vectors == ((0, 1), (1, 1), (1, 0))
    assert mat == ((0, -1), (1, 0))


def test_normalize_reversed_chain_uses_determinant_flip():
    # reversed chains have consecutive determinants +1; the fixing matrix
    # must then have determinant -1
    seq, mat = normalize([(1, 0), (1, 1), (0, 1)])
    assert seq.vectors == ((0, 1), (1, 1), (1, 0))
    assert mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] == -1


def test_normalize_absorbs_global_sign():
    seq, mat = normalize([(0, -1), (-1, -1), (-1, 0)])
    assert seq.vectors == ((0, 1), (1, 1), (1, 0))
    assert [mat_apply(mat, v) for v in [(0, -1), (-1, -1), (-1, 0)]] == [(0, 1), (1, 1), (1, 0)]


def test_normalize_rejects_mixed_determinants():
    with pytest.raises(NotNormalizable):
        normalize([(0, 1), (-1, 1), (1, 0)])
    for pairs in ([], [(0, 1)], [(0, 1), (1.0, 0)]):
        with pytest.raises(NotNormalizable, match="need at least two integer pairs"):
            normalize(pairs)
    with pytest.raises(NotNormalizable, match="det\\(v_1, v_k\\) = -2, no unimodular matrix fixes the endpoints"):
        normalize([(0, 1), (1, 1), (2, 1)])


def test_normalize_matrix_maps_input_to_output():
    raw = [(1, 0), (1, -1), (0, -1)]
    seq, mat = normalize(raw)
    assert tuple(mat_apply(mat, v) for v in raw) == seq.vectors


enumerated_pool = [seq for n in range(4) for seq in enumerate_sequences(n)]
mediant_pool = st.lists(st.integers(0, 10**6), max_size=28).map(lambda picks: validate(grow_by_mediants(picks)))
unimodular_words = st.lists(
    st.sampled_from([ROT, SHEAR, SHEAR_INV, NEG]), min_size=0, max_size=6
)


@given(st.one_of(st.sampled_from(enumerated_pool), mediant_pool), unimodular_words)
def test_normalize_recovers_scrambled_sequences(seq, word):
    mat = ((1, 0), (0, 1))
    for w in word:
        mat = mat_mul(w, mat)
    scrambled = [mat_apply(mat, v) for v in seq.vectors]
    recovered, back = normalize(scrambled)
    assert recovered == seq
    assert tuple(mat_apply(back, v) for v in scrambled) == seq.vectors


def test_enumerate_counts_small():
    assert [len(enumerate_sequences(n)) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_enumerate_n2_exact():
    got = [seq.vectors for seq in enumerate_sequences(2)]
    assert got == [
        ((0, 1), (1, 1), (2, 1), (1, 0)),
        ((0, 1), (1, 2), (1, 1), (1, 0)),
    ]


def test_enumerate_lexicographic_no_duplicates():
    for n in range(7):
        vecs = [seq.vectors for seq in enumerate_sequences(n)]
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == len(vecs)


def test_enumerate_results_validate():
    for n in range(7):
        for seq in enumerate_sequences(n):
            assert check(seq.vectors) == []
            assert seq.n == n


def test_enumerate_matches_brute_force_oracle():
    for n in range(5):
        expected = brute_force_sequences(n)
        got = [seq.vectors for seq in enumerate_sequences(n)]
        assert got == expected


def test_reversal_duality_closure():
    for n in range(7):
        seqs = set(enumerate_sequences(n))
        for seq in seqs:
            dual = reversal_dual(seq)
            assert dual in seqs
            assert reversal_dual(dual) == seq


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_sequences(-1)


def test_sequence_json_round_trip():
    seq = validate([(0, 1), (1, 2), (1, 1), (1, 0)])
    assert ActionSequence.from_json(seq.to_json()) == seq
    for bad, field in [({**seq.to_json(), "n": 1}, "'n'"), ({"n": 2, "vectors": 5}, "'input'")]:
        with pytest.raises(ValueError, match=field):
            ActionSequence.from_json(bad)
