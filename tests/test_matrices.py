"""Exact linear algebra: rank and the two normal forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bifrac.matrices import (JointNormalForm, RankDeficientStackError,
                             RationalMatrix, SingleNormalForm,
                             joint_normal_form, rank, single_normal_form)


def M(rows):
    return RationalMatrix.from_rows(rows)


def random_matrix(rng, rows, cols, span=3):
    return M([[Fraction(rng.randint(-span, span),
                        rng.choice([1, 1, 2, 3]))
               for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng, n, span=3):
    while True:
        A = random_matrix(rng, n, n, span)
        if rank(A) == n:
            return A


# -- rank -------------------------------------------------------------


def test_rank_identity_and_zero():
    assert rank(RationalMatrix.identity(2)) == 2
    assert rank(RationalMatrix.zero(2, 2)) == 0


def test_rank_proportional_rows():
    assert rank(M([[1, 2], [2, 4], [3, 6]])) == 1


def test_rank_invariances():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = random_matrix(rng, rows, cols)
        assert rank(A) == rank(A.transpose())
        P = random_invertible(rng, rows)
        Q = random_invertible(rng, cols)
        assert rank(P @ A @ Q) == rank(A)


fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(rows, cols, inner, data):
    """Products of a rows x inner and an inner x cols factor, so that
    deficient ranks are common."""
    sympy = pytest.importorskip("sympy")

    def draw(r, c):
        return M(data.draw(st.lists(st.lists(fractions, min_size=c,
                                             max_size=c),
                                    min_size=r, max_size=r)))

    A = draw(rows, inner) @ draw(inner, cols)
    reference = sympy.Matrix(rows, cols, [sympy.Rational(v.numerator,
                                                         v.denominator)
                                          for v in A.entries])
    assert rank(A) == reference.rank()


# -- single normal form ----------------------------------------------


def test_single_form_identity_and_zero():
    form = single_normal_form(RationalMatrix.identity(3))
    assert form.r == 3 and form.reconstructs(RationalMatrix.identity(3))
    z = RationalMatrix.zero(2, 3)
    form = single_normal_form(z)
    assert form.r == 0 and form.reconstructs(z)


def test_single_form_column_vector():
    D = M([[1], [2]])
    form = single_normal_form(D)
    assert form.r == 1
    assert form.reconstructs(D)


def test_single_form_random():
    rng = random.Random(13)
    for _ in range(200):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        form = single_normal_form(A)
        assert form.r == rank(A)
        assert form.reconstructs(A)
        # P and Q are genuinely invertible
        assert rank(form.P) == form.P.rows
        assert rank(form.Q) == form.Q.rows


# -- joint normal form ------------------------------------------------


def test_joint_form_scalar_pair():
    form = joint_normal_form(M([[1]]), M([[1]]))
    assert (form.r1, form.r2) == (1, 1)
    assert form.block_widths == (0, 1, 0)


def test_joint_form_disjoint_rows():
    D1, D2 = M([[1, 0]]), M([[0, 1]])
    form = joint_normal_form(D1, D2)
    assert form.block_widths == (1, 0, 1)
    assert form.reconstructs(D1, D2)


def test_joint_form_skew_pair():
    D1, D2 = M([[1, 1]]), M([[1, -1]])
    form = joint_normal_form(D1, D2)
    assert form.block_widths == (1, 0, 1)
    assert form.reconstructs(D1, D2)


def test_normal_forms_check_their_result(monkeypatch):
    monkeypatch.setattr(SingleNormalForm, "reconstructs",
                        lambda self, D: False)
    with pytest.raises(RuntimeError):
        single_normal_form(M([[1, 2], [2, 4]]))
    monkeypatch.undo()
    monkeypatch.setattr(JointNormalForm, "reconstructs",
                        lambda self, D1, D2: False)
    with pytest.raises(RuntimeError):
        joint_normal_form(M([[1, 1]]), M([[1, -1]]))


def test_joint_form_rejects_deficient_stack():
    with pytest.raises(RankDeficientStackError):
        joint_normal_form(M([[1, 0]]), M([[2, 0]]))


def random_valid_pair(rng):
    while True:
        m = rng.randint(1, 4)
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        D1 = random_matrix(rng, n1, m)
        D2 = random_matrix(rng, n2, m)
        if rank(D1.stack(D2)) == m:
            return D1, D2, m


def test_joint_form_random():
    rng = random.Random(17)
    for _ in range(100):
        D1, D2, m = random_valid_pair(rng)
        form = joint_normal_form(D1, D2)
        assert form.reconstructs(D1, D2)
        w = form.block_widths
        assert w == (m - form.r2, form.r1 + form.r2 - m, m - form.r1)
        assert sum(w) == m and min(w) >= 0
        assert rank(form.P1) == form.P1.rows
        assert rank(form.P2) == form.P2.rows
        assert rank(form.Q) == form.Q.rows


# -- shapes and products ----------------------------------------------


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_matmul_associativity(a, b, c, seed):
    rng = random.Random(seed)
    A = random_matrix(rng, a, b)
    B = random_matrix(rng, b, c)
    C = random_matrix(rng, c, a)
    assert ((A @ B) @ C).entries == (A @ (B @ C)).entries


def test_stack_shape_checks():
    with pytest.raises(ValueError):
        M([[1, 2]]).stack(M([[1]]))
    with pytest.raises(ValueError):
        M([[1]]) @ M([[1, 2], [3, 4]])
