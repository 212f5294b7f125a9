"""Arithmetic kernel tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdol import kernel


@pytest.fixture(params=[kernel], ids=["python"])
def kern(request):
    return request.param


small_ints = st.integers(min_value=-30, max_value=30)
denoms = st.integers(min_value=1, max_value=12)


def make_scalar(kern):
    return st.builds(kern.Scalar, small_ints, small_ints, denoms)


def test_normalisation(kern):
    s = kern.Scalar(2, 4, 6)
    assert (s.xn, s.yn, s.dn) == (1, 2, 3)
    s = kern.Scalar(-1, 0, -2)
    assert (s.xn, s.yn, s.dn) == (1, 0, 2)
    assert kern.Scalar(0, 0, 5) == kern.ZERO
    with pytest.raises(ZeroDivisionError):
        kern.Scalar(1, 0, 0)


def test_parts_in_lowest_terms(kern):
    s = kern.Scalar(2, 3, 2)
    assert s.re == Fraction(1) and s.im == Fraction(3, 2)
    assert s.conj().im == Fraction(-3, 2)
    assert s.abs_sq() == Fraction(13, 4)


def test_from_rational(kern):
    s = kern.Scalar.from_rational(Fraction(1, 2), Fraction(-2, 3))
    assert s.re == Fraction(1, 2) and s.im == Fraction(-2, 3)
    assert kern.Scalar.from_rational(3) == kern.Scalar(3)


def test_int_interop(kern):
    s = kern.Scalar(1, 1)
    assert 2 * s == kern.Scalar(2, 2)
    assert s + 1 == kern.Scalar(2, 1)
    assert 1 - s == kern.Scalar(0, -1)
    assert s / 2 == kern.Scalar(1, 1, 2)


def test_str(kern):
    assert str(kern.Scalar(0)) == "0"
    assert str(kern.Scalar(0, 1)) == "i"
    assert str(kern.Scalar(0, -1)) == "-i"
    assert str(kern.Scalar(3, -1, 2)) == "3/2-1/2i"
    assert str(kern.Scalar(2, 4, 4)) == "1/2+i"


def test_division_by_zero(kern):
    with pytest.raises(ZeroDivisionError):
        kern.ONE / kern.ZERO


def test_field_axioms(kern):
    scalars = make_scalar(kern)

    @settings(max_examples=60, deadline=None)
    @given(scalars, scalars, scalars)
    def inner(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + kern.ZERO == a
        assert a * kern.ONE == a
        assert a - a == kern.ZERO
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.abs_sq() >= 0
        assert (a.abs_sq() == 0) == a.is_zero()
        if not b.is_zero():
            assert (a / b) * b == a

    inner()


def test_i_squares_to_minus_one(kern):
    assert kern.I * kern.I == -kern.ONE


def _mat(kern, rows):
    return [[kern.Scalar(*e) if isinstance(e, tuple) else kern.Scalar(e)
             for e in row] for row in rows]


def test_rref_simple(kern):
    rows = _mat(kern, [[1, (0, 1)], [(0, 1), -1]])
    red, piv = kern.rref(rows, 2)
    assert piv == [0]
    assert red[0] == [kern.ONE, kern.I]
    assert all(e.is_zero() for e in red[1])
    # input untouched
    assert rows[1][1] == kern.Scalar(-1)


def test_rref_identity_and_zero(kern):
    eye = _mat(kern, [[1, 0], [0, 1]])
    red, piv = kern.rref(eye, 2)
    assert piv == [0, 1] and red == eye
    zero = _mat(kern, [[0, 0, 0]])
    _, piv = kern.rref(zero, 3)
    assert piv == []


def test_rref_is_projection(kern):
    import random
    rng = random.Random(3)
    for _ in range(10):
        rows = [[kern.Scalar(rng.randint(-2, 2), rng.randint(-2, 2),
                             rng.randint(1, 3)) for _ in range(5)]
                for _ in range(4)]
        red, piv = kern.rref(rows, 5)
        red2, piv2 = kern.rref(red, 5)
        assert red2 == red and piv2 == piv
        for k, c in enumerate(piv):
            assert red[k][c] == kern.ONE
            for i in range(4):
                if i != k:
                    assert red[i][c].is_zero()


def test_matmul(kern):
    a = _mat(kern, [[1, (0, 1)], [0, 2]])
    b = _mat(kern, [[(0, 1)], [1]])
    out = kern.matmul(a, b, 1)
    assert out[0][0] == kern.Scalar(0, 2)
    assert out[1][0] == kern.Scalar(2)


def test_matmul_empty_inner(kern):
    out = kern.matmul([[], []], [], 3)
    assert len(out) == 2 and all(e.is_zero() for row in out for e in row)
