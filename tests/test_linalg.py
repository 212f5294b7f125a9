"""Exact linear algebra: ranks, kernels, solves, subspace lattice."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdol.kernel import I, ONE, ZERO, Scalar
from acdol.linalg import (LinalgError, Matrix, Subspace, complement_in,
                          preimage)


def rand_scalar(rng, pool=(-2, -1, 0, 0, 1, 2)):
    return Scalar(rng.choice(pool), rng.choice(pool), rng.randint(1, 2))


def rand_matrix(rng, rows, cols):
    return Matrix(rows, cols,
                  [[rand_scalar(rng) for _ in range(cols)] for _ in range(rows)])


def test_rank_trivial():
    assert Matrix.zero(3, 3).rank() == 0
    assert Matrix.identity(4).rank() == 4


def test_rank_row_vs_column_elimination():
    # double-elimination oracle on a pseudo-random matrix over {0, ±1, ±i}
    rng = random.Random(5)
    pool = [ZERO, ONE, -ONE, I, -I]
    for _ in range(12):
        m = Matrix(5, 7, [[rng.choice(pool) for _ in range(7)]
                          for _ in range(5)])
        assert m.rank() == m.transpose().rank()
        assert m.rank() == m.conj_transpose().rank()


def test_nullspace_trivial():
    assert Matrix.identity(3).nullspace_matrix().cols == 0
    ns = Matrix.zero(2, 5).nullspace_matrix()
    assert Subspace.from_matrix_columns(ns).dim == 5


def test_nullspace_rank_nullity_and_annihilation():
    rng = random.Random(9)
    for _ in range(15):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ns = m.nullspace_matrix()
        assert m.rank() + ns.cols == m.cols
        if ns.cols:
            assert (m @ ns).is_zero()


def test_solve_trivial():
    eye = Matrix.identity(3)
    b = Matrix.column((ONE, I, -ONE))
    assert eye.solve(b) == b
    assert Matrix.zero(3, 3).solve(Matrix.column((ONE, ZERO, ZERO))) is None


def test_solve_substitution_residual_zero():
    rng = random.Random(13)
    for _ in range(15):
        m = rand_matrix(rng, 4, 5)
        x = tuple(rand_scalar(rng) for _ in range(5))
        b = m.apply(x)
        sol = m.solve(Matrix.column(b))
        assert sol is not None
        assert m.apply(sol.col(0)) == tuple(b)


def test_solve_many_columns_equals_column_by_column():
    # A has rank 3 < 6 columns, so each solution is one choice among many:
    # the one rref of [A | B] picks the same one as each column's own
    rng = random.Random(17)
    for _ in range(10):
        a = rand_matrix(rng, 5, 3) @ rand_matrix(rng, 3, 6)
        rhs = a @ rand_matrix(rng, 6, 4)
        x = a.solve(rhs)
        assert a @ x == rhs
        assert x.columns() == [a.solve(Matrix.column(rhs.col(j))).col(0)
                               for j in range(rhs.cols)]


def test_solve_many_columns_one_outside_the_image():
    rng = random.Random(19)
    # the image of A lies in the hyperplane of a zero last coordinate
    a = Matrix.from_rows([[rand_scalar(rng) for _ in range(3)]
                          for _ in range(4)] + [[ZERO] * 3])
    inside = a @ rand_matrix(rng, 3, 2)
    outside = Matrix.column((ZERO, ZERO, ZERO, ZERO, ONE))
    assert a.solve(inside) is not None
    assert a.solve(inside.hstack(outside).hstack(inside)) is None


def test_solve_dimension_mismatch():
    with pytest.raises(LinalgError):
        Matrix.identity(3).solve(Matrix.column((ONE, ONE)))


def test_subspace_idempotence_and_canonical_form():
    rng = random.Random(21)
    u = Subspace.from_matrix_columns(rand_matrix(rng, 6, 3))
    assert u + u == u
    assert u.intersect(u) == u
    # different construction orders give identical canonical bases
    cols = [u.basis.col(j) for j in range(u.dim)]
    mixed = [cols[-1]] + cols[:-1]
    combo = [tuple(a + b for a, b in zip(cols[0], cols[-1]))] + cols
    assert Subspace.from_columns(6, mixed) == u
    assert Subspace.from_columns(6, combo) == u


def test_preimage_identity():
    rng = random.Random(2)
    v = Subspace.from_matrix_columns(rand_matrix(rng, 4, 2))
    assert preimage(Matrix.identity(4), v) == v


def test_preimage_membership():
    rng = random.Random(23)
    m = rand_matrix(rng, 4, 6)
    v = Subspace.from_matrix_columns(rand_matrix(rng, 4, 2))
    pre = preimage(m, v)
    for j in range(pre.dim):
        assert v.contains_vector(m.apply(pre.basis.col(j)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_dimension_identity_random(seed):
    rng = random.Random(seed)
    u = Subspace.from_matrix_columns(rand_matrix(rng, 6, rng.randint(0, 4)))
    v = Subspace.from_matrix_columns(rand_matrix(rng, 6, rng.randint(0, 4)))
    assert (u + v).dim + u.intersect(v).dim == u.dim + v.dim


def test_complement_in():
    rng = random.Random(37)
    outer = Subspace.from_matrix_columns(rand_matrix(rng, 6, 5))
    inner = outer.intersect(Subspace.from_matrix_columns(rand_matrix(rng, 6, 3)))
    comp = complement_in(inner, outer)
    assert inner + comp == outer
    assert inner.intersect(comp).dim == 0
    # deterministic
    assert complement_in(inner, outer) == comp


def test_inverse_round_trip():
    rng = random.Random(41)
    while True:
        m = rand_matrix(rng, 4, 4)
        if m.rank() == 4:
            break
    assert m @ m.inverse() == Matrix.identity(4)
    with pytest.raises(LinalgError):
        Matrix.zero(2, 2).inverse()


def test_ambient_mismatch():
    with pytest.raises(LinalgError):
        Subspace.zero(3).intersect(Subspace.zero(4))
