"""Exact linear algebra: ranks, kernels, solves, subspace lattice, blocks.

The subspace operations are checked against ``_subspace_oracle``, the
earlier formulas that take two or more eliminations per result, or for a
complement one elimination of the stacked [inner | outer], and the block
assembly of d against ``_total_matrix_oracle``, the earlier entry-by-entry
placement.
"""

import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdol import catalog, kernel
from acdol.forms import BIDEGREE
from acdol.kernel import I, ONE, ZERO, Scalar
from acdol.linalg import LinalgError, Matrix, Subspace, complement_in
from conftest import named_analysis


def rand_scalar(rng, pool=(-2, -1, 0, 0, 1, 2)):
    return Scalar(rng.choice(pool), rng.choice(pool), rng.randint(1, 2))


def rand_matrix(rng, rows, cols):
    return Matrix(rows, cols,
                  [[rand_scalar(rng) for _ in range(cols)] for _ in range(rows)])


def rand_low_rank(rng, rows, cols):
    """A rows x cols matrix of rank at most a random inner dimension, so
    kernels, intersections and preimages are often nontrivial."""
    inner = rng.randint(0, min(rows, cols))
    return rand_matrix(rng, rows, inner) @ rand_matrix(rng, inner, cols)


def rand_subspace(rng, n):
    """A random subspace of k^n, the zero and the full one included."""
    kind = rng.randint(0, 5)
    if kind == 0:
        return Subspace.zero(n)
    if kind == 1:
        return Subspace.kernel(Matrix.zero(0, n))
    return Subspace.from_matrix_columns(rand_low_rank(rng, n, rng.randint(0, n)))


class _subspace_oracle:
    """The earlier subspace formulas, kept as the labelled oracle: a kernel
    as the span of the rref kernel basis, an intersection and a preimage
    from the kernels of [U | -V] and [A | -B], containment by rank, a sum
    as the span of [U | V]."""

    @staticmethod
    def nullspace_matrix(mat):
        """The rref kernel basis: per free column j of the forward rref,
        the vector with a 1 at j, zeros at the other free columns and minus
        the rref entries of column j at the pivot columns."""
        red, pivots = mat.rref()
        cols = []
        for j in range(mat.cols):
            if j in pivots:
                continue
            v = [ZERO] * mat.cols
            v[j] = ONE
            for row, pc in zip(red.entries, pivots):
                v[pc] = -row[j]
            cols.append(v)
        return Matrix.from_columns(cols, ambient_rows=mat.cols)

    @staticmethod
    def kernel(mat):
        return Subspace.from_matrix_columns(
            _subspace_oracle.nullspace_matrix(mat))

    @staticmethod
    def intersect(u, v):
        if u.dim == 0 or v.dim == 0:
            return Subspace.zero(u.ambient_dim)
        ker = _subspace_oracle.nullspace_matrix(u.basis.hstack(-v.basis))
        return Subspace.from_matrix_columns(
            u.basis @ Matrix(u.dim, ker.cols, ker.entries[:u.dim]))

    @staticmethod
    def preimage(mat, sub):
        if sub.dim == 0:
            return _subspace_oracle.kernel(mat)
        ker = _subspace_oracle.nullspace_matrix(mat.hstack(-sub.basis))
        return Subspace.from_matrix_columns(
            Matrix(mat.cols, ker.cols, ker.entries[:mat.cols]))

    @staticmethod
    def contains(u, v):
        if v.dim == 0:
            return True
        return len(u.basis.hstack(v.basis).rref()[1]) == u.dim

    @staticmethod
    def add(u, v):
        """The span of the stacked bases [u | v], one RCEF."""
        return Subspace.from_matrix_columns(u.basis.hstack(v.basis))

    @staticmethod
    def complement_in(inner, outer):
        """The columns of outer's canonical basis at the pivot columns of
        [inner | outer] past inner's."""
        d = inner.dim
        chosen = [p - d for p in inner.basis.hstack(outer.basis).pivots()
                  if p >= d]
        return Subspace(outer.ambient_dim, Matrix.from_columns(
            [outer.basis.col(j) for j in chosen], outer.ambient_dim))


def _is_rcef(basis):
    """Reduced column echelon form: each column's first nonzero entry is a
    1, further down than the previous column's, and the only nonzero entry
    of its row."""
    leads = []
    for j in range(basis.cols):
        col = basis.col(j)
        nonzero = [i for i, e in enumerate(col) if e]
        if not nonzero or col[nonzero[0]] != ONE:
            return False
        leads.append(nonzero[0])
    return (all(a < b for a, b in zip(leads, leads[1:]))
            and all(not basis.entries[i][k] for j, i in enumerate(leads)
                    for k in range(basis.cols) if k != j))


def _random_shapes(rng, count):
    shapes = [(0, 0), (0, 4), (4, 0), (7, 7), (1, 7), (7, 1)]
    return shapes + [(rng.randint(0, 7), rng.randint(0, 7))
                     for _ in range(count - len(shapes))]


def test_kernel_matches_oracle_and_is_rcef():
    rng = random.Random(71)
    for rows, cols in _random_shapes(rng, 60):
        a = rand_low_rank(rng, rows, cols)
        ker = Subspace.kernel(a)
        assert ker == _subspace_oracle.kernel(a)
        assert _is_rcef(ker.basis)
        assert ker.dim == cols - a.rank()


def test_kernel_read_in_unreversed_order_is_not_canonical():
    # negative control: the kernel basis of the unreversed rref spans the
    # same space but is not in RCEF, so it is not the canonical basis
    rng = random.Random(73)
    caught = 0
    for rows, cols in _random_shapes(rng, 40):
        a = rand_low_rank(rng, rows, cols)
        unreversed = _subspace_oracle.nullspace_matrix(a)
        assert Subspace.from_matrix_columns(unreversed) == Subspace.kernel(a)
        if not _is_rcef(unreversed):
            assert Subspace(cols, unreversed) != Subspace.kernel(a)
            caught += 1
    assert caught >= 10


def _counting_rref(monkeypatch):
    calls = []
    rref = kernel.rref
    monkeypatch.setattr(kernel, "rref", lambda rows, ncols: (
        calls.append(ncols) or rref(rows, ncols)))
    return calls


def test_kernel_and_span_are_computed_once_per_matrix(monkeypatch):
    a = rand_low_rank(random.Random(83), 5, 6)
    calls = _counting_rref(monkeypatch)
    ker = Subspace.kernel(a)
    span = Subspace.from_matrix_columns(a)
    assert len(calls) == 2
    assert Subspace.kernel(a) is ker
    assert Subspace.from_matrix_columns(a) is span
    assert len(calls) == 2


def test_equal_matrices_share_no_memo(monkeypatch):
    # the memo sits on the instance, with no hashing of the entries: an
    # equal matrix built separately eliminates again
    a = rand_low_rank(random.Random(89), 5, 6)
    twin = Matrix(a.rows, a.cols, a.entries)
    assert twin == a and twin is not a
    calls = _counting_rref(monkeypatch)
    ker, span = Subspace.kernel(a), Subspace.from_matrix_columns(a)
    twin_ker = Subspace.kernel(twin)
    twin_span = Subspace.from_matrix_columns(twin)
    assert len(calls) == 4
    assert twin_ker is not ker and twin_span is not span
    assert (twin_ker, twin_span) == (ker, span)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_memoised_kernels_and_spans_equal_fresh_ones(seed):
    # asked in a random order, each memo returns what a fresh copy of the
    # matrix computes
    rng = random.Random(seed)
    a = rand_low_rank(rng, rng.randint(0, 7), rng.randint(0, 7))
    for _ in range(3):
        fresh = Matrix(a.rows, a.cols, a.entries)
        if rng.randint(0, 1):
            assert Subspace.kernel(a) == Subspace.kernel(fresh)
            assert Subspace.kernel(a) == _subspace_oracle.kernel(fresh)
        else:
            assert (Subspace.from_matrix_columns(a)
                    == Subspace.from_matrix_columns(fresh))
            assert Subspace.from_matrix_columns(a).basis == fresh.rcef()


def test_equations_cut_out_the_subspace():
    rng = random.Random(79)
    for n in list(range(8)) * 4:
        u = rand_subspace(rng, n)
        eqs = u.equations()
        assert (eqs.rows, eqs.cols) == (n - u.dim, n)
        assert (eqs @ u.basis).is_zero()
        assert Subspace.kernel(eqs) == u


def test_equations_with_a_row_dropped_fail():
    # negative control: every equation is needed, so without any one of
    # them the kernel is larger and containment of a larger space passes
    rng = random.Random(83)
    tested = 0
    for n in list(range(1, 8)) * 3:
        u = rand_subspace(rng, n)
        eqs = u.equations()
        for r in range(eqs.rows):
            fewer = Matrix(eqs.rows - 1, n, eqs.entries[:r] + eqs.entries[r + 1:])
            bigger = Subspace.kernel(fewer)
            assert bigger != u and bigger.dim == u.dim + 1
            assert not u.contains(bigger)
            assert (fewer @ bigger.basis).is_zero()
            tested += 1
    assert tested >= 20


def test_subspace_operations_match_oracle():
    rng = random.Random(89)
    outcomes = set()
    for _ in range(80):
        n = rng.randint(0, 7)
        u = rand_subspace(rng, n)
        v = rand_subspace(rng, n)
        assert u.intersect(v) == _subspace_oracle.intersect(u, v)
        for x, y in ((u, v), (v, u), (u, u + v), (u + v, v),
                     (u, u.intersect(v))):
            got = x.contains(y)
            assert got == _subspace_oracle.contains(x, y) == (x + y == x)
            outcomes.add(got)
        a = rand_low_rank(rng, n, rng.randint(0, 7))
        assert (Subspace.kernel(u.equations() @ a)
                == _subspace_oracle.preimage(a, u))
    assert outcomes == {True, False}


def test_sum_and_extension_match_the_stacked_span(monkeypatch):
    # u + v and u.extended(E w), E the equations of u, against the RCEF of
    # the stacked bases: each is canonical and takes one elimination, of
    # dim v (or the columns of w) x the n - dim u quotient coordinates
    rng = random.Random(97)
    calls = _counting_rref(monkeypatch)
    for n, cols in _random_shapes(rng, 60):
        w = rand_low_rank(rng, n, cols)
        v = Subspace.from_matrix_columns(w)
        for u in (Subspace.zero(n), Subspace.kernel(Matrix.zero(0, n)),
                  rand_subspace(rng, n)):
            expected = _subspace_oracle.add(u, v)
            del calls[:]
            total = u + v
            assert calls == [n - u.dim]
            extension = u.extended(u.equations() @ w)
            assert calls == [n - u.dim] * 2
            assert total == extension == expected
            assert _is_rcef(total.basis)
            assert v + u == total


def test_extension_rejects_coordinates_of_another_quotient():
    u = Subspace.from_matrix_columns(rand_matrix(random.Random(3), 5, 2))
    with pytest.raises(LinalgError):
        u.extended(Matrix.zero(5, 1))


def test_forward_pass_pivots_equal_rref_pivots():
    rng = random.Random(101)
    for rows, cols in _random_shapes(rng, 60):
        a = rand_low_rank(rng, rows, cols)
        echelon_rows, pivots = kernel.echelon(a.entries, cols)
        assert pivots == kernel.rref(a.entries, cols)[1]
        assert len(echelon_rows) == rows
        assert all(not any(x or y for x, y in row)
                   for row in echelon_rows[len(pivots):])
        assert a.rank() == len(pivots) == len(a.rref()[1])


def _echelon_every_row(rows, ncols):
    """``kernel.echelon`` as it was before it set zero rows aside: every
    row is cleared and takes part in the pivot search and the swaps.  The
    labelled oracle of the zero-row path."""
    m = []
    for row in rows:
        den = 1
        for e in row:
            den = den * e.dn // gcd(den, e.dn)
        m.append([(e.xn * (den // e.dn), e.yn * (den // e.dn)) for e in row])
    nrows = len(m)
    unit = (1, 0, 1)
    divisor = [unit] * nrows
    pivots = []
    r = 0
    prev = unit
    for c in range(ncols):
        pr = -1
        best = -1
        for i in range(r, nrows):
            x, y = m[i][c]
            if x or y:
                size = (abs(x) + abs(y)).bit_length()
                if pr < 0 or size < best:
                    pr = i
                    best = size
        if pr < 0:
            continue
        if pr != r:
            m[pr], m[r] = m[r], m[pr]
            divisor[pr], divisor[r] = divisor[r], divisor[pr]
        row = m[r]
        if divisor[r] != prev:
            qx, qy, _ = prev
            row = [(qx * x - qy * y, qx * y + qy * x) for (x, y) in row]
            kernel._divide_row(row, divisor[r], c)
            m[r] = row
        px, py = row[c]
        pivot = (px, py, px * px + py * py)
        support = [(j, bx, by) for j, (bx, by) in
                   enumerate(row[c + 1:], c + 1) if bx or by]
        for i in range(r + 1, nrows):
            tgt = m[i]
            fx, fy = tgt[c]
            if not (fx or fy):
                continue
            new = [(px * ax - py * ay, px * ay + py * ax) if ax or ay
                   else (0, 0) for (ax, ay) in tgt]
            for j, bx, by in support:
                nx, ny = new[j]
                new[j] = (nx - (fx * bx - fy * by), ny - (fx * by + fy * bx))
            new[c] = (0, 0)
            if divisor[i] != unit:
                kernel._divide_row(new, divisor[i], c + 1)
            m[i] = new
            divisor[i] = pivot
        prev = pivot
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _check_zero_rows(entries, cols):
    """``kernel.echelon`` on ``entries`` against the same rows without the
    zero ones, and rref, kernel and span against the every-row route and
    the rref kernel basis."""
    rows, pivots = kernel.echelon(entries, cols)
    nonzero = [row for row in entries if any(row)]
    assert pivots == kernel.echelon(nonzero, cols)[1]
    assert pivots == _echelon_every_row(entries, cols)[1]
    assert len(rows) == len(entries)
    assert all(not any(x or y for x, y in row) for row in rows[len(pivots):])
    a = Matrix(len(entries), cols, entries)
    with mock.patch.object(kernel, "echelon", _echelon_every_row):
        old = Matrix(a.rows, a.cols, entries)
        old_rref = kernel.rref(entries, cols)
        old_kernel, old_span = (Subspace.kernel(old),
                                Subspace.from_matrix_columns(old))
    assert kernel.rref(entries, cols) == old_rref
    assert Subspace.kernel(a) == old_kernel == _subspace_oracle.kernel(a)
    assert Subspace.from_matrix_columns(a) == old_span


def test_echelon_zero_and_empty_matrices():
    for rows, cols in ((4, 5), (0, 4), (3, 0), (1, 1)):
        _check_zero_rows(Matrix.zero(rows, cols).entries, cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_echelon_sets_zero_rows_aside(seed):
    rng = random.Random(seed)
    cols = rng.randint(0, 7)
    entries = list(rand_low_rank(rng, rng.randint(0, 6), cols).entries)
    for _ in range(rng.randint(1, 4)):
        entries.insert(rng.randint(0, len(entries)), (ZERO,) * cols)
    _check_zero_rows(entries, cols)


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
    # the oracle's kernel basis
    assert _subspace_oracle.nullspace_matrix(Matrix.identity(3)).cols == 0
    ns = _subspace_oracle.nullspace_matrix(Matrix.zero(2, 5))
    assert Subspace.from_matrix_columns(ns).dim == 5


def test_nullspace_rank_nullity_and_annihilation():
    rng = random.Random(9)
    for _ in range(15):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ns = _subspace_oracle.nullspace_matrix(m)
        assert m.rank() + ns.cols == m.cols
        if ns.cols:
            assert (m @ ns).is_zero()


def test_solve_trivial():
    eye = Matrix.identity(3)
    b = Matrix.from_columns([(ONE, I, -ONE)])
    assert eye.solve(b) == b
    assert Matrix.zero(3, 3).solve(
        Matrix.from_columns([(ONE, ZERO, ZERO)])) is None


def test_solve_substitution_residual_zero():
    rng = random.Random(13)
    for _ in range(15):
        m = rand_matrix(rng, 4, 5)
        x = tuple(rand_scalar(rng) for _ in range(5))
        b = m.apply(x)
        sol = m.solve(Matrix.from_columns([b]))
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
        assert x.columns() == [
            a.solve(Matrix.from_columns([rhs.col(j)])).col(0)
            for j in range(rhs.cols)]


def test_solve_many_columns_one_outside_the_image():
    rng = random.Random(19)
    # the image of A lies in the hyperplane of a zero last coordinate
    a = Matrix.from_rows([[rand_scalar(rng) for _ in range(3)]
                          for _ in range(4)] + [[ZERO] * 3])
    inside = a @ rand_matrix(rng, 3, 2)
    outside = Matrix.from_columns([(ZERO, ZERO, ZERO, ZERO, ONE)])
    assert a.solve(inside) is not None
    assert a.solve(inside.hstack(outside).hstack(inside)) is None


def test_solve_dimension_mismatch():
    with pytest.raises(LinalgError):
        Matrix.identity(3).solve(Matrix.from_columns([(ONE, ONE)]))


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
    # the preimage {x : A x in V} is the kernel of V's equations after A
    rng = random.Random(2)
    v = Subspace.from_matrix_columns(rand_matrix(rng, 4, 2))
    assert Subspace.kernel(v.equations() @ Matrix.identity(4)) == v


def test_preimage_membership():
    rng = random.Random(23)
    m = rand_matrix(rng, 4, 6)
    v = Subspace.from_matrix_columns(rand_matrix(rng, 4, 2))
    pre = Subspace.kernel(v.equations() @ m)
    assert pre.dim == 4
    for j in range(pre.dim):
        assert v.contains_vector(m.apply(pre.basis.col(j)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_dimension_identity_random(seed):
    rng = random.Random(seed)
    u = Subspace.from_matrix_columns(rand_matrix(rng, 6, rng.randint(0, 4)))
    v = Subspace.from_matrix_columns(rand_matrix(rng, 6, rng.randint(0, 4)))
    assert (u + v).dim + u.intersect(v).dim == u.dim + v.dim


def _check_complement(inner, outer):
    comp = complement_in(inner, outer)
    assert comp == _subspace_oracle.complement_in(inner, outer)
    assert _is_rcef(comp.basis)
    assert inner + comp == outer
    assert inner.intersect(comp).dim == 0
    return comp


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_complement_in_matches_oracle_on_nested_pairs(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 7)
    outer = rand_subspace(rng, n)
    inner = Subspace.from_matrix_columns(
        outer.basis @ rand_low_rank(rng, outer.dim, rng.randint(0, 4)))
    _check_complement(inner, outer)


def test_complement_in():
    # inner = 0, inner = outer, outer = the whole space, ambient dimension 0
    rng = random.Random(37)
    whole = Subspace.kernel(Matrix.zero(0, 6))
    outer = Subspace.from_matrix_columns(rand_matrix(rng, 6, 4))
    inner = outer.intersect(Subspace.from_matrix_columns(rand_matrix(rng, 6, 4)))
    assert 0 < inner.dim < outer.dim < 6
    assert _check_complement(Subspace.zero(6), outer) == outer
    assert _check_complement(outer, outer).dim == 0
    assert _check_complement(inner, whole).dim == 6 - inner.dim
    assert _check_complement(whole, whole).dim == 0
    assert _check_complement(Subspace.zero(0), Subspace.zero(0)).dim == 0
    _check_complement(inner, outer)


def test_inverse_round_trip():
    # invertible by construction: unit lower triangular times upper
    # triangular with a nonzero diagonal
    rng = random.Random(41)
    lower = Matrix(4, 4, [[ONE if i == j else rand_scalar(rng) if i > j
                           else ZERO for j in range(4)] for i in range(4)])
    upper = Matrix(4, 4, [[rand_scalar(rng, (1, 2, -1)) if i == j
                           else rand_scalar(rng) if i < j else ZERO
                           for j in range(4)] for i in range(4)])
    m = lower @ upper
    assert m.rank() == 4
    assert m @ m.inverse() == Matrix.identity(4)
    with pytest.raises(LinalgError):
        Matrix.zero(2, 2).inverse()


def test_ambient_mismatch():
    with pytest.raises(LinalgError):
        Subspace.zero(3).intersect(Subspace.zero(4))


# -- block assembly --------------------------------------------------------


def test_from_blocks_matches_stacking():
    """Random block grids, zero-size rows and columns and absent blocks
    included, against hstack/vstack of the blocks with zeros filled in."""
    rng = random.Random(23)
    for _ in range(200):
        row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        blocks = {(i, j): rand_matrix(rng, r, c)
                  for i, r in enumerate(row_dims)
                  for j, c in enumerate(col_dims) if rng.random() < 0.6}
        expect = Matrix.zero(0, sum(col_dims))
        for i, r in enumerate(row_dims):
            band = Matrix.zero(r, 0)
            for j, c in enumerate(col_dims):
                band = band.hstack(blocks.get((i, j), Matrix.zero(r, c)))
            expect = expect.vstack(band)
        assert Matrix.from_blocks(row_dims, col_dims, blocks) == expect


def test_from_blocks_rejects_a_block_of_the_wrong_shape():
    for bad in (Matrix.zero(2, 1), Matrix.zero(1, 2), Matrix.zero(0, 1)):
        with pytest.raises(LinalgError):
            Matrix.from_blocks([1, 2], [1, 1], {(1, 0): Matrix.zero(2, 1),
                                                (0, 1): bad})
    # a negative index would wrap to the last block row or column
    for key in ((-1, 0), (0, -1)):
        with pytest.raises(LinalgError):
            Matrix.from_blocks([1, 1], [1, 1], {key: Matrix.zero(1, 1)})


def _total_matrix_oracle(cm, n):
    """d : A^n -> A^{n+1}, each nonzero block entry placed by hand at its
    slot offsets."""
    basis = cm.basis
    tgt_off = {(p, q): off for p, q, off in basis.slot_offsets(n + 1)}
    data = [[ZERO] * basis.total_dim(n) for _ in range(basis.total_dim(n + 1))]
    for p, q, off in basis.slot_offsets(n):
        for tag in BIDEGREE:
            tp, tq = cm.target(tag, p, q)
            if (tp, tq) not in tgt_off:
                continue
            blk = cm.block(tag, p, q)
            for i in range(blk.rows):
                for j in range(blk.cols):
                    if blk.entries[i][j]:
                        data[tgt_off[(tp, tq)] + i][off + j] = blk.entries[i][j]
    return Matrix(basis.total_dim(n + 1), basis.total_dim(n), data)


@pytest.mark.parametrize("name",
                         catalog.builtin_names() + ["random-m3-seed1"])
def test_block_assemblies_match_the_hand_placed_oracles(name):
    an = named_analysis(name)
    # the harmonic layer reads the analysis's own differential
    assert an.hs.cm is an.cm
    for n in range(-1, 2 * an.m + 2):
        assert an.cm.total_matrix(n) == _total_matrix_oracle(an.cm, n)
