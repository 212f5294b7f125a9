"""Exact dense linear algebra over the Gaussian rationals.

Matrices are immutable and dense; all ranks, kernels and solves go through
exact elimination in the arithmetic kernel, so there are no tolerances
anywhere.  A rank needs only the forward pass.  Subspaces are kept in
reduced column echelon form (RCEF), which makes equality of subspaces a
structural comparison.  The equations of a canonical subspace are read off
its basis with no elimination, so each Subspace result costs at most one
elimination.  ``Subspace.kernel`` is the one kernel route: one rref with
the columns reversed, read back as the canonical basis.  An
intersection is the kernel of both sets of equations stacked, a preimage
{x : A x in S} is the kernel of (equations of S) @ A, a span is one RCEF,
and containment is one product with the equations.  Each Matrix keeps
its kernel and its column span once computed, on the instance and with no
hashing of the entries, so routes that read the same block share one
elimination per subspace.  A canonical basis is
the identity on its lead rows, so a vector of the span has its entries
there as coordinates, and the product of two RCEF bases is in RCEF: a
complement inside a subspace is one forward elimination of the inner
space's coordinates, dim inner x dim outer.  The equations of a subspace
S give the coordinates of the quotient by S, so a sum S + span(W) is one
RCEF of the quotient coordinates of W, lifted and merged with the basis
of S (``Subspace.extended``, the one sum route).  ``Matrix.from_blocks``
assembles every block matrix: absent blocks are zero, zero-sized ones
need no special case and a block of the wrong shape raises LinalgError.
"""

from __future__ import annotations

from itertools import accumulate

from . import kernel
from .kernel import ONE, ZERO


class LinalgError(ValueError):
    """Dimension mismatch or misuse of a linear-algebra operation."""


class Matrix:
    """Immutable rows x cols matrix of Scalars."""

    __slots__ = ("rows", "cols", "entries", "_pivots", "_kernel", "_span")

    def __init__(self, rows, cols, entries):
        entries = tuple(map(tuple, entries))
        if len(entries) != rows or (rows and set(map(len, entries)) != {cols}):
            raise LinalgError("entry grid does not match %d x %d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._pivots = None
        self._kernel = None
        self._span = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)]
                          for i in range(n)])

    @classmethod
    def from_rows(cls, rows_data):
        rows_data = [list(r) for r in rows_data]
        if not rows_data:
            return cls(0, 0, [])
        return cls(len(rows_data), len(rows_data[0]), rows_data)

    @classmethod
    def from_columns(cls, cols_data, ambient_rows=None):
        cols_data = [list(c) for c in cols_data]
        if not cols_data:
            if ambient_rows is None:
                raise LinalgError("ambient row count required for empty column list")
            return cls(ambient_rows, 0, [[] for _ in range(ambient_rows)])
        n = len(cols_data[0])
        if ambient_rows is not None and ambient_rows != n:
            raise LinalgError("column length does not match ambient dimension")
        return cls(n, len(cols_data), [[c[i] for c in cols_data] for i in range(n)])

    @classmethod
    def from_blocks(cls, row_dims, col_dims, blocks):
        """The block matrix with block rows of heights ``row_dims`` and
        block columns of widths ``col_dims``; ``blocks`` maps (i, j) to the
        block of block row i and block column j.  Absent blocks are zero."""
        row_off = [0, *accumulate(row_dims)]
        col_off = [0, *accumulate(col_dims)]
        data = [[ZERO] * col_off[-1] for _ in range(row_off[-1])]
        for (i, j), blk in blocks.items():
            if min(i, j) < 0 or (blk.rows, blk.cols) != (row_dims[i],
                                                          col_dims[j]):
                raise LinalgError("block (%d, %d) is %d x %d, not %d x %d"
                                  % (i, j, blk.rows, blk.cols, row_dims[i],
                                     col_dims[j]))
            for row, brow in zip(data[row_off[i]:], blk.entries):
                row[col_off[j]:col_off[j + 1]] = brow
        return cls(row_off[-1], col_off[-1], data)

    # -- basics ------------------------------------------------------------

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.rows, self.cols)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols,
                      [[-a for a in row] for row in self.entries])

    def scale(self, s):
        return Matrix(self.rows, self.cols,
                      [[s * a for a in row] for row in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise LinalgError("product shape mismatch: %d x %d times %d x %d"
                              % (self.rows, self.cols, other.rows, other.cols))
        data = kernel.matmul(self.entries, other.entries, other.cols)
        return Matrix(self.rows, other.cols, data)

    def apply(self, vec):
        """Matrix times column vector, as a tuple."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise LinalgError("vector length %d does not match %d columns"
                              % (len(vec), self.cols))
        out = []
        for row in self.entries:
            acc = ZERO
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def conj(self):
        return Matrix(self.rows, self.cols,
                      [[a.conj() if a.yn else a for a in row]
                       for row in self.entries])

    def conj_transpose(self):
        return self.transpose().conj()

    def hstack(self, other):
        if self.rows != other.rows:
            raise LinalgError("hstack row mismatch")
        return Matrix(self.rows, self.cols + other.cols,
                      [ra + rb for ra, rb in zip(self.entries, other.entries)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise LinalgError("vstack column mismatch")
        return Matrix(self.rows + other.rows, self.cols,
                      self.entries + other.entries)

    # -- elimination -------------------------------------------------------

    def rref(self):
        """(reduced row echelon Matrix, pivot column indices)."""
        data, pivots = kernel.rref(self.entries, self.cols)
        return Matrix(self.rows, self.cols, data), tuple(pivots)

    def pivots(self):
        """Pivot column indices from the forward elimination alone;
        cached."""
        if self._pivots is None:
            self._pivots = tuple(kernel.echelon(self.entries, self.cols)[1])
        return self._pivots

    def rank(self):
        return len(self.pivots())

    def rcef(self):
        """Reduced column echelon form with zero columns dropped.

        This is the canonical basis-of-column-space form used by Subspace.
        """
        red, pivots = self.transpose().rref()
        cols = [red.entries[k] for k in range(len(pivots))]
        return Matrix.from_columns(cols, ambient_rows=self.rows)

    def solve(self, rhs):
        """X with self @ X = rhs from one rref of [self | rhs], or None when
        a column of the Matrix ``rhs`` is outside the image."""
        if rhs.rows != self.rows:
            raise LinalgError("rhs has %d rows, not %d" % (rhs.rows, self.rows))
        red, pivots = self.hstack(rhs).rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        data = [[ZERO] * rhs.cols for _ in range(self.cols)]
        for k, pc in enumerate(pivots):
            data[pc] = red.entries[k][self.cols:]
        return Matrix(self.cols, rhs.cols, data)

    def inverse(self):
        if self.rows != self.cols:
            raise LinalgError("inverse of a non-square matrix")
        red, pivots = self.hstack(Matrix.identity(self.rows)).rref()
        if len(pivots) != self.rows or any(p >= self.rows for p in pivots):
            raise LinalgError("matrix is singular")
        data = [row[self.rows:] for row in red.entries]
        return Matrix(self.rows, self.rows, data)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinalgError("shape mismatch: %d x %d vs %d x %d"
                              % (self.rows, self.cols, other.rows, other.cols))


class Subspace:
    """A subspace of k^n given by its basis in reduced column echelon form.

    Two subspaces are equal iff their canonical bases are identical, so
    `==` decides genuine equality of subspaces.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        if basis.rows != ambient_dim:
            raise LinalgError("basis rows do not match ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_matrix_columns(cls, mat):
        """Span of the columns of ``mat``, canonicalised; memoised on
        ``mat``."""
        if mat._span is None:
            mat._span = cls(mat.rows, mat.rcef())
        return mat._span

    @classmethod
    def from_columns(cls, ambient_dim, cols):
        return cls.from_matrix_columns(Matrix.from_columns(cols, ambient_rows=ambient_dim))

    @classmethod
    def kernel(cls, mat):
        """Ker mat, canonical from one elimination, memoised on ``mat``.

        Take the rref of ``mat`` with its columns reversed.  Each free
        column f gives the kernel vector with a 1 at f, zeros at the other
        free columns and its other entries at pivot columns left of f in
        the reversed order.  Read back in the original order, with f
        increasing, these vectors are the RCEF of the kernel: each leads
        with its 1 at its free index, where every other one is zero.
        """
        if mat._kernel is not None:
            return mat._kernel
        n = mat.cols
        red, pivots = kernel.rref([row[::-1] for row in mat.entries], n)
        pivset = set(pivots)
        rows = [[ZERO] * (n - len(pivots)) for _ in range(n)]
        col = 0
        for j in range(n - 1, -1, -1):
            if j in pivset:
                continue
            rows[n - 1 - j][col] = ONE
            for red_row, pc in zip(red, pivots):
                if pc > j:
                    break
                if red_row[j]:
                    rows[n - 1 - pc][col] = -red_row[j]
            col += 1
        mat._kernel = cls(n, Matrix(n, col, rows))
        return mat._kernel

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, Matrix.from_columns([], ambient_rows=ambient_dim))

    @property
    def dim(self):
        return self.basis.cols

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)

    def equations(self):
        """A matrix whose kernel is this subspace, read off the canonical
        basis b with no elimination: for each row r that holds no leading
        one, the row e_r - sum_i b[r][i] e_lead(i)."""
        n = self.ambient_dim
        lead = self.lead_rows()
        leads = set(lead)
        eqs = []
        for r, row in enumerate(self.basis.entries):
            if r in leads:
                continue
            eq = [ZERO] * n
            eq[r] = ONE
            for i, b in enumerate(row):
                if b:
                    eq[lead[i]] = -b
            eqs.append(eq)
        return Matrix(n - self.dim, n, eqs)

    def lead_rows(self):
        """The rows of the leading ones of the canonical basis, in order;
        restricted to them the basis is the identity."""
        d = self.dim
        lead = []
        for r, row in enumerate(self.basis.entries):
            if len(lead) < d and row[len(lead)]:
                lead.append(r)
        return lead

    def contains_vector(self, vec):
        return not any(self.equations().apply(vec))

    def contains(self, other):
        """Whether other is contained in self."""
        self._same_ambient(other)
        return (self.equations() @ other.basis).is_zero()

    def __add__(self, other):
        self._same_ambient(other)
        return self.extended(self.equations() @ other.basis)

    def extended(self, quotient):
        """self + span(W), given ``quotient`` = self.equations() @ W, the
        coordinates of W in the quotient by self.

        With b the canonical basis and L its lead rows, every w satisfies
        w - b w_L = lift(E w), E the equations and lift the map that puts
        coordinates on the rows outside L, in order.  So self + span(W)
        is the direct sum of self and lift(span(E W)), and its canonical
        basis takes one elimination, the RCEF of E W (memoised on
        ``quotient``): lift its columns, clear each column of b at their
        lead rows, and merge the columns by lead row.  b is zero above its
        lead, so a column of b meets only lifted columns that lead further
        down.
        """
        lead = self.lead_rows()
        leads = set(lead)
        rest = [r for r in range(self.ambient_dim) if r not in leads]
        if quotient.rows != len(rest):
            raise LinalgError("quotient coordinates have %d rows, not %d"
                              % (quotient.rows, len(rest)))
        coords = Subspace.from_matrix_columns(quotient)
        if coords.dim == 0:
            return self
        if self.dim == 0:
            return coords
        d, k = self.dim, coords.dim
        lifted_leads = [rest[s] for s in coords.lead_rows()]
        correction = coords.basis @ Matrix(
            k, d, [self.basis.entries[r] for r in lifted_leads])
        order = [c for _, c in sorted(
            [(r, i) for i, r in enumerate(lead)]
            + [(r, d + j) for j, r in enumerate(lifted_leads)])]
        rows = [row + (ZERO,) * k for row in self.basis.entries]
        for r, fix, lifted in zip(rest, correction.entries,
                                  coords.basis.entries):
            rows[r] = tuple(b - c if c else b for b, c in
                            zip(self.basis.entries[r], fix)) + lifted
        n = self.ambient_dim
        return Subspace(n, Matrix(n, d + k, [[row[c] for c in order]
                                             for row in rows]))

    def intersect(self, other):
        """Exact intersection: the kernel of both sets of equations."""
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        return Subspace.kernel(self.equations().vstack(other.equations()))

    def _same_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise LinalgError("ambient dimension mismatch: %d vs %d"
                              % (self.ambient_dim, other.ambient_dim))


def complement_in(inner, outer):
    """A canonical complement of ``inner`` inside ``outer``.

    Requires inner to be contained in outer, which the caller checks.
    Restricted to its lead rows outer's canonical basis is the identity,
    so a vector of outer has as coordinates its entries at those rows.
    Column j of outer's basis is left out exactly when some vector of
    inner has its last nonzero coordinate at j: these are the pivots of
    one forward elimination of inner's coordinates in reversed order, and
    the kept columns are the pivot columns of [inner | outer] past
    inner's.  A subset of RCEF columns is in RCEF, so the result is
    canonical as it stands.  It satisfies inner + result = outer and
    inner.intersect(result) = 0.
    """
    d = outer.dim
    lead = outer.lead_rows()[::-1]
    coords = [[inner.basis.entries[r][i] for r in lead]
              for i in range(inner.dim)]
    skipped = {d - 1 - p for p in kernel.echelon(coords, d)[1]}
    chosen = [j for j in range(d) if j not in skipped]
    return Subspace(outer.ambient_dim, Matrix(
        outer.ambient_dim, len(chosen),
        [[row[j] for j in chosen] for row in outer.basis.entries]))
