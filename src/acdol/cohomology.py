"""Independent cohomology routes: the oracles of the verification battery.

The production tables of ``pipeline.analyze`` come from the Hodge reduction
in ``spectral``: h_dol is its first page, the Betti numbers count its
unpaired generators and h_mub reads the ranks of the mubar blocks.  The
routes here compute the same tables another way, with representative
subspaces, and the battery compares them with the reduction:

* mubar-cohomology slot by slot, as Ker/Im since mubar^2 = 0;
* Dolbeault cohomology from the zig-zag description

      H_Dol^{p,q} = {w in Ker mubar : delbar w in Im mubar}
                    / {w = mubar a + delbar b with mubar b = 0},

  which reduces to classical delbar-cohomology when mubar = 0, with the
  cocycles read in the canonical coordinates of Ker mubar, and as the
  cohomology of delbar induced on mubar-classes;
* de Rham Betti numbers from the ranks of the total complex, each taken
  over Q on the real forms (the forms fixed by the conjugation of the
  real Lie algebra, which d preserves) and, when the algebra is
  unimodular, on half the degrees: Poincare duality pairs d_n with
  d_{2m-1-n}.  The ranks are taken in order of degree and cleared (Chen
  and Kerber, "Persistent homology computation with a twist", 2011):
  d_n is ranked only on the columns outside a maximal independent set of
  rows of d_{n-1}, which leaves its rank unchanged because d_n kills
  Im d_{n-1}.

Ker and Im of one Matrix are eliminated once (``linalg`` memoises them on
the instance), so the mubar kernels and images that ``mub_cohomology``
and ``dolbeault`` both read cost one elimination each.

The module also holds the shared ``Check`` record, ``ConsistencyError`` and
the Frolicher/Euler/Serre ``consistency_report``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import forms
from .forms import DELBAR, MUBAR
from .kernel import ZERO, Scalar, cleared
from .linalg import Matrix, Subspace, complement_in


class ConsistencyError(RuntimeError):
    """An internal exact identity failed; indicates a bug, not bad input."""


@dataclass
class CohomologyTable:
    """Dimensions and representative subspaces per (p, q) slot.

    ``representatives[(p, q)]`` spans a complement of the coboundaries
    inside the cocycles, so its columns represent a basis of the quotient.
    ``denominators`` retains the coboundary subspaces for downstream class
    computations (slot coordinates).
    """

    m: int
    dims: dict
    representatives: dict
    denominators: dict

    def dim(self, p, q):
        return self.dims.get((p, q), 0)

    def classes(self, p, q):
        """(representatives, denominators) of slot (p, q); off the grid
        both are the zero subspace of k^0."""
        zero = Subspace.zero(0)
        return (self.representatives.get((p, q), zero),
                self.denominators.get((p, q), zero))


def _quotient_table(m, parts):
    dims = {}
    reps = {}
    dens = {}
    for (p, q), (num, den) in parts.items():
        if not num.contains(den):
            raise ConsistencyError(
                "coboundaries are not cocycles on slot (%d, %d)" % (p, q))
        dims[(p, q)] = num.dim - den.dim
        reps[(p, q)] = complement_in(den, num)
        dens[(p, q)] = den
    return CohomologyTable(m, dims, reps, dens)


def operator_cohomology(cm, tag):
    """Slotwise Ker/Im cohomology of one anticommuting square-zero block."""
    basis = cm.basis
    dp, dq = forms.BIDEGREE[tag]
    parts = {}
    for (p, q) in basis.slots:
        ker = Subspace.kernel(cm.block(tag, p, q))
        img = Subspace.from_matrix_columns(cm.block(tag, p - dp, q - dq))
        parts[(p, q)] = (ker, img)
    return _quotient_table(basis.m, parts)


def mub_cohomology(cm):
    """mubar-cohomology, slot by slot."""
    return operator_cohomology(cm, MUBAR)


def dolbeault(cm):
    """Dolbeault cohomology via the witness description.

    With K the canonical basis of Ker(mubar) on a slot, the cocycles are
    K Ker(E delbar K), E the equations of Im(mubar) in the target: the
    forms of Ker(mubar) whose delbar lands in Im(mubar).  K is the
    identity on its lead rows, so the product of K with an RCEF basis is
    again in RCEF and the cocycles are canonical with no further
    elimination.  The coboundaries are Im(mubar) + delbar(Ker(mubar) one
    row down), the span of [mubar | delbar K] with the K of the slot
    below; off the grid that K is the 0 x 0 kernel of a zero-column block.
    """
    basis = cm.basis
    m = basis.m
    kernels = {}
    for p in range(m + 1):
        for q in range(-1, m + 1):
            ker = Subspace.kernel(cm.block(MUBAR, p, q)).basis
            kernels[(p, q)] = (ker, cm.block(DELBAR, p, q) @ ker)
    parts = {}
    for (p, q) in basis.slots:
        ker, delbar_ker = kernels[(p, q)]
        im_mub_above = Subspace.from_matrix_columns(
            cm.block(MUBAR, p + 1, q - 1))
        closed = Subspace.kernel(im_mub_above.equations() @ delbar_ker)
        num = Subspace(ker.rows, ker @ closed.basis)
        den = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 2).hstack(
            kernels[(p, q - 1)][1]))
        parts[(p, q)] = (num, den)
    return _quotient_table(m, parts)


def induced_delbar(cm, mub_table):
    """Matrix of delbar on mubar-cohomology classes, per slot.

    Classes are written in the representative bases of ``mub_table``; the
    image classes are extracted by one solve against [representatives |
    Im mubar].  Cross-checks the Dolbeault computation: the cohomology of
    this operator has the same dimensions.
    """
    basis = cm.basis
    out = {}
    for (p, q) in basis.slots:
        src = mub_table.representatives[(p, q)]
        tgt_reps, tgt_den = mub_table.classes(p, q + 1)
        x = tgt_reps.basis.hstack(tgt_den.basis).solve(
            cm.block(DELBAR, p, q) @ src.basis)
        if x is None:
            raise ConsistencyError(
                "delbar image not mubar-closed modulo boundaries at "
                "(%d, %d)" % (p, q))
        out[(p, q)] = Matrix(tgt_reps.dim, src.dim, x.entries[:tgt_reps.dim])
    return out


def cohomology_dims_of_operator(mats):
    """Dims of Ker/Im for a square-zero slotwise operator along q, zero
    entries left out."""
    ranks = {pq: mat.rank() for pq, mat in mats.items()}
    dims = {}
    for (p, q), mat in mats.items():
        dim = mat.cols - ranks[(p, q)] - ranks.get((p, q - 1), 0)
        if dim:
            dims[(p, q)] = dim
    return dims


def top_cohomology_is_line(cm):
    """Whether H^{2m} of the total complex is one-dimensional, that is,
    whether d vanishes on (2m-1)-forms: the Lie algebra is unimodular."""
    return cm.total_matrix(2 * cm.m - 1).is_zero()


def _conjugation_orbits(basis, n):
    """The orbits of the conjugation on degree-n forms in total
    coordinates: (j, k, s) with conj(e_j) = s e_k, s = +-1 and j <= k, one
    per orbit, read off ``forms.conjugation_matrix``."""
    offset = {(p, q): off for p, q, off in basis.slot_offsets(n)}
    orbits = []
    for (p, q), off in offset.items():
        if p > q:
            continue
        conj = forms.conjugation_matrix(basis, p, q)
        for i, row in enumerate(conj.entries):
            for j, s in enumerate(row):
                if s and off + j <= offset[(q, p)] + i:
                    orbits.append((off + j, offset[(q, p)] + i, s.xn))
    return orbits


def real_differential(cm, n):
    """d_n on the real forms, as an integer matrix of the same rank.

    d commutes with the conjugation sigma of the real Lie algebra, so it
    maps the sigma-fixed forms, a Q-form of A^n, into those of A^{n+1},
    and the Q-rank of that map is the Q(i)-rank of d_n.  For a source
    orbit conj(e_j) = s e_k the fixed forms e_j + s e_k and i(e_j - s e_k)
    give the columns d e_j + s d e_k and i(d e_j - s d e_k); a fixed e_j
    (j = k) gives d e_j or i d e_j.  A fixed form is determined by the
    real and imaginary parts of the first coordinate of each target orbit,
    which give the rows, each cleared of its denominators.  The entries
    are read off d with no product, and the partner row of each target
    orbit is checked to be the conjugate this assumes, so that d commutes
    with sigma.
    """
    d = cm.total_matrix(n).entries
    sources = _conjugation_orbits(cm.basis, n)
    partner = [None] * cm.basis.total_dim(n)
    for j, k, s in sources:
        partner[j] = (k, s)
        partner[k] = (j, s)
    rows = []
    for r, r2, t in _conjugation_orbits(cm.basis, n + 1):
        for x, (k, s) in zip(d[r], partner):
            y = d[r2][k]
            if (y.xn, y.yn, y.dn) != (s * t * x.xn, -s * t * x.yn, x.dn):
                raise ConsistencyError(
                    "d does not commute with the conjugation in degree %d"
                    % n)
        (z,), _ = cleared([d[r]])
        re_row, im_row = [], []
        for j, k, s in sources:
            (xj, yj), (xk, yk) = z[j], z[k]
            if j != k:
                # d e_j + s d e_k and i(d e_j - s d e_k)
                re_row += (xj + s * xk, s * yk - yj)
                im_row += (yj + s * yk, xj - s * xk)
            elif s == 1:
                re_row.append(xj)
                im_row.append(yj)
            else:
                re_row.append(-yj)
                im_row.append(xj)
        if r != r2 or t == 1:
            rows.append([Scalar(v) if v else ZERO for v in re_row])
        if r != r2 or t == -1:
            rows.append([Scalar(v) if v else ZERO for v in im_row])
    return Matrix(len(rows), cm.basis.total_dim(n), rows)


def _cleared_ranks(cm, degrees):
    """The ranks of d_n for n < ``degrees``, each of ``real_differential``
    with the columns that the previous degree's pivots clear left out
    (``de_rham`` says why the rank does not change).

    A row of ``real_differential(cm, n)`` is a coordinate of the real
    (n+1)-forms, in the order of the columns of
    ``real_differential(cm, n + 1)``: the real and imaginary parts of the
    first coordinate of each orbit of ``_conjugation_orbits(basis, n + 1)``
    are the coefficients on its fixed forms, and scaling a row by its
    denominators does not change which rows are independent.  The pivots
    of the forward elimination of the cleared transpose are rows of d_n
    independent before the clearing too, as many as its rank, so they
    clear the next degree.
    """
    ranks = []
    cleared = set()
    for n in range(degrees):
        real = real_differential(cm, n)
        columns = [[row[j] for row in real.entries]
                   for j in range(real.cols) if j not in cleared]
        cleared = set(Matrix(len(columns), real.rows, columns).pivots())
        ranks.append(len(cleared))
    return ranks


def de_rham(cm):
    """Complex Betti numbers of the total Chevalley-Eilenberg complex.

    Each rank of d_n is one of ``real_differential``, taken in order of
    degree and cleared (``_cleared_ranks``): for S a maximal independent
    set of rows of d_{n-1}, A^n is the direct sum of Im d_{n-1} and the
    coordinates outside S, and d_n kills Im d_{n-1}, so d_n has the same
    rank on the columns outside S.  When the algebra is unimodular, the
    wedge pairing into the top degree makes d_{2m-1-n} plus or minus the
    transpose of d_n, so only n < m is ranked.
    """
    basis = cm.basis
    m = basis.m
    if top_cohomology_is_line(cm):
        half = _cleared_ranks(cm, m)
        ranks = half + half[::-1]
    else:
        ranks = _cleared_ranks(cm, 2 * m)
    ranks = [0, *ranks, 0]
    return tuple(basis.total_dim(n) - ranks[n] - ranks[n + 1]
                 for n in range(2 * m + 1))


def euler_characteristic(betti):
    return sum((-1 if n & 1 else 1) * b for n, b in enumerate(betti))


@dataclass
class Check:
    """One verification outcome; ``informational`` failures do not signal bugs."""

    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False
    informational: bool = False


def consistency_report(dol, betti, m):
    """Frolicher inequalities, Euler equality, and (if applicable) Serre
    duality for the Dolbeault table ``dol`` = {(p, q): dim}."""
    checks = []
    for n in range(2 * m + 1):
        total = sum(dol.get((p, n - p), 0) for p in range(m + 1))
        checks.append(Check(
            "frolicher_inequality_degree_%d" % n,
            total >= betti[n],
            "sum h^{p,q} = %d >= b^%d = %d" % (total, n, betti[n])))
    chi_dol = sum((-1 if (p + q) & 1 else 1) * v for (p, q), v in dol.items())
    chi = euler_characteristic(betti)
    checks.append(Check("euler_characteristic", chi_dol == chi,
                        "alternating Hodge sum %d vs chi %d" % (chi_dol, chi)))
    if betti[2 * m] == 1:
        ok = all(dol.get((p, q), 0) == dol.get((m - p, m - q), 0)
                 for p in range(m + 1) for q in range(m + 1))
        checks.append(Check("serre_duality_dims", ok))
    else:
        checks.append(Check("serre_duality_dims", True,
                            "skipped: top Betti number is not 1", skipped=True))
    return checks
