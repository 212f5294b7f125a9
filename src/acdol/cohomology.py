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

  which reduces to classical delbar-cohomology when mubar = 0, and as the
  cohomology of delbar induced on mubar-classes;
* de Rham Betti numbers from the ranks of the total complex.

The module also holds the shared ``Check`` record, ``ConsistencyError`` and
the Frolicher/Euler/Serre ``consistency_report``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import forms
from .forms import DELBAR, MUBAR
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

    Numerator: forms in Ker(mubar) whose delbar lands in Im(mubar), the
    kernel of mubar stacked on the equations of Im(mubar) after delbar.
    Denominator: Im(mubar) + delbar(Ker(mubar) one row down), the span of
    [mubar | delbar N] for a kernel basis N.
    """
    basis = cm.basis
    parts = {}
    for (p, q) in basis.slots:
        im_mub_above = Subspace.from_matrix_columns(
            cm.block(MUBAR, p + 1, q - 1))
        num = Subspace.kernel(cm.block(MUBAR, p, q).vstack(
            im_mub_above.equations() @ cm.block(DELBAR, p, q)))
        ker_below = cm.block(MUBAR, p, q - 1).nullspace_matrix()
        den = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 2).hstack(
            cm.block(DELBAR, p, q - 1) @ ker_below))
        parts[(p, q)] = (num, den)
    return _quotient_table(basis.m, parts)


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


def de_rham(cm):
    """Complex Betti numbers of the total Chevalley-Eilenberg complex."""
    basis = cm.basis
    two_m = 2 * basis.m
    betti = []
    for n in range(two_m + 1):
        dn = cm.total_matrix(n)
        betti.append(dn.cols - dn.rank() - cm.total_matrix(n - 1).rank())
    return tuple(betti)


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
