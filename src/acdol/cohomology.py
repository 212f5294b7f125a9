"""Independent cohomology routes: the oracles of the verification battery.

The production tables of ``pipeline.analyze`` come from the Hodge reduction
in ``spectral``: h_dol is its first page, the Betti numbers count its
unpaired generators and h_mub reads the ranks of the mubar blocks.  The
routes here compute the same tables another way, as cocycles modulo
coboundaries per slot, with no basis of the quotient, and the battery
compares them with the reduction:

* mubar-cohomology slot by slot, as Ker/Im since mubar^2 = 0;
* Dolbeault cohomology from the zig-zag description

      H_Dol^{p,q} = {w in Ker mubar : delbar w in Im mubar}
                    / {w = mubar a + delbar b with mubar b = 0},

  which reduces to classical delbar-cohomology when mubar = 0, with the
  cocycles read in the canonical coordinates of Ker mubar and the
  coboundaries in the coordinates of the quotient by Im mubar, both from
  one product E delbar K per slot, and as the cohomology of delbar
  induced on mubar-classes, read off its ranks;
* de Rham Betti numbers from the real Chevalley-Eilenberg complex of the
  input basis, built by the Leibniz rule of ``forms.derivation`` from the
  real structure constants ``cm.brackets`` cleared to integers: no
  frame, no complexification and no block of ``cm``.  The Betti numbers
  do not depend on the basis, and in the input basis d is sparse with
  small integer entries.  When the algebra is unimodular only half the
  degrees are ranked: Poincare duality pairs d_n with d_{2m-1-n}.  The
  ranks are taken in order of degree and cleared (Chen and Kerber,
  "Persistent homology computation with a twist", 2011): d_n is ranked
  only on the columns outside a maximal independent set of rows of
  d_{n-1}, which leaves its rank unchanged because d_n kills Im d_{n-1}.

Ker and Im of one Matrix are eliminated once (``linalg`` memoises them on
the instance), so the mubar kernels and images that ``mub_cohomology``
and ``dolbeault`` both read cost one elimination each, and the kernel and
the span of one E delbar K serve two slots of ``dolbeault``.  A failed
quotient names its route ("mubar", "dolbeault") and its slot.

The module also holds the shared ``Check`` record, ``ConsistencyError`` and
the Frolicher/Euler/Serre ``consistency_report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm

from . import forms
from .forms import DELBAR, MUBAR
from .kernel import ZERO, Scalar
from .linalg import Matrix, Subspace


class ConsistencyError(RuntimeError):
    """An internal exact identity failed; indicates a bug, not bad input."""


@dataclass
class CohomologyTable:
    """Cocycles, coboundaries and the dimension of their quotient per
    (p, q) slot.  Every reader takes a dimension or a rank, so no basis of
    the quotient is kept."""

    m: int
    dims: dict
    cocycles: dict
    coboundaries: dict

    def dim(self, p, q):
        return self.dims.get((p, q), 0)

    def spaces(self, p, q):
        """(cocycles, coboundaries) of slot (p, q); off the grid both are
        the zero subspace of k^0."""
        zero = Subspace.zero(0)
        return (self.cocycles.get((p, q), zero),
                self.coboundaries.get((p, q), zero))


def _quotient_table(route, m, parts):
    """The quotients num / den of ``parts`` = {(p, q): (num, den)}; a
    failure names ``route`` and the slot."""
    for (p, q), (num, den) in parts.items():
        if not num.contains(den):
            raise ConsistencyError(
                "%s: coboundaries are not cocycles on slot (%d, %d)"
                % (route, p, q))
    return CohomologyTable(
        m, {pq: num.dim - den.dim for pq, (num, den) in parts.items()},
        {pq: num for pq, (num, _) in parts.items()},
        {pq: den for pq, (_, den) in parts.items()})


def operator_cohomology(cm, tag):
    """Slotwise Ker/Im cohomology of one anticommuting square-zero block."""
    basis = cm.basis
    dp, dq = forms.BIDEGREE[tag]
    parts = {}
    for (p, q) in basis.slots:
        ker = Subspace.kernel(cm.block(tag, p, q))
        img = Subspace.from_matrix_columns(cm.block(tag, p - dp, q - dq))
        parts[(p, q)] = (ker, img)
    return _quotient_table(tag, basis.m, parts)


def mub_cohomology(cm):
    """mubar-cohomology, slot by slot."""
    return operator_cohomology(cm, MUBAR)


def dolbeault(cm):
    """Dolbeault cohomology via the witness description.

    Per slot, with K the canonical basis of Ker(mubar) and E the equations
    of Im(mubar) one row up, the quotient coordinates E delbar K are formed
    once and serve twice.  Their kernel gives the cocycles K Ker(E delbar
    K): the forms of Ker(mubar) whose delbar lands in Im(mubar).  K is the
    identity on its lead rows, so the product of K with an RCEF basis is
    again in RCEF and the cocycles are canonical with no further
    elimination.  Their column span gives the coboundaries of the slot one
    row up, Im(mubar) + delbar(Ker(mubar)), as ``Subspace.extended``: one
    RCEF of the dim K columns in the coordinates of the quotient by
    Im(mubar), not of the stacked [mubar | delbar K].  On the row q = 0
    the coboundaries are zero.
    """
    m = cm.basis.m
    parts = {}
    for p in range(m + 1):
        for q in range(m + 1):
            ker = Subspace.kernel(cm.block(MUBAR, p, q)).basis
            # image and quotient are those of the slot below
            den = (image.extended(quotient) if q
                   else Subspace.zero(ker.rows))
            image = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 1))
            quotient = image.equations() @ (cm.block(DELBAR, p, q) @ ker)
            num = Subspace(ker.rows, ker @ Subspace.kernel(quotient).basis)
            parts[(p, q)] = (num, den)
    return _quotient_table("dolbeault", m, parts)


def induced_delbar(cm, mub_table):
    """{(p, q): rank of delbar induced on mubar-classes out of (p, q)}.

    With K = Ker mubar_{p,q} and B = Im mubar_{p,q+1} it is rank
    [delbar K | B] - dim B, one forward elimination, once products show
    delbar K in Ker mubar_{p,q+1} and delbar Im mubar in B (a failure
    names "mubar" and the slot).  Not rank E delbar K, E the equations of
    B: ``dolbeault`` eliminates that very matrix, and the cross-check of
    the two routes could not fail.
    """
    ranks = {}
    for (p, q) in cm.basis.slots:
        ker, img = mub_table.spaces(p, q)
        tgt_ker, tgt_img = mub_table.spaces(p, q + 1)
        delbar = cm.block(DELBAR, p, q)
        image = delbar @ ker.basis
        if not (tgt_ker.equations() @ image).is_zero():
            raise ConsistencyError(
                "mubar: delbar of the cocycles leaves Ker mubar at (%d, %d)"
                % (p, q))
        if not (tgt_img.equations() @ (delbar @ img.basis)).is_zero():
            raise ConsistencyError(
                "mubar: delbar of the coboundaries leaves Im mubar at "
                "(%d, %d)" % (p, q))
        ranks[(p, q)] = image.hstack(tgt_img.basis).rank() - tgt_img.dim
    return ranks


def cohomology_dims(dims, ranks):
    """Dims of the cohomology of a square-zero slotwise operator along q,
    from the dims of its source spaces and its ranks, {(p, q): rank of
    the map out of slot (p, q)}; zero entries left out."""
    out = {}
    for (p, q), dim in dims.items():
        dim -= ranks.get((p, q), 0) + ranks.get((p, q - 1), 0)
        if dim:
            out[(p, q)] = dim
    return out


def top_cohomology_is_line(cm):
    """Whether H^{2m} of the total complex is one-dimensional, that is,
    whether d vanishes on (2m-1)-forms: the Lie algebra is unimodular."""
    return cm.total_matrix(2 * cm.m - 1).is_zero()


def _monomials(dim, n):
    """The degree-n monomials of ``dim`` generators as bit masks, in the
    lexicographic order of their generator sets."""
    return [sum(1 << g for g in gens) for gens in combinations(range(dim), n)]


def _input_derivation(cm):
    """``forms.derivation`` of the real structure constants ``cm.brackets``
    times their least common denominator: an integer multiple of d in
    every degree, since d is linear in the constants, so of d's ranks."""
    consts = cm.brackets
    den = lcm(*(c.denominator for plane in consts for row in plane
                for c in row))
    return forms.derivation([[[c.numerator * (den // c.denominator)
                               for c in row] for row in plane]
                             for plane in consts])


def _transposed_differential(d, dim, n, cleared):
    """The transpose of d_n on the real complex of ``dim`` generators:
    row j is d e_j, for the j-th degree-n monomial of ``_monomials`` whose
    index is not in ``cleared``, over the degree-(n + 1) monomials in the
    same order."""
    targets = {mono: i for i, mono in enumerate(_monomials(dim, n + 1))}
    rows = []
    for j, mono in enumerate(_monomials(dim, n)):
        if j in cleared:
            continue
        row = [ZERO] * len(targets)
        for key, c in d(mono).items():
            if c:
                row[targets[key]] = Scalar(c)
        rows.append(row)
    return Matrix(len(rows), len(targets), rows)


def _cleared_ranks(d, dim, degrees):
    """The ranks of d_n for n < ``degrees``, each with the columns that
    the previous degree's pivots clear left out (``de_rham`` says why the
    rank does not change).  The pivots of the forward elimination of the
    transpose are independent rows of d_n, as many as its rank, and each
    names a monomial of degree n + 1, which the next degree clears."""
    ranks = []
    cleared = ()
    for n in range(degrees):
        cleared = set(_transposed_differential(d, dim, n, cleared).pivots())
        ranks.append(len(cleared))
    return ranks


def de_rham(cm):
    """Betti numbers of the real Chevalley-Eilenberg complex of the input
    basis, which reads only ``cm.brackets``.

    Each rank of d_n is taken in order of degree and cleared
    (``_cleared_ranks``): for S a maximal independent set of rows of
    d_{n-1}, A^n is the direct sum of Im d_{n-1} and the coordinates
    outside S, and d_n kills Im d_{n-1}, so d_n has the same rank on the
    columns outside S.  When d_{2m-1} = 0 the algebra is unimodular, and
    the wedge pairing into the top degree makes d_{2m-1-n} plus or minus
    the transpose of d_n, so only n < m is ranked.
    """
    d = _input_derivation(cm)
    dim = 2 * cm.m
    if any(c for mono in _monomials(dim, dim - 1) for c in d(mono).values()):
        ranks = _cleared_ranks(d, dim, dim)
    else:
        half = _cleared_ranks(d, dim, cm.m)
        ranks = half + half[::-1]
    ranks = [0, *ranks, 0]
    return tuple(comb(dim, n) - ranks[n] - ranks[n + 1]
                 for n in range(dim + 1))


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


def slot_check(name, slots, holds):
    """The battery entry ``name`` of the identity ``holds(p, q)`` on
    ``slots``, taken in their order (p-major on the grid): its detail names
    the first slot the identity fails on, and is empty on a pass."""
    bad = next((pq for pq in slots if not holds(*pq)), None)
    return Check(name, bad is None,
                 "" if bad is None else "fails on slot (%d, %d)" % bad)


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
        checks.append(slot_check(
            "serre_duality_dims",
            [(p, q) for p in range(m + 1) for q in range(m + 1)],
            lambda p, q: dol.get((p, q), 0) == dol.get((m - p, m - q), 0)))
    else:
        checks.append(Check("serre_duality_dims", True,
                            "skipped: top Betti number is not 1", skipped=True))
    return checks
