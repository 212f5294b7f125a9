"""Spectral sequences of the filtered Chevalley-Eilenberg complex.

Each filtration comes as a basis of every degree adapted to it: F^p is
spanned by the generators of filtration value >= p.

* Hodge: F^p A^n = (Ker mubar ∩ A^{p,n-p}) ⊕ ⊕_{i>p} A^{i,n-i}.  In slot
  (p, q) the canonical basis of Ker mubar, ``Subspace.kernel``, has value
  p, and the unit vectors at the rows without its leading ones, a
  complement, have value p - 1.  E_1 is Dolbeault cohomology and the
  sequence converges to de Rham cohomology.
* Shifted: Ft^p A^n = ⊕_{i >= p-n} A^{i,n-i}, the monomial basis with value
  i + n on slot i; E_r^{p,n-p}(F) ≅ E_{r+1}^{p+n,-p}(Ft) for r >= 1.

Every page comes from one persistence-style column reduction of d per
degree (Zomorodian & Carlsson 2005; Basu & Parida, arXiv:1308.0801).  The
generators of a degree are ordered by (value, index), one order for the
columns of d_n and the rows of d_{n-1}.  Each column of d in the adapted
bases is reduced by the reduced columns of later generators, so the column
operations V preserve the filtration, until R = D V has distinct pivots
(earliest nonzero rows).  A column tau with pivot sigma pairs the two, with
gap r = value(sigma) - value(tau): d_r maps the class of tau onto that of
sigma, so the pair lives on E_0 .. E_r.  Unpaired generators give E_inf,
and the sequence degenerates at the first page past every gap, so the
reduction holds every page and the degeneration page with no cap.
``explicit_pages`` computes the same dimensions from witness-chain systems
as an independent oracle, each one ``forms.assemble`` call solved once per
call, and ``dolbeault_delta1`` the ranks of d_1 on Dolbeault classes from
the witness formula, as the oracle of the gap-1 pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import forms
from .cohomology import Check, ConsistencyError
from .forms import DELBAR, MUBAR, PARTIAL
from .linalg import Matrix, Subspace


def hodge_generators(cm, n):
    """(values, basis, coords) of the degree-n Hodge-adapted generators.

    ``basis`` holds the generators as columns, in (value, index) order, and
    ``coords`` is its exact inverse, read off K = Ker mubar_{p,q} with no
    further elimination.  K's canonical basis is the identity on its lead
    rows, where the unit vectors at the other rows vanish: a kernel
    vector's coordinate is the unit row at its lead row, and the unit
    vector at row r has as coordinate the equation of K at r.
    """
    total = cm.basis.total_dim(n)
    gens = []
    for p, q, off in cm.basis.slot_offsets(n):
        ker = Subspace.kernel(cm.block(MUBAR, p, q))
        lead = ker.lead_rows()
        rest = sorted(set(range(ker.ambient_dim)) - set(lead))
        gens += [(p, _embed(col, off, total), _unit(off + r, total))
                 for col, r in zip(ker.basis.columns(), lead)]
        gens += [(p - 1, _unit(off + r, total), _embed(eq, off, total))
                 for r, eq in zip(rest, ker.equations().entries)]
    gens.sort(key=lambda g: g[0])  # stable: ties keep the index order
    return ([g[0] for g in gens],
            Matrix.from_columns([g[1] for g in gens], ambient_rows=total),
            Matrix.from_rows([g[2] for g in gens]))


def shifted_generators(cm, n):
    """(values, None, None): the monomial basis, value i + n on slot i."""
    return ([p + n for p, q, _ in cm.basis.slot_offsets(n)
             for _ in range(cm.basis.dim(p, q))], None, None)


def _unit(i, size):
    return _embed([forms.ONE], i, size)


def _embed(vec, off, size):
    out = [forms.ZERO] * size
    out[off:off + len(vec)] = vec
    return out


@dataclass
class Reduction:
    """The filtered column reduction of d, one list entry per degree n,
    and every page of its spectral sequence.

    ``values[n]``: the generators' filtration values in (value, index)
    order; ``basis[n]``: the generators as columns (None: monomials);
    ``d[n]``: d on A^n in these bases; ``ops[n]`` and ``reduced[n]``: the
    columns of V and R = d[n] V as sparse {row: Scalar} dicts; ``gap[n]``:
    each generator's pair gap, None if unpaired.  A degree-n generator of
    value v sits in page slot (v, n - v).
    """

    values: list
    basis: list
    d: list
    ops: list
    reduced: list
    gap: list

    def dims(self, r):
        """Dims of E_r as {(p, q): dim}, zero entries left out: the
        generators unpaired or in a pair of gap >= r."""
        if r < 0:
            raise ValueError("page index must be >= 0")
        dims = {}
        for n, (values, gaps) in enumerate(zip(self.values, self.gap)):
            for v, g in zip(values, gaps):
                if g is None or g >= r:
                    dims[(v, n - v)] = dims.get((v, n - v), 0) + 1
        return dims

    def infinity(self):
        """Dims of E_inf: the unpaired generators."""
        return self.dims(math.inf)

    @functools.cached_property
    def degeneration_page(self):
        """The least r >= 1 with E_r = E_inf: one past the largest gap,
        as E_r keeps exactly the pairs of gap >= r."""
        return max([1] + [g + 1 for gaps in self.gap for g in gaps
                          if g is not None])

    def pairs(self, r):
        """[(slot of tau, slot of sigma)] for the pairs of gap r."""
        out = []
        for n, cols in enumerate(self.reduced):
            for tau, col in enumerate(cols):
                v = self.values[n][tau]
                if col and self.values[n + 1][min(col)] - v == r:
                    out.append(((v, n - v), (v + r, n + 1 - v - r)))
        return out


def reduce_filtration(cm, generators):
    """Reduce d once per degree in the bases from ``generators(cm, n)``,
    which returns (values, basis, coords) as ``hodge_generators`` does.

    Raises ConsistencyError naming the degree, the slot and the page r when
    d lowers a filtration value (a pair of gap r < 0) or a generator would
    be paired twice.
    """
    gens = [generators(cm, n) for n in range(2 * cm.m + 1)]
    gens.append(([], None, None))
    values = [g[0] for g in gens]
    gap = [[None] * len(v) for v in values]
    ds, ops, reduced = [], [], []
    for n, (src, tgt) in enumerate(zip(gens, gens[1:])):
        d = cm.total_matrix(n)
        d = d if src[1] is None else d @ src[1]
        d = d if tgt[2] is None else tgt[2] @ d
        cols = [{i: row[j] for i, row in enumerate(d.entries) if row[j]}
                for j in range(d.cols)]
        op = [None] * d.cols
        owner = {}  # pivot row -> its column
        for j in range(d.cols - 1, -1, -1):
            col, op[j] = cols[j], {j: forms.ONE}
            low = min(col, default=None)
            while low in owner:
                k = owner[low]
                f = col[low] / cols[k][low]
                _axpy(col, -f, cols[k])
                _axpy(op[j], -f, op[k])
                low = min(col, default=None)
            if low is not None:
                owner[low] = j
                r = tgt[0][low] - src[0][j]
                if r < 0 or gap[n][j] is not None:
                    raise ConsistencyError(
                        "degree %d, slot (p=%d,q=%d), page r=%d: %s"
                        % (n, src[0][j], n - src[0][j], r,
                           "generator paired twice" if r >= 0 else
                           "d lowers the filtration value"))
                gap[n][j] = gap[n + 1][low] = r
        ds.append(d)
        ops.append(op)
        reduced.append(cols)
    return Reduction(values[:-1], [g[1] for g in gens[:-1]], ds, ops,
                     reduced, gap[:-1])


def _axpy(x, a, y):
    """x += a y for sparse {index: Scalar} vectors, dropping zeros."""
    for i, b in y.items():
        s = x.get(i, forms.ZERO) + a * b
        if s:
            x[i] = s
        else:
            del x[i]


def frolicher_all(cm):
    """Every page of the Hodge filtration: its reduction."""
    return reduce_filtration(cm, hodge_generators)


def infinity_vs_betti(red, betti):
    """Check sum_p dim E_inf^{p, n-p} = b^n for all n."""
    checks = []
    dims = red.infinity()
    for n in range(len(red.values)):
        total = sum(dims.get((p, n - p), 0) for p in range(n + 1))
        checks.append(Check(
            "einf_equals_betti_degree_%d" % n, total == betti[n],
            "E_inf row sum %d vs b^%d = %d" % (total, n, betti[n])))
    return checks


# -- explicit witness-chain systems (independent page oracle) --------------


def explicit_cycles(cm, rows, cols):
    """Z_r^{p,q} from the witness chain (w, w_1 .. w_r), w_i in A^{p+i,q-i},
    on the grid's equation slots ``rows`` and witness slots ``cols``.

    Chain equations:  mubar w = 0;  delbar w = mubar w_1;
    partial w = mubar w_2 + delbar w_1;  mu w = mubar w_3 + delbar w_2 +
    partial w_1;  and homogeneous continuations for i = 4 .. r.  Equation i
    lands in A^{p+i-1,q-i+2}; Z_r is the w part of the solutions, so the
    system takes the witnesses with their sign flipped: every block enters
    with sign +1.
    """
    dim = cm.basis.dim(*cols[0])  # the slot (p, q) of w
    system = forms.assemble(cm.basis, rows, cols, cm.block)
    ker = Subspace.kernel(system).basis
    return Subspace.from_matrix_columns(
        Matrix(dim, ker.cols, ker.entries[:dim]))


def explicit_boundaries(cm, rows, cols):
    """B_r^{p,q} from the witness chain (e_1 .. e_{r+1}), e_i in
    A^{p+2-i,q-3+i}: the slots ``cols``, with the boundary slot
    (p, q) = rows[0] and the closing equation slots rows[1:], on the grid.

    The boundary form is  mubar e_1 + delbar e_2 + partial e_3 + mu e_4,
    taken over chains satisfying the homogeneous closing equations: closing
    equation j, in A^{p-j,q+j}, sums the chain tags over e_{j+1} .. e_{j+4}.
    """
    boundary = forms.assemble(cm.basis, rows[:1], cols, cm.block)
    system = forms.assemble(cm.basis, rows[1:], cols, cm.block)
    return Subspace.from_matrix_columns(
        boundary @ Subspace.kernel(system).basis)


def explicit_pages(cm, last):
    """[{(p, q): dim}] of the pages 1 .. ``last`` from the explicit witness
    systems, solved once each in one memo local to the call.

    Independent of the filtration route; asserts B_r is contained in Z_r.
    """
    if last < 1 or last > 2 * cm.m + 2:
        raise ValueError("explicit page index must lie in 1 .. 2m+2")
    memo = {}
    return [explicit_page(cm, r, memo) for r in range(1, last + 1)]


def explicit_page(cm, r, memo):
    """The dimensions {(p, q): dim} of page ``r`` from the witness systems,
    solved or read in ``memo`` (``explicit_spaces``)."""
    dims = {}
    for (p, q) in sorted(cm.basis.slots):
        z, b = explicit_spaces(cm, r, p, q, memo)
        if not z.contains(b):
            raise ConsistencyError(
                "explicit boundaries escape the cycles at r=%d (p=%d,q=%d)"
                % (r, p, q))
        if z.dim - b.dim:
            dims[(p, q)] = z.dim - b.dim
    return dims


def explicit_spaces(cm, r, p, q, memo):
    """(Z_r^{p,q}, B_r^{p,q}) from the witness systems of r links, each
    memoised in the dict ``memo`` by its solver and its slots on the grid:
    the slots off it add only empty blocks, so pages that share ``memo``
    solve each distinct system once."""
    slots = cm.basis.slots
    spaces = []
    for solver, rows, cols in (
            (explicit_cycles, [(p + i - 1, q - i + 2) for i in range(r + 1)],
             [(p + i, q - i) for i in range(r + 1)]),
            (explicit_boundaries, [(p - j, q + j) for j in range(r + 1)],
             [(p + 1 - j, q - 2 + j) for j in range(r + 1)])):
        key = (solver.__name__, tuple(s for s in rows if s in slots),
               tuple(s for s in cols if s in slots))
        if key not in memo:
            memo[key] = solver(cm, *key[1:])
        spaces.append(memo[key])
    return spaces


def dolbeault_delta1(cm, dol):
    """delta_1 via the witness formula, one matrix Q per slot.

    For a cocycle w, mubar w = 0 and delbar w = mubar eta, the image is
    [partial w - delbar eta] in H_Dol^{p+1, q}.  One solve gives the
    witnesses of the cocycles Z of ``dol``, whose images must be cocycles
    of slot (p + 1, q); Q = E (partial Z - delbar eta), E the equations of
    the coboundaries there.  Z maps onto the classes, so rank Q is the
    rank of delta_1 once it maps coboundaries to coboundaries, which
    ``witness_independent`` checks.  Off the grid the target is k^0.
    """
    mats = {}
    for (p, q) in cm.basis.slots:
        src = dol.cocycles[(p, q)].basis
        tgt_cocycles, tgt_coboundaries = dol.spaces(p + 1, q)
        eta = cm.block(MUBAR, p + 1, q - 1).solve(cm.block(DELBAR, p, q) @ src)
        if eta is None:
            raise ConsistencyError(
                "no mubar-witness at (%d, %d): a cocycle is not a page-1 "
                "cycle" % (p, q))
        image = (cm.block(PARTIAL, p, q) @ src
                 - cm.block(DELBAR, p + 1, q - 1) @ eta)
        if not (tgt_cocycles.equations() @ image).is_zero():
            raise ConsistencyError(
                "delta_1 image is not a Dolbeault cocycle at (%d, %d)"
                % (p, q))
        mats[(p, q)] = tgt_coboundaries.equations() @ image
    return mats


def witness_independent(cm, dol, delta1, p, q):
    """Whether the witness ``delta1`` of slot (p, q) is well defined on
    Dolbeault classes, the input of that oracle (not the reduction).

    Another witness eta + k, k in Ker mubar_{p+1,q-1}, moves the image by
    delbar k, so delbar Ker mubar_{p+1,q-1} must lie in the coboundaries
    of (p + 1, q), as ``cohomology.dolbeault`` builds them.  And delta_1
    must map the coboundaries B of (p, q) into those: B = Z C, C the rows
    of B's basis at the lead rows of the cocycles Z, so Q C = 0 for the
    Q of ``dolbeault_delta1``.  A witness formula with the sign of
    delbar eta flipped fails it.
    """
    if dol.dim(p, q) == 0:
        return True
    cocycles, coboundaries = dol.spaces(p, q)
    _, tgt_coboundaries = dol.spaces(p + 1, q)
    kernel = Subspace.kernel(cm.block(MUBAR, p + 1, q - 1)).basis
    coords = Matrix(cocycles.dim, coboundaries.dim,
                    [coboundaries.basis.entries[r]
                     for r in cocycles.lead_rows()])
    return ((tgt_coboundaries.equations()
             @ (cm.block(DELBAR, p + 1, q - 1) @ kernel)).is_zero()
            and (delta1[(p, q)] @ coords).is_zero())


def decalage_check(cm, hodge):
    """The entry ``decalage``: shifted-filtration pages vs the Hodge
    reduction ``hodge``.

    Checks  dim E_r^{p,n-p}(F) = dim E_{r+1}^{p+n,-p}(Ft)  for r = 1 ..
    2m+2, and the subspace identity F^p A^n = Dec Ft^p A^n.  A failure
    names the first page and slot, else the first degree n and p.
    """
    m = cm.m
    shifted = reduce_filtration(cm, shifted_generators)
    for r in range(1, 2 * m + 3):
        ph = hodge.dims(r)
        ps = shifted.dims(r + 1)
        for (p, q) in sorted(cm.basis.slots):
            # the slot (p, n - p) of E_r(F) is (p + n, -p) of E_{r+1}(Ft)
            lhs = ph.get((p, q), 0)
            rhs = ps.get((2 * p + q, -p), 0)
            if lhs != rhs:
                return Check("decalage", False,
                             "fails on page %d, slot (%d, %d): %d vs "
                             "shifted %d" % (r, p, q, lhs, rhs))
    for n in range(2 * m + 1):
        d = cm.total_matrix(n)
        nxt = shifted.values[n + 1] if n < 2 * m else []
        for p in range(n + 2):
            # Dec Ft^{p+n} A^n: the forms in Ft^{p+n} A^n (slots >= p) whose
            # d has no part in the slots < p of degree n + 1
            src = [j for j, v in enumerate(shifted.values[n]) if v >= p + n]
            out = [j for j, v in enumerate(shifted.values[n]) if v < p + n]
            low = [i for i, v in enumerate(nxt) if v <= p + n]
            block = Matrix(len(low), len(src), [[d.entries[i][j] for j in src]
                                                for i in low])
            gens = [g for g, v in zip(hodge.basis[n].columns(),
                                      hodge.values[n]) if v >= p]
            if not (block.cols - block.rank() == len(gens) and all(
                    not any(g[j] for j in out)
                    and not any(block.apply([g[j] for j in src]))
                    for g in gens)):
                return Check("decalage", False,
                             "subspace identity fails in degree %d at p = %d"
                             % (n, p))
    return Check("decalage", True)
