"""Metric-dependent harmonic theory on the bigraded complex.

The compatible inner product g on the Lie algebra induces a Hermitian inner
product on forms.  The layer runs on the plain frame Z_a = X_a - i J X_a
of every other stage, which need not be orthogonal: H_ab = Z_a^T g conj(Z_b)
is the Hermitian Gram of the frame, K = H^{-1} that of the (1,0)-coframe,
and the Gram matrix of slot (p, q), with G[k, l] = <e_l, e_k>, is read off
K by Cauchy-Binet,

    G[(S, T), (S', T')] = det K[S, S'] conj(det K[T, T']),

a monomial t^S ∧ tbar^T pairing its holomorphic and antiholomorphic parts
separately.  G^{-1} is the same construction on H, so K = H^{-1}, an
m x m inverse, is the one elimination of the Gram data.  The Hodge star is
determined slotwise by

    w ∧ ⋆(conj e) = <w, e> Ω,

with the volume form Ω = vol t^full ∧ tbar^full, vol = eps i^m / det K, of
unit length in the orientation induced by J.  Then ⋆ = vol Π G, Π sending
each monomial to its signed complement.

The layer only computes; the battery checks each of its identities once
per layer that something reads, as a ``Check`` naming the failing slot.
``star_check`` covers ⋆1 = Ω, |Ω| = 1 and ⋆⋆ = (-1)^degree (Jacobi's
complementary-minor identity on a dense G), ``mub_decomposition`` the
mubar Hodge decomposition and ``delb_mub_checks`` delbar_mub^2 = 0; the
metric probe certifies its own layer's decomposition and square, and
builds no ⋆.  Every such identity is one exact matrix equation per slot
over all basis pairs: the defining property P ⋆ C = conj(G) vol (P the
top-degree wedge pairing, C the conjugation), the isometry
⋆^H G ⋆ = G, and orthogonality V^H G U = 0 of the parts of a Hodge
decomposition.  Slot blocks of the components and of their adjoints are
zero-shaped off the (p, q) grid, so anticommutators such as the
Laplacians [δ, δ*] are composed by one memoised method,
``anticommutator``, without special cases.

Each adjoint is the Gram adjoint  δ* = G_src^{-1} δ^H G_tgt, the adjoint
of the finite-dimensional complex on every Lie algebra, formed as products
over the memoised G and G^{-1} of each slot.  G is block diagonal over the
slots of a degree, so d* is these blocks, assembled by ``forms.assemble``.
A δ-harmonic space is Ker δ ∩ Ker δ*, one stacked kernel per slot; it is
Ker Δ_δ and, when δ² = 0, it is isomorphic to the cohomology of δ, with no
hypothesis on the algebra.  The star formula -⋆ δ̄ ⋆ (δ̄ the conjugate
component) is the L² adjoint only on a unimodular algebra (Milnor 1976),
so it is no route here: ``star_adjoint`` writes it once, as the oracle
``adjointness_checks`` compares with δ*, always for mubar, and for delbar
when the top cohomology is a line.  On top of the mubar Hodge
decomposition  A^{p,q} = Im(mubar) ⊕ H_mubar ⊕ Im(mubar*)  lives the
operator  delbar_mub = (harmonic projection) ∘ delbar, which squares to
zero and whose cohomology has the Dolbeault dimensions; its harmonic
spaces realise Dolbeault cohomology, so their dims are metric-independent.
The three parts are G-orthogonal, so the harmonic projection is the
G-orthogonal one: with H a basis of H_mubar and M = H^H G H its Gram
matrix, a form x has harmonic coordinates M^{-1} (G H)^H x.  So
delbar_mub on a slot is op = M^{-1} N, one solve, from the compression
N_q = (G H)_{q+1}^H delbar H_q of delbar; its adjoint in the pairing M is
M^{-1} N^H, and its harmonic space is Ker [N_q; N_{q-1}^H], with no
inverse formed.

The layer is built once per analysis and is the one handle on a metric:
``_memoized`` caches every operator of ``HermitianStructure`` (the Gram
matrices and the stacked [d; d*] included), ``delb_mub`` and
``mixed_laplacian_fit`` in the instance, so a layer's cache is freed with
it; every check takes the layer.  Every layer comes from one constructor,
``build_hermitian``, on the analysis's own frame and differential: the
probe builds only new Gram matrices for its other metric, and reads the
differential's memoised spans and kernels.
"""

from __future__ import annotations

import functools

from . import forms, liealg
from .cohomology import (Check, ConsistencyError, cohomology_dims,
                         slot_check, top_cohomology_is_line)
from .forms import BIDEGREE, CONJUGATE_TAG, DELBAR, MU, MUBAR, PARTIAL
from .kernel import I, ONE, ZERO, from_rational
from .linalg import Matrix, Subspace


def _memoized(method):
    """Cache ``method`` per instance (its first argument, a layer) and
    arguments, in the instance."""
    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__,) + args
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]
    return cached


def _minors(a):
    """{S: {T: det a[S, T]}} over the row and column sets S, T of one size,
    as bitmasks, the nonzero minors only, by Laplace expansion along the
    first row of S."""
    n = a.rows
    by_size = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_size[mask.bit_count()].append(mask)
    out = {0: {0: ONE}}
    for size in range(1, n + 1):
        for s in by_size[size]:
            low = s & -s
            row = a.entries[low.bit_length() - 1]
            below = out[s ^ low]
            out[s] = dets = {}
            for t in by_size[size]:
                acc = ZERO
                negate = False
                rest = t
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    x = row[bit.bit_length() - 1]
                    sub = below.get(t ^ bit)
                    if x and sub:
                        acc = acc - x * sub if negate else acc + x * sub
                    negate = not negate
                if acc:
                    dets[t] = acc
    return out


class HermitianStructure:
    """Slotwise Gram matrices, Hodge star, adjoints and anticommutators
    (all cached) of the metric ``metric`` on the frame ``frame``, whose
    differential is ``cm``."""

    def __init__(self, cm, frame, metric):
        self.cm = cm
        self.basis = cm.basis
        self.m = cm.m
        self.frame = frame
        # H_ab = Z_a^T g conj(Z_b); the (1,0)-coframe has Gram K = H^{-1}
        z = Matrix.from_columns(frame.vectors)
        g = Matrix.from_rows([[from_rational(x) for x in row]
                              for row in metric])
        self.frame_gram = z.transpose() @ g @ z.conj()
        self._minors_k = _minors(self.frame_gram.inverse())
        self._minors_h = _minors(self.frame_gram)
        self._cache = {}
        full = (1 << self.m) - 1
        self.top_monomial = (full, full)
        # vol = eps i^m / det K = eps i^m det H, so that |vol|^2 G_top = 1
        coeff = from_rational(-1 if (self.m * (self.m - 1) // 2) % 2 else 1)
        for _ in range(self.m):
            coeff = coeff * I
        self.volume_coeff = coeff * self._minors_h[full][full]

    # -- Gram ----------------------------------------------------------------

    def _compound(self, minors, p, q):
        """The slot (p, q) matrix with entry det A[S, S'] conj(det A[T, T'])
        at ((S, T), (S', T')), ``minors`` those of A."""
        index = self.basis.index.get((p, q), {})
        rows = []
        for s, t in self.basis.monomials(p, q):
            row = [ZERO] * len(index)
            for s2, a in minors[s].items():
                for t2, b in minors[t].items():
                    row[index[(s2, t2)]] = a * b.conj()
            rows.append(row)
        return Matrix(len(rows), len(rows), rows)

    @_memoized
    def gram(self, p, q):
        """The Gram matrix of slot (p, q), G[k, l] = <e_l, e_k>: the minors
        of K on the holomorphic generators times those of conj(K) on the
        antiholomorphic ones (Cauchy-Binet); zero-shaped off the grid."""
        return self._compound(self._minors_k, p, q)

    @_memoized
    def gram_inverse(self, p, q):
        """G^{-1} of slot (p, q), the same construction on H = K^{-1}."""
        return self._compound(self._minors_h, p, q)

    # -- Hodge star ----------------------------------------------------------

    @_memoized
    def star(self, p, q):
        """Matrix of ⋆ = vol Π G : (p, q) -> (m-q, m-p), Π sending each
        monomial to its signed complement; zero-shaped off the grid."""
        basis = self.basis
        m = self.m
        full = (1 << m) - 1
        gram = self.gram(p, q)
        rows = [None] * basis.dim(m - q, m - p)
        for k, (s_mask, t_mask) in enumerate(basis.monomials(p, q)):
            flip = (t_mask, s_mask)
            comp = (full ^ t_mask, full ^ s_mask)
            res = forms.wedge_monomials(flip, comp)
            if res is None or res[1] != self.top_monomial:
                raise ConsistencyError(
                    "complementary monomial bookkeeping failed on slot "
                    "(%d, %d)" % (p, q))
            x = self.volume_coeff
            if ((p * q) & 1) != (res[0] < 0):
                x = -x
            rows[basis.index[(m - q, m - p)][comp]] = [
                x * e if e else ZERO for e in gram.entries[k]]
        return Matrix(len(rows), gram.cols, rows)

    def check_star_involution(self, p, q):
        """⋆⋆ = (-1)^(p+q) on the slot; on a dense G this is Jacobi's
        complementary-minor identity."""
        sign = -ONE if (p + q) & 1 else ONE
        return (self.star(self.m - q, self.m - p) @ self.star(p, q)
                == Matrix.identity(self.basis.dim(p, q)).scale(sign))

    def check_star_defining(self, p, q):
        """w ∧ ⋆(conj e) = <w, e> Ω on every basis pair of the slot, as one
        matrix equation  P ⋆_(q,p) C_(p,q) = conj(G_(p,q)) vol  with P the
        wedge pairing of (p, q) with (m-p, m-q) and C the conjugation
        matrix: entry (k, l) is <e_k, e_l>, the conjugate of G[k, l]."""
        m = self.m
        pairing = []
        for w in self.basis.monomials(p, q):
            row = []
            for e in self.basis.monomials(m - p, m - q):
                res = forms.wedge_monomials(w, e)
                row.append(ZERO if res is None else from_rational(res[0]))
            pairing.append(row)
        lhs = (Matrix(len(pairing), self.basis.dim(m - p, m - q), pairing)
               @ self.star(q, p) @ forms.conjugation_matrix(self.basis, p, q))
        return lhs == self.gram(p, q).conj().scale(self.volume_coeff)

    def check_star_isometry(self, p, q):
        """<⋆a, ⋆b> = <b, a> on all basis pairs of the slot:
        ⋆^H G_tgt ⋆ = G_src."""
        st = self.star(p, q)
        return (st.conj_transpose() @ self.gram(self.m - q, self.m - p) @ st
                == self.gram(p, q))

    def bar_star_image(self, p, q, sub):
        """Image of a slot subspace under bar-star, ⋆ followed by
        conjugation (p, q) -> (m-p, m-q): the span of C conj(⋆ basis)."""
        m = self.m
        return Subspace.from_matrix_columns(
            forms.conjugation_matrix(self.basis, m - q, m - p)
            @ (self.star(p, q) @ sub.basis).conj())

    # -- adjoints and Laplacians ----------------------------------------------

    @_memoized
    def adjoint_block(self, tag, p, q):
        """delta* on slot (p, q), the Gram adjoint of the delta block that
        lands in it: (p, q) -> (p-dp, q-dq), zero-shaped off the grid like
        cm.block."""
        dp, dq = BIDEGREE[tag]
        src = (p - dp, q - dq)
        return self.gram_inverse(*src) @ (
            self.cm.block(tag, *src).conj_transpose() @ self.gram(p, q))

    @_memoized
    def d_stacked(self, n):
        """The stacked [d; d*] on the total degree-n space: its kernel is
        the d-harmonic space Ker d ∩ Ker d* of degree n.  G is block
        diagonal over the slots, so d* is the slot adjoints, assembled."""
        slots = self.basis.degree_slots
        return self.cm.total_matrix(n).vstack(forms.assemble(
            self.basis, slots(n - 1), slots(n), self.adjoint_block, sign=-1))

    @_memoized
    def anticommutator(self, a, b, p, q):
        """[A, B] = AB + BA on slot (p, q) for the odd operators of
        ``_operators`` keyed ``a`` and ``b``."""
        ops = _operators(self)
        (ap, aq), a_block = ops[a]
        (bp, bq), b_block = ops[b]
        return (a_block(p + bp, q + bq) @ b_block(p, q)
                + b_block(p + ap, q + aq) @ a_block(p, q))

    @_memoized
    def harmonic_space(self, tag, p, q):
        """The delta-harmonic space Ker δ ∩ Ker δ* of slot (p, q), one
        kernel of the stacked [δ; δ*]; off the grid both blocks have no
        columns, so it is the zero space of k^0."""
        return Subspace.kernel(self.cm.block(tag, p, q).vstack(
            self.adjoint_block(tag, p, q)))

    @_memoized
    def harmonic(self, tag):
        """The delta-harmonic spaces of the grid, {(p, q): space}."""
        return {pq: self.harmonic_space(tag, *pq) for pq in self.basis.slots}

    @_memoized
    def d_harmonic(self):
        """Slotwise d-harmonic spaces  Ker d ∩ Ker d* ∩ A^{p,q}: the kernel
        of the slot's columns of ``d_stacked``."""
        out = {}
        for n in range(2 * self.m + 1):
            stacked = self.d_stacked(n)
            for p, q, off in self.basis.slot_offsets(n):
                dim = self.basis.dim(p, q)
                cols = Matrix(stacked.rows, dim,
                              [row[off:off + dim] for row in stacked.entries])
                out[(p, q)] = Subspace.kernel(cols)
        return out


def build_hermitian(cm, frame, metric):
    return HermitianStructure(cm, frame, metric)


def star_check(hs):
    """The battery entry of the Hodge star: ⋆1 = Ω, |Ω| = 1, and on every
    slot ⋆⋆ = (-1)^degree, the defining property and the isometry.  Its
    detail names each failing identity with its first failing slot."""
    m = hs.m
    basis = hs.basis
    vol = hs.volume_coeff
    vol_idx = basis.index[(m, m)][hs.top_monomial]
    failed = []
    one = hs.star(0, 0).col(0)
    if one[vol_idx] != vol or any(
            v for i, v in enumerate(one) if i != vol_idx):
        failed.append("⋆1 is not the volume form on slot (0, 0)")
    if hs.gram(m, m).entries[vol_idx][vol_idx] * vol * vol.conj() != ONE:
        failed.append("volume form is not unit length on slot (%d, %d)"
                      % (m, m))
    for name, holds in (("⋆⋆ != (-1)^degree", hs.check_star_involution),
                        ("⋆ defining property fails", hs.check_star_defining),
                        ("⋆ isometry fails", hs.check_star_isometry)):
        bad = next((pq for pq in basis.slots if not holds(*pq)), None)
        if bad:
            failed.append("%s on slot (%d, %d)" % (name, *bad))
    return Check("star_defining_and_isometry", not failed, "; ".join(failed))


# -- mubar Hodge decomposition ------------------------------------------------


def mub_decomposition(hs):
    """The certificate of the mubar Hodge decomposition A^{p,q} =
    Im(mubar) ⊕ H_mubar ⊕ Im(mubar*), orthogonal, of every slot, as the
    battery entry ``mubar_hodge_decomposition``: its detail names the slots
    it fails, in slot order, each with the dims of its three parts.  G is
    positive definite, so G-orthogonal parts are independent and span the
    slot when their dims add up."""
    cm = hs.cm
    harm = hs.harmonic(MUBAR)
    failed = []
    for (p, q) in sorted(hs.basis.slots):
        dim = hs.basis.dim(p, q)
        parts = (Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 2)),
                 harm[(p, q)],
                 Subspace.from_matrix_columns(
                     hs.adjoint_block(MUBAR, p - 1, q + 2)))
        if not (sum(sub.dim for sub in parts) == dim
                and _pairwise_orthogonal(hs, p, q, parts)):
            failed.append("mubar_decomposition_%d_%d (dims %d + %d + %d vs "
                          "slot %d)" % (p, q, *(sub.dim for sub in parts),
                                        dim))
    return Check("mubar_hodge_decomposition", not failed, "; ".join(failed))


def _pairwise_orthogonal(hs, p, q, subs):
    """V^H G U = 0 for every pair U, V of the subspaces ``subs`` of slot
    (p, q)."""
    gram = hs.gram(p, q)
    return all((v.basis.conj_transpose() @ gram @ u.basis).is_zero()
               for i, u in enumerate(subs) for v in subs[i + 1:])


# -- the delbar_mub operator ---------------------------------------------------


def space_dims(spaces):
    """{(p, q): dim} of the slot spaces ``spaces``, zero entries left out."""
    return {pq: space.dim for pq, space in spaces.items() if space.dim}


@_memoized
def delb_mub(hs):
    """delbar_mub = H_mubar ∘ delbar restricted to mubar-harmonics, as the
    dicts (op, harmonic) over the slots, memoised on the layer ``hs``.

    ``op[(p, q)]`` takes coordinates in the basis of the mubar-harmonic
    space ``hs.harmonic(MUBAR)[(p, q)]`` to those of slot (p, q + 1), a
    matrix with no rows on q = m: op = M^{-1} N (see the module
    docstring), H_mubar being the zero space of k^0 off the grid.
    ``harmonic[(p, q)]`` is Ker(delbar_mub) ∩ Ker(delbar_mub*) lifted into
    the slot, read as H Ker [N_q; N_{q-1}^H], a product of two canonical
    bases: H is the identity on its lead rows, so the product is canonical
    with no further elimination.  It only computes: M = H^H G H is
    invertible whatever the decomposition, H being a kernel basis and G
    positive definite, and the battery checks the decomposition
    (``mub_decomposition``) and delbar_mub^2 = 0 (``delb_mub_checks``)."""
    cm = hs.cm
    rows = range(hs.m + 1)
    # H and (G H)^H on the grid and the ring of slots around it
    h = {(p, q): hs.harmonic_space(MUBAR, p, q).basis
         for p in rows for q in range(-1, hs.m + 2)}
    gh = {pq: (hs.gram(*pq) @ basis).conj_transpose()
          for pq, basis in h.items()}
    comp = {(p, q): gh[(p, q + 1)] @ (cm.block(DELBAR, p, q) @ h[(p, q)])
            for p in rows for q in range(-1, hs.m + 1)}
    op = {}
    harmonic = {}
    for (p, q) in hs.basis.slots:
        op[(p, q)] = (gh[(p, q + 1)] @ h[(p, q + 1)]).solve(comp[(p, q)])
        ker = Subspace.kernel(comp[(p, q)].vstack(
            comp[(p, q - 1)].conj_transpose()))
        harmonic[(p, q)] = Subspace(h[(p, q)].rows, h[(p, q)] @ ker.basis)
    return op, harmonic


def _square_failure(op):
    """The first slot, p-major, on which delbar_mub ``op`` does not square
    to zero, as a failure detail; "" when it squares to zero on every
    slot."""
    for (p, q), first in op.items():
        if (p, q + 1) in op and not (op[(p, q + 1)] @ first).is_zero():
            return ("delbar_mub does not square to zero on slot (%d, %d)"
                    % (p, q))
    return ""


def star_adjoint(hs, tag, p, q):
    """The star formula -⋆ δ̄ ⋆ for delta* on slot (p, q), δ̄ the conjugate
    component: the L² adjoint on a unimodular algebra only, kept as the
    oracle of ``adjointness_checks``."""
    m = hs.m
    conj_tag = CONJUGATE_TAG[tag]
    tp, tq = hs.cm.target(conj_tag, m - q, m - p)
    return -(hs.star(tp, tq) @ (hs.cm.block(conj_tag, m - q, m - p)
                                @ hs.star(p, q)))


def adjointness_checks(hs):
    """The star formula against the Gram adjoint ``adjoint_block`` on every
    slot: always for mubar, and for delbar only when the top cohomology is
    a line, the hypothesis under which ⋆ gives its adjoint."""

    def agree(name, tag):
        return slot_check(name, hs.basis.slots, lambda p, q: (
            star_adjoint(hs, tag, p, q) == hs.adjoint_block(tag, p, q)))

    return [agree("mubar_adjoint_is_metric_adjoint", MUBAR),
            agree("delbar_adjointness", DELBAR)
            if top_cohomology_is_line(hs.cm)
            else skipped_not_unimodular("delbar_adjointness")]


def skipped_not_unimodular(name):
    """The check ``name``, skipped: it reads ⋆ as the adjoint of delbar,
    which needs the top cohomology to be a line."""
    return Check(name, True, "skipped: top cohomology is not a line",
                 skipped=True)


def delb_mub_checks(op, harmonic, h_dol):
    """The Hodge decomposition of H_mubar under delbar_mub, the dicts
    ``op`` and ``harmonic`` of ``delb_mub``, and the Dolbeault match,
    ``h_dol`` with zero entries left out, of its cohomology and of its
    harmonic spaces.  In the pairing M the harmonic part is orthogonal to
    both images by construction, and the images are orthogonal exactly
    when op squares to zero; the parts then span when
    rank op_{q-1} + dim harmonic + rank op_q = dim H_mubar, that is, when
    the harmonic dims are the cohomology dims of op.  The decomposition
    entry's detail names the first failing slot."""
    coh = cohomology_dims({pq: mat.cols for pq, mat in op.items()},
                          {pq: mat.rank() for pq, mat in op.items()})
    dims = space_dims(harmonic)
    ranks = next(("rank identity fails on slot (%d, %d)" % pq
                  for pq in sorted(set(dims) | set(coh))
                  if dims.get(pq) != coh.get(pq)), "")
    failed = [f for f in (_square_failure(op), ranks) if f]

    def match(name, table):
        return slot_check(name, op, lambda p, q: (
            table.get((p, q), 0) == h_dol.get((p, q), 0)))

    return [match("delbar_mub_cohomology_equals_dolbeault", coh),
            match("delbar_mub_harmonic_equals_dolbeault", dims),
            Check("delbar_mub_hodge_decomposition", not failed,
                  "; ".join(failed))]


def layer_checks(hs, h_dol):
    """The checks of the layer ``hs`` behind the harmonic tables: ⋆, the
    adjoints, the mubar Hodge decomposition and delbar_mub vs ``h_dol``."""
    return ([star_check(hs)] + adjointness_checks(hs)
            + [mub_decomposition(hs)] + delb_mub_checks(*delb_mub(hs), h_dol))


# -- Serre duality by bar-star --------------------------------------------------


def serre_star_check(hs):
    """bar-star maps H_mubar^{p,q} onto H_mubar^{m-p,m-q}, ditto the
    delbar_mub-harmonics when the top cohomology is a line: ⋆ maps those
    harmonic forms to harmonic forms only when it gives the adjoint."""
    m = hs.m

    def serre(name, harm):
        return slot_check(name, harm, lambda p, q: (
            hs.bar_star_image(p, q, harm[(p, q)]) == harm[(m - p, m - q)]))

    checks = [serre("serre_bar_star_mubar_harmonics", hs.harmonic(MUBAR))]
    name = "serre_bar_star_delbar_mub_harmonics"
    if not top_cohomology_is_line(hs.cm):
        return checks + [skipped_not_unimodular(name)]
    return checks + [serre(name, delb_mub(hs)[1])]


# -- metric independence ---------------------------------------------------------


def metric_independence_probe(spec, hs, metric):
    """Compare the delbar_mub harmonic dimensions of ``hs``, the layer of
    the input metric, with those of a layer built for the metric
    ``metric``, as the battery entry ``metric_independent_harmonic_dims``.

    The dims agree, as both are h_dol.  The probe validates the metric and
    builds its layer by ``build_hermitian`` on the frame and the
    differential of ``hs``: only the Gram matrices are new, and no ⋆ is
    built.  The Check also certifies the probed layer's mubar Hodge
    decomposition and delbar_mub^2 = 0.  A failure names the metric and
    the slot: the first slot, p-major, whose dims differ from the input
    metric's, then the certificates' slots.
    """
    variant = liealg.validate_spec(spec.with_metric(metric))
    probed = build_hermitian(hs.cm, hs.frame, variant.metric)
    op, harm = delb_mub(probed)
    base = delb_mub(hs)[1]
    differ = next((pq for pq in harm if harm[pq].dim != base[pq].dim), None)
    details = [mub_decomposition(probed).detail, _square_failure(op)]
    if differ:
        details.insert(0, "harmonic dims differ on slot (%d, %d)" % differ)
    return Check("metric_independent_harmonic_dims", not any(details),
                 "; ".join(["2 metrics probed"] + ["metric 2: %s" % detail
                                                   for detail in details
                                                   if detail]))


# -- fundamental form and nearly Kahler identities -------------------------------


def fundamental_form(hs):
    """The (1,1)-form w(x, y) = <Jx, y> as a slot coordinate vector: the
    coefficient i H_ab on t^a tbar^b, H the Gram of the frame."""
    basis = hs.basis
    vec = [ZERO] * basis.dim(1, 1)
    idx = basis.index[(1, 1)]
    for a, row in enumerate(hs.frame_gram.entries):
        for b, h in enumerate(row):
            vec[idx[(1 << a, 1 << b)]] = I * h
    return tuple(vec)


def lefschetz_matrices(hs):
    """Wedge-with-fundamental-form matrices L : (p, q) -> (p+1, q+1), built
    like ⋆ from ``wedge_monomials``: column e of L is the sum of the
    nonzero terms c w of the fundamental form wedged with e, c w ∧ e."""
    basis = hs.basis
    omega = [(w, c) for w, c in zip(basis.monomials(1, 1), fundamental_form(hs))
             if c]
    out = {}
    for (p, q) in basis.slots:
        rows = basis.dim(p + 1, q + 1)
        cols = []
        for e in basis.monomials(p, q):
            col = [ZERO] * rows
            for w, c in omega:
                res = forms.wedge_monomials(w, e)
                if res is not None:
                    col[basis.index[(p + 1, q + 1)][res[1]]] += (
                        c if res[0] > 0 else -c)
            cols.append(col)
        out[(p, q)] = Matrix.from_columns(cols, ambient_rows=rows)
    return out


def _operators(hs):
    """Each component delta, keyed by its tag, and its adjoint delta*, keyed
    by the tag and "*", as (bidegree, block) with ``block(p, q)`` the matrix
    on slot (p, q), zero-shaped off the grid."""
    ops = {}
    for tag, (dp, dq) in BIDEGREE.items():
        ops[tag] = ((dp, dq), functools.partial(hs.cm.block, tag))
        ops[tag + "*"] = ((-dp, -dq), functools.partial(hs.adjoint_block, tag))
    return ops


# The nearly Kahler battery: the vanishing and the opposite anticommutators,
# and the bidegrees of the three-space equality.
_NK_VANISHING = (("mu*", "delbar"), ("mubar*", "partial"), ("mu", "delbar*"),
                 ("mubar", "partial*"), ("mu", "mubar*"), ("mubar", "mu*"))
_NK_OPPOSITE = ((("delbar*", "partial"), ("mu", "partial*")),
                (("delbar*", "partial"), ("mubar*", "delbar")),
                (("partial*", "delbar"), ("mubar", "delbar*")),
                (("partial*", "delbar"), ("mu*", "partial")))
_NK_GREY = tuple(sorted({(p, q) for p in range(4) for q in (0, 3)}
                        | {(0, 2), (1, 2), (2, 1), (3, 1)}))


def nearly_kahler_checks(hs):
    """Exact operator identities characteristic of nearly Kahler structures,
    read from the harmonic layer ``hs``: its 14 checks.

    Only meaningful for m = 3.  Evaluates the graded commutator relations
    among the components and their adjoints, the Laplacian identity
    Delta_delbar + 2 Delta_mubar = Delta_partial + 2 Delta_mu (mubar of
    bidegree (-1, 2)), each Laplacian [delta, delta*] an anticommutator,
    the restricted equalities Delta_mubar = Delta_mu and
    Delta_delbar = Delta_partial on p = q and p + q = 3, the three-space
    equality H_d = H_delbar ∩ H_mubar = H_delbar_mub on its bidegree range,
    and the fit of ``mixed_laplacian_fit``.  Every identity holds
    exactly on the homogeneous nearly Kahler S^3 x S^3 (the positive
    control of the acceptance suite); a failure shows that the metric and J
    of the input are not nearly Kahler, which is how the battery detects
    non-nearly-Kahler structures.
    """
    if hs.m != 3:
        raise ValueError("nearly Kahler identities are specific to m = 3")
    slots = hs.basis.slots
    anti = hs.anticommutator

    def lap(tag, p, q):
        return anti(tag, tag + "*", p, q)

    def check(name, ok):
        return Check(name, ok, informational=True)

    checks = [check("nk_commutator [%s, %s] = 0" % pair,
                    all(anti(*pair, *pq).is_zero() for pq in slots))
              for pair in _NK_VANISHING]
    checks += [check("nk_commutator [%s, %s] = -[%s, %s]" % (*one, *other),
                     all(anti(*one, *pq) == -anti(*other, *pq)
                         for pq in slots))
               for one, other in _NK_OPPOSITE]
    two = from_rational(2)
    checks.append(check(
        "nk_laplacian delbar + 2 mubar = partial + 2 mu", all(
            lap(DELBAR, *pq) + lap(MUBAR, *pq).scale(two)
            == lap(PARTIAL, *pq) + lap(MU, *pq).scale(two) for pq in slots)))
    checks.append(check(
        "nk_laplacian equalities on p = q and p + q = 3", all(
            lap(MUBAR, p, q) == lap(MU, p, q)
            and lap(DELBAR, p, q) == lap(PARTIAL, p, q)
            for (p, q) in slots if p == q or p + q == 3)))
    h_delbar, h_mubar = hs.harmonic(DELBAR), hs.harmonic(MUBAR)
    h_d, h_delb_mub = hs.d_harmonic(), delb_mub(hs)[1]
    checks.append(check(
        "nk_three_space_equality on the stated bidegree range", all(
            h_d[pq] == h_delbar[pq].intersect(h_mubar[pq]) == h_delb_mub[pq]
            for pq in _NK_GREY)))
    return checks + [mixed_laplacian_fit(hs)[0]]


@_memoized
def mixed_laplacian_fit(hs):
    """Fit the constant c in (partial delbar + delbar partial) =
    -i c (p - q) L on every slot p != q that L reaches, as (the Check
    ``nk_mixed_laplacian_scalar single constant``, c as a string, None
    unless one constant fits every such slot).  Memoised on the layer, so
    the harmonic section and the battery share one fit, and it builds no
    Laplacian."""
    lef = lefschetz_matrices(hs)
    fitted = []
    ok_fit = True
    for (p, q) in sorted(hs.basis.slots):
        lmat = lef[(p, q)]
        if p == q or lmat.rows == 0:
            continue
        mixed = hs.anticommutator(PARTIAL, DELBAR, p, q)
        lead = next(((i, j) for i, row in enumerate(lmat.entries)
                     for j, x in enumerate(row) if x), None)
        if lead is None:
            ok_fit &= mixed.is_zero()
            continue
        i, j = lead
        scale = mixed.entries[i][j] / lmat.entries[i][j]
        if lmat.scale(scale) != mixed:
            ok_fit = False
            continue
        # mixed = -i c (p - q) L  =>  c = scale * i / (p - q)
        fitted.append(scale * I / from_rational(p - q))
    same = all(c == fitted[0] for c in fitted)
    value = str(fitted[0]) if fitted and same and ok_fit else None
    return Check("nk_mixed_laplacian_scalar single constant", ok_fit and same,
                 "fitted constant %s" % value, informational=True), value
