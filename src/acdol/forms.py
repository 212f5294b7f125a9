"""The bigraded Chevalley-Eilenberg algebra of an almost complex Lie algebra.

Monomials of type (p, q) are pairs of bitmasks (S, T): S picks p holomorphic
generators and T picks q antiholomorphic ones, with the global generator
order  t^1 < ... < t^m < tbar^1 < ... < tbar^m  fixing all wedge signs.
One sign rule gives them all: for disjoint generator sets B and R,
e_B ∧ e_R is (-1)^k times the sorted monomial, k the parity of the bit
count of R masked by the bits with an odd number of bits of B above them
(``_below_parity``).  ``wedge_monomials``, from which the Hodge star and
the Lefschetz map are built, and the Leibniz terms of d, on one bit mask
per monomial (``derivation``), both take their signs from it.

This module decides the (p, q) grid, 0 <= p, q <= m: off it a slot has
dimension 0 and no monomials, and every block or slot table read there is
zero-shaped, so components that reach past the edge compose, solve and
assemble without a special case.  ``assemble`` builds every operator
between two lists of slots (the total d, d* and the witness systems) from
the components whose bidegrees join them.

The differential on degree-one generators is minus the dual of the Lie
bracket; it extends to the whole exterior algebra as a graded derivation
(``derivation``, which ``cohomology.de_rham`` also applies to the real
structure constants of the input basis) and splits into four components by
target bidegree:

    mubar : (p, q) -> (p-1, q+2)      delbar : (p, q) -> (p, q+1)
    partial : (p, q) -> (p+1, q)      mu     : (p, q) -> (p+2, q-1)

d^2 = 0 is equivalent to seven bigraded identities among these blocks, the
bidegree components of d_{n+1} d_n, which ``verify_relations`` reads off one
exact product of the total matrices per degree.  The degree-one
restriction of mu + mubar is (up to the factor -1/4) the dual Nijenhuis
tensor, which drives the integrability classification.
"""

from __future__ import annotations

from itertools import combinations

from .kernel import ONE, ZERO
from .linalg import Matrix

MAX_M = 12

MUBAR = "mubar"
DELBAR = "delbar"
PARTIAL = "partial"
MU = "mu"

BIDEGREE = {
    MUBAR: (-1, 2),
    DELBAR: (0, 1),
    PARTIAL: (1, 0),
    MU: (2, -1),
}

_TAG_OF = {shift: tag for tag, shift in BIDEGREE.items()}

CONJUGATE_TAG = {MUBAR: MU, MU: MUBAR, DELBAR: PARTIAL, PARTIAL: DELBAR}

INTEGRABLE = "integrable"
MAXIMALLY_NON_INTEGRABLE = "maximally_non_integrable"
INTERMEDIATE = "intermediate"
NON_INTEGRABLE = "non_integrable"


class BigradedBasis:
    """Ordered monomial bases of every (p, q) slot, 0 <= p, q <= m."""

    def __init__(self, m):
        if not (1 <= m <= MAX_M):
            raise ValueError("m must lie in 1..%d, got %d" % (MAX_M, m))
        self.m = m
        self.slots = {}
        self.index = {}
        for p in range(m + 1):
            s_masks = [_mask(c) for c in combinations(range(m), p)]
            for q in range(m + 1):
                t_masks = [_mask(c) for c in combinations(range(m), q)]
                monos = [(s, t) for s in s_masks for t in t_masks]
                self.slots[(p, q)] = monos
                self.index[(p, q)] = {mono: i for i, mono in enumerate(monos)}

    def dim(self, p, q):
        if 0 <= p <= self.m and 0 <= q <= self.m:
            return len(self.slots[(p, q)])
        return 0

    def monomials(self, p, q):
        return self.slots.get((p, q), [])

    def total_dim(self, n):
        return sum(self.dim(p, n - p) for p in range(self.m + 1))

    def degree_slots(self, n):
        """The slots (p, n - p), p = 0 .. m, on the grid or off it."""
        return [(p, n - p) for p in range(self.m + 1)]

    def slot_offsets(self, n):
        """[(p, q, offset)] for the slots of total degree n, p increasing."""
        out = []
        off = 0
        for p in range(self.m + 1):
            q = n - p
            if 0 <= q <= self.m:
                out.append((p, q, off))
                off += self.dim(p, q)
        return out


def build_basis(m):
    return BigradedBasis(m)


def _mask(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _below_parity(mask):
    """The bits x with an odd number of bits of ``mask`` above x.

    This is the one sign rule of the exterior algebra: for disjoint masks
    B and R in one generator order, e_B ∧ e_R = (-1)^k e_{B|R} with
    k = popcount(R & _below_parity(B)), since each generator of R passes
    the generators of B above it.
    """
    out = 0
    while mask:
        bit = mask & -mask
        out ^= bit - 1
        mask ^= bit
    return out


def wedge_monomials(m1, m2):
    """Wedge of two monomials: (sign, monomial) or None when it vanishes."""
    s1, t1 = m1
    s2, t2 = m2
    if s1 & s2 or t1 & t2:
        return None
    # every tbar of m1 passes every t of m2; the t and tbar parts then
    # sort by the sign rule
    exp = (t1.bit_count() * s2.bit_count()
           + (s2 & _below_parity(s1)).bit_count()
           + (t2 & _below_parity(t1)).bit_count())
    sign = -1 if exp & 1 else 1
    return sign, (s1 | s2, t1 | t2)


class ComponentMatrices:
    """The four bidegree blocks of d on every slot, as exact matrices,
    with the real structure constants ``brackets`` of the input basis
    (``LieAlgebraSpec.brackets``) that they come from."""

    def __init__(self, basis, blocks, brackets):
        self.basis = basis
        self.m = basis.m
        self.brackets = brackets
        self._blocks = blocks  # {(tag, p, q): Matrix}
        self._totals = {}

    def block(self, tag, p, q):
        """Matrix of the component ``tag`` on slot (p, q).

        Every slot of the grid holds a block for every tag, zero-shaped
        where the target is off the grid; a slot off the grid gives a block
        with zero columns, so compositions stay well defined.  It is built
        once, so routes that read it share its memoised kernel and span.
        """
        key = (tag, p, q)
        if key not in self._blocks and (p, q) not in self.basis.slots:
            dp, dq = BIDEGREE[tag]
            self._blocks[key] = Matrix.zero(self.basis.dim(p + dp, q + dq), 0)
        return self._blocks[key]

    def target(self, tag, p, q):
        dp, dq = BIDEGREE[tag]
        return (p + dp, q + dq)

    def total_matrix(self, n):
        """The full differential A^n -> A^{n+1}, from the degree-n slots
        to the degree-(n + 1) slots."""
        if n not in self._totals:
            slots = self.basis.degree_slots
            self._totals[n] = assemble(self.basis, slots(n + 1), slots(n),
                                       self.block)
        return self._totals[n]


def assemble(basis, rows, cols, blocks, sign=1):
    """The block matrix from the slot list ``cols`` to the slot list
    ``rows``.  Block (i, j) is ``blocks(tag, *cols[j])`` for the component
    ``tag`` whose bidegree, times ``sign``, takes cols[j] to rows[i]; every
    other block is zero.  A slot off the grid has dimension 0, so its
    blocks have no rows or no columns, and ``blocks`` is not read there."""
    row_dims = [basis.dim(*slot) for slot in rows]
    col_dims = [basis.dim(*slot) for slot in cols]
    found = {}
    for j, (p, q) in enumerate(cols):
        for i, (a, b) in enumerate(rows):
            tag = _TAG_OF.get((sign * (a - p), sign * (b - q)))
            if tag and row_dims[i] and col_dims[j]:
                found[(i, j)] = blocks(tag, p, q)
    return Matrix.from_blocks(row_dims, col_dims, found)


def derivation(table):
    """The graded derivation d with d W^g = - sum_{v<w} table[v][w][g] W^v W^w
    on the generators W^0 .. W^{n-1}, n = len(table), as a function of one
    monomial.

    A monomial is one n-bit mask M in the generator order.  For each
    generator g of M with the rest R = M - g, e_M = ±e_g ∧ e_R, so the
    Leibniz term of a pair P = {v, w} of d W^g is ±e_P ∧ e_R; both signs
    come from the rule of ``_below_parity``, one popcount per term.  The
    function returns {mask: coefficient} of d e_M, with the sums that
    cancel kept as zeros.
    """
    n = len(table)
    # d of each degree-one generator: (pair mask, sign mask, coefficient)
    d_gen = []
    for g in range(n):
        below_g = _below_parity(1 << g)
        terms = []
        for v in range(n):
            for w in range(v + 1, n):
                coeff = table[v][w][g]
                if coeff:
                    pair = (1 << v) | (1 << w)
                    terms.append((pair, below_g ^ _below_parity(pair), -coeff))
        d_gen.append(terms)

    def d(mono):
        out = {}
        gens = mono
        while gens:
            bit = gens & -gens
            gens ^= bit
            rest = mono ^ bit
            for pair, sign_mask, coeff in d_gen[bit.bit_length() - 1]:
                if pair & rest:
                    continue
                term = -coeff if (rest & sign_mask).bit_count() & 1 else coeff
                key = rest | pair
                prev = out.get(key)
                out[key] = term if prev is None else prev + term
        return out

    return d


def build_differential(csc, basis):
    """Differential from complex structure constants, split into components.

    d is the ``derivation`` of the frame table ``csc.table`` on the 2m-bit
    masks M = S | T << m of the monomials (S, T), and each term goes to
    the component of its bidegree shift.  The real structure constants
    ``csc.brackets`` pass to the result for ``cohomology.de_rham``.
    """
    m = basis.m
    d = derivation(csc.table)
    position = {s | t << m: i for monos in basis.slots.values()
                for i, (s, t) in enumerate(monos)}
    low = (1 << m) - 1
    blocks = {}
    for (p, q), monos in basis.slots.items():
        rows = {tag: [[ZERO] * len(monos)
                      for _ in range(basis.dim(p + dp, q + dq))]
                for tag, (dp, dq) in BIDEGREE.items()}
        for j, (s_mask, t_mask) in enumerate(monos):
            for key, c in d(s_mask | t_mask << m).items():
                if c:
                    tag = _TAG_OF[((key & low).bit_count() - p,
                                   (key >> m).bit_count() - q)]
                    rows[tag][position[key]][j] = c
        for tag, data in rows.items():
            blocks[(tag, p, q)] = Matrix(len(data), len(monos), data)
    return ComponentMatrices(basis, blocks, csc.brackets)


RELATIONS = (
    "mu^2",
    "mu.partial + partial.mu",
    "mu.delbar + delbar.mu + partial^2",
    "mu.mubar + partial.delbar + delbar.partial + mubar.mu",
    "mubar.partial + partial.mubar + delbar^2",
    "mubar.delbar + delbar.mubar",
    "mubar^2",
)


def verify_relations(cm):
    """Evaluate the seven d^2 = 0 identities blockwise.

    Identity k of ``RELATIONS`` sums the terms of d^2 of bidegree
    (4 - k, k - 2), so on slot (p, q) of degree n it is the block of
    d_{n+1} d_n from (p, q) to (p + 4 - k, q + k - 2).  One product of the
    memoised total matrices per degree gives all seven on every slot of
    that degree; a target off the grid, as every target of degree
    n + 2 > 2m is, holds a zero-row block, which passes.

    Returns a list of (identity name, (p, q), passed), by identity and then
    by slot; any failure signals a bug upstream since the Jacobi identity
    forces d^2 = 0.
    """
    dim = cm.basis.dim

    def offset(n, p):
        return sum(dim(i, n - i) for i in range(p))

    products = {}
    report = []
    for k, name in enumerate(RELATIONS):
        for (p, q) in sorted(cm.basis.slots):
            n = p + q
            tp, tq = p + 4 - k, q + k - 2
            ok = True
            if dim(tp, tq):
                if n not in products:
                    products[n] = (cm.total_matrix(n + 1)
                                   @ cm.total_matrix(n)).entries
                r0, c0 = offset(n + 2, tp), offset(n, p)
                ok = not any(e for row in products[n][r0:r0 + dim(tp, tq)]
                             for e in row[c0:c0 + dim(p, q)])
            report.append((name, (p, q), ok))
    return report


def nijenhuis_operator(cm):
    """Degree-one restriction of mu + mubar as one block matrix.

    Its rank equals the rank of the Nijenhuis tensor: the two blocks are
    mubar on (1,0) -> (0,2) and mu on (0,1) -> (2,0).
    """
    a = cm.block(MUBAR, 1, 0)
    b = cm.block(MU, 0, 1)
    return Matrix.from_blocks([a.rows, b.rows], [a.cols, b.cols],
                              {(0, 0): a, (1, 1): b})


def is_integrable(cm):
    basis = cm.basis
    return all(cm.block(MUBAR, p, q).is_zero() for (p, q) in basis.slots)


def classify(cm):
    """Integrability class of the structure.

    For m in {2, 3} the maximally non-integrable condition is decided by the
    rank conditions on mubar in degree one (and two for m = 2); for other m
    only integrable / non_integrable is reported.
    """
    m = cm.m
    if is_integrable(cm):
        return INTEGRABLE
    if m == 2:
        surj = cm.block(MUBAR, 1, 0).rank() == cm.basis.dim(0, 2)
        inj = cm.block(MUBAR, 2, 0).rank() == cm.basis.dim(2, 0)
        return MAXIMALLY_NON_INTEGRABLE if (surj and inj) else INTERMEDIATE
    if m == 3:
        iso = cm.block(MUBAR, 1, 0).rank() == 3
        return MAXIMALLY_NON_INTEGRABLE if iso else INTERMEDIATE
    return NON_INTEGRABLE


def conjugation_matrix(basis, p, q):
    """Signed permutation (p, q) -> (q, p) induced by conjugating monomials.

    conj(t^S tbar^T) = (-1)^{pq} t^T tbar^S on monomials; the conjugate of
    the form with coordinate columns V has the coordinates C conj(V).
    Zero-shaped off the grid.
    """
    sign = -ONE if (p * q) & 1 else ONE
    rows = basis.dim(q, p)
    cols = []
    for s_mask, t_mask in basis.monomials(p, q):
        col = [ZERO] * rows
        col[basis.index[(q, p)][(t_mask, s_mask)]] = sign
        cols.append(col)
    return Matrix.from_columns(cols, ambient_rows=rows)
