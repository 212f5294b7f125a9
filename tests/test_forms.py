"""Bigraded bases, wedge products, the differential and its components."""

import random

import pytest

from acdol import catalog, pipeline
from acdol.forms import (BIDEGREE, DELBAR, INTEGRABLE, INTERMEDIATE,
                         MAXIMALLY_NON_INTEGRABLE, MU, MUBAR, PARTIAL,
                         RELATIONS, build_basis, build_differential,
                         classify, conjugation_matrix, is_integrable,
                         nijenhuis_operator, verify_relations,
                         wedge_monomials)
from acdol.harmonic import fundamental_form, lefschetz_matrices
from acdol.kernel import ONE, ZERO, Scalar
from acdol.liealg import adapted_frame, complexify, validate_spec
from acdol.linalg import Matrix
from conftest import (ORACLE_INPUTS, builtin_analysis, named_analysis,
                      named_spec, random_nilpotent_spec, seeded_rng)


def wedge(basis, bidegree1, v1, bidegree2, v2):
    """Wedge of two slot coordinate vectors, summed over the pairs of
    nonzero terms with ``wedge_monomials``: the coordinates in slot
    (p1+p2, q1+q2), an empty tuple off the grid."""
    (p1, q1), (p2, q2) = bidegree1, bidegree2
    target = (p1 + p2, q1 + q2)
    out = [ZERO] * basis.dim(*target)
    for m1, c1 in zip(basis.monomials(p1, q1), v1):
        for m2, c2 in zip(basis.monomials(p2, q2), v2):
            res = wedge_monomials(m1, m2)
            if c1 and c2 and res is not None:
                term = c1 * c2
                out[basis.index[target][res[1]]] += (
                    term if res[0] > 0 else -term)
    return tuple(out)


def test_basis_counts():
    b = build_basis(2)
    assert b.dim(1, 1) == 4
    b3 = build_basis(3)
    assert b3.dim(2, 1) == 9
    for m in range(1, 5):
        total = sum(build_basis(m).dim(p, q)
                    for p in range(m + 1) for q in range(m + 1))
        assert total == 4 ** m


def test_basis_guard():
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(ValueError):
        build_basis(13)


def test_wedge_antisymmetry_on_generators():
    b = build_basis(3)
    t1 = [ONE, ZERO, ZERO]
    t2 = [ZERO, ONE, ZERO]
    left = wedge(b, (1, 0), t1, (1, 0), t2)
    right = wedge(b, (1, 0), t2, (1, 0), t1)
    assert tuple(left) == tuple(-x for x in right)
    assert any(x for x in left)


def test_wedge_square_zero_degree_one():
    rng = random.Random(4)
    b = build_basis(3)
    for _ in range(10):
        v = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        out = wedge(b, (1, 0), v, (1, 0), v)
        assert all(not x for x in out)


def test_wedge_mixed_generator_sign():
    b = build_basis(2)
    tbar1 = [ONE, ZERO]
    t1 = [ONE, ZERO]
    # tbar^1 ^ t^1 = - t^1 ^ tbar^1
    left = wedge(b, (0, 1), tbar1, (1, 0), t1)
    right = wedge(b, (1, 0), t1, (0, 1), tbar1)
    assert tuple(left) == tuple(-x for x in right)


def test_wedge_associativity_random():
    rng = random.Random(17)
    b = build_basis(3)
    bidegs = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for _ in range(100):
        d1, d2, d3 = (rng.choice(bidegs) for _ in range(3))
        v1 = [Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(b.dim(*d1))]
        v2 = [Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(b.dim(*d2))]
        v3 = [Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(b.dim(*d3))]
        d12 = (d1[0] + d2[0], d1[1] + d2[1])
        d23 = (d2[0] + d3[0], d2[1] + d3[1])
        lhs = wedge(b, d12, wedge(b, d1, v1, d2, v2), d3, v3)
        rhs = wedge(b, d1, v1, d23, wedge(b, d2, v2, d3, v3))
        assert tuple(lhs) == tuple(rhs)


def test_wedge_graded_commutativity_random():
    rng = random.Random(19)
    b = build_basis(3)
    bidegs = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    for _ in range(60):
        d1, d2 = rng.choice(bidegs), rng.choice(bidegs)
        v1 = [Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(b.dim(*d1))]
        v2 = [Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(b.dim(*d2))]
        sign = -1 if (sum(d1) * sum(d2)) % 2 else 1
        lhs = wedge(b, d1, v1, d2, v2)
        rhs = wedge(b, d2, v2, d1, v1)
        assert tuple(lhs) == tuple(Scalar(sign) * x for x in rhs)


def _cm(name):
    return builtin_analysis(name).cm


def _lefschetz_mismatches(hs, lef):
    """The (slot, column) pairs where ``lef`` differs from omega ∧ e on the
    unit vector e of the column, omega the fundamental form."""
    basis = hs.basis
    omega = fundamental_form(hs)
    bad = []
    for (p, q) in basis.slots:
        dim = basis.dim(p, q)
        for j in range(dim):
            e = [ONE if i == j else ZERO for i in range(dim)]
            if lef[(p, q)].col(j) != wedge(basis, (1, 1), omega, (p, q), e):
                bad.append(((p, q), j))
    return bad


@pytest.mark.parametrize("name", ["su2su2-nk", "s3s3-nk", "random-m3-seed1"])
def test_lefschetz_is_wedge_with_fundamental_form(name):
    hs = named_analysis(name).hs
    lef = lefschetz_matrices(hs)
    assert _lefschetz_mismatches(hs, lef) == []
    # negative control: one flipped sign is seen in its column
    slot, mat = next((pq, mat) for pq, mat in sorted(lef.items())
                     if not mat.is_zero())
    i, j = next((i, j) for i in range(mat.rows) for j in range(mat.cols)
                if mat.entries[i][j])
    data = [list(row) for row in mat.entries]
    data[i][j] = -data[i][j]
    flipped = dict(lef)
    flipped[slot] = Matrix(mat.rows, mat.cols, data)
    assert _lefschetz_mismatches(hs, flipped) == [(slot, j)]


def test_filiform_differential_formulas():
    cm = _cm("filiform-J")
    b = cm.basis
    half_i = Scalar(0, 1, 2)     # 1/(2i) = -i/2
    neg_half_i = -half_i
    # column of b = t^2 in each component block
    col = {mono: cm.block(DELBAR, 1, 0).col(1)[i]
           for i, mono in enumerate(b.monomials(1, 1))}
    assert col[(1, 1)] == Scalar(0, -1)          # -i a abar
    assert col[(1, 2)] == neg_half_i             # (1/2i) a bbar
    assert col[(2, 1)] == half_i                 # -(1/2i) b abar
    assert col[(2, 2)] == ZERO
    mub_col = cm.block(MUBAR, 1, 0).col(1)
    assert mub_col[0] == neg_half_i              # (1/2i) abar bbar
    del_col = cm.block(PARTIAL, 1, 0).col(1)
    assert del_col[0] == neg_half_i              # (1/2i) a b
    assert cm.block(MU, 1, 0).rows == 0
    # d vanishes on a = t^1
    assert all(cm.block(tag, 1, 0).col(0) == tuple([ZERO] *
               cm.block(tag, 1, 0).rows) for tag in (MUBAR, DELBAR, PARTIAL))


def test_kt_differential_formulas():
    cm = _cm("kt-J")
    neg_half_i = Scalar(0, -1, 2)
    assert cm.block(MUBAR, 1, 0).col(1)[0] == neg_half_i
    assert all(not x for x in cm.block(MUBAR, 1, 0).col(0))
    # delbar b = (1/2i)(a bbar - b abar): no a abar term for kt
    b = cm.basis
    col = {mono: cm.block(DELBAR, 1, 0).col(1)[i]
           for i, mono in enumerate(b.monomials(1, 1))}
    assert col[(1, 1)] == ZERO
    assert col[(1, 2)] == neg_half_i
    assert col[(2, 1)] == -neg_half_i


def test_su2su2_differential_formulas():
    cm = _cm("su2su2-nk")
    b = cm.basis
    k = Scalar(1, 1)
    idx02 = {mono: i for i, mono in enumerate(b.monomials(0, 2))}
    mub = cm.block(MUBAR, 1, 0)
    # mubar x = -k ybar zbar, mubar y = k xbar zbar, mubar z = -k xbar ybar
    assert mub.col(0)[idx02[(0, 6)]] == -k
    assert mub.col(1)[idx02[(0, 5)]] == k
    assert mub.col(2)[idx02[(0, 3)]] == -k


def test_abelian_differential_zero():
    cm = _cm("abelian-m2")
    for tag in (MUBAR, DELBAR, PARTIAL, MU):
        for (p, q) in cm.basis.slots:
            assert cm.block(tag, p, q).is_zero()


@pytest.mark.parametrize("name", ["filiform-J", "filiform-Jprime", "kt-J",
                                  "kt-Jprime", "su2su2-nk", "abelian-m2"])
def test_relations_pass_on_builtins(name):
    assert all(ok for _, _, ok in verify_relations(_cm(name)))


def test_relations_fail_on_corrupted_block():
    an = builtin_analysis("filiform-J")
    cm = an.cm
    blocks = dict(cm._blocks)
    bad = cm.block(MUBAR, 1, 0)
    data = [list(r) for r in bad.entries]
    data[0][0] = data[0][0] + ONE
    blocks[(MUBAR, 1, 0)] = Matrix(bad.rows, bad.cols, data)
    corrupted = type(cm)(cm.basis, blocks, cm.brackets)
    report = verify_relations(corrupted)
    failing = [name for name, _, ok in report if not ok]
    assert failing
    assert any("mubar" in name for name in failing)
    # the battery entry names the first failing identity and its slot
    entry = pipeline.relations_check(corrupted)
    assert (entry.passed, entry.detail) == (
        False, "%s fails on slot (1, 0)" % RELATIONS[3])
    assert pipeline.relations_check(cm).passed


def test_mubar_vanishes_on_p0_column():
    for name in ("filiform-J", "su2su2-nk", "kt-J"):
        cm = _cm(name)
        for q in range(cm.m + 1):
            assert cm.block(MUBAR, 0, q).is_zero()


def test_random_specs_relations_hold():
    rng = seeded_rng(55)
    for _ in range(5):
        spec = validate_spec(random_nilpotent_spec(rng, 2))
        csc = complexify(spec, adapted_frame(spec))
        cm = build_differential(csc, build_basis(2))
        assert all(ok for _, _, ok in verify_relations(cm))


# -- verify_relations against the term-by-term formula -----------------------

# the terms of each identity of RELATIONS as (outer, inner) block pairs:
# the labelled oracle's own copy, as production reads only the names
_RELATION_TERMS = (
    ((MU, MU),),
    ((MU, PARTIAL), (PARTIAL, MU)),
    ((MU, DELBAR), (DELBAR, MU), (PARTIAL, PARTIAL)),
    ((MU, MUBAR), (PARTIAL, DELBAR), (DELBAR, PARTIAL), (MUBAR, MU)),
    ((MUBAR, PARTIAL), (PARTIAL, MUBAR), (DELBAR, DELBAR)),
    ((MUBAR, DELBAR), (DELBAR, MUBAR)),
    ((MUBAR, MUBAR),),
)


def _relations_oracle(cm):
    """Oracle of ``verify_relations``: each identity on each slot as the
    sum of its block products, one product per term."""
    report = []
    for name, terms in zip(RELATIONS, _RELATION_TERMS):
        for (p, q) in sorted(cm.basis.slots):
            total = None
            for outer, inner in terms:
                prod = (cm.block(outer, *cm.target(inner, p, q))
                        @ cm.block(inner, p, q))
                total = prod if total is None else total + prod
            report.append((name, (p, q), total.is_zero()))
    return report


def _named_cm(name):
    spec = validate_spec(named_spec(name))
    return build_differential(complexify(spec, adapted_frame(spec)),
                              build_basis(spec.m))


def _corrupted(cm, tag, p, q):
    """A copy of ``cm`` with entry (0, 0) of one block raised by one."""
    blocks = {key: cm.block(*key) for key in
              ((t, a, b) for t in BIDEGREE for (a, b) in cm.basis.slots)}
    bad = blocks[(tag, p, q)]
    data = [list(row) for row in bad.entries]
    data[0][0] = data[0][0] + ONE
    blocks[(tag, p, q)] = Matrix(bad.rows, bad.cols, data)
    return type(cm)(cm.basis, blocks, cm.brackets)


def test_relation_terms_are_the_pairs_of_each_bidegree():
    # identity k holds every ordered pair of components of total bidegree
    # (4 - k, k - 2), each once
    assert len(RELATIONS) == len(_RELATION_TERMS) == 7
    for k, terms in enumerate(_RELATION_TERMS):
        want = {(a, b) for a in BIDEGREE for b in BIDEGREE
                if (BIDEGREE[a][0] + BIDEGREE[b][0],
                    BIDEGREE[a][1] + BIDEGREE[b][1]) == (4 - k, k - 2)}
        assert sorted(terms) == sorted(want)


@pytest.mark.parametrize("name", catalog.builtin_names() + [
    "random-m2-seed1", "random-m2-seed2", "random-m3-seed1",
    "random-m3-seed2"])
def test_relations_equal_the_term_by_term_oracle(name):
    cm = _named_cm(name)
    report = verify_relations(cm)
    assert report == _relations_oracle(cm)
    assert len(report) == 7 * len(cm.basis.slots)


# each tag on slot (1, 1), and the two blocks into the top slot (m, m),
# which only the product of degree 2m - 2 reaches
CORRUPTIONS = [(tag, lambda m: (1, 1)) for tag in (MUBAR, DELBAR, PARTIAL, MU)
               ] + [(DELBAR, lambda m: (m, m - 1)),
                    (PARTIAL, lambda m: (m - 1, m))]


@pytest.mark.parametrize("tag, slot", CORRUPTIONS, ids=[
    "mubar", "delbar", "partial", "mu", "delbar-top", "partial-top"])
@pytest.mark.parametrize("name", ["su2su2-nk", "random-m3-seed1"])
def test_relations_of_a_corrupted_block_equal_the_oracle(name, tag, slot):
    cm = _named_cm(name)
    corrupted = _corrupted(cm, tag, *slot(cm.m))
    report = verify_relations(corrupted)
    assert report == _relations_oracle(corrupted)
    assert not all(ok for _, _, ok in report)


def test_nijenhuis_examples():
    assert nijenhuis_operator(_cm("kt-Jprime")).is_zero()
    assert nijenhuis_operator(_cm("abelian-m2")).is_zero()
    cm = _cm("filiform-J")
    assert cm.block(MUBAR, 1, 0).rank() == 1
    assert nijenhuis_operator(cm).rank() == 2  # both conjugate blocks


def test_classify_examples():
    assert classify(_cm("kt-Jprime")) == INTEGRABLE
    assert classify(_cm("abelian-m2")) == INTEGRABLE
    assert classify(_cm("su2su2-nk")) == MAXIMALLY_NON_INTEGRABLE
    assert classify(_cm("filiform-J")) == MAXIMALLY_NON_INTEGRABLE
    assert classify(_cm("kt-J")) == MAXIMALLY_NON_INTEGRABLE
    assert classify(_cm("filiform-Jprime")) == MAXIMALLY_NON_INTEGRABLE


def test_classify_intermediate():
    # Kodaira-Thurston times an abelian plane: mubar comes only from the
    # 4-dimensional block, so its degree-one rank is 1 < 3
    from acdol.liealg import make_spec
    J = [[0, 0, 0, 1, 0, 0],
         [0, 0, 1, 0, 0, 0],
         [0, -1, 0, 0, 0, 0],
         [-1, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, -1],
         [0, 0, 0, 0, 1, 0]]
    spec = validate_spec(make_spec(6, None, {(0, 1): {2: -1}}, J))
    cm = build_differential(complexify(spec, adapted_frame(spec)),
                            build_basis(3))
    assert not is_integrable(cm)
    assert classify(cm) == INTERMEDIATE


def test_classify_iff_nijenhuis():
    for name in catalog.builtin_names():
        cm = _cm(name)
        assert is_integrable(cm) == nijenhuis_operator(cm).is_zero()
        assert (classify(cm) == INTEGRABLE) == is_integrable(cm)


def test_component_conjugation():
    # off the grid the conjugation matrices are zero-shaped, so the targets
    # past the edge need no special case
    cm = _cm("su2su2-nk")
    b = cm.basis
    for (p, q) in b.slots:
        tp, tq = cm.target(MUBAR, p, q)
        lhs = conjugation_matrix(b, tp, tq) @ cm.block(MUBAR, p, q).conj()
        rhs = cm.block(MU, q, p) @ conjugation_matrix(b, p, q)
        assert lhs == rhs


def test_total_matrix_squares_to_zero():
    for name in ("filiform-J", "su2su2-nk"):
        cm = _cm(name)
        for n in range(2 * cm.m):
            assert (cm.total_matrix(n + 1) @ cm.total_matrix(n)).is_zero()


# -- the differential against the word-list construction ---------------------


def _word(mono):
    """The generators of a monomial in order, as (is tbar, index)."""
    s, t = mono
    return ([(False, i) for i in range(s.bit_length()) if (s >> i) & 1]
            + [(True, i) for i in range(t.bit_length()) if (t >> i) & 1])


def _wedge_by_inversions(m1, m2):
    """Oracle for ``wedge_monomials``: the sign counts the inversions of the
    concatenated generator words, t's before tbar's, pair by pair."""
    (s1, t1), (s2, t2) = m1, m2
    if s1 & s2 or t1 & t2:
        return None
    word = _word(m1) + _word(m2)
    inversions = sum(word[a] > word[b] for a in range(len(word))
                     for b in range(a + 1, len(word)))
    return (-1 if inversions & 1 else 1), (s1 | s2, t1 | t2)


def test_wedge_monomials_count_inversions():
    b = build_basis(3)
    monos = [mono for slot in sorted(b.slots) for mono in b.monomials(*slot)]
    for m1 in monos:
        for m2 in monos:
            assert wedge_monomials(m1, m2) == _wedge_by_inversions(m1, m2)


def _differential_oracle(csc, basis):
    """The blocks of d built on generator words: d of each degree-one
    generator as a sparse 2-form, then the Leibniz rule term by term, each
    sign from two wedges of word monomials (the construction that the
    popcount signs of ``build_differential`` replaced)."""
    m = basis.m
    table = csc.table
    d_gen = []
    for u in range(2 * m):
        form = {}
        for v in range(2 * m):
            for w in range(v + 1, 2 * m):
                if table[v][w][u]:
                    mono = _word_monomial([(v >= m, v % m), (w >= m, w % m)])
                    form[mono] = form.get(mono, ZERO) - table[v][w][u]
        d_gen.append(form)
    blocks = {}
    for (p, q), monos in basis.slots.items():
        cols = {tag: [] for tag in BIDEGREE}
        for source in monos:
            word = _word(source)
            dmono = {}
            for pos, (bar, i) in enumerate(word):
                left = _word_monomial(word[:pos])
                right = _word_monomial(word[pos + 1:])
                for mono2, c2 in d_gen[m * bar + i].items():
                    r1 = _wedge_by_inversions(left, mono2)
                    r2 = r1 and _wedge_by_inversions(r1[1], right)
                    if r2:
                        sign = (-1) ** pos * r1[0] * r2[0]
                        dmono[r2[1]] = dmono.get(r2[1], ZERO) + c2 * Scalar(sign)
            for tag, (dp, dq) in BIDEGREE.items():
                target = basis.monomials(p + dp, q + dq)
                cols[tag].append([dmono.get(mono, ZERO) for mono in target])
        for tag, (dp, dq) in BIDEGREE.items():
            blocks[(tag, p, q)] = Matrix.from_columns(
                cols[tag], ambient_rows=basis.dim(p + dp, q + dq))
    return blocks


def _word_monomial(word):
    s = t = 0
    for bar, i in word:
        if bar:
            t |= 1 << i
        else:
            s |= 1 << i
    return (s, t)


def _block_mismatches(cm, blocks):
    """The (tag, slot) of every block of ``cm`` that differs from
    ``blocks``."""
    return sorted((tag, (p, q)) for (tag, p, q), blk in blocks.items()
                  if cm.block(tag, p, q) != blk)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_differential_matches_word_construction(name):
    spec = validate_spec(named_spec(name))
    csc = complexify(spec, adapted_frame(spec))
    basis = build_basis(spec.m)
    blocks = _differential_oracle(csc, basis)
    assert len(blocks) == 4 * len(basis.slots)
    assert _block_mismatches(build_differential(csc, basis), blocks) == []


def test_block_comparison_names_a_flipped_sign():
    # negative control: one entry of one block negated is reported by its
    # tag and slot, and by nothing else
    an = builtin_analysis("filiform-J")
    blocks = _differential_oracle(complexify(an.spec, an.frame), an.cm.basis)
    bad = blocks[(PARTIAL, 1, 0)]
    i, j = next((i, j) for i, row in enumerate(bad.entries)
                for j, e in enumerate(row) if e)
    data = [list(row) for row in bad.entries]
    data[i][j] = -data[i][j]
    blocks[(PARTIAL, 1, 0)] = Matrix(bad.rows, bad.cols, data)
    assert _block_mismatches(an.cm, blocks) == [(PARTIAL, (1, 0))]
