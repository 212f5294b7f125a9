"""Filtrations, spectral-sequence pages, page differentials, and oracles."""

import copy
import dataclasses
import functools

import pytest

from acdol import catalog, docio, pipeline, spectral
from acdol.cohomology import (ConsistencyError, de_rham, dolbeault,
                              mub_cohomology)
from acdol.forms import (DELBAR, MU, MUBAR, PARTIAL, build_basis,
                         build_differential)
from acdol.kernel import ONE, ZERO, Scalar
from acdol.liealg import adapted_frame, complexify, validate_spec
from acdol.linalg import Matrix, Subspace
from acdol.pipeline import reduction_certificate
from acdol.spectral import (decalage_check, dolbeault_delta1, explicit_pages,
                            frolicher_all, hodge_generators, infinity_vs_betti,
                            reduce_filtration, shifted_generators,
                            witness_independent)
from conftest import (GOLDEN_INPUTS, ORACLE_INPUTS, builtin_analysis,
                      dims_grid, named_analysis, random_nilpotent_spec,
                      seeded_rng)
from test_cohomology import NON_UNIMODULAR, _cm_of, _stacked_coboundaries
from test_liealg import _orthogonal_frame_oracle
from test_linalg import _subspace_oracle

E2_TABLES = {
    "filiform-J": ((1, 1, 0), (1, 2, 1), (0, 1, 1)),
    "su2su2-nk": ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
}

DEGENERATION = {
    "filiform-J": 2,
    "filiform-Jprime": 1,
    "kt-J": 1,
    "kt-Jprime": 1,
    "su2su2-nk": 2,
    "abelian-m2": 1,
    "abelian-m3": 1,
}


def _level_dim(reduction, p, n):
    """dim F^p A^n: the adapted generators of degree n with value >= p."""
    return sum(v >= p for v in reduction.values[n])


def _column_generators(cm, n):
    """The monomial basis with value p on slot p: not a filtration by
    subcomplexes once mubar, which lowers p, is nonzero."""
    values, basis, coords = shifted_generators(cm, n)
    return [v - n for v in values], basis, coords


def test_filtration_structure_checked_on_build():
    an = builtin_analysis("filiform-J")
    for generators in (hodge_generators, shifted_generators):
        reduce_filtration(an.cm, generators)  # raises on any failure
    with pytest.raises(ConsistencyError, match=r"degree \d, slot "
                       r"\(p=\d,q=\d\), page r=-1: d lowers the filtration"):
        reduce_filtration(an.cm, _column_generators)
    # on an integrable structure mubar vanishes and the columns filter
    reduce_filtration(builtin_analysis("kt-Jprime").cm, _column_generators)


# -- the Hodge generators read off the canonical Ker mubar ---------------------


def _generators_from(slot_parts):
    """A generator function for ``reduce_filtration`` built slot by slot:
    ``slot_parts(block)`` takes mubar on slot (p, q) and returns its value-p
    and value-(p - 1) generators, each a list of (vector, coordinate row)
    in the slot's coordinates."""
    def generators(cm, n):
        total = cm.basis.total_dim(n)
        gens = []
        for p, q, off in cm.basis.slot_offsets(n):
            kept, complement = slot_parts(cm.block(MUBAR, p, q))
            gens += [(v, _embedded(vec, off, total), _embedded(row, off, total))
                     for v, part in ((p, kept), (p - 1, complement))
                     for vec, row in part]
        gens.sort(key=lambda g: g[0])
        return ([g[0] for g in gens],
                Matrix.from_columns([g[1] for g in gens], ambient_rows=total),
                Matrix.from_rows([g[2] for g in gens]))
    return generators


def _embedded(vec, off, size):
    out = [ZERO] * size
    out[off:off + len(vec)] = vec
    return out


def _unit(i, size):
    return _embedded([ONE], i, size)


@_generators_from
def _oracle_hodge_generators(block):
    """The oracle: the rref kernel basis of ``_subspace_oracle`` with its
    entries at the free columns as coordinates, and the unit vectors at
    the pivot columns of mubar's rref with the rref rows as coordinates."""
    red, pivots = block.rref()
    ker = _subspace_oracle.nullspace_matrix(block)
    free = [j for j in range(block.cols) if j not in pivots]
    return ([(ker.col(k), _unit(j, block.cols)) for k, j in enumerate(free)],
            [(_unit(c, block.cols), red.entries[k])
             for k, c in enumerate(pivots)])


@_generators_from
def _forward_pivot_complement(block):
    """A wrong mix: K = Ker mubar with the unit rows at its lead rows as
    coordinates, and the equations of K as the coordinates of the unit
    vectors at the pivot columns of the forward rref, not at the rows
    without K's leading ones."""
    ker = Subspace.kernel(block)
    return ([(col, _unit(r, block.cols))
             for col, r in zip(ker.basis.columns(), ker.lead_rows())],
            [(_unit(c, block.cols), eq)
             for c, eq in zip(block.rref()[1], ker.equations().entries)])


@pytest.mark.parametrize("name", ORACLE_INPUTS + sorted(NON_UNIMODULAR))
def test_hodge_generators_read_off_the_canonical_kernel(name):
    # coords inverts basis, and the value-p generators supported on slot
    # (p, q) are the columns of the canonical Ker mubar_{p,q}, in order
    cm = _cm_of(name)
    for n in range(2 * cm.m + 1):
        values, basis, coords = hodge_generators(cm, n)
        assert values == sorted(values)
        assert coords @ basis == Matrix.identity(basis.cols)
        for p, q, off in cm.basis.slot_offsets(n):
            ker = Subspace.kernel(cm.block(MUBAR, p, q)).basis
            inside = [col[off:off + ker.rows]
                      for col, v in zip(basis.columns(), values)
                      if v == p and any(col[off:off + ker.rows])]
            assert Matrix.from_columns(inside, ker.rows) == ker


@pytest.mark.parametrize("name", ORACLE_INPUTS + sorted(NON_UNIMODULAR))
def test_hodge_pages_equal_the_oracle_generators_pages(name):
    cm = _cm_of(name)
    got = reduce_filtration(cm, hodge_generators)
    want = reduce_filtration(cm, _oracle_hodge_generators)
    for r in range(2 * cm.m + 3):
        assert got.dims(r) == want.dims(r), "page %d" % r


def test_complement_at_the_forward_pivots_is_not_inverted():
    # negative control: K's equations invert only the unit vectors at the
    # rows without K's leading ones
    broken = []
    for name in ORACLE_INPUTS:
        cm = _cm_of(name)
        for n in range(2 * cm.m + 1):
            _, basis, coords = _forward_pivot_complement(cm, n)
            if coords @ basis != Matrix.identity(basis.cols):
                broken.append((name, n))
    assert len(broken) >= 10, broken


def test_hodge_filtration_abelian_is_column_truncation():
    an = builtin_analysis("abelian-m2")
    basis = an.cm.basis
    for n in range(5):
        for p in range(n + 2):
            expected = sum(basis.dim(i, n - i) for i in range(p, n + 1))
            assert _level_dim(an.pages, p, n) == expected


def test_hodge_filtration_filiform_uses_mubar_kernel():
    an = builtin_analysis("filiform-J")
    cm = an.cm
    ker_dim = cm.basis.dim(1, 1) - cm.block(MUBAR, 1, 1).rank()
    expected = ker_dim + cm.basis.dim(2, 0)
    assert _level_dim(an.pages, 1, 2) == expected
    assert expected < cm.basis.total_dim(2)


def test_shifted_filtration_is_column_truncation():
    an = builtin_analysis("filiform-J")
    shifted = reduce_filtration(an.cm, shifted_generators)
    basis = an.cm.basis
    for n in range(5):
        for p in range(n, 2 * n + 2):
            expected = sum(basis.dim(i, n - i) for i in range(p - n, n + 1))
            assert _level_dim(shifted, p, n) == expected


@pytest.mark.parametrize("name", sorted(DEGENERATION))
def test_first_page_is_dolbeault(name):
    an = builtin_analysis(name)
    assert dims_grid(an.pages.dims(1), an.m) == dims_grid(
        dolbeault(an.cm).dims, an.m)


@pytest.mark.parametrize("name,expected", sorted(E2_TABLES.items()))
def test_second_page_tables(name, expected):
    an = builtin_analysis(name)
    assert dims_grid(an.pages.dims(2), an.m) == expected


@pytest.mark.parametrize("name,page", sorted(DEGENERATION.items()))
def test_degeneration_pages(name, page):
    assert builtin_analysis(name).pages.degeneration_page == page


def test_degeneration_page_is_the_first_page_equal_to_einf():
    # oracle: the least r >= 1 whose whole page equals E_inf
    for name in sorted(DEGENERATION) + list(GOLDEN_INPUTS):
        pages = named_analysis(name).pages
        want = next(r for r in range(1, 2 * named_analysis(name).m + 3)
                    if pages.dims(r) == pages.infinity())
        assert pages.degeneration_page == want, name
    # an unpaired degree-1 generator of filiform-J made to die on E_4
    red = frolicher_all(_cm_of("filiform-J"))
    red.gap[1][red.gap[1].index(None)] = 3
    assert red.dims(3) != red.infinity() == red.dims(4)
    assert red.degeneration_page == 4


def test_filiform_jprime_infinity_table():
    an = builtin_analysis("filiform-Jprime")
    assert dims_grid(an.pages.dims(1), an.m) == ((1, 0, 0), (2, 2, 2),
                                                 (0, 0, 1))
    assert an.pages.infinity() == an.pages.dims(1)


@pytest.mark.parametrize("name", sorted(DEGENERATION))
def test_infinity_rows_sum_to_betti(name):
    an = builtin_analysis(name)
    assert all(c.passed for c in infinity_vs_betti(an.pages, de_rham(an.cm)))


def test_page_dims_weakly_decrease():
    for name in ("filiform-J", "su2su2-nk"):
        an = builtin_analysis(name)
        for r in range(1, 2 * an.m + 2):
            nxt = an.pages.dims(r + 1)
            cur = an.pages.dims(r)
            for key, val in nxt.items():
                assert val <= cur.get(key, 0)


def test_edge_monotonicity_and_corner():
    for name in ("filiform-J", "su2su2-nk", "kt-J"):
        an = builtin_analysis(name)
        m = an.m
        for r in range(1, 2 * m + 2):
            for p in range(m + 1):
                assert (an.pages.dims(r + 1).get((p, 0), 0)
                        <= an.pages.dims(r).get((p, 0), 0))
                assert (an.pages.dims(r + 1).get((0, p), 0)
                        <= an.pages.dims(r).get((0, p), 0))
        assert an.pages.dims(2).get((0, 0), 0) == 1


def test_bottom_row_first_page_is_kernel_intersection():
    from acdol.forms import DELBAR
    for name in ("filiform-J", "su2su2-nk"):
        an = builtin_analysis(name)
        cm = an.cm
        for p in range(an.m + 1):
            ker = Subspace.kernel(cm.block(DELBAR, p, 0)).intersect(
                Subspace.kernel(cm.block(MUBAR, p, 0)))
            assert an.pages.dims(1).get((p, 0), 0) == ker.dim


def test_generic_delta1_matches_table_drop():
    an = builtin_analysis("filiform-J")
    pairs = an.pages.pairs(1)
    # 4 -> 2 at (1, 1): one gap-1 pair leaves it and one arrives from (0, 1)
    assert sorted(pairs) == [((0, 1), (1, 1)), ((1, 1), (2, 1))]
    e1, e2 = an.pages.dims(1), an.pages.dims(2)
    for key in set(e1) | set(e2):
        ends = sum(pair.count(key) for pair in pairs)
        assert e2.get(key, 0) == e1.get(key, 0) - ends


def test_reduction_certificate_flags_a_wrong_reduction():
    an = builtin_analysis("filiform-J")
    delta1 = dolbeault_delta1(an.cm, dolbeault(an.cm))
    check = reduction_certificate(an.pages, delta1)
    assert check.passed
    assert check.detail == "r = [1, 2] verified against the next page"
    table = copy.deepcopy(an.pages)
    col = next(c for c in table.reduced[1] if c)
    col[min(col)] = col[min(col)] * Scalar(2)
    check = reduction_certificate(table, delta1)
    assert not check.passed and "D V != R in degree 1" in check.detail
    wrong = dict(delta1)
    wrong[(0, 1)] = Matrix.zero(delta1[(0, 1)].rows, delta1[(0, 1)].cols)
    check = reduction_certificate(an.pages, wrong)
    assert not check.passed
    assert "witness delta_1 rank 0 vs 1 gap-1 pairs at (p=0,q=1)" \
        in check.detail


def test_su2su2_delta1_injective_on_01():
    an = builtin_analysis("su2su2-nk")
    mat = dolbeault_delta1(an.cm, dolbeault(an.cm))[(0, 1)]
    assert mat.rank() == an.h_dol[(0, 1)] == 3


def test_witness_delta1_agrees_with_generic_ranks():
    an = builtin_analysis("filiform-J")
    dol = dolbeault(an.cm)
    d1 = dolbeault_delta1(an.cm, dol)
    assert d1[(1, 1)].rank() == 1
    assert d1[(0, 1)].rank() == 1
    sources = [src for src, _ in an.pages.pairs(1)]
    for key, mat in d1.items():
        assert mat.rank() == sources.count(key)
    # cohomology of the witness delta1 on classes equals the second page
    for (p, q) in an.cm.basis.slots:
        inc = d1.get((p - 1, q))
        img = inc.rank() if inc is not None else 0
        assert (dol.dim(p, q) - d1[(p, q)].rank() - img
                == an.pages.dims(2).get((p, q), 0))


def _witness_images(cm, p, q, cocycles, flip=False):
    """The witness formula partial w - delbar eta, mubar eta = delbar w,
    on the columns w of ``cocycles`` in slot (p, q), into slot (p + 1, q);
    with ``flip`` the sign of delbar eta is wrong."""
    eta = cm.block(MUBAR, p + 1, q - 1).solve(cm.block(DELBAR, p, q)
                                              @ cocycles)
    assert eta is not None
    shift = cm.block(DELBAR, p + 1, q - 1) @ eta
    image = cm.block(PARTIAL, p, q) @ cocycles
    return image + shift if flip else image - shift


def test_delta1_squares_to_zero():
    # the witness formula applied twice lands in the coboundaries of
    # (p + 2, q), the stacked oracle's
    for name in ("su2su2-nk", "s3s3-nk", "filiform-J", "random-m3-seed1"):
        cm = _cm_of(name)
        dol = dolbeault(cm)
        for (p, q), cocycles in dol.cocycles.items():
            once = _witness_images(cm, p, q, cocycles.basis)
            twice = _witness_images(cm, p + 1, q, once)
            assert _stacked_coboundaries(cm, p + 2, q).contains(
                Subspace.from_matrix_columns(twice)), (name, p, q)


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "su2su2-nk"])
def test_witness_independence(name):
    an = builtin_analysis(name)
    dol = dolbeault(an.cm)
    delta1 = dolbeault_delta1(an.cm, dol)
    for p in range(an.m + 1):
        for q in range(an.m + 1):
            assert witness_independent(an.cm, dol, delta1, p, q)


def test_witness_independence_flags_a_missing_coboundary():
    # negative control: drop from the coboundaries of slot (p + 1, q) a
    # direction that delbar(Ker mubar_{p+1,q-1}) needs
    an = builtin_analysis("su2su2-nk")
    cm = an.cm
    dol = dolbeault(cm)
    delta1 = dolbeault_delta1(cm, dol)
    for (p, q) in sorted(dol.cocycles):
        den = dol.coboundaries.get((p + 1, q))
        shifts = Subspace.from_matrix_columns(
            cm.block(DELBAR, p + 1, q - 1)
            @ _subspace_oracle.nullspace_matrix(cm.block(MUBAR, p + 1, q - 1)))
        if dol.dim(p, q) and den is not None and shifts.dim:
            break
    else:
        pytest.fail("no slot where the witness can move the image")
    assert witness_independent(cm, dol, delta1, p, q)
    cols = den.basis.columns()
    smaller = next(
        sub for sub in (Subspace.from_columns(den.ambient_dim,
                                              cols[:k] + cols[k + 1:])
                        for k in range(len(cols)))
        if not sub.contains(shifts))
    tampered = dataclasses.replace(
        dol, coboundaries={**dol.coboundaries, (p + 1, q): smaller})
    assert not witness_independent(cm, tampered, delta1, p, q)


@pytest.mark.parametrize("name,slots", [("filiform-Jprime", [(1, 1)]),
                                        ("s3s3-nk", [(1, 2)])])
def test_witness_independence_flags_a_flipped_witness_term(name, slots):
    # negative control: with the sign of delbar eta flipped, the images of
    # the coboundaries of these slots leave the target's coboundaries
    cm = _cm_of(name)
    dol = dolbeault(cm)
    flipped = {}
    for (p, q), cocycles in dol.cocycles.items():
        _, tgt_coboundaries = dol.spaces(p + 1, q)
        flipped[(p, q)] = tgt_coboundaries.equations() @ _witness_images(
            cm, p, q, cocycles.basis, flip=True)
    delta1 = dolbeault_delta1(cm, dol)
    assert [pq for pq in sorted(dol.cocycles)
            if not witness_independent(cm, dol, delta1, *pq)] == []
    assert [pq for pq in sorted(dol.cocycles)
            if not witness_independent(cm, dol, flipped, *pq)] == slots


def test_delta1_flags_an_image_outside_the_cocycles():
    # negative control: without the Dolbeault cocycles of slot (2, 2) of
    # su2su2-nk the delta_1 images of the (1, 2) cocycles, nonzero forms
    # in the coboundaries there, are not cocycles
    cm = builtin_analysis("su2su2-nk").cm
    dol = dolbeault(cm)
    dolbeault_delta1(cm, dol)
    num = dol.cocycles[(2, 2)]
    tampered = dataclasses.replace(dol, cocycles={
        **dol.cocycles, (2, 2): Subspace.zero(num.ambient_dim)})
    with pytest.raises(ConsistencyError,
                       match=r"not a Dolbeault cocycle at \(1, 2\)"):
        dolbeault_delta1(cm, tampered)


@pytest.mark.parametrize("name", sorted(DEGENERATION))
def test_explicit_pages_match_generic(name):
    an = builtin_analysis(name)
    for r, exp in enumerate(explicit_pages(an.cm, 4), 1):
        gen = {k: v for k, v in an.pages.dims(r).items() if v}
        assert exp == gen, "page %d" % r


def test_explicit_page_abelian_slot_dims():
    an = builtin_analysis("abelian-m2")
    b = an.cm.basis
    for exp in explicit_pages(an.cm, 3):
        for p in range(3):
            for q in range(3):
                assert exp.get((p, q), 0) == b.dim(p, q)


# -- the witness systems at their effective chain length ---------------------


def _explicit_oracle(cm, r, p, q):
    """(Z_r, B_r) of slot (p, q) from the full-length witness systems of
    r links, as ``explicit_pages`` solved them before it read each slot at
    its effective chain length: the labelled oracle of that rule and of
    its memo."""
    dim = cm.basis.dim
    tags = (MUBAR, DELBAR, PARTIAL, MU)
    cyc = [(p + i, q - i) for i in range(r + 1)]
    system = Matrix.from_blocks(
        [dim(p + i - 1, q - i + 2) for i in range(r + 1)],
        [dim(*slot) for slot in cyc],
        {(i, i - t): cm.block(tag, *cyc[i - t])
         for i in range(r + 1) for t, tag in enumerate(tags) if t <= i})
    ker = Subspace.kernel(system).basis
    z = Subspace.from_matrix_columns(
        Matrix(dim(p, q), ker.cols, ker.entries[:dim(p, q)]))
    chain = [(p + 2 - i, q - 3 + i) for i in range(1, r + 2)]
    widths = [dim(*slot) for slot in chain]
    system = Matrix.from_blocks(
        [dim(p - j, q + j) for j in range(1, r + 1)], widths,
        {(j - 1, j + t): cm.block(tag, *chain[j + t])
         for j in range(1, r + 1) for t, tag in enumerate(tags) if j + t <= r})
    boundary = Matrix.from_blocks(
        [dim(p, q)], widths,
        {(0, t): cm.block(tag, *slot)
         for t, (tag, slot) in enumerate(zip(tags, chain))})
    return z, Subspace.from_matrix_columns(
        boundary @ Subspace.kernel(system).basis)


WITNESS_INPUTS = catalog.builtin_names() + ["s3s3-nk"] + [
    "random-m%d-seed%d" % (m, seed)
    for m, seeds in ((2, range(1, 13)), (3, range(1, 6))) for seed in seeds]


@pytest.mark.parametrize("name", WITNESS_INPUTS)
def test_explicit_spaces_equal_the_full_length_oracle(name):
    cm = _cm_of(name)
    memo = {}
    pages = []
    for r in range(1, 2 * cm.m + 3):
        dims = {}
        for (p, q) in sorted(cm.basis.slots):
            z, b = _explicit_oracle(cm, r, p, q)
            assert (spectral.explicit_spaces(cm, r, p, q, memo)
                    == [z, b]), (r, p, q)
            if z.dim - b.dim:
                dims[(p, q)] = z.dim - b.dim
        pages.append(dims)
    assert explicit_pages(cm, 2 * cm.m + 2) == pages


@pytest.mark.parametrize("name, systems", [("kt-J", 17), ("abelian-m3", 36)])
def test_battery_solves_each_witness_system_once(name, systems, monkeypatch):
    # the full-length systems were one per slot and page: 9 x 4 = 36 of
    # each kind at m = 2 and 16 x 4 = 64 at m = 3; the battery's one call
    # of explicit_pages solves each distinct system once, and leaves no
    # witness state on the differential
    an = pipeline.analyze_document(catalog.builtin(name))
    calls = {"explicit_cycles": 0, "explicit_boundaries": 0,
             "explicit_pages": 0}

    def counted(solve):
        @functools.wraps(solve)
        def wrapper(*args):
            calls[solve.__name__] += 1
            return solve(*args)
        return wrapper

    for fn in calls:
        monkeypatch.setattr(spectral, fn, counted(getattr(spectral, fn)))
    pipeline.verification_checks(an)
    assert calls == {"explicit_cycles": systems,
                     "explicit_boundaries": systems, "explicit_pages": 1}
    assert not hasattr(an.cm, "witness_spaces")


def _pages_entry(an):
    return next(c for c in pipeline.verification_checks(an)
                if c.name == "explicit_pages_match_generic")


def _narrow_slot(cm, r):
    """The first slot whose Z_r is not the whole slot."""
    return next((p, q) for (p, q) in sorted(cm.basis.slots)
                if spectral.explicit_spaces(cm, r, p, q, {})[0].dim
                < cm.basis.dim(p, q))


def _widen(monkeypatch, solver, p, q):
    """Make the witness solver ``solver`` return the whole slot (p, q) for
    each of its systems on that slot: the slot heads the column slots of a
    cycle system and the row slots of a boundary system."""
    solve = getattr(spectral, solver)

    @functools.wraps(solve)
    def widened(cm, rows, cols):
        head = cols if solver == "explicit_cycles" else rows
        if head[0] == (p, q):
            return Subspace.kernel(Matrix.zero(0, cm.basis.dim(p, q)))
        return solve(cm, rows, cols)

    monkeypatch.setattr(spectral, solver, widened)


def test_tampered_cycles_fail_the_pages_entry(monkeypatch):
    """The battery's explicit pages read Z_r: widened to the whole slot,
    it no longer matches the Hodge reduction, and the entry names the
    first page and slot that differ.  Z_1 of the slot (0, 1) is the whole
    slot already, so that page is 2."""
    an = pipeline.analyze_document(catalog.builtin("filiform-J"))
    assert _pages_entry(an).passed
    slot = _narrow_slot(an.cm, 4)
    assert (spectral.explicit_spaces(an.cm, 1, *slot, {})[0].dim
            == an.cm.basis.dim(*slot))
    _widen(monkeypatch, "explicit_cycles", *slot)
    failed = _pages_entry(an)
    assert not failed.passed
    assert (slot, failed.detail) == ((0, 1), "fails on page 2, slot (0, 1)")


def test_tampered_boundaries_escape_the_cycles(monkeypatch):
    """B_r widened to the whole slot leaves Z_r, and the page oracle names
    the page and the slot."""
    cm = _cm_of("kt-J")
    p, q = _narrow_slot(cm, 2)
    _widen(monkeypatch, "explicit_boundaries", p, q)
    with pytest.raises(ConsistencyError, match=r"explicit boundaries escape "
                       r"the cycles at r=2 \(p=%d,q=%d\)$" % (p, q)):
        spectral.explicit_page(cm, 2, {})


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "abelian-m2",
                                  "su2su2-nk"])
def test_decalage(name):
    an = builtin_analysis(name)
    check = decalage_check(an.cm, an.pages)
    assert (check.name, check.passed, check.detail) == ("decalage", True, "")


def test_decalage_names_the_first_failing_page_and_slot():
    """Negative control: every unpaired generator of filiform-J's Hodge
    reduction made to die on E_2, so that E_2 loses a generator on several
    slots of several degrees; the entry names page 2 and the first of
    them, p-major, (0, 0), where the old page loop named the last."""
    an = builtin_analysis("filiform-J")
    tampered = dataclasses.replace(an.pages, gap=[
        [1 if g is None else g for g in gaps] for gaps in an.pages.gap])
    lost = sorted(pq for pq, dim in an.pages.dims(2).items()
                  if tampered.dims(2).get(pq, 0) != dim)
    assert lost[0] == (0, 0) and len({p + q for p, q in lost}) > 1
    check = decalage_check(an.cm, tampered)
    assert (check.passed, check.detail) == (
        False, "fails on page 2, slot (0, 0): 0 vs shifted 1")


def test_decalage_names_the_degree_of_a_failing_subspace_identity():
    """Negative control: filiform-J's degree-1 Hodge generators replaced by
    the monomials, their values kept, so that every page is as it was but
    the subspace identity fails, first in degree 1 at p = 1."""
    an = builtin_analysis("filiform-J")
    basis = list(an.pages.basis)
    basis[1] = Matrix.identity(basis[1].rows)
    tampered = dataclasses.replace(an.pages, basis=basis)
    assert all(tampered.dims(r) == an.pages.dims(r) for r in range(1, 7))
    check = decalage_check(an.cm, tampered)
    assert (check.passed, check.detail) == (
        False, "subspace identity fails in degree 1 at p = 1")


def test_er_page_rejects_negative_index():
    an = builtin_analysis("abelian-m2")
    with pytest.raises(ValueError):
        an.pages.dims(-1)


def _random_cm(rng, m):
    spec = validate_spec(random_nilpotent_spec(rng, m))
    return build_differential(complexify(spec, adapted_frame(spec)),
                              build_basis(m))


def test_random_specs_spectral_convergence():
    rng = seeded_rng(777)
    for m in (2, 2, 2, 2, 3, 3):
        cm = _random_cm(rng, m)
        pages = frolicher_all(cm)
        betti = de_rham(cm)
        assert all(c.passed for c in infinity_vs_betti(pages, betti))
        for r, exp in enumerate(explicit_pages(cm, 3), 1):
            assert exp == {k: v for k, v in pages.dims(r).items() if v}


def _frame_invariants(spec, frame):
    m = spec.m
    cm = build_differential(complexify(spec, frame), build_basis(m))
    pages = frolicher_all(cm)
    return (mub_cohomology(cm).dims, dolbeault(cm).dims, de_rham(cm),
            [pages.dims(r) for r in range(1, 2 * m + 3)])


def _frame_specs():
    rng = seeded_rng(2468)
    specs = [validate_spec(random_nilpotent_spec(rng, m)) for m in (2, 2, 3)]
    nk = docio.to_spec(catalog.builtin("su2su2-nk"))
    greedy = dataclasses.replace(nk, frame_seeds=None)
    return [(s, []) for s in specs] + [(greedy, [nk.frame_seeds, (0, 2, 1)])]


@pytest.mark.parametrize("spec,seed_lists", _frame_specs(),
                         ids=["random-m2-a", "random-m2-b", "random-m3",
                              "su2su2-nk"])
def test_tables_and_pages_do_not_depend_on_the_frame(spec, seed_lists):
    """h_mub, h_dol, the Betti numbers and every page depend on J alone:
    the plain frame, its Gram-Schmidt orthogonalisation and explicit frame
    seeds give the same invariants."""
    plain = adapted_frame(spec)
    frames = [plain, _orthogonal_frame_oracle(spec, plain)]
    for seeds in seed_lists:
        seeded = dataclasses.replace(spec, frame_seeds=seeds)
        frames.append(adapted_frame(validate_spec(seeded)))
    frames = list(dict.fromkeys(frames))
    assert len(frames) >= 2
    want = _frame_invariants(spec, plain)
    for frame in frames[1:]:
        assert _frame_invariants(spec, frame) == want


def test_random_m4_pages_converge():
    cm = _random_cm(seeded_rng(11), 4)
    pages = frolicher_all(cm)
    assert all(c.passed for c in infinity_vs_betti(pages, de_rham(cm)))
    assert decalage_check(cm, pages).passed
    assert pages.degeneration_page == 1
