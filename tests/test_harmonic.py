"""Hodge star, adjoints, Laplacians, the delbar_mub theory, and the nearly
Kahler identity battery."""

import dataclasses
import itertools
import os
from fractions import Fraction

import pytest

from acdol import catalog, docio, forms, harmonic, pipeline
from acdol.cohomology import (ConsistencyError, de_rham,
                              top_cohomology_is_line)
from acdol.forms import (DELBAR, MU, MUBAR, PARTIAL, build_basis,
                         build_differential, conjugation_matrix)
from acdol.harmonic import (HermitianStructure, adjointness_checks,
                            build_hermitian, delb_mub,
                            delb_mub_checks, fundamental_form,
                            lefschetz_matrices, metric_independence_probe,
                            nearly_kahler_checks,
                            serre_star_check)
from acdol.kernel import ONE, ZERO, Scalar, from_rational
from acdol.liealg import (adapted_frame, complexify, make_spec,
                          pullback_metric, validate_spec)
from acdol.linalg import Matrix, Subspace
from conftest import (ORACLE_INPUTS, builtin_analysis, dims_grid,
                      named_analysis, named_spec, random_nilpotent_spec,
                      seeded_rng)
from test_liealg import _orthogonal_frame_oracle


def test_star_m1_volume():
    # one pair: [e1, e2] = 0, J e1 = e2, identity metric
    spec = validate_spec(make_spec(2, None, {}, [[0, -1], [1, 0]]))
    frame = adapted_frame(spec)
    cm = build_differential(complexify(spec, frame), build_basis(1))
    hs = build_hermitian(cm, frame, spec.metric)
    assert hs.volume_coeff == Scalar(0, 2)  # 2i times the top monomial
    assert hs.star(0, 0).col(0) == (Scalar(0, 2),)
    assert hs.star(1, 0).col(0) == (Scalar(0, -1),)   # star t = -i t
    assert hs.star(0, 1).col(0) == (Scalar(0, 1),)    # star tbar = i tbar
    # star of the volume undoes star of 1 up to (-1)^k with k = 2
    assert hs.star(1, 1).col(0)[0] * hs.volume_coeff == ONE


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "abelian-m2"])
def test_star_defining_property_exhaustive(name):
    an = builtin_analysis(name)
    for (p, q) in an.cm.basis.slots:
        assert an.hs.check_star_defining(p, q)
        assert an.hs.check_star_isometry(p, q)


def test_star_checks_flag_a_scaled_entry(monkeypatch):
    # negative control: doubling one entry of ⋆ on slot (1, 0) must break
    # the isometry there and the defining property on slot (0, 1)
    spec = docio.to_spec(catalog.builtin("filiform-J"))
    frame = adapted_frame(spec)
    hs = build_hermitian(build_differential(complexify(spec, frame),
                                            build_basis(2)), frame,
                         spec.metric)
    assert hs.check_star_isometry(1, 0) and hs.check_star_defining(0, 1)
    good = hs.star(1, 0)
    i, j = next((i, j) for i in range(good.rows) for j in range(good.cols)
                if good.entries[i][j])
    rows = [list(row) for row in good.entries]
    rows[i][j] = rows[i][j] + rows[i][j]
    bad = Matrix(good.rows, good.cols, rows)
    star = hs.star
    monkeypatch.setattr(hs, "star",
                        lambda p, q: bad if (p, q) == (1, 0) else star(p, q))
    assert not hs.check_star_isometry(1, 0)
    assert not hs.check_star_defining(0, 1)


def _layer_args(name):
    """(cm, frame, metric) of ``name`` on its plain frame, built afresh:
    the arguments of ``build_hermitian``."""
    spec = validate_spec(named_spec(name))
    frame = adapted_frame(spec)
    return build_differential(complexify(spec, frame),
                              build_basis(spec.m)), frame, spec.metric


def test_star_bookkeeping_error_names_its_slot(monkeypatch):
    # negative control: no complement for the monomials of slot (1, 0);
    # the layer builds no ⋆, and the raise comes when ⋆(1, 0) is first built
    args = _layer_args("filiform-J")
    wedge = harmonic.forms.wedge_monomials
    monkeypatch.setattr(harmonic.forms, "wedge_monomials", lambda a, b: (
        None if (bin(a[1]).count("1"), bin(a[0]).count("1")) == (1, 0)
        else wedge(a, b)))
    hs = build_hermitian(*args)
    hs.star(0, 0)
    with pytest.raises(ConsistencyError, match=(
            r"^complementary monomial bookkeeping failed on slot \(1, 0\)$")):
        hs.star(1, 0)


def _star_entry_details(hs):
    """The failures the battery entry of ⋆ names on ``hs``, after checking
    that the entry fails."""
    check = harmonic.star_check(hs)
    assert check.name == "star_defining_and_isometry"
    assert not check.passed
    return check.detail.split("; ")


def test_star_of_one_error_names_its_slot(monkeypatch):
    # negative control: ⋆ on slot (0, 0) doubled
    hs = build_hermitian(*_layer_args("filiform-J"))
    star = HermitianStructure.star
    monkeypatch.setattr(HermitianStructure, "star", lambda hs, p, q: (
        star(hs, p, q).scale(Scalar(2)) if (p, q) == (0, 0)
        else star(hs, p, q)))
    assert _star_entry_details(hs) == [
        "⋆1 is not the volume form on slot (0, 0)",
        "⋆⋆ != (-1)^degree on slot (0, 0)",
        "⋆ defining property fails on slot (0, 0)",
        "⋆ isometry fails on slot (0, 0)"]


def test_volume_length_error_names_its_slot(monkeypatch):
    # negative control: the Gram matrix of the top slot (2, 2) doubled,
    # which ⋆1 does not read
    hs = build_hermitian(*_layer_args("filiform-J"))
    gram = HermitianStructure.gram
    monkeypatch.setattr(HermitianStructure, "gram", lambda hs, p, q: (
        gram(hs, p, q).scale(Scalar(2)) if (p, q) == (2, 2)
        else gram(hs, p, q)))
    details = _star_entry_details(hs)
    assert details[0] == "volume form is not unit length on slot (2, 2)"
    assert "⋆1 is not the volume form on slot (0, 0)" not in details


def test_delbar_mub_square_error_names_its_slot(monkeypatch):
    # negative control: on abelian-m2 every form is mubar-harmonic, and
    # delbar replaced by all-ones blocks on slots (1, 0) and (1, 1) makes
    # the square nonzero from slot (1, 0) on; slots (0, 0) and (0, 1),
    # checked first, are untouched.  delb_mub only computes; the battery
    # entry names the slot
    args = _layer_args("abelian-m2")
    cm = args[0]
    hs = build_hermitian(*args)
    block = cm.block

    def tampered(tag, p, q):
        real = block(tag, p, q)
        if tag != DELBAR or (p, q) not in ((1, 0), (1, 1)):
            return real
        return Matrix(real.rows, real.cols, [[ONE] * real.cols] * real.rows)

    monkeypatch.setattr(cm, "block", tampered)
    entry = delb_mub_checks(*delb_mub(hs), {})[2]
    assert entry.name == "delbar_mub_hodge_decomposition"
    assert not entry.passed
    assert entry.detail.split("; ")[0] == (
        "delbar_mub does not square to zero on slot (1, 0)")


def test_pairwise_orthogonal_flags_a_non_orthogonal_pair():
    hs = builtin_analysis("filiform-J").hs
    e1 = Subspace.from_columns(2, [(ONE, ZERO)])
    e2 = Subspace.from_columns(2, [(ZERO, ONE)])
    diagonal = Subspace.from_columns(2, [(ONE, ONE)])
    assert harmonic._pairwise_orthogonal(hs, 1, 0, (e1, e2))
    assert not harmonic._pairwise_orthogonal(hs, 1, 0, (e1, diagonal))
    assert not harmonic._pairwise_orthogonal(hs, 1, 0, (e1, e2, diagonal))


def test_star_involution_on_middle_slot():
    an = builtin_analysis("abelian-m2")
    st = an.hs.star(1, 1)
    assert st @ st == Matrix.identity(4)


def test_star_defining_property_random_metric():
    rng = seeded_rng(9001)
    spec = validate_spec(random_nilpotent_spec(rng, 2))
    frame = adapted_frame(spec)
    cm = build_differential(complexify(spec, frame), build_basis(2))
    hs = build_hermitian(cm, frame, spec.metric)
    assert not _is_diagonal(hs.frame_gram)
    for (p, q) in cm.basis.slots:
        assert hs.check_star_defining(p, q)


def test_adjoints_zero_on_abelian():
    an = builtin_analysis("abelian-m2")
    for tag in (MUBAR, DELBAR, PARTIAL, MU):
        assert all(an.hs.adjoint_block(tag, *pq).is_zero()
                   for pq in an.cm.basis.slots)


def _is_diagonal(mat):
    return not any(x for i, row in enumerate(mat.entries)
                   for j, x in enumerate(row) if i != j)


def hermitian(name):
    """The Hermitian structure of ``named_spec(name)`` on its plain frame,
    built afresh; "aff1" is aff(1)."""
    spec = validate_spec(affine_spec() if name == "aff1" else named_spec(name))
    frame = adapted_frame(spec)
    cm = build_differential(complexify(spec, frame), build_basis(spec.m))
    return build_hermitian(cm, frame, spec.metric)


def _star_formula_agrees(hs, tag):
    return all(harmonic.star_adjoint(hs, tag, p, q)
               == hs.adjoint_block(tag, p, q) for (p, q) in hs.basis.slots)


# the unimodular builtins, and random nilpotent inputs whose frame has a
# Gram matrix that is not diagonal, unlike every builtin's
UNIMODULAR_INPUTS = catalog.builtin_names() + [
    "random-m%d-seed%d" % (m, seed) for m in (2, 3) for seed in (1, 2, 3)]
NON_UNIMODULAR_INPUTS = ["aff1", "solvable-m2"]


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "su2su2-nk"]
                         + NON_UNIMODULAR_INPUTS)
def test_mubar_star_adjoint_equals_gram_adjoint(name):
    """The boundary term the star formula drops lies off the (p, q) grid
    for mubar and mu, so the formula is their Gram adjoint on every
    algebra, unimodular or not."""
    hs = hermitian(name)
    assert _star_formula_agrees(hs, MUBAR) and _star_formula_agrees(hs, MU)


@pytest.mark.parametrize("name", UNIMODULAR_INPUTS)
def test_delbar_adjointness_unimodular(name):
    """Oracle for the one adjoint: on a unimodular algebra the star formula
    -⋆ δ̄ ⋆ equals ``adjoint_block`` for all four components on every
    slot."""
    hs = hermitian(name)
    assert top_cohomology_is_line(hs.cm)
    assert _is_diagonal(hs.frame_gram) == (not name.startswith("random-"))
    for tag in (MUBAR, DELBAR, PARTIAL, MU):
        assert _star_formula_agrees(hs, tag), tag


@pytest.mark.parametrize("name", NON_UNIMODULAR_INPUTS)
def test_star_formula_is_not_the_delbar_adjoint_when_not_unimodular(name):
    # negative control for the oracle above
    hs = hermitian(name)
    assert not top_cohomology_is_line(hs.cm)
    assert not _star_formula_agrees(hs, DELBAR)


def affine_spec():
    # [X1, X2] = X2 is not unimodular: top cohomology vanishes
    return make_spec(2, None, {(0, 1): {1: 1}}, [[0, -1], [1, 0]])


def affine_analysis():
    return pipeline.analyze(validate_spec(affine_spec()))


def test_non_unimodular_detected_and_skipped():
    # only the checks that read ⋆ as the adjoint of delbar are skipped
    an = affine_analysis()
    assert not top_cohomology_is_line(an.cm)
    checks = delb_mub_checks(*delb_mub(an.hs), an.h_dol)
    assert all(c.passed and not c.skipped for c in checks)
    serre = serre_star_check(an.hs)
    assert [c.skipped for c in serre] == [False, True]
    adjoint = harmonic.adjointness_checks(an.hs)
    assert [c.skipped for c in adjoint] == [False, True]


def test_non_unimodular_battery_gates_only_the_star_checks():
    # the harmonic theory needs no unimodularity: on aff(1) the battery
    # runs the inclusion bound, and it holds, as does the bottom row,
    # where delbar* and mubar* vanish
    an = affine_analysis()
    h_delbar, h_mubar = an.hs.harmonic(DELBAR), an.hs.harmonic(MUBAR)
    assert all(h_delbar[pq].intersect(h_mubar[pq]).dim <= an.h_dol.get(pq, 0)
               for pq in h_delbar)
    battery = {c.name: c for c in pipeline.verification_checks(an)}
    # Serre duality of the Dolbeault dims needs unimodularity too, but no
    # metric
    assert sorted(name for name, c in battery.items() if c.skipped) == [
        "delbar_adjointness", "nearly_kahler_identities",
        "serre_bar_star_delbar_mub_harmonics", "serre_duality_dims"]
    assert battery["harmonic_inclusion_bound"].passed
    assert pipeline.hard_failures(battery.values()) == []


def _with_star_formula(monkeypatch):
    """Make the star formula the adjoint of every new layer."""
    monkeypatch.setattr(HermitianStructure, "adjoint_block",
                        harmonic.star_adjoint)


def test_star_formula_breaks_the_ungated_checks(monkeypatch):
    """Negative controls for the checks that need no unimodularity: on
    solvable-m2 they pass with the Gram adjoint, and with the star formula
    in its place the harmonic inclusion bound fails, and so does the Betti
    check, whose d* is assembled from the same slot adjoints; the Serre
    check of the delbar_mub-harmonics, which reads ⋆, fails there
    ungated, which is why it is gated.  delbar_mub reads no delbar*, only
    the compressions of delbar and the mubar* the star formula gets
    right, so its entries still pass."""
    harmonic_checks = ("harmonic_inclusion_bound",)
    delbar_mub_checks = ("delbar_mub_harmonic_equals_dolbeault",
                         "delbar_mub_hodge_decomposition")

    def battery():
        an = pipeline.analyze(validate_spec(named_spec("solvable-m2")))
        return an, {c.name: c for c in pipeline.verification_checks(an)}

    an, good = battery()
    assert all(good[name].passed and not good[name].skipped
               for name in harmonic_checks + ("d_harmonic_realises_betti",))
    with monkeypatch.context() as patch:
        patch.setattr(harmonic, "top_cohomology_is_line", lambda cm: True)
        ungated = serre_star_check(an.hs)
    assert [c.passed for c in ungated] == [True, False]
    with monkeypatch.context() as patch:
        _with_star_formula(patch)
        _, bad = battery()
        assert not any(bad[name].passed for name in harmonic_checks)
        assert all(bad[name].passed for name in delbar_mub_checks)
        betti = bad["d_harmonic_realises_betti"]
        assert (betti.passed, betti.detail) == (False, "fails in degree 1")


def _laplacian(hs, tag):
    """The slot Laplacians [delta, delta*] = delta delta* + delta* delta of
    the component ``tag``, {(p, q): matrix}."""
    return {pq: hs.anticommutator(tag, tag + "*", *pq)
            for pq in hs.basis.slots}


def test_laplacian_kernel_is_two_sided_kernel():
    """Oracle: delta* is the Gram adjoint, so Ker Delta_delta of the slot
    Laplacian is the harmonic space Ker delta ∩ Ker delta* of every
    component on every slot, unimodular or not."""
    for name in ORACLE_INPUTS + NON_UNIMODULAR_INPUTS:
        hs = hermitian(name)
        for tag in (MUBAR, DELBAR, PARTIAL, MU):
            lap, harm = _laplacian(hs, tag), hs.harmonic(tag)
            for pq in hs.basis.slots:
                assert Subspace.kernel(lap[pq]) == harm[pq], (name, tag, pq)


def test_laplacian_kernel_differs_without_adjointness(monkeypatch):
    # negative control: Ker delta ∩ Ker delta* always lies in Ker Delta,
    # but on aff(1), with the star formula for delbar*, which is not the
    # adjoint there, Ker Delta_delbar is larger on some slot
    _with_star_formula(monkeypatch)
    hs = affine_analysis().hs
    lap, harm = _laplacian(hs, DELBAR), hs.harmonic(DELBAR)
    kers = {pq: Subspace.kernel(lap[pq]) for pq in harm}
    assert all(kers[pq].contains(harm[pq]) for pq in harm)
    assert any(kers[pq] != harm[pq] for pq in harm)


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "abelian-m2"])
def test_analysis_battery_and_document_build_no_slot_laplacian(name,
                                                               monkeypatch):
    calls = _count_laplacians(monkeypatch)
    an = pipeline.analyze_document(catalog.builtin(name))
    pipeline.result_document(an, pipeline.verification_checks(an))
    assert calls == []


def _count_laplacians(monkeypatch):
    """Record the tag of every slot Laplacian anticommutator(tag, tag + "*")
    that a layer is asked for, in the list returned."""
    calls = []
    anticommutator = HermitianStructure.anticommutator

    def counted(hs, a, b, p, q):
        if b == a + "*":
            calls.append(a)
        return anticommutator(hs, a, b, p, q)

    monkeypatch.setattr(HermitianStructure, "anticommutator", counted)
    return calls


def test_everything_harmonic_on_abelian():
    an = builtin_analysis("abelian-m3")
    for tag in (MUBAR, DELBAR, PARTIAL, MU):
        spaces = an.hs.harmonic(tag)
        for (p, q), sub in spaces.items():
            assert sub.dim == an.cm.basis.dim(p, q)
    hd = an.hs.d_harmonic()
    for (p, q), sub in hd.items():
        assert sub.dim == an.cm.basis.dim(p, q)


def test_mub_harmonics_match_mub_cohomology_dims():
    for name in ("filiform-J", "su2su2-nk", "kt-J"):
        an = builtin_analysis(name)
        spaces = an.hs.harmonic(MUBAR)
        for (p, q), sub in spaces.items():
            assert sub.dim == an.h_mub.get((p, q), 0)


def test_d_harmonic_su2su2_pure_type_slots():
    # the degree-3 d-harmonic space is 2-dimensional but of mixed type, so
    # the slotwise intersections vanish there; only the corners remain
    an = builtin_analysis("su2su2-nk")
    hd = {k: v.dim for k, v in an.hs.d_harmonic().items()}
    grid = dims_grid(hd, 3)
    assert grid == ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1))
    stacked = an.hs.d_stacked(3)
    assert stacked.cols - stacked.rank() == 2


def _star_total_oracle(hs, n):
    """⋆ on the degree-n space, each nonzero block entry placed by hand."""
    basis = hs.basis
    m = hs.m
    tgt_off = {(p, q): off for p, q, off in basis.slot_offsets(2 * m - n)}
    data = [[ZERO] * basis.total_dim(n)
            for _ in range(basis.total_dim(2 * m - n))]
    for p, q, off in basis.slot_offsets(n):
        blk = hs.star(p, q)
        toff = tgt_off[(m - q, m - p)]
        for i in range(blk.rows):
            for j in range(blk.cols):
                if blk.entries[i][j]:
                    data[toff + i][off + j] = blk.entries[i][j]
    return Matrix(basis.total_dim(2 * m - n), basis.total_dim(n), data)


def _star_d_adjoint(hs, n):
    """The star route d* = -⋆ d ⋆ on the degree-n space, the adjoint of d
    on a unimodular algebra only."""
    m = hs.m
    return -(_star_total_oracle(hs, 2 * m - n + 1)
             @ (hs.cm.total_matrix(2 * m - n) @ _star_total_oracle(hs, n)))


def _laplacian_d(hs, n):
    """The oracle Delta_d = d* d + d d* on the degree-n space, with the
    star route d*."""
    d = hs.cm.total_matrix
    return (_star_d_adjoint(hs, n + 1) @ d(n)
            + d(n - 1) @ _star_d_adjoint(hs, n))


def _slot_kernels(hs, mat, n):
    """The kernel of each degree-n slot's columns of ``mat``."""
    out = {}
    for p, q, off in hs.basis.slot_offsets(n):
        dim = hs.basis.dim(p, q)
        out[(p, q)] = Subspace.kernel(Matrix(
            mat.rows, dim, [row[off:off + dim] for row in mat.entries]))
    return out


def _total_gram_adjoint_oracle(hs, n):
    """d* on the degree-n space as the whole-degree Gram adjoint
    G_{n-1}^{-1} d_{n-1}^H G_n, with G and G^{-1} of each degree block
    diagonal over its slots: the route of d* before ``d_stacked``
    assembled the slot adjoints."""
    def degree(blocks, k):
        slots = [(p, k - p) for p in range(hs.m + 1)]
        dims = [hs.basis.dim(*pq) for pq in slots]
        return Matrix.from_blocks(dims, dims, {
            (i, i): blocks(*pq) for i, pq in enumerate(slots)})

    return degree(hs.gram_inverse, n - 1) @ (
        hs.cm.total_matrix(n - 1).conj_transpose() @ degree(hs.gram, n))


def _d_star_rows(hs, n):
    """The d* rows of the stacked [d; d*] of degree n."""
    stacked, d = hs.d_stacked(n), hs.cm.total_matrix(n)
    return Matrix(stacked.rows - d.rows, stacked.cols,
                  stacked.entries[d.rows:])


@pytest.mark.parametrize("name", ORACLE_INPUTS + NON_UNIMODULAR_INPUTS)
def test_d_star_equals_the_whole_degree_gram_adjoint(name):
    hs = hermitian(name)
    for n in range(2 * hs.m + 1):
        assert _d_star_rows(hs, n) == _total_gram_adjoint_oracle(hs, n), n


def test_d_harmonic_total_dims_equal_betti_when_unimodular():
    """Oracle: on a unimodular algebra the star route d* is the Gram
    adjoint, the d* rows of ``d_stacked``, the slotwise Ker Delta_d is
    ``d_harmonic`` and the corank of Delta_d is b_n."""
    for name in UNIMODULAR_INPUTS + ["s3s3-nk"]:
        hs = hermitian(name)
        betti = de_rham(hs.cm)
        harm = hs.d_harmonic()
        for n in range(2 * hs.m + 1):
            assert _star_d_adjoint(hs, n) == _d_star_rows(hs, n), (name, n)
            lap = _laplacian_d(hs, n)
            assert lap.cols - lap.rank() == betti[n], (name, n)
            for pq, ker in _slot_kernels(hs, lap, n).items():
                assert ker == harm[pq], (name, n, pq)


def test_star_route_laplacian_d_has_a_false_class_on_aff1():
    # negative control: on aff(1) b_2 = 0, yet the star route Delta_d has
    # a kernel on slot (1, 1); d_harmonic, from the Gram adjoint, has none
    hs = hermitian("aff1")
    assert de_rham(hs.cm)[2] == 0
    assert _slot_kernels(hs, _laplacian_d(hs, 2), 2)[(1, 1)].dim > 0
    assert hs.d_harmonic()[(1, 1)].dim == 0
    assert [hs.d_stacked(n).cols - hs.d_stacked(n).rank()
            for n in range(3)] == list(de_rham(hs.cm))


def test_kt_harmonic_intersection_is_dolbeault_on_bottom_row():
    an = builtin_analysis("kt-J")
    h_delbar = an.hs.harmonic(DELBAR)
    h_mubar = an.hs.harmonic(MUBAR)
    for p in range(an.m + 1):
        inter = h_delbar[(p, 0)].intersect(h_mubar[(p, 0)])
        assert inter.dim == an.h_dol.get((p, 0), 0)


def test_harmonic_inclusion_bound_all_slots():
    for name in ("filiform-J", "kt-J", "su2su2-nk", "kt-Jprime"):
        an = builtin_analysis(name)
        h_delbar = an.hs.harmonic(DELBAR)
        h_mubar = an.hs.harmonic(MUBAR)
        for (p, q) in an.cm.basis.slots:
            inter = h_delbar[(p, q)].intersect(h_mubar[(p, q)])
            assert inter.dim <= an.h_dol.get((p, q), 0)


def test_top_row_intersection_equals_dolbeault_when_unimodular():
    for name in ("filiform-J", "kt-J", "su2su2-nk"):
        an = builtin_analysis(name)
        h_delbar = an.hs.harmonic(DELBAR)
        h_mubar = an.hs.harmonic(MUBAR)
        m = an.m
        for p in range(m + 1):
            inter = h_delbar[(p, m)].intersect(h_mubar[(p, m)])
            assert inter.dim == an.h_dol.get((p, m), 0)


def test_mub_decomposition_builtins():
    for name in ("filiform-J", "su2su2-nk", "abelian-m2"):
        an = builtin_analysis(name)
        checks = {c.name: c for c in pipeline.verification_checks(an)}
        assert checks["mubar_hodge_decomposition"].passed


def test_mub_decomposition_su2su2_middle_slot():
    # dims 0 + 8 + 1 vs slot 9: Im mubar, H_mubar, Im mubar* of slot (1, 1)
    an = builtin_analysis("su2su2-nk")
    hs = an.hs
    assert hs.cm.block(MUBAR, 2, -1).rank() == 0
    coords = _delb_mub_oracle(hs)[0]
    assert (coords[(1, 1)].rows, coords[(1, 1)].cols) == (8, 9)
    assert hs.adjoint_block(MUBAR, 0, 3).rank() == 1
    assert an.hs.harmonic(MUBAR)[(1, 1)].dim == 8


def _frames_analysis(name):
    """``named_analysis(name)``; random-m3-seed1 is the one input here whose
    frame Gram is not diagonal, so that its Gram matrices are dense.  The
    harmonic layer runs on the analysis's differential either way."""
    an = named_analysis(name)
    assert an.hs.cm is an.cm
    assert _is_diagonal(an.hs.frame_gram) == (name != "random-m3-seed1")
    return an


def test_mub_decomposition_projector():
    """H C is the projector onto H_mubar along the two images: the harmonic
    coordinates C of the oracle give C H = I, C Im mubar = 0 and
    C Im mubar* = 0 on every slot."""
    for name in ("su2su2-nk", "random-m3-seed1"):
        an = _frames_analysis(name)
        hs = an.hs
        for (p, q), coords in _delb_mub_oracle(hs)[0].items():
            h = hs.harmonic(MUBAR)[(p, q)]
            assert coords @ h.basis == Matrix.identity(h.dim)
            assert (coords @ hs.cm.block(MUBAR, p + 1, q - 2)).is_zero()
            assert (coords @ hs.adjoint_block(MUBAR, p - 1, q + 2)).is_zero()


def _delb_mub_oracle(hs):
    """The route the compressions replaced, kept as the oracle of
    ``delb_mub``: the harmonic coordinates C of a slot are the H_mubar rows
    of B^{-1}, B = [Im mubar | H_mubar | Im mubar*]; op = C_{q+1} delbar H_q,
    op* = C_{q-1} delbar* H_q with delbar* the Gram adjoint
    ``adjoint_block``, and the delbar_mub-harmonic space is Ker [op; op*]
    lifted into the slot.  Off the grid C is 0 x 0.  Returns
    ({(p, q): C}, op, harmonic)."""
    cm = hs.cm
    harm = hs.harmonic(MUBAR)
    coords = {}
    for (p, q), h in harm.items():
        im_mub = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 2))
        im_adj = Subspace.from_matrix_columns(
            hs.adjoint_block(MUBAR, p - 1, q + 2))
        inv = im_mub.basis.hstack(h.basis).hstack(im_adj.basis).inverse()
        coords[(p, q)] = Matrix(h.dim, h.ambient_dim,
                                inv.entries[im_mub.dim:im_mub.dim + h.dim])
    off_grid = Matrix.zero(0, 0)
    op, harmonic_spaces = {}, {}
    for (p, q), h in harm.items():
        op[(p, q)] = coords.get((p, q + 1), off_grid) @ (
            cm.block(DELBAR, p, q) @ h.basis)
        adj = coords.get((p, q - 1), off_grid) @ (
            hs.adjoint_block(DELBAR, p, q) @ h.basis)
        ker = Subspace.kernel(op[(p, q)].vstack(adj))
        harmonic_spaces[(p, q)] = Subspace.from_matrix_columns(
            h.basis @ ker.basis)
    return coords, op, harmonic_spaces


DELB_MUB_ORACLE_INPUTS = catalog.builtin_names() + [
    "s3s3-nk", "random-m3-seed1", "solvable-m2", "aff1"] + [
    "random-m2-seed%d" % seed for seed in (1, 2, 3, 4)]


@pytest.mark.parametrize("name", DELB_MUB_ORACLE_INPUTS)
def test_delb_mub_equals_the_inverse_route(name):
    """op = M^{-1} N and Ker [N_q; N_{q-1}^H] equal the B^{-1} route's
    C delbar H and Ker [op; op*] exactly, unimodular or not."""
    hs = hermitian(name)
    _, op, harmonic_spaces = _delb_mub_oracle(hs)
    assert delb_mub(hs) == (op, harmonic_spaces)


@pytest.mark.parametrize("name", catalog.builtin_names() + [
    "random-m3-seed%d" % seed for seed in (1, 2, 3)])
def test_delb_mub_harmonic_spaces_need_no_canonicalisation(name):
    """H Ker [N_q; N_{q-1}^H], the product of two canonical bases, is
    already the canonical basis of its span; a basis with its columns
    reversed is not, and compares unequal (a negative control)."""
    _, spaces = delb_mub(hermitian(name))
    for space in spaces.values():
        assert space == Subspace.from_matrix_columns(space.basis)
    space = next(s for s in spaces.values() if s.dim > 1)
    reversed_space = Subspace(space.ambient_dim, _columns_reversed(space.basis))
    assert reversed_space != Subspace.from_matrix_columns(
        reversed_space.basis)


def _all_ones(mat):
    return Matrix(mat.rows, mat.cols, [[ONE] * mat.cols] * mat.rows)


def _columns_reversed(mat):
    return Matrix(mat.rows, mat.cols, [row[::-1] for row in mat.entries])


def _one_vector_short(space):
    return Subspace.from_matrix_columns(Matrix(
        space.ambient_dim, space.dim - 1,
        [row[1:] for row in space.basis.entries]))


@pytest.mark.parametrize("name, tamper", [("abelian-m2", "rank"),
                                          ("abelian-m2", "harmonic"),
                                          ("filiform-Jprime", "square")])
def test_delbar_mub_hodge_decomposition_fails_on_a_tampered_layer(name,
                                                                  tamper):
    """Negative controls: the entry passes as built, and fails when op on
    abelian-m2, zero everywhere, gets rank 1 on slot (0, 0), when the
    harmonic space of its slot (1, 1) is one vector short, and when op on
    slot (1, 1) of filiform-Jprime has its columns reversed, which keeps
    every rank, and so the rank identity, but breaks the square."""
    op, spaces = delb_mub(hermitian(name))

    def entry(op, spaces):
        return next(c for c in delb_mub_checks(op, spaces,
                                               harmonic.space_dims(spaces))
                    if c.name == "delbar_mub_hodge_decomposition").passed

    assert entry(op, spaces)
    if tamper == "rank":
        bad = ({**op, (0, 0): _all_ones(op[(0, 0)])}, spaces)
    elif tamper == "harmonic":
        bad = (op, {**spaces, (1, 1): _one_vector_short(spaces[(1, 1)])})
    else:
        reversed_op = {**op, (1, 1): _columns_reversed(op[(1, 1)])}
        assert ({pq: mat.rank() for pq, mat in reversed_op.items()}
                == {pq: mat.rank() for pq, mat in op.items()})
        bad = (reversed_op, spaces)
    assert not entry(*bad)


def test_delb_mub_squares_to_zero_everywhere():
    for name in catalog.builtin_names() + ["random-m3-seed1"]:
        op, _ = delb_mub(_frames_analysis(name).hs)
        for (p, q), mat in op.items():
            nxt = op.get((p, q + 1))
            if nxt is not None and mat.cols and nxt.rows:
                assert (nxt @ mat).is_zero()


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "kt-Jprime",
                                  "su2su2-nk", "abelian-m2", "abelian-m3",
                                  "random-m3-seed1"])
def test_delb_mub_cohomology_and_harmonics_match_dolbeault(name):
    an = _frames_analysis(name)
    op, spaces = delb_mub(an.hs)
    checks = delb_mub_checks(op, spaces, an.h_dol)
    assert all(c.passed for c in checks)
    grid = dims_grid(harmonic.space_dims(spaces), an.m)
    assert grid == dims_grid(an.h_dol, an.m)


def test_serre_star_checks():
    for name in ("filiform-J", "su2su2-nk", "abelian-m2"):
        an = builtin_analysis(name)
        checks = serre_star_check(an.hs)
        assert all(c.passed for c in checks)


def test_serre_dims_examples():
    an = builtin_analysis("su2su2-nk")
    assert an.h_dol.get((0, 1), 0) == an.h_dol.get((3, 2), 0) == 3
    an = builtin_analysis("filiform-J")
    assert an.h_dol.get((1, 0), 0) == an.h_dol.get((1, 2), 0) == 1


def test_metric_independence_filiform():
    an = builtin_analysis("filiform-J")
    g2 = [[Fraction(v) for v in row]
          for row in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))]
    check = metric_independence_probe(an.spec, an.hs, g2)
    assert check.passed
    assert dims_grid(harmonic.space_dims(delb_mub(an.hs)[1]),
                     2) == dims_grid(an.h_dol, 2)


def test_metric_independence_kt():
    an = builtin_analysis("kt-J")
    from acdol.pipeline import probe_metric
    check = metric_independence_probe(an.spec, an.hs, probe_metric(an.spec))
    assert check.passed


# -- failing harmonic entries name their slot --------------------------------
#
# Negative controls on filiform-J (m = 2, unimodular), whose entries pass
# with an empty detail as built.  A failing entry names the first slot,
# p-major, on which its identity fails, which need not be the tampered one.


@pytest.mark.parametrize("spaces, tampered, first", [
    ("mubar", (2, 1), (0, 1)), ("delbar_mub", (1, 2), (1, 0))],
    ids=["mubar", "delbar_mub"])
def test_serre_entries_name_their_slot(spaces, tampered, first):
    """One vector dropped from a harmonic space breaks bar-star on the
    tampered slot and on its mirror (m - p, m - q), the first of the two
    named."""
    hs = hermitian("filiform-J")
    assert [(c.passed, c.detail) for c in serre_star_check(hs)] == [
        (True, ""), (True, "")]
    if spaces == "mubar":
        harm = hs.harmonic(MUBAR)
        name = "serre_bar_star_mubar_harmonics"
    else:
        harm = delb_mub(hs)[1]
        name = "serre_bar_star_delbar_mub_harmonics"
    harm[tampered] = _one_vector_short(harm[tampered])
    failed = [(c.name, c.detail) for c in serre_star_check(hs)
              if not c.passed]
    assert failed == [(name, "fails on slot (%d, %d)" % first)]


@pytest.mark.parametrize("tag, slot, name", [
    (MUBAR, (1, 2), "mubar_adjoint_is_metric_adjoint"),
    (DELBAR, (2, 1), "delbar_adjointness")], ids=[MUBAR, DELBAR])
def test_adjointness_entries_name_their_slot(tag, slot, name, monkeypatch):
    """One nonzero adjoint block doubled: the star formula differs from
    it there and nowhere before it."""
    hs = hermitian("filiform-J")
    assert [(c.passed, c.detail) for c in adjointness_checks(hs)] == [
        (True, ""), (True, "")]
    adjoint_block = HermitianStructure.adjoint_block

    def doubled(hs, t, p, q):
        blk = adjoint_block(hs, t, p, q)
        return blk + blk if (t, (p, q)) == (tag, slot) else blk

    monkeypatch.setattr(HermitianStructure, "adjoint_block", doubled)
    assert not hs.adjoint_block(tag, *slot).is_zero()
    failed = [(c.name, c.detail) for c in adjointness_checks(hs)
              if not c.passed]
    assert failed == [(name, "fails on slot (%d, %d)" % slot)]


@pytest.mark.parametrize("name, table, change, detail", [
    # dim(H_delbar ∩ H_mubar) is 2 on (1, 1), above a lowered h_dol of 1
    ("harmonic_inclusion_bound", "h_dol", ((1, 1), 1),
     "fails on slot (1, 1)"),
    # the intersection on (1, 0) is 1, below a raised h_dol of 2
    ("harmonic_intersection_bottom_row", "h_dol", ((1, 0), 2),
     "fails on slot (1, 0)"),
    ("d_harmonic_realises_betti", "betti", (2, 3), "fails in degree 2")],
    ids=["inclusion_bound", "bottom_row", "betti"])
def test_battery_harmonic_entries_name_their_slot(name, table, change,
                                                  detail):
    """The battery's comparisons of the harmonic spaces with the tables,
    run on an analysis with one table entry changed."""
    an = pipeline.analyze_document(catalog.builtin("filiform-J"))
    entry = next(c for c in pipeline.verification_checks(an)
                 if c.name == name)
    assert (entry.passed, entry.detail) == (True, "")
    key, value = change
    if table == "h_dol":
        bad = dataclasses.replace(an, h_dol={**an.h_dol, key: value})
    else:
        betti = list(an.betti)
        betti[key] = value
        bad = dataclasses.replace(an, betti=tuple(betti))
    entry = next(c for c in pipeline.verification_checks(bad)
                 if c.name == name)
    assert (entry.passed, entry.detail) == (False, detail)


def test_probe_names_the_slot_where_dims_differ(monkeypatch):
    """The probe's delbar_mub-harmonic space on (1, 1) one vector short:
    its dims differ there, while its layer's certificates pass."""
    an = pipeline.analyze_document(catalog.builtin("filiform-J"))
    build_delb_mub = harmonic.delb_mub
    dims = {}

    def one_short(hs):
        op, spaces = build_delb_mub(hs)
        if hs is not an.hs:  # the probe's layer
            spaces = {**spaces, (1, 1): _one_vector_short(spaces[(1, 1)])}
        dims[hs is an.hs] = harmonic.space_dims(spaces)
        return op, spaces

    monkeypatch.setattr(harmonic, "delb_mub", one_short)
    check = metric_independence_probe(an.spec, an.hs,
                                      pipeline.probe_metric(an.spec))
    assert dims[False][(1, 1)] == dims[True][(1, 1)] - 1
    assert (check.passed, check.detail) == (
        False, "2 metrics probed; metric 2: harmonic dims differ on slot "
        "(1, 1)")


# the catalog workload's inputs: the builtins and the NK S^3 x S^3
CATALOG_INPUTS = catalog.builtin_names() + ["s3s3-nk"]


def _scaled_metric(spec, c):
    return [[c * x for x in row] for row in spec.metric]


@pytest.mark.parametrize("name", CATALOG_INPUTS)
def test_probe_metric_is_five_times_the_input_metric(name):
    # (2I + J)^t g (2I + J) = 4g + 2(J^t g + g J) + J^t g J = 5g
    spec = named_analysis(name).spec
    assert pipeline.probe_metric(spec) == _scaled_metric(spec, 5)


@pytest.mark.parametrize("name", catalog.builtin_names())
def test_orthogonal_frame_remeasures_a_frame_of_another_metric(name):
    """The harmonic frame is 5g-orthogonal as it stands, and a layer built
    on it for 5g measures it anew: the frame Gram H scales by 5, K by 1/5,
    and the Gram matrix of slot (p, q) by 5^-(p + q)."""
    an = builtin_analysis(name)
    variant = validate_spec(an.spec.with_metric(_scaled_metric(an.spec, 5)))
    layer = build_hermitian(an.hs.cm, an.hs.frame, variant.metric)
    assert layer.cm is an.hs.cm and layer.frame is an.hs.frame
    assert _is_diagonal(layer.frame_gram)
    assert layer.frame_gram == an.hs.frame_gram.scale(Scalar(5))
    assert all(layer.gram(p, q) == an.hs.gram(p, q).scale(
        Scalar(1, 0, 5 ** (p + q))) for (p, q) in an.cm.basis.slots)


@pytest.mark.parametrize("name", CATALOG_INPUTS)
def test_probe_layer_reads_the_analysis_differential(name, monkeypatch):
    an = named_analysis(name)
    layers = []
    build = harmonic.build_hermitian

    def recorded(cm, frame, metric):
        layers.append(build(cm, frame, metric))
        return layers[-1]

    def refuse(*args):
        raise AssertionError("the probe built a differential")

    monkeypatch.setattr(harmonic, "build_hermitian", recorded)
    monkeypatch.setattr(forms, "build_differential", refuse)
    check = metric_independence_probe(an.spec, an.hs,
                                      pipeline.probe_metric(an.spec))
    assert check.passed
    assert [layer.cm is an.hs.cm for layer in layers] == [True]
    assert [layer.frame is an.hs.frame for layer in layers] == [True]


@pytest.mark.parametrize("name, tamper", [("su2su2-nk", "mubar"),
                                          ("random-m3-seed1", "mubar"),
                                          ("filiform-Jprime", "square")])
def test_probe_certifies_its_own_layer(name, tamper, monkeypatch):
    """Negative controls on the probe's layer only: one H_mubar vector
    dropped after the layer is built, which leaves delb_mub (it reads
    ``harmonic_space``) and so the probed dims as they were, or the columns
    of op on slot (1, 1) reversed, which keeps every rank.  The probe's own
    certificate fails either way, naming the metric and the slot, while the
    input layer's entries still pass."""
    an = named_analysis(name)
    build, build_delb_mub = harmonic.build_hermitian, harmonic.delb_mub
    slots = []
    dims = []

    def one_short(cm, frame, metric):
        layer = build(cm, frame, metric)
        spaces = layer.harmonic(MUBAR)
        slots.append(next(pq for pq, h in spaces.items() if h.dim))
        spaces[slots[0]] = _one_vector_short(spaces[slots[0]])
        return layer

    def recorded(hs):
        op, spaces = build_delb_mub(hs)
        dims.append(harmonic.space_dims(spaces))
        if tamper == "square" and hs is not an.hs:  # the probe's layer
            op = {**op, (1, 1): _columns_reversed(op[(1, 1)])}
        return op, spaces

    monkeypatch.setattr(harmonic, "delb_mub", recorded)
    if tamper == "mubar":
        monkeypatch.setattr(harmonic, "build_hermitian", one_short)
    check = metric_independence_probe(an.spec, an.hs,
                                      pipeline.probe_metric(an.spec))
    assert len(dims) == 2 and dims[0] == dims[1]
    assert not check.passed
    if tamper == "mubar":
        assert check.detail.startswith(
            "2 metrics probed; metric 2: mubar_decomposition_%d_%d (dims "
            % slots[0])
    else:
        assert check.detail == ("2 metrics probed; metric 2: delbar_mub does "
                                "not square to zero on slot (1, 0)")
    monkeypatch.undo()
    assert harmonic.mub_decomposition(an.hs).passed
    assert all(c.passed for c in delb_mub_checks(*delb_mub(an.hs), an.h_dol))


def _gl_j_pullback(spec, rng):
    """A^t g A for a random invertible A = P - J P J, which commutes with
    J, so the pullback is J-compatible."""
    n = spec.dim
    J = spec.J

    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    while True:
        P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        jpj = product(J, product(P, J))
        A = [[x - y for x, y in zip(row, jrow)] for row, jrow in zip(P, jpj)]
        if Matrix.from_rows([[from_rational(x) for x in row]
                             for row in A]).rank() == n:
            return pullback_metric(spec.metric, A)


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "su2su2-nk",
                                  "random-m3-seed1", "solvable-m2"])
def test_layer_of_a_metric_that_moves_the_frame(name):
    """A metric under which the frame is not orthogonal, so that
    Gram-Schmidt would move it: its layer runs on the analysis's frame and
    differential with a frame Gram that is not diagonal, and the probe
    still passes."""
    an = named_analysis(name)
    variant = validate_spec(an.spec.with_metric(
        _gl_j_pullback(an.spec, seeded_rng(7))))
    layer = build_hermitian(an.cm, an.frame, variant.metric)
    assert layer.cm is an.cm and layer.frame is an.frame
    assert not _is_diagonal(layer.frame_gram)
    check = metric_independence_probe(an.spec, an.hs, variant.metric)
    assert check.passed


# -- the Gram matrices against the definition, and against the orthogonal
# frame --------------------------------------------------------------------


def _det(rows):
    """The determinant by the Leibniz formula."""
    total = ZERO
    for perm in itertools.permutations(range(len(rows))):
        term = ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions & 1 else total + term
    return total


def _frame_matrix(frame):
    """P = [Z | conj Z], the frame as columns on the real basis."""
    return Matrix.from_columns(list(frame.vectors) + [
        tuple(c.conj() for c in z) for z in frame.vectors])


def _generators(m, mono):
    """The coframe indices of the monomial t^S ∧ tbar^T in order: a for
    t^a, m + b for tbar^b."""
    s, t = mono
    return ([a for a in range(m) if s >> a & 1]
            + [m + b for b in range(m) if t >> b & 1])


def _gram_oracle(spec, frame, p, q):
    """G_(p,q) from the definition, over the whole coframe: the rows
    theta_u of P^{-1} pair as <a, b> = a g^{-1} b^H, linear in a; forms
    pair as <a_1 ∧ .. ∧ a_r, b_1 ∧ .. ∧ b_r> = det <a_i, b_j>; and
    G[k, l] = <e_l, e_k>.  So G_(1,0) is the transpose, equivalently the
    conjugate, of the t-block of P^{-1} g^{-1} P^{-H}."""
    theta = _frame_matrix(frame).inverse()
    g_inv = Matrix.from_rows([[from_rational(x) for x in row]
                              for row in spec.metric]).inverse()
    pair = (theta @ g_inv @ theta.conj_transpose()).entries
    monos = [_generators(spec.m, mono)
             for mono in build_basis(spec.m).monomials(p, q)]
    return Matrix.from_rows([[_det([[pair[u][v] for v in k] for u in l])
                              for l in monos] for k in monos])


def _frame_change(spec, plain, other, p, q):
    """T_(p,q) taking the coordinates of a form in the monomials of the
    coframe t' of ``other`` to those in the plain coframe t: with
    t'_u = sum_v B[u][v] t_v, B[u][v] = t'_u(W_v) = (P'^{-1} P)[u][v], the
    monomial t'_U is sum_V det B[U, V] t_V."""
    b = (_frame_matrix(other).inverse() @ _frame_matrix(plain)).entries
    monos = [_generators(spec.m, mono)
             for mono in build_basis(spec.m).monomials(p, q)]
    return Matrix.from_rows([[_det([[b[u][v] for v in old] for u in new])
                              for new in monos] for old in monos])


def _spaces(hs):
    """{name: {(p, q): space}} of the harmonic spaces the layer computes."""
    return {"mubar": hs.harmonic(MUBAR), "delbar": hs.harmonic(DELBAR),
            "d": hs.d_harmonic(), "delbar_mub": delb_mub(hs)[1]}


def _orthogonal_frame_spaces(name):
    """The harmonic spaces of ``name`` computed on the Gram-Schmidt frame
    of ``_orthogonal_frame_oracle``, with a differential of its own and a
    diagonal frame Gram, carried to the plain frame by the change of
    coframe."""
    spec = validate_spec(affine_spec() if name == "aff1" else named_spec(name))
    plain = adapted_frame(spec)
    other = _orthogonal_frame_oracle(spec, plain)
    cm = build_differential(complexify(spec, other), build_basis(spec.m))
    hs = build_hermitian(cm, other, spec.metric)
    assert _is_diagonal(hs.frame_gram)
    change = {pq: _frame_change(spec, plain, other, *pq)
              for pq in cm.basis.slots}
    return {key: {pq: Subspace.from_matrix_columns(change[pq] @ sub.basis)
                  for pq, sub in spaces.items()}
            for key, spaces in _spaces(hs).items()}


GRAM_ORACLE_INPUTS = ["random-m2-seed%d" % seed for seed in (1, 2, 3, 4)] + [
    "random-m3-seed1", "solvable-m2", "filiform-J"]


@pytest.mark.parametrize("name", GRAM_ORACLE_INPUTS)
def test_gram_matrices_equal_the_definition(name):
    hs = hermitian(name)
    spec = validate_spec(named_spec(name))
    for (p, q) in hs.basis.slots:
        gram = hs.gram(p, q)
        assert gram == _gram_oracle(spec, hs.frame, p, q), (p, q)
        assert hs.gram_inverse(p, q) @ gram == Matrix.identity(gram.rows)


CROSS_FRAME_INPUTS = ["random-m2-seed%d" % seed for seed in (1, 2, 3, 4)] + [
    "random-m3-seed%d" % seed for seed in (1, 2, 3)] + ["solvable-m2", "aff1"]


@pytest.mark.parametrize("name", CROSS_FRAME_INPUTS)
def test_harmonic_spaces_equal_those_of_the_orthogonal_frame(name):
    """Oracle: the plain-frame layer, with dense Gram matrices, and the
    Gram-Schmidt frame's layer, with diagonal ones, give the same
    H_mubar, H_delbar, d-harmonic and delbar_mub-harmonic spaces."""
    assert _spaces(hermitian(name)) == _orthogonal_frame_spaces(name)


def test_a_conjugated_gram_fails_both_oracles(monkeypatch):
    """Negative control: conj(G), the Gram of the coframe with t and tbar
    swapped, passes every check of the battery that is not informational,
    but neither oracle."""
    name = "random-m3-seed1"
    want = _orthogonal_frame_spaces(name)
    spec = validate_spec(named_spec(name))
    for method in ("gram", "gram_inverse"):
        real = getattr(HermitianStructure, method)
        monkeypatch.setattr(HermitianStructure, method,
                            lambda hs, p, q, real=real: real(hs, p, q).conj())
    hs = hermitian(name)
    assert hs.gram(1, 0) != _gram_oracle(spec, hs.frame, 1, 0)
    assert _spaces(hs) != want


def test_fundamental_form_and_lefschetz():
    an = builtin_analysis("su2su2-nk")
    omega = fundamental_form(an.hs)
    column = Matrix.from_columns([omega])
    back = conjugation_matrix(an.cm.basis, 1, 1) @ column.conj()
    assert back == column  # the fundamental form is real
    lef = lefschetz_matrices(an.hs)
    assert lef[(1, 1)].rank() > 0


def test_nearly_kahler_requires_m3():
    an = builtin_analysis("filiform-J")
    with pytest.raises(ValueError):
        nearly_kahler_checks(an.hs)


def test_nearly_kahler_trivial_on_abelian():
    an = builtin_analysis("abelian-m3")
    checks = nearly_kahler_checks(an.hs)
    assert all(c.passed for c in checks)


def test_nearly_kahler_su2su2_honest_outcomes():
    """The swap structure shares the Nijenhuis pattern of a nearly Kahler
    structure but is not nearly Kahler for its metric, so the mixed-adjoint
    identities and the Laplacian identity fail while the
    conjugation-symmetric ones hold (see notes/decisions.md)."""
    an = builtin_analysis("su2su2-nk")
    nk_checks = nearly_kahler_checks(an.hs)
    nk_scalar = harmonic.mixed_laplacian_fit(an.hs)[1]
    by_name = {c.name: c for c in nk_checks}
    assert by_name["nk_laplacian equalities on p = q and p + q = 3"].passed
    assert by_name["nk_commutator [mu, mubar*] = 0"].passed
    assert by_name["nk_commutator [mubar, mu*] = 0"].passed
    fit = by_name["nk_mixed_laplacian_scalar single constant"]
    assert fit.passed
    assert nk_scalar == "1"
    assert not by_name["nk_laplacian delbar + 2 mubar = partial + 2 mu"].passed
    assert not by_name["nk_commutator [mu*, delbar] = 0"].passed
    assert all(c.informational for c in nk_checks)


def _nk_document(name):
    if name in catalog.builtin_names():
        return catalog.builtin(name)
    path = os.path.join(os.path.dirname(__file__), "data", "inputs",
                        "%s.json" % name)
    with open(path) as fh:
        return docio.parse_document(fh.read())


NK_SCALARS = {"s3s3-nk": Fraction(8, 9), "su2su2-nk": Fraction(1)}


@pytest.mark.parametrize("name", sorted(NK_SCALARS))
def test_nk_scalar_scales_inversely_with_metric(name):
    """g -> lam g multiplies the fundamental form, and so L, by lam and
    leaves partial delbar + delbar partial alone, so the constant c fitted
    in partial delbar + delbar partial = -i c (p - q) L goes to c/lam."""
    spec = docio.to_spec(_nk_document(name))
    for lam in (1, 4, Fraction(1, 9)):
        scaled = spec.with_metric([[lam * x for x in row]
                                   for row in spec.metric])
        frame = adapted_frame(scaled)
        cm = build_differential(complexify(scaled, frame), build_basis(3))
        _, fitted = harmonic.mixed_laplacian_fit(build_hermitian(
            cm, frame, scaled.metric))
        assert Fraction(fitted) == NK_SCALARS[name] / lam, lam


def test_nearly_kahler_negative_control():
    # 6-dimensional 2-step nilpotent algebra: identities must fail somewhere
    J = [[0, -1, 0, 0, 0, 0],
         [1, 0, 0, 0, 0, 0],
         [0, 0, 0, -1, 0, 0],
         [0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 0, -1],
         [0, 0, 0, 0, 1, 0]]
    spec = validate_spec(make_spec(
        6, None, {(0, 1): {4: 1}, (0, 2): {5: 1}}, J))
    frame = adapted_frame(spec)
    cm = build_differential(complexify(spec, frame), build_basis(3))
    hs = build_hermitian(cm, frame, spec.metric)
    checks = nearly_kahler_checks(hs)
    assert any(not c.passed for c in checks)
