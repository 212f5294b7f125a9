"""mubar-cohomology, Dolbeault cohomology, Betti numbers, consistency."""

import dataclasses

import pytest

from acdol import cohomology, forms, kernel
from acdol.cohomology import (ConsistencyError, cohomology_dims,
                              consistency_report, de_rham, dolbeault,
                              euler_characteristic, induced_delbar,
                              mub_cohomology, operator_cohomology,
                              top_cohomology_is_line)
from acdol.forms import (DELBAR, MU, MUBAR, PARTIAL, build_basis,
                         build_differential)
from acdol.liealg import adapted_frame, complexify, make_spec, validate_spec
from acdol.pipeline import conjugation_check
from acdol.spectral import frolicher_all, infinity_vs_betti
from acdol.linalg import Matrix, Subspace
from conftest import (ORACLE_INPUTS, builtin_analysis, dims_grid, named_spec,
                      random_nilpotent_spec, seeded_rng)

# grids are rows q = 0, 1, ..., m (bottom row first)
H_MUB_TABLES = {
    "filiform-J": ((1, 1, 0), (2, 4, 2), (0, 1, 1)),
    "kt-J": ((1, 1, 0), (2, 4, 2), (0, 1, 1)),
    "su2su2-nk": ((1, 0, 0, 0), (3, 8, 6, 0), (0, 6, 8, 3), (0, 0, 0, 1)),
}

H_DOL_TABLES = {
    "filiform-J": ((1, 1, 0), (2, 4, 2), (0, 1, 1)),
    "filiform-Jprime": ((1, 0, 0), (2, 2, 2), (0, 0, 1)),
    "kt-J": ((1, 1, 0), (2, 4, 2), (0, 1, 1)),
    "kt-Jprime": ((1, 1, 1), (2, 2, 2), (1, 1, 1)),
    "su2su2-nk": ((1, 0, 0, 0), (3, 3, 1, 0), (0, 1, 3, 3), (0, 0, 0, 1)),
}

BETTI = {
    "filiform-J": (1, 2, 2, 2, 1),
    "filiform-Jprime": (1, 2, 2, 2, 1),
    "kt-J": (1, 3, 4, 3, 1),
    "kt-Jprime": (1, 3, 4, 3, 1),
    "su2su2-nk": (1, 0, 0, 2, 0, 0, 1),
    "abelian-m2": (1, 4, 6, 4, 1),
    "abelian-m3": (1, 6, 15, 20, 15, 6, 1),
}


@pytest.mark.parametrize("name,expected", sorted(H_MUB_TABLES.items()))
def test_mub_cohomology_tables(name, expected):
    an = builtin_analysis(name)
    assert dims_grid(an.h_mub, an.m) == expected


def test_mub_cohomology_abelian_binomial():
    an = builtin_analysis("abelian-m2")
    assert dims_grid(an.h_mub, an.m) == ((1, 2, 1), (2, 4, 2), (1, 2, 1))


@pytest.mark.parametrize("name,expected", sorted(H_DOL_TABLES.items()))
def test_dolbeault_tables(name, expected):
    an = builtin_analysis(name)
    assert dims_grid(an.h_dol, an.m) == expected


def test_dolbeault_abelian_slot_dims():
    an = builtin_analysis("abelian-m3")
    b = build_basis(3)
    for p in range(4):
        for q in range(4):
            assert an.h_dol.get((p, q), 0) == b.dim(p, q)


@pytest.mark.parametrize("name,expected", sorted(BETTI.items()))
def test_betti_numbers(name, expected):
    assert builtin_analysis(name).betti == expected


def test_b0_always_one():
    rng = seeded_rng(123)
    for _ in range(4):
        spec = validate_spec(random_nilpotent_spec(rng, 2))
        cm = build_differential(complexify(spec, adapted_frame(spec)),
                                build_basis(2))
        assert de_rham(cm)[0] == 1


def test_representatives_span_quotients():
    # oracle: the cocycles as the intersection of Ker mubar with the
    # preimage of Im mubar, and the coboundaries as one RCEF of the stacked
    # [mubar | delbar K]; the quotient's dimension is the Dolbeault number
    an = builtin_analysis("filiform-J")
    cm = an.cm
    dol = dolbeault(cm)
    assert sorted(dol.cocycles) == sorted(dol.coboundaries) == sorted(
        cm.basis.slots)
    for (p, q), num in dol.cocycles.items():
        im_above = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 1))
        assert num == Subspace.kernel(cm.block(MUBAR, p, q)).intersect(
            Subspace.kernel(im_above.equations() @ cm.block(DELBAR, p, q)))
        den = dol.coboundaries[(p, q)]
        assert den == _stacked_coboundaries(cm, p, q)
        assert num.contains(den)
        assert num.dim - den.dim == dol.dim(p, q) == an.h_dol.get((p, q), 0)


def _counted_cm():
    spec = validate_spec(random_nilpotent_spec(seeded_rng(1), 3))
    return build_differential(complexify(spec, adapted_frame(spec)),
                              build_basis(3))


def test_oracle_routes_take_one_elimination_per_subspace(monkeypatch):
    # mub_cohomology: per slot the kernel and the image, one rref each;
    # containment takes none.  dolbeault: per slot the kernel of mubar, the
    # image one row up and the kernel of the quotient coordinates
    # E delbar K, and per slot with q >= 1 the span of the quotient
    # coordinates of the slot below, its coboundaries; on q = 0 they are
    # zero and take none.  16 slots at m = 3, 4 of them on q = 0:
    # 16 + 16 + 16 + 12 = 4 * 16 - 4.  Each Matrix keeps its kernel and
    # span, and cm.block builds each off-grid block once, so on one cm a
    # later route takes none for the 16 kernels of mubar and for the 12
    # images that both oracle routes read: those of the blocks
    # (p + 1, q - 1) with q <= 2, which mub_cohomology reads as the images
    # of slot (p, q + 1), 6 of them off the grid.  The Hodge generators of
    # frolicher_all take the same 16 kernels and nothing else.  Every rref
    # runs one forward elimination, and the tables run no other, no
    # complement of the coboundaries in particular, so each route's
    # echelon count is its rref count.
    def counts(*routes):
        cm = _counted_cm()
        rrefs, echelons = {}, {}
        rref, echelon = kernel.rref, kernel.echelon

        def counted(calls, name, fn):
            def wrapper(rows, ncols):
                calls[name] = calls.get(name, 0) + 1
                return fn(rows, ncols)
            return wrapper

        with monkeypatch.context() as patch:
            for route in routes:
                name = route.__name__
                patch.setattr(kernel, "rref", counted(rrefs, name, rref))
                patch.setattr(kernel, "echelon",
                              counted(echelons, name, echelon))
                route(cm)
        assert echelons == rrefs
        return rrefs

    assert counts(mub_cohomology, dolbeault) == {
        "mub_cohomology": 2 * 16, "dolbeault": 4 * 16 - 4 - 16 - 12}
    assert counts(dolbeault, mub_cohomology) == {
        "dolbeault": 4 * 16 - 4, "mub_cohomology": 2 * 16 - 16 - 12}
    assert counts(frolicher_all, dolbeault, mub_cohomology) == {
        "frolicher_all": 16, "dolbeault": 4 * 16 - 4 - 16,
        "mub_cohomology": 2 * 16 - 16 - 12}


def test_each_coboundary_eliminates_the_kernel_of_the_slot_below(
        monkeypatch):
    # the coboundaries of slot (p, q >= 1) are one RCEF of the quotient
    # coordinates E delbar K of slot (p, q - 1): its transpose has one row
    # per column of K, dim Ker mubar_{p, q-1}, and one column per
    # coordinate of the quotient by Im mubar_{p+1, q-2}, not the rows and
    # columns of the stacked [mubar_{p+1, q-2} | delbar K]
    cm = _counted_cm()
    shapes = []
    rref = kernel.rref
    extended = Subspace.extended

    def counted(self, quotient):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "rref", lambda rows, ncols: (
                calls.append((len(rows), ncols)) or rref(rows, ncols)))
            out = extended(self, quotient)
        shapes.extend(calls)
        return out

    monkeypatch.setattr(Subspace, "extended", counted)
    dolbeault(cm)
    expected = []
    for p in range(4):
        for q in range(1, 4):
            image = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 2))
            expected.append((Subspace.kernel(cm.block(MUBAR, p, q - 1)).dim,
                             cm.basis.dim(p, q) - image.dim))
    assert shapes == expected


def test_dolbeault_two_routes_agree_on_random_specs():
    rng = seeded_rng(321)
    for _ in range(6):
        spec = validate_spec(random_nilpotent_spec(rng, 2))
        cm = build_differential(complexify(spec, adapted_frame(spec)),
                                build_basis(2))
        hm = mub_cohomology(cm)
        route1 = dolbeault(cm).dims
        route2 = cohomology_dims(hm.dims, induced_delbar(cm, hm))
        for p in range(3):
            for q in range(3):
                assert route1.get((p, q), 0) == route2.get((p, q), 0)


def test_induced_delbar_flags_an_image_outside_the_classes():
    # negative controls: with the cocycles of slot (0, 2) of filiform-J
    # cut down to zero, the delbar images of the (0, 1) cocycles leave
    # them; with Im mubar of slot (1, 3) of su2su2-nk cut down to zero,
    # the delbar images of Im mubar of slot (1, 2) leave it
    cm = builtin_analysis("filiform-J").cm
    hm = mub_cohomology(cm)
    induced_delbar(cm, hm)
    ker = hm.cocycles[(0, 2)]
    tampered = dataclasses.replace(hm, cocycles={
        **hm.cocycles, (0, 2): Subspace.zero(ker.ambient_dim)})
    with pytest.raises(ConsistencyError, match=(
            r"^mubar: delbar of the cocycles leaves Ker mubar at \(0, 1\)$")):
        induced_delbar(cm, tampered)
    cm = builtin_analysis("su2su2-nk").cm
    hm = mub_cohomology(cm)
    induced_delbar(cm, hm)
    img = hm.coboundaries[(1, 3)]
    tampered = dataclasses.replace(hm, coboundaries={
        **hm.coboundaries, (1, 3): Subspace.zero(img.ambient_dim)})
    with pytest.raises(ConsistencyError, match=(
            r"^mubar: delbar of the coboundaries leaves Im mubar at "
            r"\(1, 2\)$")):
        induced_delbar(cm, tampered)


def test_mub_conjugation_and_serre_dims():
    for name in ("filiform-J", "su2su2-nk", "kt-J"):
        an = builtin_analysis(name)
        m = an.m
        h_mu = operator_cohomology(an.cm, MU)
        for p in range(m + 1):
            for q in range(m + 1):
                assert an.h_mub.get((p, q), 0) == h_mu.dim(q, p)
                assert (an.h_mub.get((p, q), 0)
                        == an.h_mub.get((m - p, m - q), 0))


def _total(dims, n):
    return sum(v for (p, q), v in dims.items() if p + q == n)


def test_consistency_report_examples():
    an = builtin_analysis("filiform-J")
    checks = consistency_report(an.h_dol, an.betti, an.m)
    assert all(c.passed for c in checks)
    # degree-2 inequality is strict here: 0 + 4 + 0 >= 2
    assert _total(an.h_dol, 2) == 4 and an.betti[2] == 2
    assert euler_characteristic(an.betti) == 0

    an = builtin_analysis("su2su2-nk")
    checks = consistency_report(an.h_dol, an.betti, an.m)
    assert all(c.passed for c in checks)
    # degree-3 inequality is an equality: 0 + 1 + 1 + 0 = b^3 = 2
    assert _total(an.h_dol, 3) == an.betti[3] == 2

    an = builtin_analysis("abelian-m2")
    for n in range(5):
        assert _total(an.h_dol, n) == an.betti[n]


def test_integrable_case_reduces_to_classical_dolbeault():
    # with mubar = 0 the numerator is Ker(delbar) and the denominator
    # Im(delbar); abelian: everything
    an = builtin_analysis("kt-Jprime")
    cm = an.cm
    for (p, q) in cm.basis.slots:
        ker = Subspace.kernel(cm.block("delbar", p, q))
        img = Subspace.from_matrix_columns(cm.block("delbar", p, q - 1))
        assert an.h_dol.get((p, q), 0) == ker.dim - img.dim


def test_euler_characteristic_zero_for_nilpotent():
    for name in ("filiform-J", "kt-J", "abelian-m2"):
        an = builtin_analysis(name)
        chi = sum((-1 if (p + q) % 2 else 1) * an.h_dol.get((p, q), 0)
                  for p in range(an.m + 1) for q in range(an.m + 1))
        assert chi == 0 == euler_characteristic(an.betti)


# -- de Rham ranks on the real complex of the input basis ---------------------


def _de_rham_oracle(cm):
    """Betti numbers from the Q(i)-ranks of every total matrix d_n of the
    frame basis, which ``de_rham`` does not read."""
    return tuple(cm.total_matrix(n).cols - cm.total_matrix(n).rank()
                 - cm.total_matrix(n - 1).rank()
                 for n in range(2 * cm.m + 1))


J1 = [[0, -1], [1, 0]]
J2 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
# [X1, X2] = X2 (as in tests/test_harmonic.py), and the solvable
# R ⋉ R^3 with ad X1 = diag(1, 2, -1): neither is unimodular
NON_UNIMODULAR = {
    "affine": make_spec(2, None, {(0, 1): {1: 1}}, J1),
    "solvable-m2": make_spec(4, None, {(0, 1): {1: 1}, (0, 2): {2: 2},
                                       (0, 3): {3: -1}}, J2),
}


def _cm_of(name):
    spec = validate_spec(NON_UNIMODULAR.get(name) or named_spec(name))
    return build_differential(complexify(spec, adapted_frame(spec)),
                              build_basis(spec.m))


@pytest.mark.parametrize("name", ORACLE_INPUTS + [
    "random-m4-seed5", "random-m4-seed7"] + sorted(NON_UNIMODULAR))
def test_de_rham_matches_all_ranks_over_q_i(name):
    cm = _cm_of(name)
    betti = de_rham(cm)
    assert betti == _de_rham_oracle(cm)
    assert top_cohomology_is_line(cm) == (name not in NON_UNIMODULAR)


def test_de_rham_at_m_5():
    # 2m = 10 generators, where the ranks over the frame basis took seconds
    assert de_rham(_cm_of("random-m5-seed3")) == (
        1, 8, 26, 41, 64, 84, 64, 41, 26, 8, 1)


@pytest.mark.parametrize("name", ["s3s3-nk", "solvable-m2"])
def test_de_rham_reads_no_block_of_cm(name, monkeypatch):
    # the oracle shares no matrix with the routes it checks: it reads the
    # real structure constants that cm carries and nothing else of cm
    cm = _cm_of(name)
    expected = _de_rham_oracle(cm)

    def refuse(*args):
        raise AssertionError("de_rham read the frame-basis differential")

    monkeypatch.setattr(cm, "total_matrix", refuse)
    monkeypatch.setattr(cm, "block", refuse)
    assert de_rham(cm) == expected


def test_de_rham_reads_the_constants_that_cm_carries():
    # negative control: kt-J's blocks carrying filiform-J's constants give
    # filiform-J's Betti numbers, which are not the ranks of the blocks,
    # and the battery's E_inf comparison with kt-J's reduction fails
    an = builtin_analysis("kt-J")
    swapped = type(an.cm)(an.cm.basis, dict(an.cm._blocks),
                          builtin_analysis("filiform-J").cm.brackets)
    betti = de_rham(swapped)
    assert betti == BETTI["filiform-J"]
    assert _de_rham_oracle(swapped) == BETTI["kt-J"]
    failed = [c.name for c in infinity_vs_betti(an.pages, betti)
              if not c.passed]
    assert failed == ["einf_equals_betti_degree_%d" % n for n in (1, 2, 3)]


@pytest.mark.parametrize("name,ranks", [("kt-J", 2), ("su2su2-nk", 3),
                                        ("affine", 2), ("solvable-m2", 4)])
def test_de_rham_ranks_half_the_degrees_when_unimodular(name, ranks,
                                                        monkeypatch):
    # one elimination per ranked degree: m when the top cohomology is a
    # line, 2m otherwise
    cm = _cm_of(name)
    calls = []
    for fn in ("rref", "echelon"):
        inner = getattr(kernel, fn)
        monkeypatch.setattr(kernel, fn, lambda rows, ncols, inner=inner: (
            calls.append(ncols) or inner(rows, ncols)))
    de_rham(cm)
    assert len(calls) == ranks


# -- the real complex and its clearing ---------------------------------------


def _input_complex(cm):
    """The transposes of d_0 .. d_{2m-1} on the real complex of the input
    basis, as ``de_rham`` builds them, with nothing cleared."""
    d = cohomology._input_derivation(cm)
    dim = 2 * cm.m
    return [cohomology._transposed_differential(d, dim, n, ())
            for n in range(dim)]


@pytest.mark.parametrize("name", ORACLE_INPUTS + sorted(NON_UNIMODULAR))
def test_cleared_ranks_equal_the_uncleared_ranks(name):
    cm = _cm_of(name)
    dim = 2 * cm.m
    assert cohomology._cleared_ranks(
        cohomology._input_derivation(cm), dim, dim) == [
        mat.rank() for mat in _input_complex(cm)]


@pytest.mark.parametrize("name", ORACLE_INPUTS + sorted(NON_UNIMODULAR))
def test_rows_of_d_n_are_the_columns_of_d_n_plus_1(name):
    # the columns of the transpose of d_n and the rows of that of d_{n+1}
    # are the degree-(n + 1) monomials in one order, the one the clearing
    # relies on, and in it d_{n+1} d_n = 0: the transposes multiply to 0
    mats = _input_complex(_cm_of(name))
    for low, high in zip(mats, mats[1:]):
        assert (low @ high).is_zero()


@pytest.mark.parametrize("name", ["su2su2-nk", "s3s3-nk"])
def test_sign_flipped_leibniz_rule_breaks_d_squared(name, monkeypatch):
    # negative control: the sign (-1)^k of the k-th generator of a
    # monomial dropped from the Leibniz rule (every single-generator mask
    # taken to have no bits below), so d(a ∧ b) = da ∧ b + a ∧ db, and
    # d_{n+1} d_n = 0 fails in some degree; on the two-step nilpotent and
    # the solvable inputs d^2 vanishes with any signs, so they cannot see it
    cm = _cm_of(name)
    below = forms._below_parity
    monkeypatch.setattr(forms, "_below_parity", lambda mask: (
        0 if mask & (mask - 1) == 0 else below(mask)))
    mats = _input_complex(cm)
    assert any(not (low @ high).is_zero()
               for low, high in zip(mats, mats[1:]))


@pytest.mark.parametrize("misalign", [lambda p, n: (p + 1) % n,
                                      lambda p, n: n - 1 - p],
                         ids=["shifted", "reversed"])
@pytest.mark.parametrize("name", ["su2su2-nk", "solvable-m2"])
def test_clearing_by_misaligned_pivots_changes_a_betti_number(
        name, misalign, monkeypatch):
    # negative control: the pivots of each degree shifted by one
    # coordinate, or read in reversed order, clear columns that Im d_n
    # does not fix; the rank of a degree is its number of pivots either
    # way, so only the next degree's rank can see it
    cm = _cm_of(name)
    expected = _de_rham_oracle(cm)
    pivots = Matrix.pivots
    monkeypatch.setattr(Matrix, "pivots", lambda self: tuple(
        misalign(p, self.cols) for p in pivots(self)))
    assert de_rham(cm) != expected


def test_real_form_checks_that_d_commutes_with_conjugation():
    # negative control: one entry of partial on (1, 0) changed, so delbar
    # on (0, 1) is no longer its conjugate; the battery's conjugation
    # entry fails there, and passes on the untouched blocks
    cm = _cm_of("kt-J")
    assert conjugation_check(cm).passed
    blocks = dict(cm._blocks)
    bad = cm.block(PARTIAL, 1, 0)
    data = [list(row) for row in bad.entries]
    data[0][0] = data[0][0] + kernel.I
    blocks[(PARTIAL, 1, 0)] = Matrix(bad.rows, bad.cols, data)
    check = conjugation_check(type(cm)(cm.basis, blocks, cm.brackets))
    assert (check.name, check.passed, check.detail) == (
        "component_conjugation_symmetry", False, "delbar fails on slot (0, 1)")


# -- the quotients against their earlier stacked eliminations ----------------


def _dolbeault_parts(cm, monkeypatch):
    """The (cocycles, coboundaries) pairs that ``dolbeault`` passes to
    ``_quotient_table``, per slot."""
    parts = {}
    quotient = cohomology._quotient_table

    def capture(route, m, slot_parts):
        parts.update(slot_parts)
        return quotient(route, m, slot_parts)

    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_quotient_table", capture)
        dolbeault(cm)
    return parts


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_dolbeault_cocycles_equal_the_stacked_kernel(name, monkeypatch):
    # oracle: the cocycles as one kernel of mubar stacked on the equations
    # of Im mubar after delbar; equality of Subspaces is equality of
    # canonical bases, so the product K Ker(E delbar K) must be in RCEF
    cm = _cm_of(name)
    parts = _dolbeault_parts(cm, monkeypatch)
    assert sorted(parts) == sorted(cm.basis.slots)
    for (p, q), (num, _) in parts.items():
        im_above = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 1))
        assert num == Subspace.kernel(cm.block(MUBAR, p, q).vstack(
            im_above.equations() @ cm.block(DELBAR, p, q)))


def _stacked_coboundaries(cm, p, q):
    """The oracle: the coboundaries of slot (p, q) as one RCEF of the
    stacked [mubar_{p+1, q-2} | delbar K], K the canonical basis of
    Ker mubar_{p, q-1}."""
    ker = Subspace.kernel(cm.block(MUBAR, p, q - 1)).basis
    return Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 2).hstack(
        cm.block(DELBAR, p, q - 1) @ ker))


def _mismatched_coboundaries(name, monkeypatch):
    """The slots of ``name`` whose coboundaries from ``dolbeault`` are not
    the stacked span, in slot order."""
    cm = _cm_of(name)
    parts = _dolbeault_parts(cm, monkeypatch)
    assert sorted(parts) == sorted(cm.basis.slots)
    return [(p, q) for (p, q), (_, den) in sorted(parts.items())
            if den != _stacked_coboundaries(cm, p, q)]


@pytest.mark.parametrize("name", ORACLE_INPUTS + [
    "random-m4-seed5", "random-m4-seed7"])
def test_dolbeault_coboundaries_equal_the_stacked_span(name, monkeypatch):
    # equality of Subspaces is equality of canonical bases, so the
    # extension of Im mubar by the quotient coordinates must be in RCEF
    assert _mismatched_coboundaries(name, monkeypatch) == []


def _extended_without_clearing(self, quotient):
    """``Subspace.extended`` with the columns of b left as they are at the
    lifted lead rows: b and the lifted RCEF of the quotient coordinates,
    merged by lead row.  The span is right; the basis is not canonical."""
    coords = Subspace.from_matrix_columns(quotient)
    rest = iter(coords.basis.entries)
    leads = set(self.lead_rows())
    lifted = Matrix(self.ambient_dim, coords.dim, [
        (kernel.ZERO,) * coords.dim if r in leads else next(rest)
        for r in range(self.ambient_dim)])
    cols = sorted(self.basis.hstack(lifted).columns(),
                  key=lambda col: next(i for i, e in enumerate(col) if e))
    return Subspace(self.ambient_dim,
                    Matrix.from_columns(cols, self.ambient_dim))


def test_coboundaries_without_clearing_fail_the_stacked_span(monkeypatch):
    # negative control: on filiform-Jprime slot (1, 2) both Im mubar and
    # the quotient coordinates of slot (1, 1) are nonzero, and a column of
    # Im mubar's basis is nonzero at a lifted lead row; left uncleared the
    # basis spans the coboundaries but is not their RCEF
    cm = _cm_of("filiform-Jprime")
    image = Subspace.from_matrix_columns(cm.block(MUBAR, 2, 0))
    ker = Subspace.kernel(cm.block(MUBAR, 1, 1)).basis
    assert image.dim and not (
        image.equations() @ cm.block(DELBAR, 1, 1) @ ker).is_zero()
    monkeypatch.setattr(Subspace, "extended", _extended_without_clearing)
    assert _mismatched_coboundaries("filiform-Jprime", monkeypatch) == [
        (1, 2)]
    den = dolbeault(cm).coboundaries[(1, 2)]
    assert Subspace.from_matrix_columns(den.basis) == _stacked_coboundaries(
        cm, 1, 2)


def test_quotient_table_rejects_coboundaries_outside_the_cocycles(
        monkeypatch):
    # negative control: with the whole slot as its coboundaries, a slot
    # whose cocycles are smaller fails the containment check; the failure
    # names the route and the slot
    cm = _cm_of("filiform-J")
    (p, q), (num, den) = next(
        (pq, part) for pq, part in sorted(
            _dolbeault_parts(cm, monkeypatch).items())
        if part[0].dim < part[0].ambient_dim)
    table = cohomology._quotient_table("dolbeault", cm.m, {(p, q): (num, den)})
    assert table.spaces(p, q) == (num, den)
    assert table.dim(p, q) == num.dim - den.dim
    whole = Subspace.kernel(Matrix.zero(0, num.ambient_dim))
    with pytest.raises(ConsistencyError, match=(
            r"^dolbeault: coboundaries are not cocycles on slot \(%d, %d\)$"
            % (p, q))):
        cohomology._quotient_table("dolbeault", cm.m, {(p, q): (num, whole)})


def test_mubar_route_names_itself_on_coboundaries_outside_the_cocycles(
        monkeypatch):
    # negative control: mub_cohomology with the image of mubar into slot
    # (1, 0) of filiform-J, the off-grid block (2, -2), replaced by the
    # whole slot, which Ker mubar there does not contain
    cm = _cm_of("filiform-J")
    assert Subspace.kernel(cm.block(MUBAR, 1, 0)).dim < cm.basis.dim(1, 0)
    everything = Matrix.identity(cm.basis.dim(1, 0))
    monkeypatch.setattr(cm, "block", lambda tag, p, q, block=cm.block: (
        everything if (tag, p, q) == (MUBAR, 2, -2) else block(tag, p, q)))
    with pytest.raises(ConsistencyError, match=(
            r"^mubar: coboundaries are not cocycles on slot \(1, 0\)$")):
        mub_cohomology(cm)
