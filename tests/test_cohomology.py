"""mubar-cohomology, Dolbeault cohomology, Betti numbers, consistency."""

import dataclasses

import pytest

from acdol import cohomology, kernel
from acdol.cohomology import (ConsistencyError, consistency_report, de_rham,
                              dolbeault,
                              euler_characteristic, induced_delbar,
                              mub_cohomology, operator_cohomology,
                              cohomology_dims_of_operator,
                              top_cohomology_is_line)
from acdol.forms import (DELBAR, MU, MUBAR, PARTIAL, build_basis,
                         build_differential)
from acdol.liealg import adapted_frame, complexify, make_spec, validate_spec
from acdol.spectral import frolicher_all
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
    an = builtin_analysis("filiform-J")
    cm = an.cm
    dol = dolbeault(cm)
    for (p, q), rep in dol.representatives.items():
        # the cocycles: Ker mubar whose delbar lands in Im mubar, as the
        # intersection of Ker mubar with the preimage of Im mubar
        im_above = Subspace.from_matrix_columns(cm.block(MUBAR, p + 1, q - 1))
        num = Subspace.kernel(cm.block(MUBAR, p, q)).intersect(
            Subspace.kernel(im_above.equations() @ cm.block(DELBAR, p, q)))
        den = dol.denominators[(p, q)]
        assert num.contains(den)
        assert rep.dim == an.h_dol.get((p, q), 0)
        assert den + rep == num
        assert den.intersect(rep).dim == 0


def test_oracle_routes_take_one_elimination_per_subspace(monkeypatch):
    # mub_cohomology: per slot the kernel and the image, one rref each;
    # containment and the complement take none.  dolbeault: per slot the
    # image above, the kernel in Ker mubar's coordinates and the
    # denominator span, and the kernel of mubar on each slot and on the
    # off-grid slot below each q = 0 slot.  16 slots at m = 3, 20 kernels.
    # Each Matrix keeps its kernel and span, and cm.block builds each
    # off-grid block once, so on one cm a later route takes none for the
    # 16 kernels of mubar on the grid and the 12 images of the blocks
    # (p + 1, q - 2) with q >= 1 that both oracle routes read, 6 of them
    # off the grid.  The Hodge generators of frolicher_all take the same
    # 16 kernels and nothing else.
    def counts(*routes):
        spec = validate_spec(random_nilpotent_spec(seeded_rng(1), 3))
        cm = build_differential(complexify(spec, adapted_frame(spec)),
                                build_basis(3))
        calls = {}
        rref = kernel.rref

        def counted(name):
            def wrapper(rows, ncols):
                calls[name] = calls.get(name, 0) + 1
                return rref(rows, ncols)
            return wrapper

        with monkeypatch.context() as patch:
            for route in routes:
                patch.setattr(kernel, "rref", counted(route.__name__))
                route(cm)
        return calls

    assert counts(mub_cohomology, dolbeault) == {
        "mub_cohomology": 2 * 16, "dolbeault": 3 * 16 + 20 - 16 - 12}
    assert counts(dolbeault, mub_cohomology) == {
        "dolbeault": 3 * 16 + 20, "mub_cohomology": 2 * 16 - 16 - 12}
    assert counts(frolicher_all, dolbeault, mub_cohomology) == {
        "frolicher_all": 16, "dolbeault": 3 * 16 + 20 - 16,
        "mub_cohomology": 2 * 16 - 16 - 12}


def test_dolbeault_two_routes_agree_on_random_specs():
    rng = seeded_rng(321)
    for _ in range(6):
        spec = validate_spec(random_nilpotent_spec(rng, 2))
        cm = build_differential(complexify(spec, adapted_frame(spec)),
                                build_basis(2))
        hm = mub_cohomology(cm)
        route1 = dolbeault(cm).dims
        route2 = cohomology_dims_of_operator(induced_delbar(cm, hm))
        for p in range(3):
            for q in range(3):
                assert route1.get((p, q), 0) == route2.get((p, q), 0)


def test_induced_delbar_flags_an_image_outside_the_classes():
    # negative control: without Im mubar in slot (0, 2) of filiform-J the
    # delbar images of the (0, 1) classes have no class coordinates
    cm = builtin_analysis("filiform-J").cm
    hm = mub_cohomology(cm)
    induced_delbar(cm, hm)
    den = hm.denominators[(0, 2)]
    assert den.dim
    tampered = dataclasses.replace(hm, denominators={
        **hm.denominators, (0, 2): Subspace.zero(den.ambient_dim)})
    with pytest.raises(ConsistencyError, match=r"at \(0, 1\)"):
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


# -- de Rham ranks from the real form, against all ranks over Q(i) ------------


def _de_rham_oracle(cm):
    """Betti numbers from the Q(i)-ranks of every total matrix d_n."""
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


@pytest.mark.parametrize("name", ORACLE_INPUTS + sorted(NON_UNIMODULAR))
def test_de_rham_matches_all_ranks_over_q_i(name):
    cm = _cm_of(name)
    betti = de_rham(cm)
    assert betti == _de_rham_oracle(cm)
    assert top_cohomology_is_line(cm) == (name not in NON_UNIMODULAR)


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


# -- the clearing: each degree ranked on the columns the last one leaves -----


def _real_forms_image(cm, n):
    """The matrix of d_n on the real forms rebuilt from d itself, with no
    denominator cleared: column by column d applied to the fixed form of
    each source orbit, e_j + s e_k and i(e_j - s e_k), or e_j or i e_j
    when conj(e_j) = +-e_j; row by row the real and imaginary parts of
    the first coordinate of each target orbit, the imaginary part left
    out where it is zero and the real part where it is."""
    d = cm.total_matrix(n)
    i = kernel.I
    columns = []
    for j, k, sign in cohomology._conjugation_orbits(cm.basis, n):
        s = kernel.Scalar(sign)
        unit_j, unit_k = ([kernel.ONE if x == y else kernel.ZERO
                           for x in range(d.cols)] for y in (j, k))
        if j != k:
            columns.append([a + s * b for a, b in zip(unit_j, unit_k)])
            columns.append([i * (a - s * b) for a, b in zip(unit_j, unit_k)])
        else:
            columns.append(unit_j if sign == 1 else [i * a for a in unit_j])
    images = [d.apply(col) for col in columns]
    rows = []
    for r, r2, t in cohomology._conjugation_orbits(cm.basis, n + 1):
        if r != r2 or t == 1:
            rows.append([kernel.Scalar(w[r].xn, 0, w[r].dn) for w in images])
        if r != r2 or t == -1:
            rows.append([kernel.Scalar(w[r].yn, 0, w[r].dn) for w in images])
    return Matrix(len(rows), d.cols, rows)


@pytest.mark.parametrize("name", ORACLE_INPUTS + sorted(NON_UNIMODULAR))
def test_cleared_ranks_equal_the_uncleared_ranks(name):
    cm = _cm_of(name)
    degrees = 2 * cm.m
    assert cohomology._cleared_ranks(cm, degrees) == [
        cohomology.real_differential(cm, n).rank() for n in range(degrees)]


@pytest.mark.parametrize("name", ORACLE_INPUTS + sorted(NON_UNIMODULAR))
def test_rows_of_d_n_are_the_columns_of_d_n_plus_1(name):
    # each row of real_differential(n) is a positive multiple of the
    # coordinate it claims to be, and with the multiples taken out the
    # rows are coefficients on the column basis of real_differential(n+1):
    # d_{n+1} d_n = 0 in those coordinates
    cm = _cm_of(name)
    for n in range(2 * cm.m):
        real = cohomology.real_differential(cm, n)
        image = _real_forms_image(cm, n)
        assert (real.rows, real.cols) == (image.rows, image.cols)
        for row, unscaled in zip(real.entries, image.entries):
            lead = next((k for k, x in enumerate(unscaled) if x), None)
            scale = (row[lead] / unscaled[lead] if lead is not None
                     else kernel.ONE)
            assert scale.yn == 0 and scale.xn > 0
            assert list(row) == [scale * x for x in unscaled]
        after = cohomology.real_differential(cm, n + 1)
        assert (after @ image).is_zero()


def test_reversed_target_orbits_do_not_line_up():
    # negative control: in the reversed order of the target orbits the
    # rows of d_1 are no coordinates on the columns of d_2
    cm = _cm_of("filiform-J")
    image = _real_forms_image(cm, 1)
    reversed_rows = Matrix(image.rows, image.cols, image.entries[::-1])
    assert not (cohomology.real_differential(cm, 2) @ reversed_rows).is_zero()


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


def test_de_rham_reads_every_imaginary_row(monkeypatch):
    # negative control: on the NK S^3 x S^3, without the imaginary part of
    # the first target orbit of d_1 (slot (0, 2) paired with (2, 0)) the
    # rank drops
    cm = _cm_of("s3s3-nk")
    real = cohomology.real_differential

    def dropped(cm, n):
        mat = real(cm, n)
        if n != 1:
            return mat
        return Matrix(mat.rows - 1, mat.cols,
                      mat.entries[:1] + mat.entries[2:])

    monkeypatch.setattr(cohomology, "real_differential", dropped)
    assert de_rham(cm) != _de_rham_oracle(cm)


def test_real_form_checks_that_d_commutes_with_conjugation():
    # negative control: one entry of partial on (1, 0) changed, so delbar
    # on (0, 1) is no longer its conjugate, fails in degree 1
    cm = _cm_of("kt-J")
    blocks = dict(cm._blocks)
    bad = cm.block(PARTIAL, 1, 0)
    data = [list(row) for row in bad.entries]
    data[0][0] = data[0][0] + kernel.I
    blocks[(PARTIAL, 1, 0)] = Matrix(bad.rows, bad.cols, data)
    tampered = type(cm)(cm.basis, blocks)
    cohomology.real_differential(tampered, 0)  # d_0 is untouched
    with pytest.raises(ConsistencyError, match="in degree 1$"):
        cohomology.real_differential(tampered, 1)


# -- the quotients against their earlier stacked eliminations ----------------


def _dolbeault_parts(cm, monkeypatch):
    """The (cocycles, coboundaries) pairs that ``dolbeault`` passes to
    ``_quotient_table``, per slot."""
    parts = {}
    quotient = cohomology._quotient_table

    def capture(m, slot_parts):
        parts.update(slot_parts)
        return quotient(m, slot_parts)

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


def test_quotient_table_rejects_coboundaries_outside_the_cocycles(
        monkeypatch):
    # negative control: with the whole slot as its coboundaries, a slot
    # whose cocycles are smaller fails the containment check before the
    # complement, which reads coordinates that only containment makes
    # meaningful, runs
    cm = _cm_of("filiform-J")
    (p, q), (num, den) = next(
        (pq, part) for pq, part in sorted(
            _dolbeault_parts(cm, monkeypatch).items())
        if part[0].dim < part[0].ambient_dim)
    calls = []
    complement = cohomology.complement_in
    monkeypatch.setattr(cohomology, "complement_in", lambda inner, outer: (
        calls.append((inner, outer)) or complement(inner, outer)))
    cohomology._quotient_table(cm.m, {(p, q): (num, den)})
    assert calls == [(den, num)]
    whole = Subspace.kernel(Matrix.zero(0, num.ambient_dim))
    with pytest.raises(ConsistencyError, match=(
            r"^coboundaries are not cocycles on slot \(%d, %d\)$" % (p, q))):
        cohomology._quotient_table(cm.m, {(p, q): (num, whole)})
    assert calls == [(den, num)]
