"""Acceptance suite: one test per criterion, all tolerances exact (zero).

Each criterion prints a PASS line on success; a failing assertion marks the
criterion FAIL.  Criterion 8 tests the nearly Kahler operator identities
from both sides: every identity must hold on the homogeneous nearly Kahler
S^3 x S^3 (tests/data/inputs/s3s3-nk.json, checked to be nearly Kahler by an
exact Levi-Civita computation of nabla J in this module), and the battery
must flag the swap structure su2su2-nk, which is not nearly Kahler for its
metric (see notes/decisions.md).
"""

import os

from acdol import docio, pipeline
from acdol.cohomology import (cohomology_dims, de_rham, dolbeault,
                              euler_characteristic, top_cohomology_is_line)
from acdol.forms import (MUBAR, build_basis, build_differential,
                         verify_relations)
from acdol.harmonic import (build_hermitian, delb_mub,
                            metric_independence_probe, nearly_kahler_checks,
                            space_dims)
from acdol.liealg import adapted_frame, complexify, validate_spec
from acdol.linalg import Matrix
from acdol.spectral import (decalage_check, dolbeault_delta1, explicit_pages,
                            frolicher_all, infinity_vs_betti,
                            witness_independent)
from conftest import (_invert, builtin_analysis, dims_grid,
                      random_nilpotent_spec, seeded_rng)
from test_harmonic import _delb_mub_oracle

ALL_BUILTINS = ("abelian-m2", "abelian-m3", "filiform-J", "filiform-Jprime",
                "kt-J", "kt-Jprime", "su2su2-nk")


def _report(n, text):
    print("ACCEPTANCE criterion %s: PASS (%s)" % (n, text))


def test_criterion_1_filiform_J():
    an = builtin_analysis("filiform-J")
    assert dims_grid(an.h_dol, an.m) == ((1, 1, 0), (2, 4, 2), (0, 1, 1))
    assert dims_grid(an.pages.dims(2), an.m) == ((1, 1, 0), (1, 2, 1),
                                                 (0, 1, 1))
    assert an.pages.degeneration_page == 2
    _report(1, "filiform J tables and E2 degeneration")


def test_criterion_2_filiform_Jprime():
    an = builtin_analysis("filiform-Jprime")
    assert an.pages.degeneration_page == 1
    assert dims_grid(an.h_dol, an.m) == ((1, 0, 0), (2, 2, 2), (0, 0, 1))
    _report(2, "filiform J' degenerates at page 1")


def test_criterion_3_kodaira_thurston():
    an = builtin_analysis("kt-J")
    assert dims_grid(an.h_dol, an.m) == ((1, 1, 0), (2, 4, 2), (0, 1, 1))
    assert an.pages.degeneration_page == 1  # E1 = Einf
    assert an.pages.dims(1) == an.pages.infinity()
    anp = builtin_analysis("kt-Jprime")
    assert dims_grid(anp.h_dol, anp.m) == ((1, 1, 1), (2, 2, 2), (1, 1, 1))
    _report(3, "Kodaira-Thurston J and J' tables")


def test_criterion_4_su2su2():
    an = builtin_analysis("su2su2-nk")
    assert dims_grid(an.h_dol, an.m) == ((1, 0, 0, 0), (3, 3, 1, 0),
                               (0, 1, 3, 3), (0, 0, 0, 1))
    e2 = {k: v for k, v in an.pages.dims(2).items() if v}
    assert e2 == {(0, 0): 1, (2, 1): 1, (1, 2): 1, (3, 3): 1}
    assert an.pages.degeneration_page == 2
    assert dims_grid(an.h_mub, an.m) == ((1, 0, 0, 0), (3, 8, 6, 0),
                               (0, 6, 8, 3), (0, 0, 0, 1))
    _report(4, "su2su2 Dolbeault, E2, degeneration, mubar tables")


def _random_analyses():
    rng = seeded_rng(424242)
    out = []
    for i in range(25):
        m = 3 if i % 5 == 0 else 2
        spec = validate_spec(random_nilpotent_spec(rng, m))
        csc = complexify(spec, adapted_frame(spec))
        cm = build_differential(csc, build_basis(m))
        out.append((spec, cm))
    return out


def test_criterion_5_betti_recovery():
    cases = []
    for name in ALL_BUILTINS:
        an = builtin_analysis(name)
        cases.append((an.m, an.cm, an.pages, de_rham(an.cm), an.h_dol))
    for spec, cm in _random_analyses():
        pages = frolicher_all(cm)
        betti = de_rham(cm)
        cases.append((spec.m, cm, pages, betti, dolbeault(cm).dims))
    for m, cm, pages, betti, h_dol in cases:
        assert all(c.passed for c in infinity_vs_betti(pages, betti))
        for n in range(2 * m + 1):
            total = sum(h_dol.get((p, n - p), 0) for p in range(n + 1))
            assert total >= betti[n]
        chi = sum((-1 if (p + q) % 2 else 1) * v
                  for (p, q), v in h_dol.items())
        assert chi == euler_characteristic(betti)
    _report(5, "E_inf = Betti, Frolicher inequality, Euler equality on %d inputs"
            % len(cases))


def test_criterion_6_oracle_equivalence():
    for name in ALL_BUILTINS:
        an = builtin_analysis(name)
        for r, exp in enumerate(explicit_pages(an.cm, 4), 1):
            gen = {k: v for k, v in an.pages.dims(r).items() if v}
            assert exp == gen, "%s page %d" % (name, r)
        assert decalage_check(an.cm, an.pages).passed, name
    _report(6, "explicit pages r=1..4 and decalage shift on every builtin")


def test_criterion_7_harmonic_isomorphism():
    probed = 0
    for name in ALL_BUILTINS:
        an = builtin_analysis(name)
        assert top_cohomology_is_line(an.cm)
        metric = pipeline.probe_metric(an.spec)
        assert metric != [list(row) for row in an.spec.metric]
        check = metric_independence_probe(an.spec, an.hs, metric)
        assert check.passed, name
        other = build_hermitian(an.cm, an.frame, validate_spec(
            an.spec.with_metric(metric)).metric)
        for hs in (an.hs, other):
            dims = space_dims(delb_mub(hs)[1])
            assert dims_grid(dims, an.m) == dims_grid(an.h_dol, an.m), name
            probed += 1
    _report(7, "H_delbar_mub = H_Dol under %d metrics across builtins" % probed)


def _input_analysis(name):
    path = os.path.join(os.path.dirname(__file__), "data", "inputs",
                        "%s.json" % name)
    with open(path) as fh:
        return pipeline.analyze_document(docio.parse_document(fh.read()))


def _nabla_J(spec):
    """T[a][b] = (nabla_{e_a} J) e_b for the Levi-Civita connection of the
    left-invariant metric, from the Koszul formula
    2 g(nabla_X Y, Z) = g([X, Y], Z) - g([Y, Z], X) + g([Z, X], Y)."""
    n = spec.dim
    c, g, J = spec.brackets, spec.metric, spec.J
    g_inv = _invert(g)

    def pair(a, b, z):  # g([e_a, e_b], e_z)
        return sum(c[a][b][k] * g[k][z] for k in range(n))

    nabla = [[[sum(g_inv[i][z] * (pair(a, b, z) - pair(b, z, a)
                                  + pair(z, a, b)) / 2 for z in range(n))
               for i in range(n)] for b in range(n)] for a in range(n)]
    return [[[sum(J[k][b] * nabla[a][k][i] - J[i][k] * nabla[a][b][k]
                  for k in range(n)) for i in range(n)]
             for b in range(n)] for a in range(n)]


def _nabla_J_skew(t):
    """(nabla_X J) X = 0 for every X, i.e. the structure is nearly Kahler."""
    n = len(t)
    return all(t[a][b][i] == -t[b][a][i]
               for a in range(n) for b in range(n) for i in range(n))


NK_LAPLACIAN = "nk_laplacian delbar + 2 mubar = partial + 2 mu"
NK_CONJUGATION_SYMMETRIC = ("nk_commutator [mu, mubar*] = 0",
                            "nk_commutator [mubar, mu*] = 0",
                            "nk_laplacian equalities on p = q and p + q = 3")


def test_criterion_8_nearly_kahler_identities():
    # positive control: the homogeneous nearly Kahler S^3 x S^3 in the
    # rational basis u_k = (e_k, e_k), v_k = (-e_k, e_k)/sqrt(3)
    nk = _input_analysis("s3s3-nk")
    t = _nabla_J(nk.spec)
    assert _nabla_J_skew(t), "s3s3-nk is not nearly Kahler"
    assert any(x for row in t for vec in row for x in vec), "s3s3-nk is Kahler"
    nk_checks = nearly_kahler_checks(nk.hs)
    assert len(nk_checks) == 14
    failed = [c.name for c in nk_checks if not c.passed]
    assert not failed, "identities false on a nearly Kahler structure: %s" \
        % ", ".join(failed)

    # negative control: the swap structure is not nearly Kahler for its
    # metric, so the battery must flag it (see notes/decisions.md)
    an = builtin_analysis("su2su2-nk")
    assert not _nabla_J_skew(_nabla_J(an.spec))
    an_checks = nearly_kahler_checks(an.hs)
    assert [c.name for c in an_checks] == [c.name for c in nk_checks]
    by_name = {c.name: c for c in an_checks}
    mixed = [c for c in an_checks if c.name.startswith("nk_commutator")
             and c.name not in NK_CONJUGATION_SYMMETRIC]
    assert len(mixed) == 8
    undetected = [c.name for c in mixed if c.passed]
    if by_name[NK_LAPLACIAN].passed:
        undetected.append(NK_LAPLACIAN)
    assert not undetected, "battery misses su2su2-nk: %s" \
        % ", ".join(undetected)
    assert all(by_name[name].passed for name in NK_CONJUGATION_SYMMETRIC)
    _report(8, "nearly Kahler identities hold on s3s3-nk and flag su2su2-nk")


def _structural_battery(cm, hs, h_dol, betti):
    # seven component relations
    assert all(ok for _, _, ok in verify_relations(cm))
    # star involution is asserted at construction; re-check one slot fully
    m = cm.m
    assert hs.check_star_defining(1, 0)
    assert hs.check_star_isometry(0, 1)
    # mubar Hodge decomposition, certified by delb_mub: the harmonic
    # coordinates C of the B^{-1} oracle give
    # C [Im mubar | H_mubar | Im mubar*] = [0 | I | 0], and delbar_mub
    # equals the oracle's
    op, harmonic_spaces = delb_mub(hs)
    oracle_coords, oracle_op, oracle_harmonic = _delb_mub_oracle(hs)
    assert op == oracle_op and harmonic_spaces == oracle_harmonic
    for (p, q), coords in oracle_coords.items():
        assert (coords @ hs.cm.block(MUBAR, p + 1, q - 2)).is_zero()
        assert coords @ hs.harmonic(MUBAR)[(p, q)].basis == \
            Matrix.identity(coords.rows)
        assert (coords @ hs.adjoint_block(MUBAR, p - 1, q + 2)).is_zero()
    # delbar_mub squares to zero (asserted in delb_mub) and matches Dolbeault
    coh = cohomology_dims({pq: mat.cols for pq, mat in op.items()},
                          {pq: mat.rank() for pq, mat in op.items()})
    for p in range(m + 1):
        for q in range(m + 1):
            assert coh.get((p, q), 0) == h_dol.dim(p, q)
    # Serre duality dims when the top cohomology is a line
    if top_cohomology_is_line(cm):
        for p in range(m + 1):
            for q in range(m + 1):
                assert h_dol.dim(p, q) == h_dol.dim(m - p, m - q)
    # witness independence of delta_1
    delta1 = dolbeault_delta1(cm, h_dol)
    for p in range(m + 1):
        for q in range(m + 1):
            assert witness_independent(cm, h_dol, delta1, p, q)
    # edge monotonicity of the pages
    pages = frolicher_all(cm)
    for r in range(1, 2 * m + 2):
        for p in range(m + 1):
            assert (pages.dims(r + 1).get((p, 0), 0)
                    <= pages.dims(r).get((p, 0), 0))
            assert (pages.dims(r + 1).get((0, p), 0)
                    <= pages.dims(r).get((0, p), 0))


def test_criterion_9_structural_suite():
    count = 0
    for name in ALL_BUILTINS:
        an = builtin_analysis(name)
        _structural_battery(an.cm, an.hs, dolbeault(an.cm), an.betti)
        count += 1
    rng = seeded_rng(171717)
    for _ in range(5):
        spec = validate_spec(random_nilpotent_spec(rng, 2))
        frame = adapted_frame(spec)
        cm = build_differential(complexify(spec, frame), build_basis(2))
        hs = build_hermitian(cm, frame, spec.metric)
        _structural_battery(cm, hs, dolbeault(cm), de_rham(cm))
        count += 1
    _report(9, "structural suite on %d inputs" % count)
