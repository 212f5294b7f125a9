"""One route per table in ``analyze``, and the oracles of the battery.

``analyze`` reads h_dol, the Betti numbers and h_mub from the Hodge
reduction; the independent routes of ``cohomology`` run only in
``verification_checks``, once each, and must still catch a reduction that
is wrong.  ``analyze`` builds no harmonic layer; it is built once, on
first read, and read by the battery and the result document.
"""

import dataclasses

import pytest

from acdol import (catalog, cohomology, docio, forms, harmonic, linalg,
                   pipeline, spectral)
from acdol.cohomology import de_rham, dolbeault, mub_cohomology
from conftest import builtin_analysis, random_nilpotent_spec, seeded_rng
from test_spectral import _witness_images

ORACLES = ("mub_cohomology", "dolbeault", "de_rham")
SPECS = {
    "filiform-J": lambda: docio.to_spec(catalog.builtin("filiform-J")),
    "random-m3": lambda: random_nilpotent_spec(seeded_rng(1), 3),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_analyze_runs_no_oracle(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("analyze called a battery oracle")

    for fn in ORACLES + ("operator_cohomology",):
        monkeypatch.setattr(cohomology, fn, refuse)
    an = pipeline.analyze(SPECS[name]())
    monkeypatch.undo()
    assert an.h_mub == {k: v for k, v in mub_cohomology(an.cm).dims.items()
                        if v}
    assert an.h_dol == {k: v for k, v in dolbeault(an.cm).dims.items() if v}
    assert an.betti == de_rham(an.cm)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_analyze_builds_no_harmonic_layer(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("analyze built the harmonic layer")

    for fn in ("build_hermitian", "mub_decomposition", "delb_mub"):
        monkeypatch.setattr(harmonic, fn, refuse)
    an = pipeline.analyze(SPECS[name]())
    monkeypatch.undo()
    assert "hs" not in vars(an)
    assert an.hs is an.hs  # built on the first read


@pytest.mark.parametrize("name", sorted(SPECS))
def test_mubar_hodge_decomposition_entry_can_fail(name):
    """The entry certifies on every slot that the dims of Im mubar,
    H_mubar and Im mubar* add up and that the three are pairwise
    G-orthogonal, with dense Gram matrices on random-m3, whose frame Gram
    is not diagonal: it passes as built, and fails, naming the slot, when
    one H_mubar basis loses a vector after the layer is built."""
    an = pipeline.analyze(SPECS[name]())

    def entry():
        return next(c for c in pipeline.verification_checks(an)
                    if c.name == "mubar_hodge_decomposition")

    assert entry().passed
    spaces = an.hs.harmonic(forms.MUBAR)
    (p, q), h = next((pq, h) for pq, h in sorted(spaces.items()) if h.dim)
    spaces[(p, q)] = linalg.Subspace(h.ambient_dim, linalg.Matrix(
        h.ambient_dim, h.dim - 1, [row[1:] for row in h.basis.entries]))
    failed = entry()
    assert not failed.passed
    assert failed.detail.startswith("mubar_decomposition_%d_%d " % (p, q))


def test_battery_computes_each_oracle_once(monkeypatch):
    an = builtin_analysis("filiform-J")
    calls = dict.fromkeys(ORACLES + ("verify_relations",), 0)

    def counted(module, fn):
        inner = getattr(module, fn)

        def wrapper(*args):
            calls[fn] += 1
            return inner(*args)
        monkeypatch.setattr(module, fn, wrapper)

    for fn in ORACLES:
        counted(cohomology, fn)
    counted(forms, "verify_relations")
    checks = pipeline.verification_checks(an)
    assert calls == {"mub_cohomology": 1, "dolbeault": 1, "de_rham": 1,
                     "verify_relations": 1}
    rel = next(c for c in checks if c.name == "component_relations")
    assert rel.passed and rel.detail == "%d identity-slot pairs" % (
        len(forms.RELATIONS) * len(an.cm.basis.slots))


def test_analysis_builds_one_harmonic_layer(monkeypatch):
    """analyze, the battery and the result document build delbar_mub once
    for the input metric and once for the probe's other metric (every
    other read of a layer's delbar_mub returns the memoised dicts), and the
    stacked [d; d*] once per degree, which d_harmonic and the Betti check
    share; d_harmonic takes kernels of its slot columns only, never of a
    whole stacked system.  Each identity of a layer is checked once: the
    mubar decomposition's certificate and delbar_mub^2 = 0 once per layer,
    in the battery for the input's and in the probe for its own, and the ⋆
    identities once, on the input's layer only: the probe builds no ⋆."""
    calls = {"mub_decomposition": 0, "star_check": 0, "_square_failure": 0}
    systems = {}  # (hs, n) -> every [d; d*] returned
    stars = []  # the layer of every ⋆ read
    built = {}  # hs -> every (op, harmonic) of delb_mub returned

    def counted(fn):
        inner = getattr(harmonic, fn)

        def wrapper(*args):
            calls[fn] += 1
            return inner(*args)
        monkeypatch.setattr(harmonic, fn, wrapper)

    for fn in calls:
        counted(fn)
    delb_mub = harmonic.delb_mub

    def delb_mub_read(hs):
        built.setdefault(hs, []).append(delb_mub(hs))
        return built[hs][-1]

    monkeypatch.setattr(harmonic, "delb_mub", delb_mub_read)
    d_stacked = harmonic.HermitianStructure.d_stacked

    def recorded(hs, n):
        stacked = d_stacked(hs, n)
        systems.setdefault((hs, n), []).append(stacked)
        return stacked

    subspace_kernel = linalg.Subspace.kernel

    def kernel(cls, mat):
        assert not any(mat is stacked for found in systems.values()
                       for stacked in found), "kernel of a whole [d; d*]"
        return subspace_kernel(mat)

    monkeypatch.setattr(harmonic.HermitianStructure, "d_stacked", recorded)
    star = harmonic.HermitianStructure.star

    def star_read(hs, p, q):
        stars.append(hs)
        return star(hs, p, q)

    monkeypatch.setattr(harmonic.HermitianStructure, "star", star_read)
    monkeypatch.setattr(linalg.Subspace, "kernel", classmethod(kernel))
    an = pipeline.analyze(docio.to_spec(catalog.builtin("su2su2-nk")))
    pipeline.result_document(an, pipeline.verification_checks(an))
    assert calls == {"mub_decomposition": 2, "star_check": 1,
                     "_square_failure": 2}
    assert len(built) == 2 and an.hs in built
    assert all(found[0] is each for found in built.values() for each in found)
    assert stars and set(stars) == {an.hs}
    assert set(systems) == {(an.hs, n) for n in range(2 * an.m + 1)}
    assert all(len(found) == 2 and found[0] is found[1]
               for found in systems.values())


def _tampered_run(monkeypatch, tamper):
    """analyze + battery on filiform-J with ``tamper`` applied to the
    reduction, so that the production tables inherit the fault and only the
    oracles can see it: the analysis and the battery's entries by name."""
    frolicher_all = spectral.frolicher_all

    def tampered(cm):
        pages = frolicher_all(cm)
        tamper(pages)
        return pages

    monkeypatch.setattr(spectral, "frolicher_all", tampered)
    an = pipeline.analyze(builtin_analysis("filiform-J").spec)
    monkeypatch.undo()
    return an, {c.name: c for c in pipeline.verification_checks(an)}


def test_oracles_catch_a_tampered_reduction(monkeypatch):
    good = builtin_analysis("filiform-J")
    einf = ["einf_equals_betti_degree_%d" % n for n in range(2 * good.m + 1)]
    _, got = _tampered_run(monkeypatch, lambda red: None)
    assert got["first_page_equals_dolbeault"].passed
    assert all(got[name].passed for name in einf)

    # an unpaired degree-1 generator made to die on E_2: E_1 is unchanged,
    # E_inf and so the Betti numbers lose it
    def unpaired_to_gap_1(red):
        red.gap[1][red.gap[1].index(None)] = 1

    an, got = _tampered_run(monkeypatch, unpaired_to_gap_1)
    assert an.h_dol == good.h_dol
    assert an.betti[1] == good.betti[1] - 1
    assert got["first_page_equals_dolbeault"].passed
    assert [name for name in einf if not got[name].passed] == [
        "einf_equals_betti_degree_1"]

    # a gap-0 pair (a mubar pair of the non-integrable structure) moved to
    # gap 1: E_1 and so h_dol gain both generators, E_inf is unchanged;
    # the Dolbeault entries name the first slot they fail on
    def gap_0_pair_to_gap_1(red):
        n, tau = next((n, j) for n, gaps in enumerate(red.gap)
                      for j, g in enumerate(gaps)
                      if g == 0 and red.reduced[n][j])
        red.gap[n][tau] = red.gap[n + 1][min(red.reduced[n][tau])] = 1

    assert good.classification != forms.INTEGRABLE
    an, got = _tampered_run(monkeypatch, gap_0_pair_to_gap_1)
    assert sum(an.h_dol.values()) == sum(good.h_dol.values()) + 2
    assert an.betti == good.betti
    assert all(got[name].passed for name in einf)
    assert {name: (got[name].passed, got[name].detail) for name in (
        "first_page_equals_dolbeault", "serre_duality_dims",
        "delbar_mub_cohomology_equals_dolbeault",
        "delbar_mub_harmonic_equals_dolbeault",
        "explicit_pages_match_generic")} == {
        "first_page_equals_dolbeault": (False, "fails on slot (0, 1)"),
        "serre_duality_dims": (False, "fails on slot (0, 1)"),
        "delbar_mub_cohomology_equals_dolbeault": (
            False, "fails on slot (0, 1)"),
        "delbar_mub_harmonic_equals_dolbeault": (
            False, "fails on slot (0, 1)"),
        "explicit_pages_match_generic": (
            False, "fails on page 1, slot (0, 1)")}


def _entry(an, name):
    return next(c for c in pipeline.verification_checks(an) if c.name == name)


def test_two_route_agreement_names_the_first_failing_slot(monkeypatch):
    # negative control: the Dolbeault coboundaries each one dimension short
    # wherever the quotient coordinates add to Im mubar, which moves h_dol
    # on slots (1, 1) and (1, 2) of filiform-Jprime; the induced delbar
    # ranks the stacked [delbar K | Im mubar] and does not move with it
    an = builtin_analysis("filiform-Jprime")
    entry = _entry(an, "h_dol_two_route_agreement")
    assert entry.passed and entry.detail == ""
    extended = linalg.Subspace.extended

    def short(self, quotient):
        out = extended(self, quotient)
        basis = out.basis
        return out if out.dim == self.dim else linalg.Subspace(
            out.ambient_dim, linalg.Matrix(basis.rows, basis.cols - 1,
                                           [r[:-1] for r in basis.entries]))

    dolbeault = cohomology.dolbeault

    def tampered(cm):
        with monkeypatch.context() as patch:
            patch.setattr(linalg.Subspace, "extended", short)
            return dolbeault(cm)

    monkeypatch.setattr(cohomology, "dolbeault", tampered)
    entry = _entry(an, "h_dol_two_route_agreement")
    assert not entry.passed
    assert entry.detail == "fails on slot (1, 1)"


def test_witness_independence_entry_names_the_first_failing_slot(
        monkeypatch):
    # negative control: the witness delta_1 with the sign of delbar eta
    # flipped is not well defined on the classes of slot (1, 1) of
    # filiform-Jprime
    an = builtin_analysis("filiform-Jprime")
    entry = _entry(an, "delta1_witness_independence")
    assert entry.passed and entry.detail == ""

    def flipped(cm, dol):
        return {(p, q): dol.spaces(p + 1, q)[1].equations() @ _witness_images(
            cm, p, q, dol.cocycles[(p, q)].basis, flip=True)
            for (p, q) in cm.basis.slots}

    monkeypatch.setattr(spectral, "dolbeault_delta1", flipped)
    entry = _entry(an, "delta1_witness_independence")
    assert not entry.passed
    assert entry.detail == "fails on slot (1, 1)"


@pytest.mark.parametrize("name, table, change, detail", [
    # h_mub raised on (2, 1): its conjugate h_mu(1, 2) and its mirror
    # h_mub(0, 1) no longer match, the mirror first
    ("h_mub_conjugation_dims", "h_mub", (2, 1), "fails on slot (2, 1)"),
    ("h_mub_serre_dims", "h_mub", (2, 1), "fails on slot (0, 1)"),
    ("h_dol_bottom_row", "h_dol", (1, 0), "fails on slot (1, 0)")],
    ids=["h_mub_conjugation", "h_mub_serre", "h_dol_bottom_row"])
def test_table_entries_name_the_first_failing_slot(name, table, change,
                                                   detail):
    """Negative controls: one entry of a table of filiform-J raised by
    one."""
    an = builtin_analysis("filiform-J")
    good = _entry(an, name)
    assert (good.passed, good.detail) == (True, "")
    dims = getattr(an, table)
    bad = dataclasses.replace(an, **{table: {
        **dims, change: dims.get(change, 0) + 1}})
    entry = _entry(bad, name)
    assert (entry.passed, entry.detail) == (False, detail)


def test_page_dims_entry_names_the_first_growing_page_and_slot(
        monkeypatch):
    """Negative control: E_3 of filiform-J, which degenerates at E_2,
    read one larger than E_2 on the slots (2, 1) and (1, 2), and E_5 one
    larger than E_4 on (0, 0): the entry names page 3 and the first of
    its slots, p-major."""
    an = pipeline.analyze_document(catalog.builtin("filiform-J"))
    name = "page_dims_weakly_decrease"
    good = _entry(an, name)
    assert (good.passed, good.detail) == (True, "")
    dims = an.pages.dims

    def grown(r):
        out = dims(r)
        for pq in {3: ((2, 1), (1, 2)), 5: ((0, 0),)}.get(r, ()):
            out[pq] = out.get(pq, 0) + 1
        return out

    monkeypatch.setattr(an.pages, "dims", grown)
    entry = _entry(an, name)
    assert (entry.passed, entry.detail) == (
        False, "fails on page 3, slot (1, 2)")
