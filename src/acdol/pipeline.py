"""End-to-end orchestration: spec -> pages and tables -> harmonic -> checks.

``analyze`` computes the metric-free stages: validation, the frame, the
differential, the Frolicher pages and the three tables.  It computes each
table by one route, the Hodge reduction behind the pages: h_dol is its
first page, the Betti numbers count its unpaired generators (E_inf) and
h_mub reads the mubar kernels memoised by the reduction's generators.  The
harmonic layer, the one stage that needs the metric, is built on the first
read of ``Analysis.hs``, the one handle on it.  The d^2 = 0 identities are
no stage of ``analyze`` but a check of each command, ``relations_check``.
``verification_checks`` evaluates the complete property battery on an
analysis (exact identities, duality symmetries, and the independent routes
of ``cohomology`` as labelled oracles, each computed once).  Checks marked
``informational`` describe the input rather than the implementation: their
failure is an honest finding, not an error, and they do not affect process
exit codes.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology, docio, forms, harmonic, liealg, spectral
from .cohomology import Check
from .forms import DELBAR, MU, MUBAR
from .kernel import ONE, ZERO
from .linalg import Matrix, Subspace


@dataclass
class Analysis:
    """The metric-free stages of one run; the harmonic layer ``hs`` is
    built on first read.  ``h_mub`` and ``h_dol`` are {(p, q): dim} with
    zero entries left out; ``pages`` is the Hodge reduction,
    ``spectral.frolicher_all``, which holds every page."""

    spec: object
    frame: object
    cm: object
    classification: str
    h_mub: dict
    h_dol: dict
    betti: tuple
    pages: object

    @property
    def m(self):
        return self.spec.m

    @functools.cached_property
    def hs(self):
        """The Hermitian layer of the input metric, built on the plain
        frame and its differential ``cm``."""
        return harmonic.build_hermitian(self.cm, self.frame, self.spec.metric)


def analyze(spec):
    """Run the metric-free stages, validating ``spec`` as the first, so a
    converted spec (``docio.to_spec``) needs no validation before; raises
    on invalid input or on an internal failure that stops a stage."""
    spec = liealg.validate_spec(spec)
    frame = liealg.adapted_frame(spec)
    basis = forms.build_basis(spec.m)
    cm = forms.build_differential(liealg.complexify(spec, frame), basis)
    classification = forms.classify(cm)
    pages = spectral.frolicher_all(cm)
    # one route per table: E_1 is Dolbeault cohomology, the unpaired
    # generators span E_inf, and the mubar kernels are memoised by the
    # reduction's generators
    h_dol = pages.dims(1)
    betti = tuple(gaps.count(None) for gaps in pages.gap)
    h_mub = {}
    for (p, q) in basis.slots:
        below = cm.block(MUBAR, p + 1, q - 2)
        # a block below from off the grid has no columns: rank 0 by shape
        rank = below.cols and below.cols - Subspace.kernel(below).dim
        dim = Subspace.kernel(cm.block(MUBAR, p, q)).dim - rank
        if dim:
            h_mub[(p, q)] = dim
    return Analysis(spec, frame, cm, classification, h_mub, h_dol, betti,
                    pages)


def analyze_document(doc):
    return analyze(docio.to_spec(doc))


def probe_metric(spec):
    """The metric the probe compares with the input's: another
    compatible metric, the pullback of g by 2I + J.  For a compatible g
    that is 5g: (2I + J)^t g (2I + J) = 4g + 2(J^t g + g J) + J^t g J,
    where J^t g + g J = 0 and J^t g J = g.  A homothety leaves the frame
    and every harmonic space as they are, so the probe only repeats the
    input metric's layer."""
    n = spec.dim
    q = [[Fraction(2 if i == j else 0) + spec.J[i][j] for j in range(n)]
         for i in range(n)]
    return liealg.pullback_metric(spec.metric, q)


def relations_check(cm):
    """The entry ``component_relations``, ``forms.verify_relations``: a
    pass counts the identity-slot pairs, a failure names the first."""
    report = forms.verify_relations(cm)
    bad = next(((name, pq) for name, pq, ok in report if not ok), None)
    return Check("component_relations", bad is None,
                 "%d identity-slot pairs" % len(report) if bad is None
                 else "%s fails on slot (%d, %d)" % (bad[0], *bad[1]))


def conjugation_check(cm):
    """The entry ``component_conjugation_symmetry``: C conj(delta) =
    conj_delta C on every slot, for delta = mubar and delbar with the
    conjugate components mu and partial, C the conjugation of monomials.
    A failure names the first component and slot, p-major."""
    basis = cm.basis
    for tag in (MUBAR, DELBAR):
        for (p, q) in sorted(basis.slots):
            c_src = forms.conjugation_matrix(basis, p, q)
            c_tgt = forms.conjugation_matrix(basis, *cm.target(tag, p, q))
            if (c_tgt @ cm.block(tag, p, q).conj()
                    != cm.block(forms.CONJUGATE_TAG[tag], q, p) @ c_src):
                return Check("component_conjugation_symmetry", False,
                             "%s fails on slot (%d, %d)" % (tag, p, q))
    return Check("component_conjugation_symmetry", True)


def verification_checks(an):
    """The full exact property battery for one analysis."""
    checks = []
    cm = an.cm
    basis = cm.basis
    m = an.m

    # the seven differential identities, blockwise
    checks.append(relations_check(cm))

    # conjugation symmetry of the component matrices
    checks.append(conjugation_check(cm))

    # mubar is trivial on the p = 0 column
    ok = all(cm.block(MUBAR, 0, q).is_zero() for q in range(m + 1))
    checks.append(Check("mubar_trivial_on_p0", ok))

    # integrability iff the degree-one Nijenhuis block vanishes
    nij = forms.nijenhuis_operator(cm)
    checks.append(Check("integrable_iff_nijenhuis_zero",
                        forms.is_integrable(cm) == nij.is_zero()))

    # mubar-cohomology symmetries
    h_mu = cohomology.operator_cohomology(cm, MU)
    checks.append(cohomology.slot_check(
        "h_mub_conjugation_dims", basis.slots,
        lambda p, q: an.h_mub.get((p, q), 0) == h_mu.dim(q, p)))
    checks.append(cohomology.slot_check(
        "h_mub_serre_dims", basis.slots,
        lambda p, q: an.h_mub.get((p, q), 0)
        == an.h_mub.get((m - p, m - q), 0)))

    # Dolbeault: the bottom row equals Ker(delbar) ∩ Ker(mubar)
    def bottom(p, q):
        both = cm.block(DELBAR, p, q).vstack(cm.block(MUBAR, p, q))
        return an.h_dol.get((p, q), 0) == both.cols - both.rank()

    checks.append(cohomology.slot_check(
        "h_dol_bottom_row", [(p, 0) for p in range(m + 1)], bottom))

    # the oracles: the zig-zag Dolbeault table, and the cohomology of
    # delbar induced on mubar-classes, from its ranks
    dol = cohomology.dolbeault(cm)
    mub_table = cohomology.mub_cohomology(cm)
    dims2 = cohomology.cohomology_dims(
        mub_table.dims, cohomology.induced_delbar(cm, mub_table))
    checks.append(cohomology.slot_check(
        "h_dol_two_route_agreement", basis.slots,
        lambda p, q: dims2.get((p, q), 0) == dol.dim(p, q)))

    # Frolicher inequality, Euler characteristic, Serre duality
    checks.extend(cohomology.consistency_report(an.h_dol, an.betti, m))

    # spectral pages, each page read once: dims[r] is E_r
    pages = an.pages
    dims = [None] + [pages.dims(r) for r in range(1, 2 * m + 3)]
    checks.append(cohomology.slot_check(
        "first_page_equals_dolbeault", basis.slots,
        lambda p, q: dims[1].get((p, q), 0) == dol.dim(p, q)))
    checks.extend(spectral.infinity_vs_betti(pages, cohomology.de_rham(cm)))
    checks.append(_page_slot_check(
        "page_dims_weakly_decrease", range(2, 2 * m + 3), basis.slots,
        lambda r, pq: dims[r].get(pq, 0) <= dims[r - 1].get(pq, 0)))
    checks.append(Check("e2_corner_is_one", dims[2].get((0, 0), 0) == 1))
    if an.classification == forms.MAXIMALLY_NON_INTEGRABLE:
        degen = pages.degeneration_page
        checks.append(Check("maximal_implies_e2_degeneration", degen <= 2,
                            "degenerates at page %d" % degen))

    # explicit witness systems against the generic filtered route; a
    # failure names the first page and slot they differ on
    exp = [None] + spectral.explicit_pages(cm, 4)
    checks.append(_page_slot_check(
        "explicit_pages_match_generic", range(1, 5), basis.slots,
        lambda r, pq: exp[r].get(pq, 0) == dims[r].get(pq, 0)))

    # decalage comparison with the shifted filtration
    checks.append(spectral.decalage_check(cm, pages))

    # the certificate of the reduction behind the pages, with the witness
    # delta_1 as the oracle for the first page differential
    delta1 = spectral.dolbeault_delta1(cm, dol)
    checks.append(reduction_certificate(pages, delta1))

    # the witness delta_1 is well defined on Dolbeault classes
    checks.append(cohomology.slot_check(
        "delta1_witness_independence", basis.slots,
        lambda p, q: spectral.witness_independent(cm, dol, delta1, p, q)))

    # the identities of the harmonic layer, and bar-star Serre duality
    hs = an.hs
    checks.extend(harmonic.layer_checks(hs, an.h_dol))
    checks.extend(harmonic.serre_star_check(hs))

    # harmonic inclusion: dim(H_delbar ∩ H_mubar) <= h_dol, and equality on
    # q = 0, where delbar* and mubar* vanish
    h_delbar, h_mubar = hs.harmonic(DELBAR), hs.harmonic(MUBAR)
    inter = {pq: h_delbar[pq].intersect(h_mubar[pq]).dim
             for pq in basis.slots}
    checks.append(cohomology.slot_check(
        "harmonic_inclusion_bound", basis.slots,
        lambda p, q: inter[(p, q)] <= an.h_dol.get((p, q), 0)))
    checks.append(cohomology.slot_check(
        "harmonic_intersection_bottom_row", [(p, 0) for p in range(m + 1)],
        lambda p, q: inter[(p, q)] == an.h_dol.get((p, q), 0)))

    # d-harmonic forms realise the Betti numbers: Ker d ∩ Ker d* of each
    # degree, the corank of the stacked [d; d*] that d_harmonic reads; a
    # failure names the first degree it fails in
    coranks = [s.cols - s.rank() for s in map(hs.d_stacked, range(2 * m + 1))]
    bad = next((n for n, (c, b) in enumerate(zip(coranks, an.betti))
                if c != b), None)
    checks.append(Check("d_harmonic_realises_betti", bad is None,
                        "" if bad is None else "fails in degree %d" % bad))

    # metric independence of the harmonic Dolbeault dimensions
    checks.append(harmonic.metric_independence_probe(
        an.spec, hs, probe_metric(an.spec)))

    # nearly Kahler identity battery (descriptive for m = 3 inputs)
    if m == 3:
        checks.extend(harmonic.nearly_kahler_checks(hs))
    else:
        checks.append(Check("nearly_kahler_identities", True,
                            "skipped: requires m = 3", skipped=True,
                            informational=True))
    return checks


def _page_slot_check(name, pages, slots, holds):
    """``cohomology.slot_check`` of ``holds(r, (p, q))`` over ``pages`` and
    ``slots``: the detail names the first failing page, then slot."""
    bad = next(((r, pq) for r in pages for pq in slots if not holds(r, pq)),
               None)
    return Check(name, bad is None, "" if bad is None else
                 "fails on page %d, slot (%d, %d)" % (bad[0], *bad[1]))


def reduction_certificate(red, delta1):
    """Check the Hodge reduction ``red`` behind the pages exactly.

    D V = R with V unit triangular in the (value, index) order, hence
    invertible and filtration preserving; R has distinct pivots and each
    generator is in at most one pair; dim E_{r+1} = dim E_r minus the
    generators in pairs of gap r, slot by slot, for r = 1, 2; and the ranks
    of the witness ``delta1`` count the gap-1 pairs leaving each slot.
    """
    bad = []
    for n, (d, ops, cols) in enumerate(zip(red.d, red.ops, red.reduced)):
        v_mat = Matrix.from_columns([[op.get(i, ZERO) for i in range(d.cols)]
                                     for op in ops], ambient_rows=d.cols)
        r_mat = Matrix.from_columns([[col.get(i, ZERO) for i in range(d.rows)]
                                     for col in cols], ambient_rows=d.rows)
        if d @ v_mat != r_mat:
            bad.append("D V != R in degree %d" % n)
        if any(op.get(j) != ONE or min(op) < j for j, op in enumerate(ops)):
            bad.append("V is not unit triangular in degree %d" % n)
        pivots = [min(col) for col in cols if col]
        if len(set(pivots)) != len(pivots):
            bad.append("R repeats a pivot in degree %d" % n)
        if n and {j for j, col in enumerate(cols) if col} & {
                min(col) for col in red.reduced[n - 1] if col}:
            bad.append("a generator of degree %d is paired twice" % n)
    for r in (1, 2):
        drop = Counter(slot for pair in red.pairs(r) for slot in pair)
        cur, nxt = red.dims(r), red.dims(r + 1)
        for key in set(cur) | set(nxt) | set(drop):
            if nxt.get(key, 0) != cur.get(key, 0) - drop[key]:
                bad.append("page %d at (p=%d,q=%d) is not page %d minus its "
                           "pairs" % (r + 1, key[0], key[1], r))
    sources = Counter(src for src, _ in red.pairs(1))
    for (p, q), mat in delta1.items():
        if mat.rank() != sources[(p, q)]:
            bad.append("witness delta_1 rank %d vs %d gap-1 pairs at "
                       "(p=%d,q=%d)" % (mat.rank(), sources[(p, q)], p, q))
    return Check("page_differentials_consistent", not bad, "; ".join(bad)
                 or "r = [1, 2] verified against the next page")


def pages_section(an):
    """The printed pages: E_1 up to the degeneration page, at least E_2."""
    last = max(2, an.pages.degeneration_page)
    return {str(r): docio.table_to_json(an.pages.dims(r), an.m)
            for r in range(1, last + 1)}


def harmonic_section(an):
    """The harmonic tables; reading them builds the harmonic layer."""
    m, hs = an.m, an.hs

    def table(spaces):
        return docio.table_to_json(harmonic.space_dims(spaces), m)

    return {
        "unimodular": cohomology.top_cohomology_is_line(an.cm),
        "h_mub_harmonic": table(hs.harmonic(MUBAR)),
        "h_delb_mub": table(harmonic.delb_mub(hs)[1]),
        "h_d": table(hs.d_harmonic()),
        "nk_scalar": harmonic.mixed_laplacian_fit(hs)[1] if m == 3 else None,
    }


def document(an, pages, harm, checks):
    """The JSON-ready document of the metric-free tables with the sections
    ``pages`` and ``harm`` and the ``checks`` (stable key order)."""
    m = an.m
    return {
        "name": an.spec.name,
        "m": m,
        "classification": an.classification,
        "h_mub": docio.table_to_json(an.h_mub, m),
        "h_dol": docio.table_to_json(an.h_dol, m),
        "betti": list(an.betti),
        "pages": pages,
        "degeneration_page": an.pages.degeneration_page,
        "harmonic": harm,
        "checks": [
            {"name": c.name, "passed": c.passed, "skipped": c.skipped,
             "informational": c.informational, "detail": c.detail}
            for c in checks
        ],
    }


def result_document(an, checks):
    """The document ``analyze`` prints: both sections and ``checks``."""
    return document(an, pages_section(an), harmonic_section(an), checks)


def hard_failures(checks):
    """Non-informational failures; these indicate internal inconsistency."""
    return [c for c in checks
            if not c.passed and not c.skipped and not c.informational]
