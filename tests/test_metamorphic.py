"""Metamorphic invariants of the analysis: J -> -J, g -> lam g and a
change of basis leave every table alone.

J -> -J swaps the types (p, q) <-> (q, p), and conjugation maps each table
of J onto the same table of -J, so the tables read slot by slot agree.
Rescaling a compatible metric rescales every Hodge star and adjoint by a
power of lam per slot, which leaves every kernel, and so every harmonic
space, where it was.  Writing the brackets, J and g in another basis of the
same Lie algebra gives an isomorphic input.  The negative controls swap in
another J, or change the basis of J and g but not of the brackets, and
must change the tables.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acdol import pipeline
from conftest import (_invert, _matmul, named_spec, random_nilpotent_spec,
                      seeded_rng)

TABLES = ("h_mub", "h_dol", "betti", "pages", "degeneration_page")
HARMONIC = ("h_mub_harmonic", "h_delb_mub", "h_d")
SCALES = st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(5, 2)])
ENTRIES = st.sampled_from([Fraction(x) for x in (-2, -1, 0, 0, 1, 2)]
                          + [Fraction(1, 2), Fraction(-1, 3)])
PIVOTS = st.sampled_from([Fraction(x) for x in (-2, -1, 1, 2)]
                         + [Fraction(1, 2), Fraction(-3, 2)])


def tables(spec):
    """The eight tables of the result document of ``spec``."""
    doc = pipeline.result_document(pipeline.analyze(spec), checks=[])
    out = {key: doc[key] for key in TABLES}
    out.update((key, doc["harmonic"][key]) for key in HARMONIC)
    return out


def negated_j(spec):
    return dataclasses.replace(
        spec, J=tuple(tuple(-x for x in row) for row in spec.J))


def scaled_metric(spec, lam):
    return spec.with_metric([[lam * x for x in row] for row in spec.metric])


def j_and_metric_in_basis(spec, P):
    """J and g written in the basis f_a = sum_i P[i][a] e_i:
    P^-1 J P and P^t g P; the brackets are left alone."""
    Pt = [list(row) for row in zip(*P)]
    return dataclasses.replace(
        spec, J=_freeze(_matmul(_matmul(_invert(P), spec.J), P)),
        metric=_freeze(_matmul(_matmul(Pt, spec.metric), P)),
        frame_seeds=None)


def in_basis(spec, P):
    """``spec`` written in the basis f_a = sum_i P[i][a] e_i: the brackets
    [f_a, f_b] = sum_c c'^c_ab f_c with c' = P^-1 c(P., P.), and J and g
    as in ``j_and_metric_in_basis``."""
    n, c, Pinv = spec.dim, spec.brackets, _invert(P)
    rng = range(n)
    left = [[[sum(P[i][a] * c[i][j][k] for i in rng) for k in rng]
             for j in rng] for a in rng]
    both = [[[sum(P[j][b] * left[a][j][k] for j in rng) for k in rng]
             for b in rng] for a in rng]
    brackets = tuple(tuple(tuple(sum(Pinv[d][k] * both[a][b][k] for k in rng)
                                 for d in rng) for b in rng) for a in rng)
    return dataclasses.replace(j_and_metric_in_basis(spec, P),
                               brackets=brackets)


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


@st.composite
def invertible(draw, n):
    """A random rational L U with L unit lower and U upper triangular."""
    L = [[Fraction(i == j) if j >= i else draw(ENTRIES) for j in range(n)]
         for i in range(n)]
    U = [[draw(PIVOTS) if i == j else draw(ENTRIES) if j > i else Fraction(0)
          for j in range(n)] for i in range(n)]
    return _matmul(L, U)


def assert_invariant(spec, lam):
    want = tables(spec)
    assert tables(negated_j(spec)) == want
    assert tables(scaled_metric(spec, lam)) == want


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lam=SCALES)
def test_random_tables_invariant_under_negated_j_and_scaled_metric(seed, lam):
    assert_invariant(random_nilpotent_spec(seeded_rng(seed), 2), lam)


@pytest.mark.parametrize("name", ["filiform-J", "su2su2-nk", "solvable-m2"])
@settings(max_examples=2, deadline=None)
@given(lam=SCALES)
def test_builtin_tables_invariant_under_negated_j_and_scaled_metric(name,
                                                                    lam):
    assert_invariant(named_spec(name), lam)


def test_another_j_changes_the_tables():
    # negative control: kt-J and kt-Jprime share the brackets and the
    # metric, so giving kt-J the J of kt-Jprime is a wrong transform
    spec, other = named_spec("kt-J"), named_spec("kt-Jprime")
    assert (spec.brackets, spec.metric) == (other.brackets, other.metric)
    want = tables(spec)
    got = tables(dataclasses.replace(spec, J=other.J))
    changed = {key for key in want if got[key] != want[key]}
    assert {"h_mub", "h_dol", "pages"} | set(HARMONIC) <= changed


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 16), data=st.data())
def test_random_tables_invariant_under_a_change_of_basis(seed, data):
    spec = random_nilpotent_spec(seeded_rng(seed), 2)
    P = data.draw(invertible(spec.dim))
    assert tables(in_basis(spec, P)) == tables(spec)


@pytest.mark.parametrize("name", ["filiform-J", "kt-J", "su2su2-nk"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_builtin_tables_invariant_under_a_change_of_basis(name, data):
    spec = named_spec(name)
    P = data.draw(invertible(spec.dim))
    assert tables(in_basis(spec, P)) == tables(spec)


@pytest.mark.parametrize("name", ["random-m3-seed1", "solvable-m2"])
def test_input_tables_invariant_under_a_fixed_change_of_basis(name):
    # one fixed P each: an m = 3 input with a non-identity metric, and the
    # non-unimodular input; P = L U mixes every pair of neighbouring vectors
    spec = named_spec(name)
    n = spec.dim
    L = [[Fraction(int(i - 1 <= j <= i)) for j in range(n)]
         for i in range(n)]
    U = [[Fraction(1 + i % 2 if j == i else -1 if j == i + 1 else 0)
          for j in range(n)] for i in range(n)]
    assert tables(in_basis(spec, _matmul(L, U))) == tables(spec)


def test_a_change_of_basis_of_j_and_g_alone_changes_the_tables():
    # negative control: the same P applied to J and g but not to the
    # brackets puts another almost complex structure on filiform-J
    L = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]]
    U = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
    P = _matmul([[Fraction(x) for x in row] for row in L],
                [[Fraction(x) for x in row] for row in U])
    spec = named_spec("filiform-J")
    want = tables(spec)
    assert tables(in_basis(spec, P)) == want
    got = tables(j_and_metric_in_basis(spec, P))
    changed = {key for key in want if got[key] != want[key]}
    assert {"h_dol", "pages", "degeneration_page", "h_d",
            "h_delb_mub"} <= changed
