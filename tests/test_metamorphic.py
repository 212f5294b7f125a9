"""Metamorphic invariants of the analysis: J -> -J and g -> lam g leave
every table alone.

J -> -J swaps the types (p, q) <-> (q, p), and conjugation maps each table
of J onto the same table of -J, so the tables read slot by slot agree.
Rescaling a compatible metric rescales every Hodge star and adjoint by a
power of lam per slot, which leaves every kernel, and so every harmonic
space, where it was.  The negative control swaps in another J and must
change the tables.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acdol import catalog, docio, pipeline
from conftest import random_nilpotent_spec, seeded_rng

TABLES = ("h_mub", "h_dol", "betti", "pages", "degeneration_page")
HARMONIC = ("h_mub_harmonic", "h_delb_mub", "h_d")
SCALES = st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(5, 2)])


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


def builtin_spec(name):
    return docio.to_spec(catalog.builtin(name))


def assert_invariant(spec, lam):
    want = tables(spec)
    assert tables(negated_j(spec)) == want
    assert tables(scaled_metric(spec, lam)) == want


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lam=SCALES)
def test_random_tables_invariant_under_negated_j_and_scaled_metric(seed, lam):
    assert_invariant(random_nilpotent_spec(seeded_rng(seed), 2), lam)


@pytest.mark.parametrize("name", ["filiform-J", "su2su2-nk"])
@settings(max_examples=2, deadline=None)
@given(lam=SCALES)
def test_builtin_tables_invariant_under_negated_j_and_scaled_metric(name,
                                                                    lam):
    assert_invariant(builtin_spec(name), lam)


def test_another_j_changes_the_tables():
    # negative control: kt-J and kt-Jprime share the brackets and the
    # metric, so giving kt-J the J of kt-Jprime is a wrong transform
    spec, other = builtin_spec("kt-J"), builtin_spec("kt-Jprime")
    assert (spec.brackets, spec.metric) == (other.brackets, other.metric)
    want = tables(spec)
    got = tables(dataclasses.replace(spec, J=other.J))
    changed = {key for key in want if got[key] != want[key]}
    assert {"h_mub", "h_dol", "pages"} | set(HARMONIC) <= changed
