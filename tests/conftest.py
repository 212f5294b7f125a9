import os
import random
from fractions import Fraction

import pytest

from acdol import catalog, docio, pipeline
from acdol.liealg import make_spec

_CACHE = {}


def builtin_analysis(name):
    """Analysis of a builtin, computed once per session."""
    if name not in _CACHE:
        _CACHE[name] = pipeline.analyze_document(catalog.builtin(name))
    return _CACHE[name]


def input_path(name):
    return os.path.join(os.path.dirname(__file__), "data", "inputs",
                        "%s.json" % name)


# the input documents with golden result documents; the frame Gram of
# random-m3-seed1 (random_nilpotent_spec(seeded_rng(1), 3)) is not
# diagonal, unlike that of every builtin, and solvable-m2 (R ⋉ R^3 with
# ad X1 = diag(1, 2, -1)) is not unimodular, unlike every other input
GOLDEN_INPUTS = ("random-m3-seed1", "s3s3-nk", "solvable-m2")


def input_analysis(name):
    """Analysis of the input document ``name``, computed once per session."""
    key = ("input", name)
    if key not in _CACHE:
        with open(input_path(name), "rb") as fh:
            _CACHE[key] = pipeline.analyze_document(
                docio.parse_document(fh.read()))
    return _CACHE[key]


# the inputs on which a production route is compared with its test-side
# oracle: the builtins, the NK S^3 x S^3 and random inputs for m = 2 to 4
ORACLE_INPUTS = catalog.builtin_names() + ["s3s3-nk"] + [
    "random-m%d-seed%d" % (m, seed)
    for m, seeds in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (4, (11,)))
    for seed in seeds]


def named_spec(name):
    """The spec of a builtin, of an input document under ``data/inputs``,
    or, for "random-m<m>-seed<s>", random_nilpotent_spec(seeded_rng(s), m)."""
    if name.startswith("random-"):
        m, seed = (int(x) for x in name[len("random-m"):].split("-seed"))
        return random_nilpotent_spec(seeded_rng(seed), m)
    if name in catalog.builtin_names():
        return docio.to_spec(catalog.builtin(name))
    with open(input_path(name), "rb") as fh:
        return docio.to_spec(docio.parse_document(fh.read()))


def named_analysis(name):
    """Analysis of a builtin or of one of ``GOLDEN_INPUTS``."""
    if name in GOLDEN_INPUTS:
        return input_analysis(name)
    return builtin_analysis(name)


@pytest.fixture
def analysis():
    return builtin_analysis


def dims_grid(dims, m):
    """A {(p, q): dim} table as rows from q = 0 upward."""
    return tuple(tuple(dims.get((p, q), 0) for p in range(m + 1))
                 for q in range(m + 1))


def golden_dir():
    override = os.environ.get("ACDOL_TEST_DATA")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data", "golden")


def random_nilpotent_spec(rng, m):
    """A random two-step nilpotent algebra of dimension 2m with a random
    rational J and a matching compatible metric.

    Brackets of the first block land in a central block, so the Jacobi
    identity holds automatically; J = P J0 P^{-1} for a random invertible P
    and the metric (P^{-1})^t P^{-1} is J-compatible by construction.
    """
    n = 2 * m
    centre = rng.randint(1, m)
    nc = n - centre
    brackets = {}
    for i in range(nc):
        for j in range(i + 1, nc):
            if rng.random() < 0.5:
                coeffs = {}
                for k in range(nc, n):
                    c = rng.choice([-2, -1, 0, 1, 1, 2])
                    if c:
                        coeffs[k] = Fraction(c)
                if coeffs:
                    brackets[(i, j)] = coeffs
    while True:
        P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            Pinv = _invert(P)
        except ZeroDivisionError:
            continue
        break
    J0 = [[Fraction(0)] * n for _ in range(n)]
    for a in range(m):
        J0[2 * a + 1][2 * a] = Fraction(1)
        J0[2 * a][2 * a + 1] = Fraction(-1)
    PJ0 = _matmul(P, J0)
    J = _matmul(PJ0, Pinv)
    metric = _matmul(_transpose(Pinv), Pinv)
    return make_spec(n, brackets=brackets, J=J, metric=metric,
                     name="random-%d" % rng.randint(0, 10 ** 6))


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _transpose(a):
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


def _invert(a):
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            raise ZeroDivisionError
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return [row[n:] for row in m]


def seeded_rng(seed=20240801):
    return random.Random(seed)
