"""Input documents for the benchmark workloads, made without acdol.

``random_nilpotent_document(seed, m)`` draws the same algebra, J and metric
as ``random_nilpotent_spec(seeded_rng(seed), m)`` in the test suite, so a
construction seed names the same input in both places.
"""

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# The builtins the catalog workload runs.  Listed here, not read from the
# catalog, so that a builtin added later does not change the workload.
CATALOG_BUILTINS = ("abelian-m2", "abelian-m3", "filiform-J",
                    "filiform-Jprime", "kt-J", "kt-Jprime", "su2su2-nk")
NK_DOCUMENT = os.path.join(HERE, "s3s3-nk.json")


def nk_document_text():
    with open(NK_DOCUMENT, encoding="utf-8") as fh:
        return fh.read()


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _invert(a):
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
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


def random_nilpotent_document(seed, m):
    """A two-step nilpotent algebra of dimension 2m with J = P J0 P^-1 and
    the J-compatible metric (P^-1)^t P^-1, as an input document."""
    rng = random.Random(seed)
    n = 2 * m
    centre = rng.randint(1, m)
    nc = n - centre
    brackets = []
    for i in range(nc):
        for j in range(i + 1, nc):
            if rng.random() < 0.5:
                coeffs = {}
                for k in range(nc, n):
                    c = rng.choice([-2, -1, 0, 1, 1, 2])
                    if c:
                        coeffs[str(k + 1)] = str(c)
                if coeffs:
                    brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
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
    J = _matmul(_matmul(P, J0), Pinv)
    metric = _matmul([list(r) for r in zip(*Pinv)], Pinv)
    rng.randint(0, 10 ** 6)  # the test suite's name draw
    return {
        "name": "random-m%d-seed%d" % (m, seed),
        "dim": n,
        "basis": ["e%d" % (k + 1) for k in range(n)],
        "brackets": brackets,
        "J": [[str(v) for v in row] for row in J],
        "metric": [[str(v) for v in row] for row in metric],
    }


def document_text(doc):
    return json.dumps(doc, indent=1) + "\n"
