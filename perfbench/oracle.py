"""Reference values computed without acdol, from exact fractions.

Everything here works on the raw structure constants of a real Lie algebra
(``brackets[(i, j)] = {k: c}`` meaning [e_i, e_j] = sum c e_k, 0-based,
i < j) and a real matrix J acting on column vectors.  It shares no code
with the program, so agreement with it is evidence the program is right.

Also holds the reference computation (``Reference``) the benchmark
interleaves with its timed passes as a clock for host speed.
"""

from fractions import Fraction
from itertools import combinations
from math import comb
import random


def rank(rows):
    """Rank of a list of Fraction rows, by Gauss-Jordan elimination."""
    m = [list(r) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r]
        inv = 1 / piv[c]
        piv[:] = [v * inv for v in piv]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], piv)]
        r += 1
        if r == len(m):
            break
    return r


def _wedge_sign(k, form):
    """Sign and sorted index tuple of e^k wedge e^form (None if zero)."""
    if k in form:
        return 0, None
    pos = sum(1 for f in form if f < k)
    return (-1) ** pos, tuple(sorted(form + (k,)))


def _differential_matrix(n, brackets, degree):
    """Matrix of d: Lambda^degree -> Lambda^(degree+1) of the CE complex.

    d e^k = -sum_{i<j} c_ij^k e^i ^ e^j on one-forms, extended as an
    antiderivation; rows are indexed by (degree+1)-subsets, columns by
    degree-subsets.
    """
    d1 = {k: {} for k in range(n)}
    for (i, j), coeffs in brackets.items():
        for k, c in coeffs.items():
            d1[k][(i, j)] = d1[k].get((i, j), 0) - c
    src = list(combinations(range(n), degree))
    tgt = {s: idx for idx, s in enumerate(combinations(range(n), degree + 1))}
    cols = []
    for form in src:
        col = {}
        for pos, k in enumerate(form):
            rest = form[:pos] + form[pos + 1:]
            for (i, j), c in d1[k].items():
                # (d e^k) in slot pos: sign (-1)^pos, then move e^i ^ e^j in
                s1, f1 = _wedge_sign(j, rest)
                if f1 is None:
                    continue
                s2, f2 = _wedge_sign(i, f1)
                if f2 is None:
                    continue
                key = tgt[f2]
                col[key] = col.get(key, 0) + (-1) ** pos * s1 * s2 * c
        cols.append(col)
    return [[Fraction(cols[c].get(r, 0)) for c in range(len(src))]
            for r in range(len(tgt))]


def betti_numbers(n, brackets):
    """Real Lie algebra cohomology dimensions b_0 .. b_n."""
    ranks = [0] * (n + 2)
    for k in range(n):
        mat = _differential_matrix(n, brackets, k)
        ranks[k + 1] = rank(mat)
    return tuple(comb(n, k) - ranks[k + 1] - ranks[k] for k in range(n + 1))


def _bracket(n, brackets, u, v):
    out = [Fraction(0)] * n
    for (i, j), coeffs in brackets.items():
        a = u[i] * v[j] - u[j] * v[i]
        if a:
            for k, c in coeffs.items():
                out[k] += a * c
    return out


def nijenhuis_vanishes(n, brackets, J):
    """True when N(x, y) = [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y] is zero."""
    def apply(v):
        return [sum(J[i][k] * v[k] for k in range(n)) for i in range(n)]

    basis = [[Fraction(int(a == b)) for a in range(n)] for b in range(n)]
    images = [apply(e) for e in basis]
    for x, y in combinations(range(n), 2):
        ex, ey, jx, jy = basis[x], basis[y], images[x], images[y]
        n1 = _bracket(n, brackets, jx, jy)
        n2 = apply(_bracket(n, brackets, jx, ey))
        n3 = apply(_bracket(n, brackets, ex, jy))
        n4 = _bracket(n, brackets, ex, ey)
        if any(a - b - c - d for a, b, c, d in zip(n1, n2, n3, n4)):
            return False
    return True


def brackets_of_document(doc):
    """0-based, i < j structure constants from an input document."""
    out = {}
    for entry in doc["brackets"]:
        i, j = entry["i"] - 1, entry["j"] - 1
        sign = 1 if i < j else -1
        key = (min(i, j), max(i, j))
        out[key] = {int(k) - 1: sign * Fraction(v)
                    for k, v in entry["coeffs"].items()}
    return out


def self_test():
    """Known Betti numbers and Nijenhuis verdicts; returns failed labels."""
    heis_r = {(0, 1): {2: Fraction(-1)}}
    filiform = {(0, 1): {2: Fraction(1)}, (0, 2): {3: Fraction(1)}}
    su2 = {}
    for off in (0, 3):
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            a, b = sorted((i + off, j + off))
            su2[(a, b)] = {k + off: Fraction(2 if a == i + off else -2)}
    cases = [("abelian-%d" % n, n, {}, tuple(comb(n, k) for k in range(n + 1)))
             for n in (2, 4, 6)]
    cases += [("heisenberg-x-r", 4, heis_r, (1, 3, 4, 3, 1)),
              ("filiform-4", 4, filiform, (1, 2, 2, 2, 1)),
              ("su2-su2", 6, su2, (1, 0, 0, 2, 0, 0, 1))]
    failed = [name for name, n, br, want in cases
              if betti_numbers(n, br) != want]
    # Kodaira-Thurston: J X = Y, J Z = W is integrable, J W = X, J Z = Y
    # is not (the kt-Jprime and kt-J builtins).
    f = Fraction
    j_int = [[f(0), f(-1), f(0), f(0)], [f(1), f(0), f(0), f(0)],
             [f(0), f(0), f(0), f(-1)], [f(0), f(0), f(1), f(0)]]
    j_non = [[f(0), f(0), f(0), f(1)], [f(0), f(0), f(1), f(0)],
             [f(0), f(-1), f(0), f(0)], [f(-1), f(0), f(0), f(0)]]
    if not nijenhuis_vanishes(4, heis_r, j_int):
        failed.append("nijenhuis kt integrable")
    if nijenhuis_vanishes(4, heis_r, j_non):
        failed.append("nijenhuis kt non-integrable")
    return failed


class Reference:
    """A fixed exact computation: the same work on every call and run.

    It imports nothing from acdol, so its wall time follows only the host's
    speed at that moment; dividing pass times by it cancels the host's slow
    and fast phases.  It has two halves of about equal time, because the
    host's phases slow small-fraction code more than big-integer code: a
    Gauss-Jordan elimination over small fractions, like the catalog's many
    small eliminations, and a fraction-free (Bareiss) integer elimination
    whose entries grow to about 250 bits, like the random workloads' kernel.
    """

    FRACTION_SIZE = 7
    INTEGER_SIZE = 22

    def __init__(self):
        rng = random.Random(20181003)
        n = self.FRACTION_SIZE
        self.fractions = [[Fraction(rng.randint(-9, 9)) for _ in range(n)]
                          for _ in range(n)]
        n = self.INTEGER_SIZE
        self.integers = [[rng.randint(-1024, 1024) for _ in range(n)]
                         for _ in range(n)]
        self.expected = None

    def _fraction_determinant(self):
        m = [list(r) for r in self.fractions]
        n = len(m)
        det = Fraction(1)
        for c in range(n):
            p = next(i for i in range(c, n) if m[i][c])
            if p != c:
                m[c], m[p] = m[p], m[c]
                det = -det
            piv = m[c]
            det *= piv[c]
            inv = 1 / piv[c]
            piv[:] = [v * inv for v in piv]
            for i in range(n):
                if i != c and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], piv)]
        return det

    def _integer_determinant(self):
        m = [list(r) for r in self.integers]
        n = len(m)
        prev = 1
        for k in range(n - 1):
            pivot, row = m[k][k], m[k]
            for i in range(k + 1, n):
                target = m[i]
                f = target[k]
                for j in range(k + 1, n):
                    target[j] = (pivot * target[j] - f * row[j]) // prev
            prev = pivot
        return m[n - 1][n - 1]

    def run(self):
        """Both determinants; True when they equal the first call's."""
        value = (self._fraction_determinant(), self._integer_determinant())
        if self.expected is None:
            self.expected = value
        return value == self.expected
