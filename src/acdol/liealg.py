"""Real Lie algebras with almost complex structure and compatible metric.

The input is a real Lie algebra of even dimension 2m given by structure
constants, an endomorphism J with J^2 = -1, and an optional inner product
(default: identity Gram matrix).  Validation is exact: the Jacobi identity,
J^2 = -1, and metric symmetry/positivity/J-invariance are all checked over
the rationals, and any failure is reported with the offending data.  J and
g are cleared to integer matrices once, over their least common
denominators, and checked there.

From a validated algebra we build an adapted complex frame Z_j = X_j - i J X_j
spanning the +i eigenspace of J, and expand all Lie brackets of frame vectors
exactly in the frame basis.  The frame arithmetic skips zero terms, and the
brackets are summed and expanded as Gaussian integers over one common
denominator, each table entry normalised once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from . import forms
from .cohomology import ConsistencyError
from .kernel import ZERO, Scalar, cleared, from_rational
from .linalg import Matrix, Subspace


class LieAlgebraError(ValueError):
    """Invalid Lie algebra input (validation failure)."""


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants plus J and metric, all exact rationals.

    brackets[i][j][k] is the coefficient of e_k in [e_i, e_j]; J and metric
    are given as matrices acting on coordinate columns.
    """

    dim: int
    basis_names: tuple
    brackets: tuple
    J: tuple
    metric: tuple
    frame_seeds: tuple | None = None
    name: str = ""

    @property
    def m(self):
        return self.dim // 2

    def with_metric(self, metric):
        return replace(self, metric=_freeze_mat(metric))


def make_spec(dim, basis_names=None, brackets=None, J=None, metric=None,
              frame_seeds=None, name=""):
    """Assemble a LieAlgebraSpec from loosely typed data (not yet validated).

    ``brackets`` is a mapping {(i, j): {k: coeff}} on 0-based indices with
    i < j; antisymmetric completion is automatic.  ``metric`` defaults to the
    identity Gram matrix.
    """
    if basis_names is None:
        basis_names = tuple("e%d" % (i + 1) for i in range(dim))
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in (brackets or {}).items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise LieAlgebraError("bracket index out of range: (%d, %d)" % (i, j))
        for k, c in coeffs.items():
            c = Fraction(c)
            table[i][j][k] += c
            table[j][i][k] -= c
    if J is None:
        raise LieAlgebraError("an almost complex structure J is required")
    if metric is None:
        metric = [[Fraction(1 if i == j else 0) for j in range(dim)]
                  for i in range(dim)]
    return LieAlgebraSpec(
        dim=dim,
        basis_names=tuple(basis_names),
        brackets=_freeze3(table),
        J=_freeze_mat(J),
        metric=_freeze_mat(metric),
        frame_seeds=tuple(frame_seeds) if frame_seeds is not None else None,
        name=name,
    )


def _freeze_mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _freeze3(table):
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def _product(a, b):
    """a b for square matrices given as rows, over the nonzero entries."""
    n = len(b)
    out = []
    for arow in a:
        acc = [0] * n
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def pullback_metric(g, q):
    """q^t g q for square Fraction matrices given as rows."""
    return _product(list(zip(*q)), _product(g, q))


def averaged_metric(spec):
    """Replace the metric by its J-average (g + J^t g J)/2."""
    g = spec.metric
    JtgJ = pullback_metric(g, spec.J)
    avg = [[(a + b) / 2 for a, b in zip(row, jrow)]
           for row, jrow in zip(g, JtgJ)]
    return spec.with_metric(avg)


def _cleared(rows):
    """(integer rows, d) with rows = integer rows / d, d > 0 the least
    common denominator of the entries."""
    d = 1
    for row in rows:
        for x in row:
            if d % x.denominator:
                d = lcm(d, x.denominator)
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in rows], d


def validate_spec(spec):
    """Check every structural invariant exactly; returns the spec unchanged.

    Raises LieAlgebraError naming the first failure: odd dimension, m past
    ``forms.MAX_M``, a broken antisymmetry or Jacobi triple, J^2 != -1, or a
    bad metric.  The Jacobi sums run over the nonzero structure constants
    only.  J and g are cleared once to integer matrices d J and e g, and
    checked there by two integer products and one elimination:

    - J^2 = -1 is (d J)^2 = -d^2 I, entry by entry;
    - positivity reads the leading minors of e g, which have the signs of
      g's, as the pivots of fraction-free (Bareiss) elimination, so the
      first minor that is not positive is named;
    - J-compatibility J^t g J = g is "g J is antisymmetric": given
      J^2 = -1 and g symmetric, J^t g J = g holds exactly when
      J^t g J J = g J, that is when -J^t g = (g J)^t equals -g J.
    """
    n = spec.dim
    if n < 2 or n % 2 != 0:
        raise LieAlgebraError("dimension must be even and at least 2, got %d" % n)
    if spec.m > forms.MAX_M:
        raise LieAlgebraError("m = %d exceeds the limit forms.MAX_M = %d"
                              % (spec.m, forms.MAX_M))
    if len(spec.basis_names) != n:
        raise LieAlgebraError("expected %d basis names" % n)
    c = spec.brackets
    # (i, j, k) fails exactly when (j, i, k) does, so i <= j finds the
    # first failure
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    raise LieAlgebraError(
                        "structure constants not antisymmetric at (%d, %d, %d)"
                        % (i + 1, j + 1, k + 1))
    # [[e_i, e_j], e_k] + cyclic, over the nonzero structure constants
    nonzero = [[[(l, x) for l, x in enumerate(cij) if x] for cij in ci]
               for ci in c]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in nonzero[u][v]:
                        for mdx, y in nonzero[l][w]:
                            acc[mdx] = acc.get(mdx, 0) + x * y
                if any(acc.values()):
                    raise LieAlgebraError(
                        "Jacobi identity fails on triple (%s, %s, %s)"
                        % (spec.basis_names[i], spec.basis_names[j],
                           spec.basis_names[k]))
    J = spec.J
    if len(J) != n or any(len(row) != n for row in J):
        raise LieAlgebraError("J must be a %d x %d matrix" % (n, n))
    jn, d = _cleared(J)
    for i, row in enumerate(_product(jn, jn)):
        for j, jj in enumerate(row):
            if jj != (-d * d if i == j else 0):
                raise LieAlgebraError("J^2 != -Identity at entry (%d, %d)"
                                      % (i + 1, j + 1))
    g = spec.metric
    if len(g) != n or any(len(row) != n for row in g):
        raise LieAlgebraError("metric must be a %d x %d matrix" % (n, n))
    gn, _ = _cleared(g)
    for i in range(n):
        for j in range(n):
            if gn[i][j] != gn[j][i]:
                raise LieAlgebraError("metric is not symmetric at (%d, %d)"
                                      % (i + 1, j + 1))
    # Bareiss: after step k - 1 the pivot a[k][k] is leading minor k + 1,
    # and each division by the previous pivot (a positive minor) is exact
    a = [list(row) for row in gn]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise LieAlgebraError(
                "metric is not positive definite (leading minor %d)" % (k + 1))
        top = a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    gj = _product(gn, jn)
    if any(gj[i][j] != -gj[j][i] for i in range(n) for j in range(i, n)):
        raise LieAlgebraError(
            "metric is not J-compatible; rerun with the averaged "
            "metric (g + J^t g J)/2 if that is acceptable")
    if spec.frame_seeds is not None:
        if len(spec.frame_seeds) != spec.m:
            raise LieAlgebraError("expected %d frame seeds" % spec.m)
        if any(not (0 <= s < n) for s in spec.frame_seeds):
            raise LieAlgebraError("frame seed index out of range")
    return spec


@dataclass(frozen=True)
class ComplexFrame:
    """Adapted frame: Z_j = X_j - i J X_j spanning the +i eigenspace of J.

    ``vectors`` holds the Z_j as Scalar coordinate vectors in the real
    basis.  The frame is not orthogonalised: the harmonic layer reads the
    metric through the Hermitian Gram matrix of these vectors.
    """

    m: int
    vectors: tuple


_ZERO = Fraction(0)


def _apply(mat, v):
    """mat v, over the nonzero entries of v and of mat."""
    support = [(k, x) for k, x in enumerate(v) if x]
    return tuple(sum((row[k] * x for k, x in support if row[k]), _ZERO)
                 for row in mat)


def _dot(u, v):
    """u . v over the terms where both are nonzero; <u, v> = u . (g v)."""
    return sum((a * b for a, b in zip(u, v) if a and b), _ZERO)


def adapted_frame(spec):
    """The plain frame (deterministic in basis order).

    Picks, greedily in basis order, each basis vector outside the span of
    the seeds chosen so far and their J-images, and pairs it with its
    J-image; no orthogonalisation, so the entries stay as small as the
    input's.  The span is taken once per accepted seed, and only when a
    later candidate is tested against it.  Explicit ``frame_seeds`` are
    used verbatim after checking that they are g-orthogonal to each other
    and to their J-images and that they span.  Every stage runs on this
    frame, the harmonic layer included.
    """
    n = spec.dim
    m = spec.m
    J = spec.J
    g = spec.metric
    seeds = []
    images = []  # J X_1, J X_2, ...
    if spec.frame_seeds is not None:
        for idx in spec.frame_seeds:
            seeds.append(_basis_vector(n, idx))
            images.append(_apply(J, seeds[-1]))
        gseeds = [_apply(g, y) for y in seeds]
        for a, (x, jx) in enumerate(zip(seeds, images)):
            for b, gy in enumerate(gseeds):
                if b > a and _dot(x, gy) != 0:
                    raise LieAlgebraError("frame seeds are not g-orthogonal")
                if b != a and _dot(jx, gy) != 0:
                    raise LieAlgebraError("frame seeds are not orthogonal to J-images")
        if _pair_span(n, seeds, images).dim != n:
            raise LieAlgebraError("frame seeds do not span (J-independence fails)")
    else:
        span = None  # of the pairs {X_1, JX_1, ...} so far, once needed
        for idx in range(n):
            if len(seeds) == m:
                break
            cand = _basis_vector(n, idx)
            if seeds:
                if span is None:
                    span = _pair_span(n, seeds, images)
                if span.contains_vector(_lift_vec(cand)):
                    continue
            seeds.append(cand)
            images.append(_apply(J, cand))
            span = None
        if len(seeds) != m:
            raise LieAlgebraError("frame construction failed to span")
    return _frame(spec, seeds, images)


def _pair_span(n, seeds, images):
    """The span of the seeds X_j and their J-images."""
    return Subspace.from_columns(n, [_lift_vec(v) for x, jx in
                                     zip(seeds, images) for v in (x, jx)])


def _basis_vector(n, idx):
    return tuple(Fraction(1 if i == idx else 0) for i in range(n))


def _frame(spec, seeds, images):
    """The frame of the seeds X_j with J-images ``images``."""
    vectors = tuple(tuple(from_rational(xc, -jc) for xc, jc in zip(x, jx))
                    for x, jx in zip(seeds, images))
    return ComplexFrame(m=spec.m, vectors=vectors)


def _lift_vec(fracs):
    return tuple(from_rational(f) for f in fracs)


@dataclass(frozen=True)
class ComplexStructureConstants:
    """Brackets of the frame vectors W = (Z_1..Z_m, conj Z_1..conj Z_m).

    table[u][v][w] is the coefficient of W_w in [W_u, W_v]; conjugating all
    three indices (u <-> u+m mod 2m) conjugates the coefficient.
    ``brackets`` are the real structure constants of the input basis that
    the table expands, ``LieAlgebraSpec.brackets``.
    """

    m: int
    table: tuple
    brackets: tuple


def complexify(spec, frame):
    """Expand complexified brackets exactly in the adapted frame basis.

    ``spec`` must be validated: the pairs u < v are bracketed and the rest
    of the table follows by antisymmetry.  The frame vectors, the
    structure constants and P^{-1} (P the frame matrix) are cleared to
    Gaussian integers, each over one common denominator, so a bracket and
    its expansion are integer sums and each table entry is normalised once.
    The conjugation symmetry, which real structure constants force, is
    checked on every (u, v, w); a failure is an internal error, raised as
    ConsistencyError.
    """
    n = spec.dim
    m = frame.m
    w_vecs = list(frame.vectors) + [tuple(e.conj() for e in z)
                                    for z in frame.vectors]
    pinv, pden = cleared(
        Matrix.from_columns(w_vecs, ambient_rows=n).inverse().entries)
    wvecs, wden = cleared(w_vecs)
    # (i, j, [(k, c_ij^k)]) over the nonzero structure constants, cleared
    consts, cden = _cleared([cij for ci in spec.brackets for cij in ci])
    lifted = [(idx // n, idx % n, [(k, x) for k, x in enumerate(row) if x])
              for idx, row in enumerate(consts) if any(row)]
    den = pden * wden * wden * cden

    def expanded(u, v):
        """P^{-1} [u, v] as a column of Scalars over ``den``."""
        br = [(0, 0)] * n
        for i, j, terms in lifted:
            ux, uy = u[i]
            vx, vy = v[j]
            if (ux or uy) and (vx or vy):
                px, py = ux * vx - uy * vy, ux * vy + uy * vx
                for k, c in terms:
                    bx, by = br[k]
                    br[k] = (bx + px * c, by + py * c)
        out = []
        for row in pinv:
            x = y = 0
            for (ax, ay), (bx, by) in zip(row, br):
                if (ax or ay) and (bx or by):
                    x += ax * bx - ay * by
                    y += ax * by + ay * bx
            out.append(Scalar(x, y, den) if x or y else ZERO)
        return tuple(out)

    zero = (ZERO,) * (2 * m)
    table = [[zero] * (2 * m) for _ in range(2 * m)]
    for u in range(2 * m):
        for v in range(u + 1, 2 * m):
            table[u][v] = expanded(wvecs[u], wvecs[v])
            table[v][u] = tuple(-c for c in table[u][v])
    # conjugation symmetry is forced by realness of the input constants
    for u in range(2 * m):
        for v in range(2 * m):
            cu, cv = (u + m) % (2 * m), (v + m) % (2 * m)
            for w in range(2 * m):
                a = table[u][v][w]
                b = table[cu][cv][(w + m) % (2 * m)]
                if b.xn != a.xn or b.yn != -a.yn or b.dn != a.dn:
                    raise ConsistencyError(
                        "internal error: conjugation symmetry broken in "
                        "complexified brackets")
    return ComplexStructureConstants(
        m=m, table=tuple(tuple(row) for row in table), brackets=spec.brackets)

