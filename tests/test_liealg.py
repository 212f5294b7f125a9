"""Lie algebra validation, adapted frames, and complex structure constants."""

import dataclasses
import random
from fractions import Fraction

import pytest

from acdol import catalog, docio, forms, liealg
from acdol.cohomology import ConsistencyError
from acdol.kernel import ZERO, Scalar, from_rational
from acdol.liealg import (ComplexFrame, LieAlgebraError, adapted_frame,
                          averaged_metric, complexify, make_spec,
                          validate_spec)
from acdol.linalg import Matrix, Subspace
from conftest import (ORACLE_INPUTS, named_spec, random_nilpotent_spec,
                      seeded_rng)

J_PAIRS_4 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def filiform_spec():
    return make_spec(4, ["X1", "X2", "X3", "X4"],
                     {(0, 1): {2: 1}, (0, 2): {3: 1}}, J_PAIRS_4)


def test_filiform_valid():
    validate_spec(filiform_spec())


def test_abelian_valid():
    validate_spec(make_spec(4, None, {}, J_PAIRS_4))


def test_odd_dimension_rejected():
    with pytest.raises(LieAlgebraError, match="even"):
        validate_spec(make_spec(3, ["a", "b", "c"], {}, [[0]] * 3))


def pairs_J(m):
    """The pairs J of dimension 2m: J e_{2k-1} = e_{2k}, J e_{2k} = -e_{2k-1}."""
    n = 2 * m
    return [[-1 if j == i + 1 and i % 2 == 0 else 1 if j == i - 1 and i % 2
             else 0 for j in range(n)] for i in range(n)]


def test_m_past_max_m_rejected():
    # forms.BigradedBasis cannot be built past MAX_M: validation names it
    spec = make_spec(2 * forms.MAX_M + 2, None, {}, pairs_J(forms.MAX_M + 1))
    want = "m = 13 exceeds the limit forms.MAX_M = 12"
    assert _validation_oracle(spec) == want
    assert _validation_message(spec) == want
    assert _validation_message(make_spec(2 * forms.MAX_M, None, {},
                                         pairs_J(forms.MAX_M))) is None


def test_jacobi_violation_names_triple():
    bad = make_spec(4, ["X1", "X2", "X3", "X4"],
                    {(0, 1): {2: 1}, (1, 2): {1: 1}}, J_PAIRS_4)
    with pytest.raises(LieAlgebraError, match=r"\(X1, X2, X3\)"):
        validate_spec(bad)


def test_bad_J_rejected():
    J = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    with pytest.raises(LieAlgebraError, match="J"):
        validate_spec(make_spec(4, None, {}, J))


def test_incompatible_metric_rejected_then_averaged():
    g = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    spec = make_spec(4, None, {}, J_PAIRS_4, metric=g)
    with pytest.raises(LieAlgebraError, match="J-compatible"):
        validate_spec(spec)
    fixed = averaged_metric(spec)
    validate_spec(fixed)
    assert fixed.metric[0][0] == Fraction(3, 2)


def test_metric_incompatible_only_on_the_diagonal_of_gJ_rejected():
    # g J + (g J)^t = diag(2, -2, 0, 0): antisymmetric off the diagonal
    g = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    spec = make_spec(4, None, {}, J_PAIRS_4, metric=g)
    want = ("metric is not J-compatible; rerun with the averaged metric "
            "(g + J^t g J)/2 if that is acceptable")
    assert _validation_oracle(spec) == want
    assert _validation_message(spec) == want


def test_indefinite_metric_rejected():
    g = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(LieAlgebraError, match="positive definite"):
        validate_spec(make_spec(4, None, {}, J_PAIRS_4, metric=g))


# -- validate_spec against the textbook formulas ----------------------------


def _validation_oracle(spec):
    """Oracle: the first failure message of the O(n^4) textbook checks
    (full Jacobiator sums, J^2 and J^t g J entry by entry, leading minors
    by determinant), or None when the spec is valid."""
    n = spec.dim
    if n < 2 or n % 2 != 0:
        return "dimension must be even and at least 2, got %d" % n
    if n // 2 > forms.MAX_M:
        return "m = %d exceeds the limit forms.MAX_M = %d" % (n // 2,
                                                               forms.MAX_M)
    if len(spec.basis_names) != n:
        return "expected %d basis names" % n
    c = spec.brackets
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return ("structure constants not antisymmetric at "
                            "(%d, %d, %d)" % (i + 1, j + 1, k + 1))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for mdx in range(n):
                    acc = sum(c[i][j][l] * c[l][k][mdx]
                              + c[j][k][l] * c[l][i][mdx]
                              + c[k][i][l] * c[l][j][mdx] for l in range(n))
                    if acc != 0:
                        return ("Jacobi identity fails on triple (%s, %s, %s)"
                                % (spec.basis_names[i], spec.basis_names[j],
                                   spec.basis_names[k]))
    J = spec.J
    if len(J) != n or any(len(row) != n for row in J):
        return "J must be a %d x %d matrix" % (n, n)
    for i in range(n):
        for j in range(n):
            jj = sum(J[i][k] * J[k][j] for k in range(n))
            if jj != (-1 if i == j else 0):
                return "J^2 != -Identity at entry (%d, %d)" % (i + 1, j + 1)
    g = spec.metric
    if len(g) != n or any(len(row) != n for row in g):
        return "metric must be a %d x %d matrix" % (n, n)
    for i in range(n):
        for j in range(n):
            if g[i][j] != g[j][i]:
                return "metric is not symmetric at (%d, %d)" % (i + 1, j + 1)
    for k in range(1, n + 1):
        if _det([row[:k] for row in g[:k]]) <= 0:
            return "metric is not positive definite (leading minor %d)" % k
    for i in range(n):
        for j in range(n):
            if sum(J[k][i] * g[k][l] * J[l][j] for k in range(n)
                   for l in range(n)) != g[i][j]:
                return ("metric is not J-compatible; rerun with the averaged "
                        "metric (g + J^t g J)/2 if that is acceptable")
    return None


def _det(rows):
    """Determinant by Gaussian elimination with row swaps."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[p], a[c] = a[c], a[p]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _validation_message(spec):
    try:
        validate_spec(spec)
    except LieAlgebraError as exc:
        return str(exc)
    return None


def _perturbed(spec, rng):
    """Copies of ``spec`` with one bracket coefficient (on one side or on
    both), one J entry or one metric entry (on one side, on both, or on
    the diagonal to zero or below) changed, at random places."""
    n = spec.dim
    out = []
    for _ in range(4):
        delta = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        for both in (False, True):
            table = [[list(row) for row in plane] for plane in spec.brackets]
            table[i][j][k] += delta
            if both:
                table[j][i][k] -= delta
            out.append(dataclasses.replace(spec, brackets=tuple(
                tuple(tuple(row) for row in plane) for plane in table)))
        J = [list(row) for row in spec.J]
        J[i][j] += delta
        out.append(dataclasses.replace(spec, J=tuple(map(tuple, J))))
        for both in (False, True):
            g = [list(row) for row in spec.metric]
            g[i][j] += delta * spec.metric[i][i]
            if both and i != j:
                g[j][i] += delta * spec.metric[i][i]
            out.append(spec.with_metric(g))
        g = [list(row) for row in spec.metric]
        g[i][i] -= rng.randint(1, 2) * g[i][i]
        out.append(spec.with_metric(g))
    return out


FIRST_FAILURES = ("structure constants not antisymmetric",
                  "Jacobi identity fails", "J^2 != -Identity",
                  "metric is not symmetric", "metric is not positive definite",
                  "metric is not J-compatible")


def test_validate_spec_agrees_with_textbook_oracle():
    rng = random.Random(20261018)
    seen = set()
    for m in (2, 3):
        for seed in range(1, 9):
            spec = random_nilpotent_spec(seeded_rng(seed), m)
            assert _validation_oracle(spec) is None
            assert _validation_message(spec) is None
            for bad in _perturbed(spec, rng):
                want = _validation_oracle(bad)
                assert _validation_message(bad) == want
                seen.add(next((kind for kind in FIRST_FAILURES
                               if want and want.startswith(kind)), want))
    # every kind of first failure is reached, and some perturbations stay
    # valid
    assert seen == set(FIRST_FAILURES) | {None}


@pytest.mark.parametrize("row3, minor", [([1, 2, 2, 0], "0"),
                                         ([1, 2, 1, 0], "-1")],
                         ids=["zero", "negative"])
def test_first_nonpositive_leading_minor_is_minor_3(row3, minor):
    # leading minors 1, 1 and 0 or -1, with a positive diagonal
    g = [[1, 1, 1, 0], [1, 2, 2, 0], row3, [0, 0, 0, 1]]
    spec = make_spec(4, None, {}, J_PAIRS_4, metric=g)
    assert _det([r[:3] for r in spec.metric[:3]]) == Fraction(minor)
    want = "metric is not positive definite (leading minor 3)"
    assert _validation_oracle(spec) == want
    assert _validation_message(spec) == want


def test_filiform_frame():
    spec = validate_spec(filiform_spec())
    fr = adapted_frame(spec)
    z1, z2 = fr.vectors
    assert z1 == (Scalar(1), Scalar(0, -1), Scalar(0), Scalar(0))
    assert z2 == (Scalar(0), Scalar(0), Scalar(1), Scalar(0, -1))


def test_frame_determinism():
    spec = validate_spec(filiform_spec())
    assert adapted_frame(spec) == adapted_frame(spec)


def test_frame_eigenvector_property():
    rng = seeded_rng(77)
    for _ in range(5):
        spec = validate_spec(random_nilpotent_spec(rng, 2))
        fr = adapted_frame(spec)
        n = spec.dim
        for z in fr.vectors:
            jz = tuple(
                sum((from_rational(spec.J[i][k]) * z[k] for k in range(n)),
                    ZERO)
                for i in range(n))
            assert jz == tuple(Scalar(0, 1) * c for c in z)


def test_su2su2_seeded_frame_matches_convention():
    doc = catalog.builtin("su2su2-nk")
    spec = docio.to_spec(doc)
    fr = adapted_frame(spec)
    # X = X2 + i X1 and cyclic
    assert fr.vectors[0] == (Scalar(0, 1), Scalar(0), Scalar(0),
                             Scalar(1), Scalar(0), Scalar(0))


def test_bad_seed_list_rejected():
    doc = catalog.builtin("su2su2-nk")
    doc["frame_seeds"] = [1, 4, 5]  # X1 is the J-image of the X2 seed
    spec = docio.to_spec(doc)
    with pytest.raises(LieAlgebraError, match="seed"):
        adapted_frame(spec)


def test_complexify_filiform():
    spec = validate_spec(filiform_spec())
    fr = adapted_frame(spec)
    csc = complexify(spec, fr)
    half_i = Scalar(0, 1, 2)
    # [A, B] = (-1/2i)(B - conj B) = (i/2) B - (i/2) conj B
    assert csc.table[0][1][1] == half_i
    assert csc.table[0][1][3] == -half_i
    # [A, conj A] = i (B + conj B)
    assert csc.table[0][2][1] == Scalar(0, 1)
    assert csc.table[0][2][3] == Scalar(0, 1)


def test_complexify_kt():
    doc = catalog.builtin("kt-J")
    spec = docio.to_spec(doc)
    fr = adapted_frame(spec)
    csc = complexify(spec, fr)
    half_i = Scalar(0, 1, 2)
    for u, v in ((0, 1), (0, 3), (2, 1), (2, 3)):
        assert csc.table[u][v][1] == half_i
        assert csc.table[u][v][3] == -half_i


def test_complexify_su2su2():
    spec = docio.to_spec(catalog.builtin("su2su2-nk"))
    fr = adapted_frame(spec)
    csc = complexify(spec, fr)
    k = Scalar(1, 1)
    kbar = Scalar(1, -1)
    # [X, Y] = k Z + conj(k) conj(Z)
    assert csc.table[0][1][2] == k
    assert csc.table[0][1][5] == kbar
    # [X, conj Y] = conj(k) Z + k conj(Z)
    assert csc.table[0][4][2] == kbar
    assert csc.table[0][4][5] == k


def test_complexify_abelian_zero():
    spec = validate_spec(make_spec(4, None, {}, J_PAIRS_4))
    csc = complexify(spec, adapted_frame(spec))
    assert all(not c for plane in csc.table for row in plane for c in row)


def test_complexify_conjugation_symmetry_random():
    rng = seeded_rng(99)
    for _ in range(5):
        spec = validate_spec(random_nilpotent_spec(rng, 2))
        csc = complexify(spec, adapted_frame(spec))  # raises if broken
        two_m = 2 * spec.m
        for u in range(two_m):
            for v in range(two_m):
                for w in range(two_m):
                    cu, cv, cw = ((u + spec.m) % two_m, (v + spec.m) % two_m,
                                  (w + spec.m) % two_m)
                    assert csc.table[cu][cv][cw] == csc.table[u][v][w].conj()


def break_conjugation(monkeypatch):
    """Break the conjugation symmetry of the complexified filiform-J
    table: [Z_1, Z_2] = e_4 = (i/2)(Z_2 - conj Z_2).  The imaginary part
    of P^{-1} in the row of t^2 at e_4, negated on its way in, makes the
    coefficient of Z_2 in [Z_1, Z_2] -i/2, equal to that of conj Z_2 in
    [conj Z_1, conj Z_2] instead of its conjugate: the two differ in their
    imaginary parts only."""
    cleared = liealg.cleared
    calls = []

    def perturbed(rows):
        out, den = cleared(rows)
        if not calls:  # the first call clears P^{-1}
            x, y = out[1][3]
            assert (x, y) != (x, -y)
            out[1][3] = (x, -y)
        calls.append(rows)
        return out, den

    monkeypatch.setattr(liealg, "cleared", perturbed)


def test_complexify_conjugation_check_flags_a_broken_table(monkeypatch):
    """Negative control: the broken table is an internal error."""
    spec = validate_spec(filiform_spec())
    frame = adapted_frame(spec)
    break_conjugation(monkeypatch)
    with pytest.raises(ConsistencyError, match=(
            "^internal error: conjugation symmetry broken in complexified "
            "brackets$")):
        complexify(spec, frame)


def _complexify_oracle(spec, frame):
    """Oracle of ``complexify``: every one of the (2m)^2 brackets
    [W_u, W_v] = sum_{i,j} u_i v_j [e_i, e_j], expanded in the frame by
    the inverse of the frame matrix."""
    n = spec.dim
    w_vecs = list(frame.vectors) + [tuple(c.conj() for c in z)
                                    for z in frame.vectors]
    p_inv = Matrix.from_columns(w_vecs).inverse()
    table = []
    for u in w_vecs:
        row = []
        for v in w_vecs:
            br = [ZERO] * n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        br[k] = br[k] + u[i] * v[j] * from_rational(
                            spec.brackets[i][j][k])
            row.append(p_inv.apply(br))
        table.append(tuple(row))
    return tuple(table)


@pytest.mark.parametrize("name", catalog.builtin_names() + [
    "s3s3-nk", "solvable-m2", "random-m2-seed1", "random-m3-seed1",
    "random-m4-seed11"])
def test_complexify_equals_the_full_bracket_loop(name):
    spec = validate_spec(named_spec(name))
    frame = adapted_frame(spec)
    assert complexify(spec, frame).table == _complexify_oracle(spec, frame)


@pytest.mark.parametrize("m", [2, 3])
def test_first_nonpositive_leading_minor_is_named_like_det(m):
    """For every k = 1..2m, a metric whose leading minors 1..k-1 are
    positive and whose minor k is zero or negative: validation names minor
    k, as the determinant oracle does.  Minor k is affine in g[k-1][k-1]
    with slope minor k - 1, so shifting that entry reaches both."""
    spec = random_nilpotent_spec(seeded_rng(5), m)
    n = spec.dim
    for k in range(1, n + 1):
        below = _det([r[:k - 1] for r in spec.metric[:k - 1]])
        minor = _det([r[:k] for r in spec.metric[:k]])
        for extra in (0, 1):
            g = [list(row) for row in spec.metric]
            g[k - 1][k - 1] -= minor / below + extra
            bad = spec.with_metric(g)
            assert _det([r[:k] for r in bad.metric[:k]]) == -extra * below
            want = "metric is not positive definite (leading minor %d)" % k
            assert _validation_oracle(bad) == want
            assert _validation_message(bad) == want


# -- frames against the dense Fraction loops --------------------------------


def _frame_oracle(spec):
    """Oracle of ``adapted_frame``: the dense Fraction loops over every
    (i, k), with the span of the chosen pairs taken anew for each
    candidate.  Returns the frame, or the LieAlgebraError message."""
    n = spec.dim
    J = spec.J
    seeds = []
    pairs = []
    if spec.frame_seeds is not None:
        seeds = [_basis(n, idx) for idx in spec.frame_seeds]
        for a, x in enumerate(seeds):
            jx = _dense_apply(J, x)
            for b, y in enumerate(seeds):
                if b > a and _dense_pairing(spec.metric, x, y) != 0:
                    return "frame seeds are not g-orthogonal"
                if _dense_pairing(spec.metric, jx, y) != 0 and b != a:
                    return "frame seeds are not orthogonal to J-images"
            pairs.extend([x, jx])
        if Subspace.from_columns(n, [_lift(v) for v in pairs]).dim != n:
            return "frame seeds do not span (J-independence fails)"
    else:
        for idx in range(n):
            if len(seeds) == spec.m:
                break
            cand = _basis(n, idx)
            if pairs and Subspace.from_columns(
                    n, [_lift(v) for v in pairs]).contains_vector(_lift(cand)):
                continue
            seeds.append(cand)
            pairs.extend([cand, _dense_apply(J, cand)])
    return _oracle_frame(spec, seeds)


def _orthogonal_frame_oracle(spec, frame):
    """The g-orthogonal frame Gram-Schmidt makes of ``frame``, by the dense
    pairing, every pairing formed anew: the seeds X_j = Re Z_j in order,
    each made orthogonal to the seeds before it and their J-images."""
    g = spec.metric
    ortho = []
    seeds = []
    for cand in (tuple(Fraction(c.xn, c.dn) for c in z)
                 for z in frame.vectors):
        for u in ortho:
            coeff = _dense_pairing(g, cand, u) / _dense_pairing(g, u, u)
            cand = tuple(cv - coeff * uv for cv, uv in zip(cand, u))
        seeds.append(cand)
        ortho.extend([cand, _dense_apply(spec.J, cand)])
    return _oracle_frame(spec, seeds)


def _oracle_frame(spec, seeds):
    vectors = tuple(tuple(from_rational(xc, -jc) for xc, jc in
                          zip(x, _dense_apply(spec.J, x))) for x in seeds)
    return ComplexFrame(spec.m, vectors)


def _dense_apply(mat, v):
    n = len(v)
    return tuple(sum(mat[i][k] * v[k] for k in range(n)) for i in range(n))


def _dense_pairing(g, u, v):
    n = len(u)
    return sum(g[i][k] * u[i] * v[k] for i in range(n) for k in range(n))


def _basis(n, idx):
    return tuple(Fraction(1 if i == idx else 0) for i in range(n))


def _lift(fracs):
    return tuple(from_rational(f) for f in fracs)


def _frame_message(spec):
    try:
        return adapted_frame(spec)
    except LieAlgebraError as exc:
        return str(exc)


FRAME_INPUTS = ORACLE_INPUTS + [
    "random-m2-seed%d" % seed for seed in range(5, 13)] + [
    "random-m3-seed4", "random-m3-seed5", "random-m4-seed5",
    "random-m4-seed7", "random-m5-seed3", "solvable-m2"]


@pytest.mark.parametrize("name", FRAME_INPUTS)
def test_frames_equal_the_dense_fraction_oracle(name):
    spec = validate_spec(named_spec(name))
    assert adapted_frame(spec) == _frame_oracle(spec)


def test_explicit_seeds_and_their_errors_equal_the_oracle():
    """su2su2-nk with its own seeds, another valid seed list and one list
    for each error: a repeated seed, a seed that is the J-image of another,
    and, under the zero form in place of g, seeds that do not span."""
    spec = docio.to_spec(catalog.builtin("su2su2-nk"))
    zero = [[0] * spec.dim for _ in range(spec.dim)]
    cases = [spec, dataclasses.replace(spec, frame_seeds=(0, 1, 2)),
             dataclasses.replace(spec, frame_seeds=(3, 3, 5)),
             dataclasses.replace(spec, frame_seeds=(0, 3, 4)),
             dataclasses.replace(spec, frame_seeds=(3, 3, 5)).with_metric(
                 zero)]
    got = [_frame_message(case) for case in cases]
    assert got == [_frame_oracle(case) for case in cases]
    assert got[2:] == ["frame seeds are not g-orthogonal",
                       "frame seeds are not orthogonal to J-images",
                       "frame seeds do not span (J-independence fails)"]
