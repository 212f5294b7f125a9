"""Arithmetic kernel tests."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdol import kernel


@pytest.fixture(params=[kernel], ids=["python"])
def kern(request):
    return request.param


small_ints = st.integers(min_value=-30, max_value=30)
denoms = st.integers(min_value=1, max_value=12)


def make_scalar(kern):
    return st.builds(kern.Scalar, small_ints, small_ints, denoms)


def test_normalisation(kern):
    s = kern.Scalar(2, 4, 6)
    assert (s.xn, s.yn, s.dn) == (1, 2, 3)
    s = kern.Scalar(-1, 0, -2)
    assert (s.xn, s.yn, s.dn) == (1, 0, 2)
    assert kern.Scalar(0, 0, 5) == kern.ZERO
    with pytest.raises(ZeroDivisionError):
        kern.Scalar(1, 0, 0)


def _parts(e):
    """(re, im) of a Scalar as Fractions."""
    return Fraction(e.xn, e.dn), Fraction(e.yn, e.dn)


def test_parts_in_lowest_terms(kern):
    s = kern.Scalar(2, 3, 2)
    assert _parts(s) == (Fraction(1), Fraction(3, 2))
    assert _parts(s.conj())[1] == Fraction(-3, 2)


def test_from_rational(kern):
    s = kern.from_rational(Fraction(1, 2), Fraction(-2, 3))
    assert _parts(s) == (Fraction(1, 2), Fraction(-2, 3))
    assert kern.from_rational(3) == kern.Scalar(3)


def test_arithmetic_takes_scalars_only(kern):
    # the number type is closed: no operator lifts an int or a Fraction,
    # and neither compares equal to a Scalar
    one = kern.Scalar(1)
    for other in (1, Fraction(1)):
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a / b):
            with pytest.raises(TypeError):
                op(one, other)
            with pytest.raises(TypeError):
                op(other, one)
        assert one != other and other != one
        assert not one == other
    assert hash(one) == hash((1, 0, 1))


def test_str(kern):
    assert str(kern.Scalar(0)) == "0"
    assert str(kern.Scalar(0, 1)) == "i"
    assert str(kern.Scalar(0, -1)) == "-i"
    assert str(kern.Scalar(3, -1, 2)) == "3/2-1/2i"
    assert str(kern.Scalar(2, 4, 4)) == "1/2+i"


def test_division_by_zero(kern):
    with pytest.raises(ZeroDivisionError):
        kern.ONE / kern.ZERO


def test_field_axioms(kern):
    scalars = make_scalar(kern)

    @settings(max_examples=60, deadline=None)
    @given(scalars, scalars, scalars)
    def inner(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + kern.ZERO == a
        assert a * kern.ONE == a
        assert a - a == kern.ZERO
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (not a) == (_parts(a) == (0, 0))
        if b:
            assert (a / b) * b == a

    inner()


def test_i_squares_to_minus_one(kern):
    assert kern.I * kern.I == -kern.ONE


def _mat(kern, rows):
    return [[kern.Scalar(*e) if isinstance(e, tuple) else kern.Scalar(e)
             for e in row] for row in rows]


def test_rref_simple(kern):
    rows = _mat(kern, [[1, (0, 1)], [(0, 1), -1]])
    red, piv = kern.rref(rows, 2)
    assert piv == [0]
    assert red[0] == [kern.ONE, kern.I]
    assert all(not e for e in red[1])
    # input untouched
    assert rows[1][1] == kern.Scalar(-1)


def test_rref_identity_and_zero(kern):
    eye = _mat(kern, [[1, 0], [0, 1]])
    red, piv = kern.rref(eye, 2)
    assert piv == [0, 1] and red == eye
    zero = _mat(kern, [[0, 0, 0]])
    _, piv = kern.rref(zero, 3)
    assert piv == []


def test_rref_is_projection(kern):
    import random
    rng = random.Random(3)
    for _ in range(10):
        rows = [[kern.Scalar(rng.randint(-2, 2), rng.randint(-2, 2),
                             rng.randint(1, 3)) for _ in range(5)]
                for _ in range(4)]
        red, piv = kern.rref(rows, 5)
        red2, piv2 = kern.rref(red, 5)
        assert red2 == red and piv2 == piv
        for k, c in enumerate(piv):
            assert red[k][c] == kern.ONE
            for i in range(4):
                if i != k:
                    assert not red[i][c]


def test_matmul(kern):
    a = _mat(kern, [[1, (0, 1)], [0, 2]])
    b = _mat(kern, [[(0, 1)], [1]])
    out = kern.matmul(a, b, 1)
    assert out[0][0] == kern.Scalar(0, 2)
    assert out[1][0] == kern.Scalar(2)


def test_matmul_empty_inner(kern):
    out = kern.matmul([[], []], [], 3)
    assert len(out) == 2 and all(not e for row in out for e in row)


# -- matmul against a product over (re, im) Fraction pairs --------------------


def _pair_product(a_rows, b_rows, bcols):
    """Oracle: the schoolbook product on (re, im) Fraction pairs."""
    out = []
    for arow in a_rows:
        row = []
        for j in range(bcols):
            re = im = Fraction(0)
            for a, brow in zip(arow, b_rows):
                x, y = _cmul(_parts(a), _parts(brow[j]))
                re += x
                im += y
            row.append((re, im))
        out.append(row)
    return out


def _mixed(rng, rows, cols, density=0.6):
    """Complex entries over denominators 1..12, some rows and columns zero."""
    zero_rows = {i for i in range(rows) if rng.random() < 0.2}
    zero_cols = {j for j in range(cols) if rng.random() < 0.2}
    return [[kernel.Scalar(rng.randint(-20, 20), rng.choice([0, 1]) *
                           rng.randint(-20, 20), rng.randint(1, 12))
             if i not in zero_rows and j not in zero_cols
             and rng.random() < density else kernel.ZERO
             for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("shape", [(3, 4, 5), (6, 6, 6), (1, 7, 2), (5, 1, 4),
                                   (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)],
                         ids=lambda s: "%dx%dx%d" % s)
def test_matmul_matches_fraction_pair_product(shape):
    rows, inner, cols = shape
    rng = random.Random("matmul%d%d%d" % shape)
    for trial in range(20):
        density = (0.15, 0.6, 1.0)[trial % 3]
        a = _mixed(rng, rows, inner, density)
        b = _mixed(rng, inner, cols, density)
        out = kernel.matmul(a, b, cols)
        assert [[_parts(e) for e in row] for row in out] == \
            _pair_product(a, b, cols)
        # lowest terms with a positive denominator, so == compares values
        for e in (e for row in out for e in row):
            assert e.dn > 0 and gcd(gcd(e.xn, e.yn), e.dn) == 1


# -- rref against a textbook Gauss-Jordan over Q(i) ---------------------------


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form on (re, im) Fraction pairs, first nonzero
    pivot, rows scaled by the inverse pivot and cleared above and below."""
    a = [[_parts(e) for e in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != (0, 0)), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        x, y = a[r][c]
        n = x * x + y * y
        a[r] = [_cmul((x / n, -y / n), e) for e in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != (0, 0):
                f = a[i][c]
                a[i] = [(u[0] - w[0], u[1] - w[1])
                        for u, w in zip(a[i], (_cmul(f, e) for e in a[r]))]
        pivots.append(c)
        r += 1
    return a, pivots


def _entry(rng, bits):
    top = 1 << bits
    return kernel.Scalar(rng.randint(-top, top), rng.choice([0, 0, 1]) *
                         rng.randint(-top, top), rng.randint(1, 4))


def _sparse(rng):
    rows, cols = rng.randint(4, 12), rng.randint(4, 12)
    return [[_entry(rng, 3) if rng.random() < 0.2 else kernel.ZERO
             for _ in range(cols)] for _ in range(rows)], cols


def _block_diagonal(rng):
    sizes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(3)]
    cols = sum(c for _, c in sizes)
    out = []
    start = 0
    for nr, nc in sizes:
        for _ in range(nr):
            row = [kernel.ZERO] * cols
            for j in range(start, start + nc):
                row[j] = _entry(rng, 4)
            out.append(row)
        start += nc
    rng.shuffle(out)
    return out, cols


def _wide_dependent(rng):
    cols = rng.randint(5, 9)
    base = [[_entry(rng, 40) for _ in range(cols)]
            for _ in range(rng.randint(2, 4))]
    out = list(base)
    for _ in range(rng.randint(1, 3)):
        coeffs = [_entry(rng, 2) for _ in base]
        out.append([sum((c * row[j] for c, row in zip(coeffs, base)),
                        kernel.ZERO) for j in range(cols)])
    rng.shuffle(out)
    return out, cols


def _stale_divisors(rng):
    """Rows that the first pivot touches, whose next nonzero column comes
    after a block of columns 1..k that only other rows reach: when column
    k + 1 touches them again they still carry the first pivot's divisor."""
    k = rng.randint(2, 4)
    cols = k + 1 + rng.randint(1, 3)
    out = []
    for _ in range(rng.randint(2, 4)):
        row = [kernel.ZERO] * cols
        row[0] = _entry(rng, 5)
        for j in range(k + 1, cols):
            row[j] = _entry(rng, 5)
        out.append(row)
    for _ in range(k):
        row = [kernel.ZERO] * cols
        for j in range(1, cols):
            row[j] = _entry(rng, 5)
        out.append(row)
    return out, cols


@pytest.mark.parametrize("make", [_sparse, _block_diagonal, _wide_dependent,
                                  _stale_divisors])
def test_rref_matches_fraction_gauss_jordan(make):
    rng = random.Random(make.__name__)
    for _ in range(12):
        rows, cols = make(rng)
        want, want_piv = _gauss_jordan(rows, cols)
        red, piv = kernel.rref(rows, cols)
        assert piv == want_piv
        assert [[_parts(e) for e in row] for row in red] == want



# -- division by a rational-integer pivot -------------------------------------


def _divide_row_gaussian(row, divisor, start):
    """The Gaussian-integer division for every divisor: multiply by the
    conjugate, divide by the norm."""
    dx, dy, dn = divisor
    for j in range(start, len(row)):
        x, y = row[j]
        qx, rem1 = divmod(x * dx + y * dy, dn)
        qy, rem2 = divmod(y * dx - x * dy, dn)
        if rem1 or rem2:
            raise ArithmeticError("fraction-free division failed")
        row[j] = (qx, qy)


def _real(rng):
    """A rational matrix, sparse or dense, with a dependent row or two, so
    that every pivot, and so every divisor, is a rational integer."""
    rows, cols = rng.randint(2, 8), rng.randint(2, 8)
    density = rng.choice((0.3, 0.7, 1.0))
    out = [[kernel.Scalar(rng.randint(-40, 40), 0, rng.randint(1, 6))
            if rng.random() < density else kernel.ZERO
            for _ in range(cols)] for _ in range(rows)]
    out.append([sum((kernel.Scalar(rng.randint(-3, 3)) * row[j]
                     for row in out), kernel.ZERO) for j in range(cols)])
    rng.shuffle(out)
    return out, cols


@pytest.mark.parametrize("make", [_real, _stale_divisors])
def test_echelon_rational_divisors_match_gaussian_path(make, monkeypatch):
    rng = random.Random("rational" + make.__name__)
    divisors = []
    divide = kernel._divide_row

    def recorded(row, divisor, start):
        divisors.append(divisor)
        divide(row, divisor, start)

    for _ in range(40):
        rows, cols = make(rng)
        monkeypatch.setattr(kernel, "_divide_row", recorded)
        got = kernel.echelon(rows, cols)
        monkeypatch.setattr(kernel, "_divide_row", _divide_row_gaussian)
        assert got == kernel.echelon(rows, cols)
    assert any(dy == 0 and abs(dx) > 1 for dx, dy, _ in divisors)


@pytest.mark.parametrize("entry", [(7, 0), (6, 1), (3, 4)])
def test_rational_divisor_still_checks_the_remainder(entry):
    row = [(2, 2), entry]
    with pytest.raises(ArithmeticError, match="fraction-free division failed"):
        kernel._divide_row(row, (2, 0, 4), 0)
