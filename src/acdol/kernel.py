"""Arithmetic kernel: Gaussian rationals and dense elimination.

A scalar is the exact complex number ``(xn + yn*i) / dn`` with arbitrary
precision integers ``xn``, ``yn`` and ``dn > 0``, normalised so that
``gcd(xn, yn, dn) = 1``.
"""

from fractions import Fraction
from math import gcd


class Scalar:
    """An element of Q(i), stored in lowest terms with positive denominator."""

    __slots__ = ("xn", "yn", "dn")

    def __init__(self, xn=0, yn=0, dn=1):
        if dn == 0:
            raise ZeroDivisionError("scalar denominator is zero")
        if dn < 0:
            xn, yn, dn = -xn, -yn, -dn
        g = gcd(gcd(xn, yn), dn)
        if g > 1:
            xn //= g
            yn //= g
            dn //= g
        self.xn = xn
        self.yn = yn
        self.dn = dn

    @classmethod
    def from_rational(cls, re, im=0):
        """Build a scalar from two Fractions (or ints)."""
        re = Fraction(re)
        im = Fraction(im)
        dn = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        return cls(re.numerator * (dn // re.denominator),
                   im.numerator * (dn // im.denominator), dn)

    @property
    def re(self):
        return Fraction(self.xn, self.dn)

    @property
    def im(self):
        return Fraction(self.yn, self.dn)

    def is_zero(self):
        return self.xn == 0 and self.yn == 0

    def __bool__(self):
        return self.xn != 0 or self.yn != 0

    def conj(self):
        return Scalar(self.xn, -self.yn, self.dn)

    def abs_sq(self):
        """|s|^2 as a Fraction (always >= 0, zero iff s == 0)."""
        return Fraction(self.xn * self.xn + self.yn * self.yn, self.dn * self.dn)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return Scalar(self.xn * other.dn + other.xn * self.dn,
                      self.yn * other.dn + other.yn * self.dn,
                      self.dn * other.dn)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return Scalar(self.xn * other.dn - other.xn * self.dn,
                      self.yn * other.dn - other.yn * self.dn,
                      self.dn * other.dn)

    def __rsub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return Scalar(self.xn * other.xn - self.yn * other.yn,
                      self.xn * other.yn + self.yn * other.xn,
                      self.dn * other.dn)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self * other._inv()

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other * self._inv()

    def _inv(self):
        n = self.xn * self.xn + self.yn * self.yn
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.dn * self.xn, -self.dn * self.yn, n)

    def __neg__(self):
        return Scalar(-self.xn, -self.yn, self.dn)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.xn == other.xn and self.yn == other.yn and self.dn == other.dn

    def __hash__(self):
        if self.yn == 0:
            return hash(Fraction(self.xn, self.dn))
        return hash((self.xn, self.yn, self.dn))

    def __repr__(self):
        return "Scalar(%r)" % (str(self),)

    def __str__(self):
        return _scalar_str(self.xn, self.yn, self.dn)


def _lift(value):
    if type(value) is Scalar:
        return value
    if isinstance(value, int):
        return Scalar(value)
    if isinstance(value, Scalar):
        return value
    return None


def _scalar_str(xn, yn, dn):
    re = Fraction(xn, dn)
    im = Fraction(yn, dn)
    if im == 0:
        return str(re)
    if im == 1:
        im_part = "i"
    elif im == -1:
        im_part = "-i"
    else:
        im_part = "%si" % im
    if re == 0:
        return im_part
    if im > 0:
        return "%s+%s" % (re, im_part)
    return "%s%s" % (re, im_part)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def rref(rows, ncols):
    """Reduced row echelon form by exact fraction-free elimination.

    ``rows`` is a list of lists of Scalars, each of length ``ncols``.  The
    rows are cleared to Gaussian integers, forward-eliminated by the
    one-step fraction-free scheme (every update divides exactly by the
    previous pivot, which bounds entry growth by minor size), and the
    resulting echelon rows are back-reduced rationally.  Pivot rows are
    chosen by smallest entry; the result is the unique reduced row echelon
    form with leading ones, so the output does not depend on that choice.
    Returns ``(new_rows, pivot_columns)`` without mutating the input.
    """
    m = []
    for row in rows:
        den = 1
        for e in row:
            den = den * e.dn // gcd(den, e.dn)
        m.append([(e.xn * (den // e.dn), e.yn * (den // e.dn)) for e in row])
    nrows = len(m)
    pivots = []
    r = 0
    prev_x, prev_y, prev_n = 1, 0, 1
    for c in range(ncols):
        pr = -1
        best = -1
        for i in range(r, nrows):
            x, y = m[i][c]
            if x or y:
                size = (abs(x) + abs(y)).bit_length()
                if pr < 0 or size < best:
                    pr = i
                    best = size
        if pr < 0:
            continue
        if pr != r:
            m[pr], m[r] = m[r], m[pr]
        px, py = m[r][c]
        row = m[r]
        for i in range(r + 1, nrows):
            fx, fy = m[i][c]
            tgt = m[i]
            for j in range(c + 1, ncols):
                ax, ay = tgt[j]
                bx, by = row[j]
                nx = px * ax - py * ay - (fx * bx - fy * by)
                ny = px * ay + py * ax - (fx * by + fy * bx)
                if prev_x != 1 or prev_y != 0:
                    # divide by the previous pivot; exact by the one-step
                    # fraction-free elimination identity
                    tx = nx * prev_x + ny * prev_y
                    ty = ny * prev_x - nx * prev_y
                    nx, rem1 = divmod(tx, prev_n)
                    ny, rem2 = divmod(ty, prev_n)
                    if rem1 or rem2:
                        raise ArithmeticError("fraction-free division failed")
                tgt[j] = (nx, ny)
            tgt[c] = (0, 0)
        prev_x, prev_y = px, py
        prev_n = px * px + py * py
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # rational back-reduction of the echelon rows (entries are minor-sized)
    out = [[Scalar(x, y) for (x, y) in row] for row in m]
    for k in range(len(pivots) - 1, -1, -1):
        row = out[k]
        pc = pivots[k]
        inv = ONE / row[pc]
        for j in range(pc, ncols):
            if row[j]:
                row[j] = row[j] * inv
        for i in range(k):
            f = out[i][pc]
            if not f:
                continue
            tgt = out[i]
            for j in range(pc, ncols):
                if row[j]:
                    tgt[j] = tgt[j] - f * row[j]
    return out, pivots


def matmul(a_rows, b_rows, bcols):
    """Product of dense Scalar matrices given as lists of row lists."""
    out = []
    for arow in a_rows:
        acc = [ZERO] * bcols
        for k, aik in enumerate(arow):
            if not aik:
                continue
            brow = b_rows[k]
            for j in range(bcols):
                bkj = brow[j]
                if bkj:
                    acc[j] = acc[j] + aik * bkj
        out.append(acc)
    return out


def from_rational(re, im=0):
    """Scalar from Fraction/int real and imaginary parts."""
    return Scalar.from_rational(re, im)
