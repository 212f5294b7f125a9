"""Arithmetic kernel: Gaussian rationals and dense elimination.

A scalar is the exact complex number ``(xn + yn*i) / dn`` with arbitrary
precision integers ``xn``, ``yn`` and ``dn > 0``, normalised so that
``gcd(xn, yn, dn) = 1``.  ``Scalar`` is closed: its arithmetic takes
Scalars only, so an int or a Fraction operand raises ``TypeError`` and
never compares equal to a Scalar.  Rationals enter through the one
constructor ``from_rational``, and ``cleared`` clears rows of Scalars to
Gaussian integers over one common denominator, the form in which the
front end sums; ``echelon`` and ``matmul`` clear in their own loops, where
they also skip zero rows and terms.
"""

from fractions import Fraction
from math import gcd, lcm


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

    def __bool__(self):
        return self.xn != 0 or self.yn != 0

    def conj(self):
        return Scalar(self.xn, -self.yn, self.dn)

    def __add__(self, other):
        try:
            return Scalar(self.xn * other.dn + other.xn * self.dn,
                          self.yn * other.dn + other.yn * self.dn,
                          self.dn * other.dn)
        except AttributeError:
            raise _operand_error("+", other) from None

    def __sub__(self, other):
        try:
            return Scalar(self.xn * other.dn - other.xn * self.dn,
                          self.yn * other.dn - other.yn * self.dn,
                          self.dn * other.dn)
        except AttributeError:
            raise _operand_error("-", other) from None

    def __mul__(self, other):
        try:
            return Scalar(self.xn * other.xn - self.yn * other.yn,
                          self.xn * other.yn + self.yn * other.xn,
                          self.dn * other.dn)
        except AttributeError:
            raise _operand_error("*", other) from None

    def __truediv__(self, other):
        try:
            return self * other._inv()
        except AttributeError:
            raise _operand_error("/", other) from None

    def _inv(self):
        n = self.xn * self.xn + self.yn * self.yn
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.dn * self.xn, -self.dn * self.yn, n)

    def __neg__(self):
        return Scalar(-self.xn, -self.yn, self.dn)

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return self.xn == other.xn and self.yn == other.yn and self.dn == other.dn

    def __hash__(self):
        return hash((self.xn, self.yn, self.dn))

    def __repr__(self):
        return "Scalar(%r)" % (str(self),)

    def __str__(self):
        return _scalar_str(self.xn, self.yn, self.dn)


def _operand_error(op, other):
    return TypeError("unsupported operand type(s) for %s: 'Scalar' and %r"
                     % (op, type(other).__name__))


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

    ``rows`` is a sequence of rows of Scalars, each of length ``ncols``.
    The echelon rows of ``echelon`` are back-reduced rationally.  The result
    is the unique reduced row echelon form with leading ones, so it does not
    depend on the pivot rows ``echelon`` chooses.  Returns
    ``(new_rows, pivot_columns)`` without mutating the input.
    """
    m, pivots = echelon(rows, ncols)
    out = [[Scalar(x, y) if x or y else ZERO for (x, y) in row]
           for row in m[:len(pivots)]]
    out.extend([ZERO] * ncols for _ in range(len(m) - len(pivots)))
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


def echelon(rows, ncols):
    """Row echelon form by exact fraction-free forward elimination.

    ``rows`` is a sequence of rows of Scalars, each of length ``ncols``;
    it is only read.  The rows are cleared to Gaussian integers and
    forward-eliminated by the one-step fraction-free scheme, whose entries
    are minors of the cleared matrix, so their growth is bounded by minor
    size.  Step k with pivot p_k turns each row a below the pivot row b
    into (p_k a - f b) / p_{k-1}, f the row's entry in the pivot column.

    A row with f = 0 is left as it is, and each row records the pivot p_j
    that last divided it.  Its stored value then differs from its
    fraction-free value by the factor p_{k-1} / p_j, which telescopes over
    the skipped steps, so a row touched at step k becomes
    (p_k a - f b) / p_j, still an exact Gaussian-integer division, and the
    pivot row is brought up to its current level (times p_{k-1} / p_j)
    before it is used.  Rows that the pivot column does not reach cost
    nothing, which keeps sparse and block-structured matrices cheap.

    Zero rows are set aside before clearing, so only the nonzero rows,
    in their order, are cleared and eliminated; the zero rows come back at
    the end.  Pivot rows are chosen by smallest entry.  Returns
    ``(rows, pivots)``: every row as (x, y) Gaussian-integer pairs, the
    first ``len(pivots)`` in echelon form with their leading entries in
    the ``pivots`` columns, and the rest zero.  The pivot columns, and so
    the rank, are those of the reduced form.
    """
    m = []
    zero_rows = 0
    for row in rows:
        nonzero = [e for e in row if e.xn or e.yn]
        if not nonzero:
            zero_rows += 1
            continue
        den = 1
        for e in nonzero:
            if den % e.dn:
                den = lcm(den, e.dn)
        m.append([(e.xn * (den // e.dn), e.yn * (den // e.dn)) for e in row])
    nrows = len(m)
    unit = (1, 0, 1)
    # the pivot (x, y, x^2 + y^2) that last divided each row
    divisor = [unit] * nrows
    pivots = []
    r = 0
    prev = unit
    for c in range(ncols):
        if r == nrows:
            break
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
            divisor[pr], divisor[r] = divisor[r], divisor[pr]
        row = m[r]
        if divisor[r] != prev:
            qx, qy, _ = prev
            row = [(qx * x - qy * y, qx * y + qy * x) for (x, y) in row]
            _divide_row(row, divisor[r], c)
            m[r] = row
        px, py = row[c]
        pivot = (px, py, px * px + py * py)
        support = [(j, bx, by) for j, (bx, by) in
                   enumerate(row[c + 1:], c + 1) if bx or by]
        for i in range(r + 1, nrows):
            tgt = m[i]
            fx, fy = tgt[c]
            if not (fx or fy):
                continue
            # p_k a over the whole row, then - f b on the pivot row's support
            new = [(px * ax - py * ay, px * ay + py * ax) if ax or ay
                   else (0, 0) for (ax, ay) in tgt]
            for j, bx, by in support:
                nx, ny = new[j]
                new[j] = (nx - (fx * bx - fy * by), ny - (fx * by + fy * bx))
            new[c] = (0, 0)
            if divisor[i] != unit:
                _divide_row(new, divisor[i], c + 1)
            m[i] = new
            divisor[i] = pivot
        prev = pivot
        pivots.append(c)
        r += 1
    m.extend([(0, 0)] * ncols for _ in range(zero_rows))
    return m, pivots


def _divide_row(row, divisor, start):
    """Divide ``row[start:]`` in place by the Gaussian integer
    ``(dx, dy, dx^2 + dy^2)``, which must divide every entry.  A rational
    integer (dy = 0) divides each part on its own."""
    dx, dy, dn = divisor
    for j in range(start, len(row)):
        x, y = row[j]
        if x or y:
            if dy:
                qx, rem1 = divmod(x * dx + y * dy, dn)
                qy, rem2 = divmod(y * dx - x * dy, dn)
            else:
                qx, rem1 = divmod(x, dx)
                qy, rem2 = divmod(y, dx)
            if rem1 or rem2:
                raise ArithmeticError("fraction-free division failed")
            row[j] = (qx, qy)


def matmul(a_rows, b_rows, bcols):
    """Product of Scalar matrices given as sequences of rows, only read.

    Only nonzero terms are visited: a zero entry of A, or one whose row of
    B is zero, costs nothing.  The rows of B that A reaches are cleared
    over the common denominator of each column, and each row of A over its
    own, so the products are summed as Gaussian integers; each nonzero
    entry of the product is normalised once, over its row's denominator
    times its column's.
    """
    b_terms = [None] * len(b_rows)  # the nonzero (j, b) of each row reached
    col_den = [1] * bcols
    a_terms = []  # per row of A: its denominator and its nonzero (a, k)
    for arow in a_rows:
        row = []
        den = 1
        for k, a in enumerate(arow):
            if a.xn or a.yn:
                terms = b_terms[k]
                if terms is None:
                    terms = b_terms[k] = []
                    for j, b in enumerate(b_rows[k]):
                        if b.xn or b.yn:
                            terms.append((j, b))
                            if col_den[j] % b.dn:
                                col_den[j] = lcm(col_den[j], b.dn)
                if terms:
                    row.append((a, k))
                    if den % a.dn:
                        den = lcm(den, a.dn)
        a_terms.append((den, row))
    for k, terms in enumerate(b_terms):
        if terms:
            b_terms[k] = [(j, b.xn * (col_den[j] // b.dn),
                           b.yn * (col_den[j] // b.dn)) for j, b in terms]
    out = []
    for den, row in a_terms:
        out_row = [ZERO] * bcols
        out.append(out_row)
        if not row:
            continue
        acc = {}
        for a, k in row:
            q = den // a.dn
            ax, ay = a.xn * q, a.yn * q
            for j, bx, by in b_terms[k]:
                if j in acc:
                    x, y = acc[j]
                    acc[j] = (x + ax * bx - ay * by, y + ax * by + ay * bx)
                else:
                    acc[j] = (ax * bx - ay * by, ax * by + ay * bx)
        for j, (x, y) in acc.items():
            if x or y:
                out_row[j] = Scalar(x, y, den * col_den[j])
    return out


def from_rational(re, im=0):
    """The scalar re + im i from Fraction or int parts."""
    re = Fraction(re)
    im = Fraction(im)
    dn = lcm(re.denominator, im.denominator)
    return Scalar(re.numerator * (dn // re.denominator),
                  im.numerator * (dn // im.denominator), dn)


def cleared(rows):
    """(rows of (x, y) integer pairs, d) with rows = (x + y i) / d, d > 0
    the least common denominator of the Scalar entries."""
    d = 1
    for row in rows:
        for e in row:
            if d % e.dn:
                d = lcm(d, e.dn)
    return [[(e.xn * (d // e.dn), e.yn * (d // e.dn)) for e in row]
            for row in rows], d
