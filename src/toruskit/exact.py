"""Exact rational linear algebra and small numeric utilities.

Matrices are lists of rows.  When every entry is an ``int`` or a
``fractions.Fraction``, ``det``, ``mat_rank``, ``mat_inverse``, ``compound``
and ``mat_mul`` clear the matrix to integer rows over one common denominator
(``_clear``) and work in Python ints: one fraction-free (Bareiss) elimination
(``_bareiss``) serves the first three, compounds grow order by order by
Laplace expansion (``_int_compound``), and a Fraction is built only for each
returned entry.  Callers that already hold integer rows over a denominator,
such as the cached dual image ``W = A / c`` of a lattice basis, call the
integer kernels ``_int_det``, ``_int_inverse`` and ``_int_compound``
directly, compare cross-multiplied integers, and build a Fraction only for
an input they parse or a field they return.  Identities are therefore
checked with no rounding at all.  Input holding floats goes through plain
Gaussian elimination over the entries' own field (``_field_*``), whose
results are compared up to the caller's tolerance; the tests run the same
field routines on Fraction entries as the oracle of the integer kernel.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import ParseError

Fr = Fraction


def parse_rational(value, field: str = "value") -> Fraction:
    """Parse an exact rational from ``"num/den"``, a decimal string, or an int.

    Decimal strings are read as exact decimal fractions ("0.25" -> 1/4).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"{field}: booleans are not rationals")
    if isinstance(value, int):
        return Fr(value)
    if isinstance(value, float):
        # JSON numbers arrive as floats; treat the decimal literal as exact.
        # Python's json also reads NaN and Infinity, which no rational is.
        if not math.isfinite(value):
            raise ParseError(f"{field}: not a finite number: {value!r}")
        return Fr(repr(value))
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return Fr(int(num.strip()), int(den.strip()))
            return Fr(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{field}: malformed rational {value!r}") from exc
    raise ParseError(f"{field}: cannot parse rational from {type(value).__name__}")


def format_rational(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return repr(x)


# ---------------------------------------------------------------------------
# matrices as list-of-rows


def mat_transpose(M):
    return [list(col) for col in zip(*M)]


def _clear(M):
    """Integer rows ``A``, denominator ``D`` and an all-int flag, ``M = A / D``.

    ``None`` when some entry is neither an int nor a Fraction (a float).
    """
    ints = True
    for row in M:
        for x in row:
            if not isinstance(x, int):
                if not isinstance(x, Fraction):
                    return None
                ints = False
    if ints:
        return [list(row) for row in M], 1, True
    D = math.lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (D // x.denominator) for x in row] for row in M], D, False


def mat_mul(A, B):
    """Product; exact factors multiply as cleared integer matrices."""
    ca, cb = _clear(A), _clear(B)
    if ca is None or cb is None:
        return _field_mat_mul(A, B)
    (IA, Da, ints_a), (IB, Db, ints_b) = ca, cb
    cols = list(zip(*IB))
    P = [[sum(map(operator.mul, row, col)) for col in cols] for row in IA]
    if ints_a and ints_b:
        return P
    D = Da * Db
    return [[Fraction(v, D) for v in row] for row in P]


def mat_vec(M, v):
    """``M v``; exact input goes through :func:`mat_mul`'s integer product."""
    if not v:
        return [0 for _ in M]
    return [r[0] for r in mat_mul(M, [[x] for x in v])]


def _bareiss(A, ncols, jordan=False):
    """Fraction-free (Bareiss) elimination of the integer rows ``A`` in place.

    Pivots are taken in the first ``ncols`` columns, skipping columns with no
    pivot left.  Every update ``(p * x - f * y) // prev`` divides exactly, so
    each entry stays a minor of the input.  ``jordan`` also clears the rows
    above each pivot (Gauss-Jordan); the left block of a nonsingular square
    system then ends as the last pivot times the identity.  Returns the rank,
    the sign of the row swaps and the last pivot, which is ``sign * det``
    for a nonsingular square ``A``.
    """
    rows = len(A)
    rank, sign, prev = 0, 1, 1
    for c in range(ncols):
        piv = next((r for r in range(rank, rows) if A[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            sign = -sign
        P = A[rank]
        p = P[c]
        lo = 0 if jordan else c
        for r in range(0 if jordan else rank + 1, rows):
            if r == rank:
                continue
            R = A[r]
            f = R[c]
            A[r][lo:] = [(p * x - f * y) // prev for x, y in zip(R[lo:], P[lo:])]
        prev = p
        rank += 1
    return rank, sign, prev


def _minor_value(v, den, g, ints):
    """The g-minor ``v / den``, ``den = D**g``, typed as the field ``det`` has it.

    All-int input keeps ints up to order 2 and for a zero minor; every other
    value is a Fraction.
    """
    if ints and (g <= 2 or not v):
        return v
    return Fraction(v, den)


def _int_det(A) -> int:
    """Determinant of the square integer rows ``A``, an int.

    Orders above 2 run :func:`_bareiss` on ``A`` in place, so pass rows the
    caller does not keep.
    """
    n = len(A)
    if n == 0:
        return 1
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    rank, sign, last = _bareiss(A, n)
    return sign * last if rank == n else 0


def det(M):
    """Determinant; exact input goes through :func:`_int_det` on cleared rows."""
    n = len(M)
    if n == 0:
        return Fr(1)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    cleared = _clear(M)
    if cleared is None:
        return _field_det(M)
    A, D, ints = cleared
    return _minor_value(_int_det(A), D**n, n, ints)


def _int_inverse(A):
    """``(R, c)`` with ``A^-1 = R / c`` for the square integer rows ``A``.

    One Gauss-Jordan pass of :func:`_bareiss` over ``[A | I]`` tests
    singularity and inverts: the left block ends as ``c`` times the
    identity, ``c = ±det A`` the last pivot, and the right block is ``R``.
    ``None`` when ``A`` is singular.
    """
    n = len(A)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    rank, _, c = _bareiss(aug, n, jordan=True)
    if rank < n:
        return None
    return [row[n:] for row in aug], c


def mat_inverse(M):
    """Inverse; raises ZeroDivisionError on singular input.

    Exact input ``M = A / D`` is inverted by :func:`_int_inverse`:
    ``M^-1 = D * R / c``.
    """
    cleared = _clear(M)
    if cleared is None:
        return _field_mat_inverse(M)
    A, D, _ = cleared
    inverse = _int_inverse(A)
    if inverse is None:
        raise ZeroDivisionError("singular matrix")
    R, c = inverse
    return [[Fraction(D * x, c) for x in row] for row in R]


def mat_rank(M) -> int:
    if not M:
        return 0
    cleared = _clear(M)
    if cleared is None:
        return _field_mat_rank(M)
    return _bareiss(cleared[0], len(M[0]))[0]


def submatrix(M, rows, cols):
    return [[M[r][c] for c in cols] for r in rows]


def index_tuples(n: int, g: int):
    """Strictly increasing g-tuples from range(n), lexicographic order."""
    return list(combinations(range(n), g))


@lru_cache(maxsize=256)
def _expansion_terms(q: int, k: int):
    # each k-tuple of columns from range(q) with its Laplace terms along the
    # first row: (column, the column tuple left, odd position); tuples, as
    # every caller shares the cached value
    return tuple((cs, tuple((c, cs[:t] + cs[t + 1:], t & 1)
                            for t, c in enumerate(cs)))
                 for cs in combinations(range(q), k))


def _int_compound(A, g):
    """C_g of the integer rows ``A``: all g-minors as int rows, indexed by
    increasing row and column tuples as in :func:`compound` (``[[1]]`` at
    ``g = 0``, no rows when ``A`` has fewer than g rows).

    Order k is built from order k - 1 by Laplace expansion along the first
    row; an order-k minor only ever needs rows from ``g - k`` on.  The
    expansion terms of the column tuples (:func:`_expansion_terms`) are
    shared by every row tuple and every call.
    """
    p, q = len(A), len(A[0]) if A else 0
    minors = {(): {(): 1}}
    for k in range(1, g + 1):
        level = {}
        for rs in combinations(range(g - k, p), k):
            top, sub = A[rs[0]], minors[rs[1:]]
            row = level[rs] = {}
            for cs, expansion in _expansion_terms(q, k):
                total = 0
                for c, rest, odd in expansion:
                    a = top[c]
                    if a:
                        m = sub[rest]
                        total = total - a * m if odd else total + a * m
                row[cs] = total
        minors = level
    return [list(row.values()) for row in minors.values()]


def compound(M, g):
    """Matrix of all g x g minors, rows/cols indexed by increasing tuples.

    ``g = 0`` yields the 1 x 1 matrix [1], the natural empty-minor convention.
    Exact input is cleared to ``M = A / D`` and gives ``C_g(A) / D^g``.
    """
    if g == 0:
        return [[Fr(1)]]
    cleared = _clear(M)
    if cleared is None:
        col_t = index_tuples(len(M[0]), g)
        return [[det(submatrix(M, rs, cs)) for cs in col_t]
                for rs in index_tuples(len(M), g)]
    A, D, ints = cleared
    den = D**g
    return [[_minor_value(v, den, g, ints) for v in row]
            for row in _int_compound(A, g)]


# ---------------------------------------------------------------------------
# field elimination: floating input, and the Fraction oracle of the tests


def _field_mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row_a = A[i]
        out.append([sum(row_a[t] * B[t][j] for t in range(k)) for j in range(m)])
    return out


def _field_det(M):
    """Determinant by Gaussian elimination over the entries' own field."""
    n = len(M)
    A = [list(row) for row in M]
    sign = 1
    acc = Fr(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if A[r][c] != 0:
                piv = r
                break
        if piv is None:
            return 0 * A[0][0]
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        acc = acc * A[c][c]
        inv = Fr(1) / A[c][c]
        for r in range(c + 1, n):
            if A[r][c] != 0:
                f = A[r][c] * inv
                A[r] = [A[r][k] - f * A[c][k] for k in range(c, n)]
                A[r] = [0] * c + A[r]
    return sign * acc


def _field_mat_inverse(M):
    n = len(M)
    A = [list(row) + [Fr(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = None
        for r in range(c, n):
            if A[r][c] != 0:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        A[c], A[piv] = A[piv], A[c]
        ic = Fr(1) / A[c][c]
        A[c] = [x * ic for x in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def _field_mat_rank(M) -> int:
    A = [list(row) for row in M]
    rows, cols = len(A), len(A[0])
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if A[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = Fr(1) / A[rank][c]
        for r in range(rank + 1, rows):
            if A[r][c] != 0:
                f = A[r][c] * inv
                A[r] = [A[r][k] - f * A[rank][k] for k in range(cols)]
        rank += 1
        if rank == rows:
            break
    return rank


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def norm_sq(v):
    return sum(a * a for a in v)


def frobenius_sq(M):
    return sum(x * x for row in M for x in row)


def sup_norm(v) -> int:
    """Largest absolute entry of the sequence ``v``; 0 when it is empty."""
    return max(map(abs, v)) if v else 0


# ---------------------------------------------------------------------------
# exact comparisons against rational powers

def _as_ratio(delta):
    if isinstance(delta, Fraction):
        return delta.numerator, delta.denominator
    if isinstance(delta, int):
        return delta, 1
    return None


def le_pow(x, base: int, delta) -> bool:
    """Exact test ``x <= base**delta`` for x >= 0 rational and delta = p/q.

    Falls back to floats when either side is not exact.
    """
    ratio = _as_ratio(delta)
    if ratio is not None and isinstance(x, (int, Fraction)) and x >= 0:
        p, q = ratio
        return x**q <= Fr(base) ** p
    return float(x) <= float(base) ** float(delta)


def ge_pow(x, base: int, delta) -> bool:
    """Exact test ``x >= base**delta`` (same conventions as :func:`le_pow`)."""
    ratio = _as_ratio(delta)
    if ratio is not None and isinstance(x, (int, Fraction)) and x >= 0:
        p, q = ratio
        return x**q >= Fr(base) ** p
    return float(x) >= float(base) ** float(delta)


def floor_pow(base: int, delta) -> int:
    """Largest integer r with r <= base**delta (base >= 0, delta a rational
    >= 0): the ``D = 1`` view of :func:`scaled_floor_pow`."""
    return scaled_floor_pow(1, delta)(base)


def ceil_pow(base: int, delta) -> int:
    """Smallest integer c with c >= base**delta (conventions of :func:`floor_pow`)."""
    return scaled_ceil_pow(1, delta)(base)


def _iroot(n: int, q: int) -> int:
    """Largest integer r with ``r**q <= n`` (n >= 0, q >= 1), by Newton steps.

    The start is a float estimate of ``2**x``, ``x = log2(n)/q`` taken on
    the top 64 bits of n plus the shift, raised by a relative
    ``(x + 16) * 2**-50`` (more than twice the estimate's rounding error) and
    by one unit, so it lies just above the root and a few steps suffice even
    at a large q.  From any start r >= 1 one integer Newton step lands at or
    above the root (AM-GM and nested floors); from there the steps descend
    to it and stop.
    """
    if n < 2 or q == 1:
        return n
    shift = max(0, n.bit_length() - 64)
    x = (math.log2(n >> shift) + shift) / q
    e = max(0, math.floor(x) - 52)  # 2**(x - e) < 2**53: no float overflow
    r = (math.floor(2.0 ** (x - e) * (1 + (x + 16) * 2.0**-50)) + 1) << e
    r = ((q - 1) * r + n // r ** (q - 1)) // q
    while True:
        t = ((q - 1) * r + n // r ** (q - 1)) // q
        if t >= r:
            return r
        r = t


def _scaled_root(D: int, delta, up: bool):
    # s -> the integer q-th root of D**q * s**p, memoised per s and rounded
    # up when ``up`` and inexact: the one root behind both views below;
    # delta is an int or Fraction >= 0
    ratio = _as_ratio(delta)
    if ratio is None:
        raise TypeError(f"delta {delta!r}: an exact root needs an int or "
                        "Fraction delta >= 0")
    p, q = ratio
    Dq = D**q
    memo = {}

    def root_at(s: int) -> int:
        r = memo.get(s)
        if r is None:
            n = Dq * s**p
            r = _iroot(n, q)
            if up and r**q != n:
                r += 1
            memo[s] = r
        return r

    return root_at


def scaled_floor_pow(D: int, delta):
    """``s -> floor(D * s**delta)`` over integers ``s >= 0``, memoised per s.

    For ``delta = p/q >= 0`` this is the integer q-th root of
    ``D**q * s**p``, so an integer x satisfies ``x <= D * s**delta`` exactly
    when ``x <= floor(D * s**delta)``.
    """
    return _scaled_root(D, delta, up=False)


def scaled_ceil_pow(D: int, delta):
    """``s -> ceil(D * s**delta)`` over integers ``s >= 0``, memoised per s.

    The ceiling of the root of :func:`scaled_floor_pow`: an integer x
    satisfies ``x >= D * s**delta`` exactly when ``x >= ceil(D * s**delta)``.
    """
    return _scaled_root(D, delta, up=True)


# ---------------------------------------------------------------------------
# complex rationals for exact block matrices


class QQi:
    """Gaussian rational: exact complex number with Fraction parts.

    An ``int`` or ``Fraction`` operand is a real scalar: it is added to the
    real part, or scales both parts (``QQi(re / g, im / g)``), without the
    general complex product or quotient.  Parts that already are Fractions
    are stored as given.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fr(re)
        self.im = im if type(im) is Fraction else Fr(im)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(self.re + other, self.im)
        other = _coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(self.re - other, self.im)
        other = _coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(other - self.re, -self.im)
        return _coerce(other) - self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(self.re * other, self.im * other)
        other = _coerce(other)
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero QQi")
            return QQi(self.re / other, self.im / other)
        other = _coerce(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi((self.re * other.re + self.im * other.im) / den,
                   (self.im * other.re - self.re * other.im) / den)

    def conjugate(self):
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        # float(abs2()) from integers: int / int rounds correctly, so this is
        # the same float without building the Fraction sum
        a, b = self.re.numerator, self.re.denominator
        c, d = self.im.numerator, self.im.denominator
        return math.sqrt((a * a * d * d + c * c * b * b) / (b * b * d * d))

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def _coerce(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to QQi")


# ---------------------------------------------------------------------------
# exact interval unions (used by the frequency-measure estimates)


def merge_intervals(intervals):
    """Union of closed intervals with exactly comparable endpoints.

    Returns disjoint intervals sorted by left endpoint; touching intervals
    are coalesced.
    """
    items = sorted((lo, hi) for lo, hi in intervals if hi >= lo)
    merged = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def intervals_measure(intervals):
    return sum((hi - lo for lo, hi in intervals), start=Fr(0))
