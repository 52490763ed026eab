"""Exact rational linear algebra and small numeric utilities.

Matrices are lists of rows whose entries are ``int`` or
``fractions.Fraction``; ``det``, ``mat_rank``, ``mat_inverse``, ``compound``
and ``mat_mul`` clear a matrix to integer rows over one common denominator
(``_clear``) and work in Python ints: one fraction-free (Bareiss) elimination
(``_bareiss``) serves the first three, compounds grow order by order by
Laplace expansion (``_int_compound``), and a Fraction is built only for each
returned entry.  A float entry raises TypeError: a float a user types is
read as its decimal by ``parse_rational`` before it reaches a matrix.
Callers that already hold integer rows over a denominator, such as the
cached dual image ``W = A / c`` of a lattice basis, call the integer kernels
``_int_det``, ``_int_inverse`` and ``_int_compound`` directly, compare
cross-multiplied integers, and build a Fraction only for an input they parse
or a field they return.  Identities are therefore checked with no rounding
at all; the tests keep plain Gaussian elimination over Fractions as the
oracle of the integer kernels.
"""

from __future__ import annotations

import math
import operator
from decimal import Context, Decimal, localcontext
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

    Raises TypeError when some entry is neither an int nor a Fraction.
    """
    ints = True
    for row in M:
        for x in row:
            if not isinstance(x, int):
                if not isinstance(x, Fraction):
                    raise TypeError(f"exact matrix entry {x!r}: an int or "
                                    "Fraction is needed")
                ints = False
    if ints:
        return [list(row) for row in M], 1, True
    D = math.lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (D // x.denominator) for x in row] for row in M], D, False


def mat_mul(A, B):
    """Product of the factors cleared to integer matrices."""
    (IA, Da, ints_a), (IB, Db, ints_b) = _clear(A), _clear(B)
    cols = list(zip(*IB))
    P = [[sum(map(operator.mul, row, col)) for col in cols] for row in IA]
    if ints_a and ints_b:
        return P
    D = Da * Db
    return [[Fraction(v, D) for v in row] for row in P]


def mat_vec(M, v):
    """``M v`` through :func:`mat_mul`'s integer product."""
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
    """Determinant by :func:`_int_det` on the cleared rows: an int for
    all-int input, a Fraction otherwise (``det([]) == 1``)."""
    A, D, ints = _clear(M)
    v = _int_det(A)
    return v if ints else Fraction(v, D ** len(M))


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

    ``M = A / D`` is inverted by :func:`_int_inverse`: ``M^-1 = D * R / c``.
    """
    A, D, _ = _clear(M)
    inverse = _int_inverse(A)
    if inverse is None:
        raise ZeroDivisionError("singular matrix")
    R, c = inverse
    return [[Fraction(D * x, c) for x in row] for row in R]


def mat_rank(M) -> int:
    if not M:
        return 0
    return _bareiss(_clear(M)[0], len(M[0]))[0]


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
    ``M`` is cleared to ``M = A / D`` and gives ``C_g(A) / D^g``: int minors
    for all-int input, Fractions otherwise, at every order.
    """
    A, D, ints = _clear(M)
    C = _int_compound(A, g)
    if ints:
        return C
    den = D**g
    return [[Fraction(v, den) for v in row] for row in C]


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

def _as_ratio(x, name: str):
    # (numerator, denominator) of an int or Fraction
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return x, 1
    raise TypeError(f"{name} {x!r}: an exact power needs an int or Fraction")


def le_pow(x, base: int, delta) -> bool:
    """Exact test ``x <= base**delta`` for rational x, base >= 0 and a
    rational delta = p/q >= 0: ``a**q <= base**p * b**q`` for x = a/b."""
    (a, b), (p, q) = _as_ratio(x, "x"), _as_ratio(delta, "delta")
    return a < 0 or a**q <= base**p * b**q


def ge_pow(x, base: int, delta) -> bool:
    """Exact test ``x >= base**delta`` (same conventions as :func:`le_pow`)."""
    (a, b), (p, q) = _as_ratio(x, "x"), _as_ratio(delta, "delta")
    return a >= 0 and a**q >= base**p * b**q


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


# Above this many bits in D**q a root is taken from a decimal bracket
# (_bracket_floor) before any Newton step, since each Newton step raises a
# root of D's size to the power q - 1.  At D of 203 bits, on one x86_64 core
# under Python 3.11, one Newton root took 124 us at q = 43, 472 us at
# q = 100 and 0.49 s at q = 10**4, one bracket 120-220 us at every q; at
# 4 bits and q = 10 Newton took 1.6 us and the bracket 65 us.
_BRACKET_BITS = 10**4


def _bracket_floor(D: int, p: int, q: int, s: int, ctx):
    """``floor(D * s**(p/q))`` for ``s >= 2`` from ``y = D exp((p/q) ln s)``
    in the decimal context ``ctx``, or None when the bracket around y holds
    an integer.

    ``Decimal.ln`` and ``Decimal.exp`` round correctly, so y is off by less
    than ``3|x| + 3`` units in its last of ``ctx.prec`` digits, x the
    exponent; the bracket ``y (1 +- (|x| + 1) 10**(6 - prec))`` is far wider.
    A bracket with one floor holds no integer, so neither does the value:
    its ceiling is that floor plus 1.
    """
    with localcontext(ctx):
        x = Decimal(s).ln() * p / q
        y = D * x.exp()
        w = y * (abs(x) + 1).scaleb(6 - ctx.prec)
        lo, hi = int(y - w), int(y + w)
    return lo if lo == hi else None


def _scaled_root(D: int, delta, up: bool):
    # s -> the integer q-th root of D**q * s**p, memoised per s and rounded
    # up when ``up`` and inexact: the one root behind both views below;
    # delta is an int or Fraction >= 0.  A large D**q is built only when a
    # bracket holds an integer (an exact power, or a bracket too wide).
    p, q = _as_ratio(delta, "delta")
    bits = D.bit_length()
    ctx = (Context(prec=math.ceil(bits * math.log10(2)) + 30)
           if q * bits > _BRACKET_BITS else None)
    Dq = None
    memo = {}

    def root_at(s: int) -> int:
        nonlocal Dq
        r = memo.get(s)
        if r is None:
            if s < 2 or not p:
                r = D * s**p                     # s**delta is 0 or 1
            elif ctx and (f := _bracket_floor(D, p, q, s, ctx)) is not None:
                r = f + up
            else:
                if Dq is None:
                    Dq = D**q
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
    """Gaussian rational: exact complex number ``re + i im``.

    Each part is stored once, in lowest terms, as two ints: ``re = rn/rd``
    and ``im = in_/id_`` with ``rd, id_ > 0``.  ``QQi(re, im)`` takes an
    int, a Fraction or a float (read at its binary value) per part;
    :func:`_qqi` builds one from parts already in that form.  ``.re`` and
    ``.im`` are Fraction views of the parts.  Equality, hashing, truth,
    ``abs``, negation and the conjugate read the ints; the arithmetic goes
    through the Fraction views.  An ``int`` or ``Fraction`` operand is a
    real scalar: it is added to the real part, or scales both parts
    (``QQi(re / g, im / g)``), without the general complex product or
    quotient.
    """

    __slots__ = ("rn", "rd", "in_", "id_")

    def __init__(self, re=0, im=0):
        self.rn, self.rd = _lowest_terms(re)
        self.in_, self.id_ = _lowest_terms(im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.rn, self.rd)

    @property
    def im(self) -> Fraction:
        return Fraction(self.in_, self.id_)

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
        return _qqi(-self.rn, self.rd, -self.in_, self.id_)

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
        return _qqi(self.rn, self.rd, -self.in_, self.id_)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        # float(abs2()) from integers: int / int rounds correctly, so this is
        # the same float without building the Fraction sum
        a, b, c, d = self.rn, self.rd, self.in_, self.id_
        return math.sqrt((a * a * d * d + c * c * b * b) / (b * b * d * d))

    def __eq__(self, other):
        # lowest terms with a positive denominator: one pair of ints per value
        if isinstance(other, QQi):
            return (self.rn == other.rn and self.in_ == other.in_
                    and self.rd == other.rd and self.id_ == other.id_)
        if isinstance(other, (int, Fraction)):
            return (self.in_ == 0 and self.rn == other.numerator
                    and self.rd == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.rn, self.rd, self.in_, self.id_))

    def __bool__(self):
        return bool(self.rn or self.in_)

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def _lowest_terms(x):
    """``(n, d)`` of an int, Fraction or float (at its binary value) in
    lowest terms with ``d > 0``."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fr(x)
    return x.numerator, x.denominator


def _qqi(rn, rd, in_, id_) -> QQi:
    """The :class:`QQi` ``rn/rd + i in_/id_`` of parts already in lowest
    terms with positive denominators; nothing is checked."""
    q = object.__new__(QQi)
    q.rn, q.rd, q.in_, q.id_ = rn, rd, in_, id_
    return q


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
