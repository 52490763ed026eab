"""Exact-arithmetic core: determinants, compounds, comparisons, intervals."""

import itertools
import random
from fractions import Fraction as Fr

import pytest

from toruskit import exact
from toruskit.errors import ParseError


def reference_det(M):
    n = len(M)
    total = Fr(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        prod = Fr(1)
        for i in range(n):
            prod *= M[i][perm[i]]
        total += (-1) ** inv * prod
    return total


def random_fraction_matrix(rng, d):
    return [[Fr(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
            for _ in range(d)]


def test_det_matches_permutation_expansion():
    rng = random.Random(0)
    for _ in range(120):
        d = rng.randint(1, 5)
        M = random_fraction_matrix(rng, d)
        assert exact.det(M) == reference_det(M)


def test_det_of_integer_matrix_is_exact():
    rng = random.Random(1)
    for _ in range(80):
        d = rng.randint(1, 5)
        M = [[rng.randint(-7, 7) for _ in range(d)] for _ in range(d)]
        got = exact.det(M)
        assert got == reference_det([[Fr(x) for x in row] for row in M])
        assert got.denominator == 1


def test_inverse_and_rank():
    rng = random.Random(2)
    for _ in range(40):
        d = rng.randint(1, 4)
        M = random_fraction_matrix(rng, d)
        if exact.det(M) == 0:
            continue
        inv = exact.mat_inverse(M)
        prod = exact.mat_mul(M, inv)
        assert prod == [[int(i == k) for k in range(d)] for i in range(d)]
        assert exact.mat_rank(M) == d
    assert exact.mat_rank([[1, 2], [2, 4]]) == 1


def test_compound_conventions():
    M = [[Fr(1), Fr(2)], [Fr(3), Fr(4)]]
    assert exact.compound(M, 1) == M
    assert exact.compound(M, 2) == [[Fr(-2)]]
    assert exact.compound(M, 0) == [[Fr(1)]]


def test_parse_rational():
    assert exact.parse_rational("3/4") == Fr(3, 4)
    assert exact.parse_rational("0.25") == Fr(1, 4)
    assert exact.parse_rational(7) == Fr(7)
    assert exact.parse_rational("-2/6") == Fr(-1, 3)
    with pytest.raises(ParseError):
        exact.parse_rational("3/")
    with pytest.raises(ParseError):
        exact.parse_rational("1/0")
    with pytest.raises(ParseError):
        exact.parse_rational("abc")


def test_format_round_trip():
    for x in (Fr(3, 4), Fr(-5), Fr(0), Fr(10, 3)):
        assert exact.parse_rational(exact.format_rational(x)) == x


def test_power_comparisons_match_floats_away_from_ties():
    rng = random.Random(3)
    for _ in range(300):
        x = Fr(rng.randint(0, 400), rng.randint(1, 7))
        base = rng.randint(1, 300)
        delta = Fr(rng.randint(1, 9), 10)
        exact_le = exact.le_pow(x, base, delta)
        approx = float(base) ** float(delta)
        if abs(float(x) - approx) > 1e-6 * (1 + approx):
            assert exact_le == (float(x) <= approx)


def test_floor_and_ceil_pow():
    assert exact.floor_pow(128, Fr(1, 10)) == 1
    assert exact.ceil_pow(128, Fr(1, 10)) == 2
    assert exact.floor_pow(1024, Fr(1, 2)) == 32
    assert exact.ceil_pow(1024, Fr(1, 2)) == 32


def test_scaled_ceil_pow_matches_ge_pow():
    rng = random.Random(7)
    for _ in range(400):
        delta = Fr(rng.randint(0, 150), rng.randint(1, 100))
        D = rng.choice([1, 2, 4, 12, rng.randint(1, 10**6)])
        s = rng.choice([0, 1, rng.randint(0, 64), rng.randint(0, 10**4)])
        c = exact.scaled_ceil_pow(D, delta)(s)
        # c is the least integer >= D s^delta: it passes the exact test, c - 1 fails
        assert exact.ge_pow(Fr(c, D), s, delta)
        assert c == 0 or not exact.ge_pow(Fr(c - 1, D), s, delta)
        # the gap test 4|g| >= c agrees with ge_pow on |g / D| >= s^delta / 4
        # at the edges 4|g| = c - 1 and 4|g| = c, and at random numerators
        for x in (c - 1, c, rng.randint(0, 2 * c + 8)):
            if x >= 0:
                assert (x >= c) == exact.ge_pow(Fr(x, D), s, delta)


def test_scaled_ceil_pow_edges():
    assert exact.scaled_ceil_pow(5, Fr(1, 10))(0) == 0
    assert exact.scaled_ceil_pow(5, 0)(0) == 5        # 0**0 == 1, as in ge_pow
    assert exact.scaled_ceil_pow(1, Fr(1, 2))(1024) == 32
    assert exact.scaled_ceil_pow(1, Fr(1, 2))(1025) == 33
    assert exact.scaled_ceil_pow(1, Fr(1, 10))(128) == exact.ceil_pow(128, Fr(1, 10))
    for n in range(200):
        for q in (1, 2, 3, 7):
            r = exact._iroot(n, q)
            assert r**q <= n < (r + 1) ** q


def _newton_root(n, q):
    # _iroot as it was, Newton from 2**ceil(bits/q): the oracle
    if n < 2 or q == 1:
        return n
    r = 1 << -(-n.bit_length() // q)
    while True:
        t = ((q - 1) * r + n // r ** (q - 1)) // q
        if t >= r:
            return r
        r = t


def test_seeded_iroot_matches_newton_oracle():
    rng = random.Random(17)
    cases = []
    for _ in range(1500):
        q = rng.choice([2, 3, 5, rng.randint(2, 60), rng.randint(61, 2000)])
        n = rng.getrandbits(rng.choice([1, 8, 64, 65, 200, rng.randint(1, 3000)]))
        cases.append((n, q))
    for _ in range(300):
        q = rng.randint(2, 120)
        r = rng.choice([2, 3, rng.getrandbits(rng.randint(2, 100))]) | 2
        cases += [(r**q - 1, q), (r**q, q), (r**q + 1, q)]
    for n, q in cases:
        r = exact._iroot(n, q)
        assert r == _newton_root(n, q), (n, q)
        assert r**q <= n < (r + 1) ** q
    # delta = 37/1000 at a Gram denominator of 203 bits, where the oracle
    # takes seconds per root: the defining bounds decide it alone
    D = rng.getrandbits(203) | 1 << 202
    for s in (1, 2, 63, 64):
        n = D**1000 * s**37
        r = exact._iroot(n, 1000)
        assert r**1000 <= n < (r + 1) ** 1000


def test_bracket_roots_match_iroot_and_newton_oracle(monkeypatch):
    # a D**q of more than exact._BRACKET_BITS bits takes each root from a
    # decimal bracket, or from _iroot when the bracket holds an integer; both
    # views must be the roots of the Newton oracle
    found = []
    real = exact._bracket_floor

    def recorded(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(exact, "_bracket_floor", recorded)
    rng = random.Random(31)
    big = rng.getrandbits(203) | 1 << 202
    cases = []
    for _ in range(200):
        q = rng.randint(1, 300)
        cases.append((rng.choice([rng.randint(2, 10**30), big]),
                      Fr(rng.randint(0, 2 * q), q),
                      rng.choice([0, 1, rng.randint(2, 64), rng.randint(2, 5000)])))
    # exact powers: s = k**q makes D * s**(p/q) the integer D * k**p
    for _ in range(40):
        q = rng.choice([61, 67, 71, 73, 79, 83, 89, 97, 101, 103])
        cases.append((big, Fr(rng.randint(1, q - 1), q), rng.randint(2, 40) ** q))
    for D, delta, s in cases:
        p, q = delta.numerator, delta.denominator
        n = D**q * s**p
        r = _newton_root(n, q)
        assert exact.scaled_floor_pow(D, delta)(s) == r == exact._iroot(n, q)
        assert exact.scaled_ceil_pow(D, delta)(s) == r + (r**q != n)
    bracketed = len(found) - found.count(None)
    assert bracketed >= 100 and found.count(None) >= 80
    # delta 237/10000 at the 203-bit D, where the Newton oracle would take
    # minutes: _iroot and the defining bounds decide it
    n = big**10000 * 64**237
    r = exact.scaled_floor_pow(big, Fr(237, 10000))(64)
    assert found[-1] == r == exact._iroot(n, 10000)
    assert r**10000 <= n < (r + 1) ** 10000
    assert exact.scaled_ceil_pow(big, Fr(237, 10000))(64) == r + 1


def _loop_floor_pow(base, delta):
    # the linear scans floor_pow and ceil_pow once were: the oracle
    r = 0
    while exact.le_pow(r + 1, base, delta):
        r += 1
    return r


def _loop_ceil_pow(base, delta):
    c = 0
    while not exact.ge_pow(c, base, delta):
        c += 1
    return c


def test_scaled_floor_and_ceil_views_match_pow_tests():
    rng = random.Random(13)
    for _ in range(400):
        delta = Fr(rng.randint(0, 150), rng.randint(1, 100))
        D = rng.choice([1, 2, 12, rng.randint(1, 10**6)])
        s = rng.choice([0, 1, rng.randint(0, 64), rng.randint(0, 10**4)])
        f = exact.scaled_floor_pow(D, delta)(s)
        c = exact.scaled_ceil_pow(D, delta)(s)
        # one root: the views agree exactly when D * s**delta is an integer
        assert c == f + (not exact.ge_pow(Fr(f, D), s, delta))
        # x <= T[s] = floor(D s^delta) decides x / D <= s^delta: at the
        # edges x = T[s] and T[s] + 1, and at a random numerator
        for x in (f, f + 1, rng.randint(0, 2 * f + 8)):
            assert (x <= f) == exact.le_pow(Fr(x, D), s, delta)
        if D == 1 and s <= 4096 and delta <= 1:
            assert exact.floor_pow(s, delta) == f == _loop_floor_pow(s, delta)
            assert exact.ceil_pow(s, delta) == c == _loop_ceil_pow(s, delta)
    assert exact.scaled_floor_pow(5, Fr(1, 10))(0) == 0
    assert exact.scaled_floor_pow(5, 0)(0) == 5        # 0**0 == 1, as in le_pow
    assert exact.scaled_floor_pow(1, Fr(1, 2))(1023) == 31
    assert exact.scaled_floor_pow(1, Fr(1, 2))(1024) == 32


def test_qqi_real_scalar_path_matches_general_path():
    rng = random.Random(11)
    for _ in range(200):
        a = exact.QQi(Fr(rng.randint(-50, 50), rng.randint(1, 30)),
                      Fr(rng.randint(-50, 50), rng.randint(1, 30)))
        g = rng.choice([rng.randint(-9, 9) or 1,
                        Fr(rng.randint(-99, 99) or 1, rng.randint(1, 40))])
        G = exact.QQi(g, 0)
        for fast, general in ((a * g, a * G), (g * a, G * a), (a / g, a / G),
                              (a + g, a + G), (g + a, G + a),
                              (a - g, a - G), (g - a, G - a)):
            assert type(fast.re) is Fr and type(fast.im) is Fr
            assert (fast.re, fast.im) == (general.re, general.im)
    with pytest.raises(ZeroDivisionError):
        exact.QQi(1, 1) / 0
    with pytest.raises(ZeroDivisionError):
        exact.QQi(1, 1) / Fr(0)
    # each part is stored as lowest-terms ints with a positive denominator
    # and read back as an equal Fraction
    half = Fr(1, 2)
    q = exact.QQi(half, 3)
    assert q.re == half and type(q.re) is Fr and type(q.im) is Fr
    assert (q.rn, q.rd, q.in_, q.id_) == (1, 2, 3, 1)
    for re, im, parts in ((Fr(-6, -8), Fr(6, -8), (3, 4, -3, 4)),
                          (Fr(4, 2), -0.75, (2, 1, -3, 4)),
                          (0, Fr(0, -5), (0, 1, 0, 1))):
        q = exact.QQi(re, im)
        stored = (q.rn, q.rd, q.in_, q.id_)
        assert stored == parts and all(type(p) is int for p in stored)
        assert (q.re, q.im) == (Fr(re), Fr(im))


def test_qqi_abs_matches_fraction_oracle():
    import math

    rng = random.Random(13)
    for _ in range(2000):
        parts = [Fr(rng.randint(-10**rng.randint(0, 25), 10**rng.randint(0, 25)),
                    rng.randint(1, 10**rng.randint(0, 25))) for _ in range(2)]
        q = exact.QQi(*parts)
        assert abs(q) == math.sqrt(float(q.abs2()))


def test_qqi_arithmetic():
    a = exact.QQi(Fr(1, 2), Fr(-3, 4))
    b = exact.QQi(Fr(2), Fr(1, 3))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert a.conjugate().im == Fr(3, 4)
    assert a.abs2() == Fr(1, 4) + Fr(9, 16)
    assert exact.QQi(0, 0) == 0 and not exact.QQi(0, 0)
    assert 2 * a == exact.QQi(1, Fr(-3, 2))


# the (Fraction, Fraction) pair oracle of QQi: the plain complex-number
# formulas on Fraction parts


def _oracle(x):
    return (x.re, x.im) if isinstance(x, exact.QQi) else (Fr(x), Fr(0))


def _oracle_ops(a, b):
    (p, q), (r, s) = _oracle(a), _oracle(b)
    den = r * r + s * s
    return {"+": (p + r, q + s), "-": (p - r, q - s),
            "*": (p * r - q * s, p * s + q * r),
            "/": ((p * r + q * s) / den, (q * r - p * s) / den) if den else None}


def _random_part(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-10**30, 10**30)
    if kind == 2:
        return Fr(rng.randint(-10**30, 10**30), rng.randint(-10**30, 10**30) or 1)
    if kind == 3:
        return Fr(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == 4:
        return rng.choice([-1, 1]) * rng.randint(1, 10**6) / 2**rng.randint(0, 30)
    return Fr(rng.randint(-50, 50) * 6, -6)


def _assert_matches(q, want):
    re, im = want
    assert type(q) is exact.QQi
    assert (q.re, q.im) == (re, im)
    assert type(q.re) is Fr and type(q.im) is Fr
    stored = (q.rn, q.rd, q.in_, q.id_)
    assert stored == (re.numerator, re.denominator, im.numerator, im.denominator)
    assert all(type(p) is int for p in stored)


def test_qqi_matches_fraction_pair_oracle():
    import math

    import toruskit.homological as hom

    rng = random.Random(39)
    for _ in range(1500):
        a = exact.QQi(_random_part(rng), _random_part(rng))
        b = exact.QQi(_random_part(rng), _random_part(rng))
        s = _random_part(rng)
        s = s if not isinstance(s, float) else Fr(s)
        re, im = _oracle(a)
        _assert_matches(a, (re, im))
        # the general operators, and the real-scalar paths both ways round
        for x, y in ((a, b), (a, s), (s, a)):
            want = _oracle_ops(x, y)
            _assert_matches(x + y, want["+"])
            _assert_matches(x - y, want["-"])
            _assert_matches(x * y, want["*"])
            if not isinstance(x, exact.QQi):
                continue  # QQi defines no reflected division
            if want["/"] is None:
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                _assert_matches(x / y, want["/"])
        _assert_matches(-a, (-re, -im))
        _assert_matches(a.conjugate(), (re, -im))
        assert a.abs2() == re * re + im * im
        assert abs(a) == math.sqrt(float(re * re + im * im))
        assert bool(a) == (re != 0 or im != 0)
        # equal values, however they were built, compare and hash equal
        same = (a + b) - b
        assert same == a and hash(same) == hash(a)
        assert -(-a) == a and hash(-(-a)) == hash(a)
        # the same numerators over other denominators are other values
        for c in (b, exact.QQi(Fr(re.numerator, re.denominator + 1), im),
                  exact.QQi(re, Fr(im.numerator, im.denominator + 1))):
            assert (a == c) == (_oracle(a) == _oracle(c))
        assert (a == s) == (_oracle(a) == _oracle(s))
        assert (a != s) == (_oracle(a) != _oracle(s))
        if not im:
            assert a == re and a == exact.QQi(re) and hash(a) == hash(exact.QQi(re))
        assert hom._value_parts(a) == (exact.format_rational(re),
                                       exact.format_rational(im))


def test_merge_intervals_and_measure():
    ivs = [(Fr(0), Fr(1)), (Fr(1, 2), Fr(3, 4)), (Fr(2), Fr(3)), (Fr(3), Fr(4))]
    merged = exact.merge_intervals(ivs)
    assert merged == [(Fr(0), Fr(1)), (Fr(2), Fr(4))]
    assert exact.intervals_measure(merged) == Fr(3)
    assert exact.merge_intervals([]) == []


# ---------------------------------------------------------------------------
# the integer (Bareiss) kernel against the field-elimination oracle:
# plain Gaussian elimination over the entries' own field, run on Fractions


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


def submatrix(M, rows, cols):
    return [[M[r][c] for c in cols] for r in rows]


def as_fractions(M):
    return [[Fr(x) for x in row] for row in M]


def random_matrix(rng, p, q, kind, rank=None):
    """Seeded p x q int or Fraction matrix, about a third of it zeros.

    With ``rank`` the matrix is a product of p x rank and rank x q factors,
    so it is singular or rank-deficient whenever rank < min(p, q).
    """
    def entry():
        if rng.random() < 0.3:
            return 0 if kind == "int" else Fr(0)
        if kind == "int":
            return rng.randint(-6, 6)
        return Fr(rng.randint(-6, 6), rng.randint(1, 5))

    if rank is None:
        return [[entry() for _ in range(q)] for _ in range(p)]
    left = [[entry() for _ in range(rank)] for _ in range(p)]
    right = [[entry() for _ in range(q)] for _ in range(rank)]
    zero = 0 if kind == "int" else Fr(0)
    return [[sum((left[i][t] * right[t][j] for t in range(rank)), zero)
             for j in range(q)] for i in range(p)]


def seeded_cases(seed, trials, square):
    """(kind, matrix) pairs for n = 0..7, full-rank and rank-capped."""
    rng = random.Random(seed)
    for _ in range(trials):
        for n in range(8):
            p, q = (n, n) if square else (n, rng.randint(0, 7))
            for kind in ("int", "frac"):
                rank = rng.choice([None, rng.randint(0, max(min(p, q) - 1, 0))])
                yield kind, random_matrix(rng, p, q, kind, rank)


def test_det_matches_field_oracle():
    singular = 0
    for _, M in seeded_cases(11, 6, square=True):
        want = _field_det(as_fractions(M))
        assert exact.det(M) == want
        singular += want == 0
    assert singular > 10


def test_rank_matches_field_oracle_on_rectangular_input():
    deficient = 0
    for _, M in seeded_cases(12, 6, square=False):
        want = _field_mat_rank(as_fractions(M)) if M else 0
        assert exact.mat_rank(M) == want
        deficient += bool(M) and want < min(len(M), len(M[0]))
    assert deficient > 10


def test_inverse_matches_field_oracle():
    raised = 0
    for _, M in seeded_cases(13, 6, square=True):
        try:
            want = _field_mat_inverse(as_fractions(M))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                exact.mat_inverse(M)
            raised += 1
            continue
        assert exact.mat_inverse(M) == want
    assert raised > 10


def test_compound_matches_per_minor_oracle_on_rectangular_input():
    rng = random.Random(14)
    for _ in range(40):
        p, q = rng.randint(1, 7), rng.randint(1, 7)
        kind = rng.choice(["int", "frac"])
        rank = rng.choice([None, rng.randint(0, min(p, q))])
        M = random_matrix(rng, p, q, kind, rank)
        F = as_fractions(M)
        for g in range(min(p, q) + 1):
            want = [[_field_det(submatrix(F, rs, cs))
                     for cs in itertools.combinations(range(q), g)]
                    for rs in itertools.combinations(range(p), g)]
            assert exact.compound(M, g) == want


def test_mat_mul_matches_field_oracle():
    rng = random.Random(15)
    for _ in range(60):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        A = random_matrix(rng, n, k, rng.choice(["int", "frac"]))
        B = random_matrix(rng, k, m, rng.choice(["int", "frac"]))
        assert exact.mat_mul(A, B) == _field_mat_mul(as_fractions(A),
                                                           as_fractions(B))


def _loop_mat_vec(M, v):
    # mat_vec before the cleared-integer path: the oracle
    return [sum(row[t] * v[t] for t in range(len(v))) for row in M]


def test_mat_vec_matches_loop_oracle():
    rng = random.Random(19)
    for _ in range(80):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["int", "frac", "float"])
        M = random_matrix(rng, n, k, "int" if kind == "int" else "frac")
        if kind == "float":
            M = [[float(x) + 0.25 for x in row] for row in M]
        v = [row[0] for row in random_matrix(rng, k, 1, rng.choice(["int", "frac"]))]
        if kind == "float":
            with pytest.raises(TypeError):
                exact.mat_vec(M, v)
            continue
        got, want = exact.mat_vec(M, v), _loop_mat_vec(M, v)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
    assert exact.mat_vec([[1, 2], [3, 4]], []) == [0, 0]
    assert exact.mat_vec([], [1, 2]) == []


def test_return_types_are_pinned():
    i2 = [[2, 1], [1, 3]]
    i3 = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    s3 = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]

    def halves(M):
        return [[Fr(x, 2) for x in row] for row in M]

    def floats(M):
        return [[x + 0.25 for x in row] for row in M]

    def types(M):
        return {type(x) for row in M for x in row}

    # all-int input gives ints at every order, any Fraction gives Fractions
    assert type(exact.det([])) is int and exact.det([]) == 1
    assert type(exact.det([[5]])) is int
    assert type(exact.det(i2)) is int
    assert type(exact.det(i3)) is int
    assert type(exact.det(s3)) is int and exact.det(s3) == 0
    for M in (i2, i3, s3):
        assert type(exact.det(halves(M))) is Fr
        for arg in (M, halves(M)):
            assert type(exact.mat_rank(arg)) is int
    assert types(exact.mat_inverse(i3)) == {Fr}
    assert types(exact.mat_inverse(halves(i3))) == {Fr}
    assert [types(exact.compound(i3, g)) for g in range(4)] == [
        {int}, {int}, {int}, {int}]
    assert types(exact.compound(s3, 3)) == {int}
    assert [types(exact.compound(halves(i3), g)) for g in range(4)] == [
        {Fr}, {Fr}, {Fr}, {Fr}]
    assert types(exact.mat_mul(i3, i3)) == {int}
    assert types(exact.mat_mul(halves(i3), halves(i3))) == {Fr}
    assert types(exact.mat_mul(i3, halves(i3))) == {Fr}
    # a float entry is refused at every order, one float among Fractions too
    mixed = halves(i3)
    mixed[2][0] = 0.5
    for M in (floats([[5]]), floats(i2), floats(i3), mixed):
        for call in (exact.det, exact.mat_rank, exact.mat_inverse,
                     lambda A: exact.compound(A, 1),
                     lambda A: exact.mat_mul(A, A),
                     lambda A: exact.mat_mul(i3[:len(A[0])], A)):
            with pytest.raises(TypeError, match="int or Fraction"):
                call(M)


@pytest.mark.parametrize("v,want", [((), 0), ([], 0), ((0,), 0), ([-7], 7),
                                    ((3, -9, 4), 9), ([-2, -2], 2),
                                    ((Fr(-5, 2), 1), Fr(5, 2)),
                                    ((-(10**30), 5), 10**30)])
def test_sup_norm(v, want):
    assert exact.sup_norm(v) == want


@pytest.mark.parametrize("call", [lambda: exact.floor_pow(128, 0.1),
                                  lambda: exact.ceil_pow(128, 0.1),
                                  lambda: exact.scaled_floor_pow(3, 0.1)],
                         ids=["floor_pow", "ceil_pow", "scaled_floor_pow"])
def test_exact_roots_name_the_delta_rule(call):
    with pytest.raises(TypeError, match=r"delta 0\.1: .*int or Fraction"):
        call()
