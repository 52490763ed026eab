"""The minor identities on integers against their Fraction formulas.

``gram_det_identity`` and ``chain_det_identity`` run on the dual image
``W = A / c`` and the integer Gram form, and compare cross-multiplied
integers.  The oracles below are the plain Fraction formulas of both
identities; every returned field must equal theirs in value and in type.
The planted faults show that no check of the ``verify`` kind can pass
vacuously.
"""

import dataclasses
import math
import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from toruskit import exact, runner
from toruskit.config import normalize
from toruskit.errors import SingularGenerators
from toruskit.lattice import GramIdentity, gram_det_identity, new_lattice
from toruskit.spacetime import (
    _LAMBDAS,
    ChainBilinearData,
    ChainDetIdentity,
    FrequencyParams,
    chain_det_identity,
)


def w_product(basis, y, y2):
    # <W y, W y2> through the Fraction entries of W
    W = basis.W_rows()
    return exact.dot(exact.mat_vec(W, list(y)), exact.mat_vec(W, list(y2)))


def oracle_gram_det_identity(basis, fs):
    vecs = [list(map(int, f)) for f in fs]
    g, d = len(vecs), basis.d
    F_cols = exact.mat_transpose(vecs)
    gram = [[w_product(basis, vecs[i], vecs[l]) for l in range(g)]
            for i in range(g)]
    p = [exact.det([F_cols[r] for r in sel])
         for sel in combinations(range(d), g)]
    cw = exact.compound(basis.W_rows(), g)
    frob = exact.frobenius_sq(exact.compound(basis.W_inverse_rows(), g))
    return GramIdentity(det=exact.det(gram), p=tuple(p),
                        image_norm_sq=exact.norm_sq(exact.mat_vec(cw, p)),
                        lower_bound=exact.norm_sq(p) / frob)


def oracle_chain_det_identity(data):
    basis, params, g = data.basis, data.params, data.g
    d, n = basis.d, params.n
    K_cols = exact.mat_transpose([list(k) for k in data.k_vectors])
    if g <= d:
        p = tuple(int(exact.det([K_cols[r] for r in sel]))
                  for sel in combinations(range(d), g))
        cw = exact.compound(basis.W_rows(), g)
        eta = exact.norm_sq(exact.mat_vec(cw, list(p)))
    else:
        p, eta = (), Fr(0)
    m_coeffs = []
    for sel in combinations(range(d), g - 1):
        block = [[data.k_vectors[i][c] for c in sel] for i in range(g)]
        m_vec = [0] * n
        for i in range(g):
            minor = [row for t, row in enumerate(block) if t != i]
            cof = int(exact.det(minor)) * (-1) ** i
            for t in range(n):
                m_vec[t] += cof * data.l_vectors[i][t]
        m_coeffs.append(tuple(m_vec))
    omega_x_m = [sum(w * x for w, x in zip(params.omega_bar, mv))
                 for mv in m_coeffs]
    cw1 = exact.compound(basis.W_rows(), g - 1)
    zeta = exact.norm_sq(exact.mat_vec(cw1, omega_x_m))
    assert all(data.det_A(lam) == eta - lam * lam * zeta for lam in _LAMBDAS)
    S, R = data.S_bar(), data.R()
    gram = exact.det([[R[i][l] + S[i][l] for l in range(g)] for i in range(g)])
    max_l = max(exact.sup_norm(l) for l in data.l_vectors)
    max_k = max(exact.sup_norm(k) for k in data.k_vectors)
    limit = g * math.factorial(g - 1) * max_l * max_k ** (g - 1)
    return ChainDetIdentity(
        p=p, m_coeffs=tuple(m_coeffs), eta=eta, zeta=zeta,
        gram_positive=gram > 0, m_bound_limit=limit,
        m_bound_ok=all(exact.sup_norm(mv) <= limit for mv in m_coeffs))


def typed(x):
    # a value with the type of every entry, tuples entered
    if isinstance(x, tuple):
        return tuple(typed(y) for y in x)
    return type(x).__name__, x


def assert_same_fields(got, want):
    for field in dataclasses.fields(want):
        name = field.name
        assert typed(getattr(got, name)) == typed(getattr(want, name)), name


def random_basis(rng, d, num=5, den=3):
    while True:
        try:
            return new_lattice([[Fr(rng.randint(-num, num), rng.randint(1, den))
                                 for _ in range(d)] for _ in range(d)])
        except SingularGenerators:
            continue


def independent_vectors(rng, d, g):
    while True:
        fs = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(g)]
        if exact.mat_rank([list(f) for f in fs]) == g:
            return fs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gram_identity_matches_fraction_oracle(d):
    rng = random.Random(100 + d)
    for trial in range(4):
        basis = random_basis(rng, d, *((5, 3) if trial % 2 else (40, 12)))
        for g in range(1, d + 1):
            fs = independent_vectors(rng, d, g)
            assert_same_fields(gram_det_identity(basis, fs),
                               oracle_gram_det_identity(basis, fs))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_chain_identity_matches_fraction_oracle(d):
    rng = random.Random(200 + d)
    for trial in range(3):
        basis = random_basis(rng, d, *((5, 3) if trial % 2 else (40, 12)))
        for g in range(1, d + 2):
            n = rng.randint(1, 3)
            raw = [Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            total = sum(abs(x) for x in raw) + Fr(rng.randint(1, 5), 3)
            params = FrequencyParams(n=n, omega_bar=tuple(x / total for x in raw),
                                     gamma0=Fr(1, 100), tau0=Fr(n), lam=Fr(1),
                                     theta=Fr(0), mass=Fr(1))
            ls = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(g)]
            ks = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(g)]
            data = ChainBilinearData(basis=basis, params=params,
                                     l_vectors=tuple(ls), k_vectors=tuple(ks))
            assert_same_fields(chain_det_identity(data),
                               oracle_chain_det_identity(data))


def test_derived_gram_is_the_lowest_terms_of_w_product():
    # G / D from the dual image equals W^T W over the lcm of its
    # denominators, on bases with negative and large entries
    rng = random.Random(7)
    bases = [random_basis(rng, d, 10**12, 10**9) for d in (1, 2, 3, 4)
             for _ in range(3)]
    bases += [new_lattice([[-1, 0], [0, -1]]),
              new_lattice([["-3/7", "1"], ["5", "-2/9"]]),
              new_lattice([["123456789012345678/7", "-1"],
                           ["-98765432109876543", "1/3"]])]
    for basis in bases:
        W = basis.W_rows()
        WtW = [[sum(a * b for a, b in zip(u, v)) for v in zip(*W)]
               for u in zip(*W)]
        D = math.lcm(*(x.denominator for row in WtW for x in row))
        G = tuple(tuple(int(x * D) for x in row) for row in WtW)
        assert basis.gram == (G, D)
        assert all(type(x) is int for row in basis.gram[0] for x in row)
        A, c = basis.image
        assert c > 0 and math.gcd(c, *(x for row in A for x in row)) == 1
        assert all(Fr(x, c) == w for row, wrow in zip(A, W)
                   for x, w in zip(row, wrow))


# ---------------------------------------------------------------------------
# planted faults: every check of the verify kind can fail


CHECKS = ("compound_inverse_identity", "cauchy_binet_matches_direct_determinant",
          "gram_determinant_minor_identity",
          "chain_determinant_identity_and_m_bound")


def failing_checks(tmp_path):
    config = normalize({"kind": "verify", "seed": 5, "out_dir": str(tmp_path),
                        "params": {"d_min": 1, "d_max": 4, "trials_compound": 8,
                                   "trials_cauchy_binet": 8, "trials_gram": 8,
                                   "trials_chain_det": 8}})
    report = runner.run_experiment(config)
    return {c["name"] for c in report.body["checks"] if not c["passed"]}


def off_by_one_compound(monkeypatch):
    real = exact._int_compound

    def planted(A, g):
        rows = real(A, g)
        if rows and rows[0]:
            rows[0][0] += 1
        return rows

    monkeypatch.setattr(exact, "_int_compound", planted)


def flipped_image_sign(monkeypatch):
    # the Gram form is taken from the true image, then one nonzero entry of
    # the cached image changes sign
    real = runner.new_lattice

    def planted(V):
        basis = real(V)
        A, c = basis.image
        i, j = next((i, j) for i, row in enumerate(A)
                    for j, x in enumerate(row) if x)
        A = [list(row) for row in A]
        A[i][j] = -A[i][j]
        flipped = dataclasses.replace(basis, image=(A, c))
        flipped.__dict__["gram"] = basis.gram
        return flipped

    monkeypatch.setattr(runner, "new_lattice", planted)


def wrong_minor_sum(monkeypatch):
    real = runner.cauchy_binet_det
    monkeypatch.setattr(runner, "cauchy_binet_det",
                        lambda M, N: real(M, N) + 1)


def wrong_gram_det(monkeypatch):
    # an identity whose two sides agree but whose det is off by one unit
    # of its denominator: only the runner's direct W product sees it
    real = runner.gram_det_identity

    def planted(basis, fs):
        ident = real(basis, fs)
        return dataclasses.replace(ident, det=ident.det
                                   + Fr(1, ident.det.denominator))

    monkeypatch.setattr(runner, "gram_det_identity", planted)


# each of the four checks is in the failing set of some fault
@pytest.mark.parametrize("plant, failing", [
    (off_by_one_compound, {CHECKS[0], CHECKS[1], CHECKS[2], CHECKS[3]}),
    (flipped_image_sign, {CHECKS[2], CHECKS[3]}),
    (wrong_minor_sum, {CHECKS[1]}),
    (wrong_gram_det, {CHECKS[2]}),
])
def test_planted_fault_fails_its_checks(tmp_path, monkeypatch, plant, failing):
    assert failing_checks(tmp_path / "clean") == set()
    plant(monkeypatch)
    assert failing_checks(tmp_path / "planted") == failing


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_random_rational_matrix_is_the_cleared_fraction_draw(d):
    # the draw of Fraction(randint(-5, 5), randint(1, 3)) per entry, cleared
    # by exact._clear: the same integers, and the generator left in the
    # same state
    for seed in range(40):
        rng, fractions = random.Random(seed), random.Random(seed)
        drawn = [[Fr(fractions.randint(-5, 5), fractions.randint(1, 3))
                  for _ in range(d)] for _ in range(d)]
        assert runner._random_rational_matrix(rng, d) == \
            tuple(exact._clear(drawn)[:2])
        assert rng.getstate() == fractions.getstate()
