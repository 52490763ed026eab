"""Lattice bases, quadratic form, compound and Gram determinant identities."""

import random
from fractions import Fraction as Fr

import pytest

from toruskit import exact
from toruskit.errors import (
    DependentVectors,
    DimensionMismatch,
    InvalidOrder,
    ShapeMismatch,
    SingularGenerators,
)
from toruskit.lattice import (
    bilinear,
    cauchy_binet_det,
    compound_matrix,
    gram_det_identity,
    gram_numerators,
    mu,
    new_lattice,
)


def random_basis(rng, d):
    while True:
        try:
            return new_lattice([[Fr(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(d)] for _ in range(d)])
        except SingularGenerators:
            continue


def test_identity_lattice():
    b = new_lattice([[1, 0], [0, 1]])
    assert b.W == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))


def test_diagonal_lattice_dualizes_lengths():
    # generators of lengths (2, 5) dualize to diag(1/2, 1/5)
    b = new_lattice([["2", "0"], ["0", "5"]])
    assert b.W == ((Fr(1, 2), Fr(0)), (Fr(0), Fr(1, 5)))


def test_repeated_column_is_singular():
    with pytest.raises(SingularGenerators):
        new_lattice([[1, 1], [2, 2]])


def test_floating_mode_singularity():
    # float generators are read as their decimals, so singularity is the
    # exact determinant's: 1.0000000000001 leaves det = 1/10**13, not 0
    near = new_lattice([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert near.V[1][1] == Fr(10**13 + 1, 10**13)
    assert exact.det(near.V_rows()) == Fr(1, 10**13)
    with pytest.raises(SingularGenerators):
        new_lattice([[1.0, 2.0], [0.5, 1.0]])
    b = new_lattice([[1.0, 0.0], [0.0, 2.0]])
    assert b.W[1][1] == Fr(1, 2)


def test_mu_values():
    b = new_lattice([[1, 0], [0, 1]])
    assert mu(b, (3, 4)) == 25
    assert mu(b, (0, 0)) == 0
    # dual weights (1, 1/2): mu(2,2) = 4 + 1
    rect = new_lattice([["1", "0"], ["0", "2"]])
    assert mu(rect, (2, 2)) == 5
    with pytest.raises(DimensionMismatch):
        mu(b, (1, 2, 3))


def test_bilinear_properties():
    b = new_lattice([[1, 0], [0, 1]])
    assert bilinear(b, (1, 0), (0, 1)) == 0
    assert bilinear(b, (3, 4), (3, 4)) == mu(b, (3, 4))
    rng = random.Random(0)
    for _ in range(30):
        basis = random_basis(rng, rng.randint(2, 4))
        d = basis.d
        y = [rng.randint(-6, 6) for _ in range(d)]
        y2 = [rng.randint(-6, 6) for _ in range(d)]
        W = basis.W_rows()
        direct = sum(a * b2 for a, b2 in zip(exact.mat_vec(W, y),
                                             exact.mat_vec(W, y2)))
        assert bilinear(basis, y, y2) == direct
        assert bilinear(basis, y, y2) == bilinear(basis, y2, y)


def sheared_basis(rng, d):
    # unit diagonal, rational entries above it: det 1, W far from diagonal
    return new_lattice([[1 if i == k else
                         Fr(rng.randint(-7, 7), rng.randint(1, 5)) if k > i
                         else 0 for k in range(d)] for i in range(d)])


def test_gram_form_matches_w_product_oracle():
    # mu and bilinear run on the cached integer Gram form; the oracle is
    # the plain Fraction product through W
    rng = random.Random(17)
    bases = [b for d in range(1, 5) for _ in range(6)
             for b in (random_basis(rng, d), sheared_basis(rng, d))]
    for basis in bases:
        W = basis.W_rows()
        G, D = basis.gram
        assert all(isinstance(x, int) for row in G for x in row)
        vecs = [[0] * basis.d, [-1] * basis.d]
        vecs += [[rng.randint(-9, 9) for _ in range(basis.d)]
                 for _ in range(12)]
        for j in vecs:
            assert mu(basis, j) == exact.norm_sq(exact.mat_vec(W, j))
            assert isinstance(mu(basis, j), Fr)
        for y, y2 in zip(vecs, vecs[1:] + vecs[:1]):
            oracle = exact.dot(exact.mat_vec(W, y), exact.mat_vec(W, y2))
            assert bilinear(basis, y, y2) == oracle
            assert isinstance(bilinear(basis, y, y2), Fr)
    with pytest.raises(DimensionMismatch):
        bilinear(bases[0], (1,), (1, 2))
    # zip would cut the longer vector short without a word
    d = bases[0].d
    with pytest.raises(DimensionMismatch):
        gram_numerators(bases[0], [(1,) * d, (1,) * (d + 1)])


def test_floating_basis_keeps_w_product():
    # a basis typed in floats is the exact basis of their decimals: the
    # same basis as the decimal strings, with the W product's exact values
    basis = new_lattice([[1.0, 0.3, -0.2], [0.1, 1.7, 0.4], [-0.5, 0.25, 1.3]])
    assert basis == new_lattice([["1", "0.3", "-0.2"], ["0.1", "1.7", "0.4"],
                                 ["-0.5", "0.25", "1.3"]])
    W = basis.W_rows()
    for j in ((0, 0, 0), (3, -4, 1), (-2, 5, 7)):
        assert mu(basis, j) == exact.norm_sq(exact.mat_vec(W, list(j)))
        assert bilinear(basis, j, (1, 2, 0)) == exact.dot(
            exact.mat_vec(W, list(j)), exact.mat_vec(W, [1, 2, 0]))
    for fs in ([(1, 0, 2)], [(1, 2, 0), (0, -1, 3)],
               [(1, 2, 0), (0, -1, 3), (2, 1, 1)]):
        ident = gram_det_identity(basis, fs)
        assert ident.det == ident.image_norm_sq >= ident.lower_bound > 0
        assert ident.det == exact.det([[bilinear(basis, a, b) for b in fs]
                                       for a in fs])


def test_mu_positive_exactly_off_zero():
    rng = random.Random(9)
    for _ in range(20):
        basis = random_basis(rng, rng.randint(1, 4))
        j = [0] * basis.d
        assert mu(basis, j) == 0
        while not any(j):
            j = [rng.randint(-5, 5) for _ in range(basis.d)]
        assert mu(basis, j) > 0


def test_mu_comparable_to_euclidean_norm():
    # |j| <= |W^-1|_F |W j| and |W j| <= |W|_F |j|, exactly
    rng = random.Random(1)
    for _ in range(10):
        basis = random_basis(rng, 3)
        c = 1 / exact.frobenius_sq(basis.W_inverse_rows())
        C = exact.frobenius_sq(basis.W_rows())
        for _ in range(20):
            j = [rng.randint(-9, 9) for _ in range(3)]
            n2 = sum(x * x for x in j)
            assert c * n2 <= mu(basis, j) <= C * n2


def test_compound_matrix_basics():
    M = [[Fr(1), Fr(2)], [Fr(3), Fr(4)]]
    assert compound_matrix(M, 1) == M
    assert compound_matrix(M, 2) == [[Fr(-2)]]
    with pytest.raises(InvalidOrder):
        compound_matrix(M, 0)
    with pytest.raises(InvalidOrder):
        compound_matrix(M, 3)


def test_compound_inverse_identity():
    rng = random.Random(2)
    for _ in range(20):
        d = rng.randint(2, 5)
        basis = random_basis(rng, d)
        W = basis.W_rows()
        Winv = exact.mat_inverse(W)
        for g in range(1, d + 1):
            prod = exact.mat_mul(compound_matrix(W, g), compound_matrix(Winv, g))
            assert prod == [[int(i == k) for k in range(len(prod))]
                            for i in range(len(prod))]


def test_cauchy_binet_against_direct():
    assert cauchy_binet_det([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == 1
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 6)
        g = rng.randint(1, d)
        M = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(g)]
        N = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(d)]
        assert cauchy_binet_det(M, N) == exact.det(exact.mat_mul(M, N))
    # g = d reduces to the product rule
    M = [[1, 2], [3, 5]]
    N = [[2, 0], [1, 1]]
    assert cauchy_binet_det(M, N) == exact.det(M) * exact.det(N)
    with pytest.raises(ShapeMismatch):
        cauchy_binet_det([[1, 2, 3]], [[1], [2]])


def test_gram_identity_standard_frame():
    b = new_lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = gram_det_identity(b, [(1, 0, 0), (0, 1, 0)])
    assert res.det == 1
    assert sum(1 for x in res.p if x != 0) == 1
    assert abs(res.p[0]) == 1


def test_gram_identity_against_brute_force():
    rng = random.Random(4)
    for _ in range(60):
        d = rng.randint(2, 5)
        g = rng.randint(1, d)
        basis = random_basis(rng, d)
        fs = []
        while len(fs) < g:
            cand = tuple(rng.randint(-4, 4) for _ in range(d))
            if exact.mat_rank([list(f) for f in fs + [cand]]) == len(fs) + 1:
                fs.append(cand)
        res = gram_det_identity(basis, fs)
        brute = exact.det([[bilinear(basis, a, b) for b in fs] for a in fs])
        assert res.det == brute
        assert res.det == res.image_norm_sq
        assert any(x != 0 for x in res.p)
        assert res.det >= res.lower_bound > 0


def test_gram_identity_rejects_dependent():
    b = new_lattice([[1, 0], [0, 1]])
    with pytest.raises(DependentVectors):
        gram_det_identity(b, [(1, 1), (1, 1)])
    with pytest.raises(DependentVectors):
        gram_det_identity(b, [(1, 0), (0, 1), (1, 1)])
