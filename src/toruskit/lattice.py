"""Flat-torus lattice geometry: dual bases, quadratic forms, minor identities.

The central objects are a generator matrix ``V`` (columns generate the
lattice), its inverse-transpose ``W``, and the quadratic form
``mu(j) = |W j|^2`` whose values are the Laplacian eigenvalues of the torus.
An exact basis caches its dual matrix once as the dual image ``W = A / c``,
integer rows ``A`` over one positive denominator ``c`` in lowest terms, from
the one Gauss-Jordan elimination of ``V`` that also tests it for
singularity; the integer Gram form ``W^T W = G / D`` is derived from it.
The minor identities run on these integers and compare cross-multiplied
integers, so a Fraction is built only for a parsed generator entry, the
``W`` entries and a returned field.  Every basis is exact: a float generator
entry is read as its decimal (:func:`toruskit.exact.parse_rational`), so a
torus typed in decimals is the exact torus of those decimals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exact
from .errors import (
    DependentVectors,
    DimensionMismatch,
    IdentityViolation,
    InvalidOrder,
    ShapeMismatch,
    SingularGenerators,
)


@dataclass(frozen=True)
class LatticeBasis:
    """Generator matrix V (columns are the generators) and dual matrix W = V^{-T}.

    ``image`` is the dual image ``(A, c)`` with ``W = A / c``: integer rows
    and a positive denominator in lowest terms.
    """

    d: int
    V: tuple
    W: tuple
    image: tuple

    def V_rows(self):
        return [list(r) for r in self.V]

    def W_rows(self):
        return [list(r) for r in self.W]

    def W_inverse_rows(self):
        # W^{-1} = V^T, no extra inversion needed
        return exact.mat_transpose(self.V_rows())

    @cached_property
    def gram(self):
        """Integer Gram form ``(G, D)`` of the basis: ``W^T W = G / D``.

        ``G = A^T A / k`` and ``D = c^2 / k`` from the dual image, with ``k``
        the common factor of ``c^2`` and the entries of ``A^T A``, so ``D`` is
        the least common denominator of ``W^T W``; computed once per
        instance.
        """
        A, c = self.image
        cols = list(zip(*A))
        AtA = [[sum(map(operator.mul, u, v)) for v in cols] for u in cols]
        return _lowest_terms(AtA, c * c)


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def _lowest_terms(rows, den):
    """The integer rows over ``den`` as ``(rows, den)`` in lowest terms:
    ``den > 0`` and no factor > 1 divides ``den`` and every entry."""
    k = math.gcd(den, *(x for row in rows for x in row))
    if den < 0:
        k = -k
    return tuple(tuple(x // k for x in row) for row in rows), den // k


def new_lattice(V) -> LatticeBasis:
    """Build a lattice basis from a square matrix of generator columns.

    ``V`` is given as rows (row-major); entries may be ints, Fractions,
    "num/den" strings or decimals, a float read as its decimal.  Raises
    SingularGenerators when the generators are linearly dependent.
    """
    rows = [list(r) for r in V]
    d = len(rows)
    if d == 0 or any(len(r) != d for r in rows):
        raise ShapeMismatch("generator matrix must be square and nonempty")
    rows = [[exact.parse_rational(x, f"V[{i}][{j}]") for j, x in enumerate(r)]
            for i, r in enumerate(rows)]
    cleared, D, _ = exact._clear(rows)                      # V = cleared / D
    inverse = exact._int_inverse(cleared)
    if inverse is None:
        raise SingularGenerators("generator matrix has zero determinant")
    # V^-1 = D R / c, so W = V^-T has the integer rows D R^T over c
    R, c = inverse
    image = _lowest_terms([[D * x for x in col] for col in zip(*R)], c)
    A, c = image
    W = [[Fraction(x, c) for x in row] for row in A]
    return LatticeBasis(d=d, V=_freeze(rows), W=_freeze(W), image=image)


def _check_dim(basis: LatticeBasis, v, name: str = "j") -> None:
    if len(v) != basis.d:
        raise DimensionMismatch(
            f"{name} has length {len(v)}, lattice dimension is {basis.d}")


def _gram_int(G, y, y2) -> int:
    # y^T G y2 over Python ints: the one kernel behind mu, bilinear and
    # mu_numerator
    return sum(a * sum(map(operator.mul, row, y2)) for a, row in zip(y, G))


def _gram_form(gram, y, y2):
    G, D = gram
    return Fraction(_gram_int(G, y, y2), D)


def mu(basis: LatticeBasis, j):
    """Laplacian eigenvalue of integer mode j: squared euclidean length of W j,
    ``j^T G j / D`` from :attr:`LatticeBasis.gram`."""
    _check_dim(basis, j)
    return _gram_form(basis.gram, j, j)


def mu_numerator(basis: LatticeBasis, j) -> int:
    """Integer numerator ``n_j = j^T G j``: ``mu(j) = n_j / D`` with
    ``(G, D)`` :attr:`LatticeBasis.gram`."""
    _check_dim(basis, j)
    return _gram_int(basis.gram[0], j, j)


def bilinear(basis: LatticeBasis, y, y2):
    """Scalar product <W y, W y2> of integer vectors; polarization of :func:`mu`."""
    _check_dim(basis, y, "y")
    _check_dim(basis, y2, "y2")
    return _gram_form(basis.gram, y, y2)


def gram_numerators(basis: LatticeBasis, vecs):
    """Gram matrix of integer vectors as ``(N, D)``: ``<W y_i, W y_l> = N[i][l] / D``
    with ``N`` the integers ``y_i^T G y_l`` of :attr:`LatticeBasis.gram`."""
    for y in vecs:
        _check_dim(basis, y)
    G, D = basis.gram
    Gy = [[sum(map(operator.mul, row, y2)) for row in G] for y2 in vecs]
    return [[sum(map(operator.mul, y, v)) for v in Gy] for y in vecs], D


def compound_matrix(M, g: int):
    """g-th compound: all g x g minors, indexed by increasing tuples (lex).

    Entry at (row tuple a, column tuple b) is the determinant of the
    submatrix of M with rows a and columns b.
    """
    rows = [list(r) for r in M]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatch("compound_matrix needs a rectangular matrix")
    p, q = len(rows), len(rows[0])
    if not 1 <= g <= min(p, q):
        raise InvalidOrder(f"order {g} outside 1..{min(p, q)}")
    return exact.compound(rows, g)


def cauchy_binet_det(M, N):
    """det(M N) via the sum over g-minors; independent of direct evaluation.

    M is g x d and N is d x g with g <= d.  With ``M = A / a`` and
    ``N = B / b`` cleared, the sum runs over the integer minors of
    :func:`toruskit.exact._int_compound` and is one Fraction over
    ``(a b)^g``.
    """
    Mr = [list(r) for r in M]
    Nr = [list(r) for r in N]
    if not Mr or not Nr:
        raise ShapeMismatch("empty factor")
    g, d = len(Mr), len(Mr[0])
    if len(Nr) != d or any(len(r) != g for r in Nr) or any(len(r) != d for r in Mr):
        raise ShapeMismatch(f"incompatible shapes {g}x{d} and {len(Nr)}x{len(Nr[0])}")
    if g > d:
        raise ShapeMismatch("needs g <= d")
    A, a, _ = exact._clear(Mr)
    B, b, _ = exact._clear(Nr)
    # C_g(A) is one row, C_g(B) one column, both over the g-subsets of range(d)
    total = sum(map(operator.mul, exact._int_compound(A, g)[0],
                    (row[0] for row in exact._int_compound(B, g))))
    return Fraction(total, (a * b) ** g)


@dataclass(frozen=True)
class GramIdentity:
    """Result of the Gram-determinant minor identity for integer vectors."""

    det: object               # Gram determinant under bilinear(.,.)
    p: tuple                  # integer minor vector, length C(d, g)
    image_norm_sq: object     # |C_g(W) p|^2, equals det exactly
    lower_bound: object       # certified positive floor |p|^2 / frob(C_g(W^-1))^2


def gram_det_identity(basis: LatticeBasis, fs) -> GramIdentity:
    """Gram determinant of integer vectors against the minor-vector identity.

    Returns the determinant of the Gram matrix of ``fs`` under the lattice
    scalar product together with the integer vector ``p`` of g x g minors of
    the column matrix F; checks det = |C_g(W) p|^2 and the uniform positive
    floor coming from the invertibility of the compound matrix.  The Gram
    side comes from :func:`gram_numerators`, the image side from the dual
    image ``W = A / c`` (``C_g(W) p = C_g(A) p / c^g``) and the floor from
    the cleared ``W^{-1} = B / E``, so every check compares cross-multiplied
    integers.
    """
    vecs = [list(map(int, f)) for f in fs]
    g = len(vecs)
    if g == 0:
        raise DependentVectors("need at least one vector")
    for f in vecs:
        _check_dim(basis, f, "f")
    d = basis.d
    if g > d:
        raise DependentVectors(f"{g} vectors in dimension {d} are dependent")
    N, D = gram_numerators(basis, vecs)
    det_n = exact._int_det(N)                        # det over D^g
    if det_n == 0:
        raise DependentVectors("Gram determinant vanishes: vectors dependent")
    # the g x g minors of the column matrix F, one per choice of coordinates
    p = [row[0] for row in exact._int_compound(exact.mat_transpose(vecs), g)]
    A, c = basis.image
    image_n = exact.norm_sq([sum(map(operator.mul, row, p))
                             for row in exact._int_compound(A, g)])  # over c^(2g)
    p_sq = exact.norm_sq(p)
    B, E, _ = exact._clear(basis.W_inverse_rows())   # W^-1 = B / E
    frob_n = exact.frobenius_sq(exact._int_compound(B, g))  # over E^(2g)
    Dg, c2g, E2g = D**g, c ** (2 * g), E ** (2 * g)
    if det_n * c2g != image_n * Dg:
        raise IdentityViolation("Gram determinant != |C_g(W) p|^2")
    if not any(p):
        raise IdentityViolation("independent vectors produced p = 0")
    if det_n * frob_n < p_sq * E2g * Dg:
        raise IdentityViolation("Gram determinant below certified floor")
    # p holds int minors, as exact.det gives them for int rows
    return GramIdentity(det=Fraction(det_n, Dg), p=tuple(p),
                        image_norm_sq=Fraction(image_n, c2g),
                        lower_bound=Fraction(p_sq * E2g, frob_n))
