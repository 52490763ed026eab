"""Quasi-periodic wave / Schroedinger diagonal operators on space-time lattices.

Sites are indexed by ``(ell, j, a)`` with ``ell`` the time-Fourier index,
``j`` the space mode and ``a`` a sign (fixed +1 for the wave kind).  The wave
symbol is ``-(lam*wbar.ell + theta)^2 + mu_j + m`` and the Schroedinger symbol
``-a (lam*wbar.ell + theta) + mu_j + m``; a site is singular when the symbol
has modulus below 1.  Every symbol is one integer over a fixed denominator
(:class:`_Symbols`), so the site scan, its replay and every identity are
exact.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from numbers import Rational
from typing import NamedTuple

from . import exact
from .clusters import _box_numerators, box_sites, positive_offsets
from .errors import (
    DependentVectors,
    DimensionMismatch,
    GammaOutOfRange,
    IdentityViolation,
    ValidationError,
)
from .lattice import LatticeBasis, bilinear, gram_numerators, mu, mu_numerator
from .search import longest_path

Fr = Fraction

NLW = "nlw"
NLS = "nls"


def _signs(kind: str):
    if kind == NLW:
        return (1,)
    if kind == NLS:
        return (-1, 1)
    raise ValidationError(f"unknown symbol kind {kind!r}")


@dataclass(frozen=True)
class FrequencyParams:
    """Scalar data of the operator symbols: direction, scaling, shift, mass."""

    n: int
    omega_bar: tuple
    gamma0: object
    tau0: object
    lam: object
    theta: object
    mass: object

    def __post_init__(self):
        # the symbols are integers over one denominator (_Symbols)
        if not all(isinstance(x, Rational) for x in
                   (*self.omega_bar, self.lam, self.theta, self.mass)):
            raise TypeError("omega_bar, lambda, theta and mass must be ints "
                            "or Fractions; FrequencyParams.create parses them")
        if len(self.omega_bar) != self.n:
            raise DimensionMismatch("omega_bar length disagrees with n")
        one_norm = sum(abs(w) for w in self.omega_bar)
        if one_norm > 1:
            raise ValidationError(
                f"omega_bar: |omega_bar|_1 must be <= 1, got {one_norm}")
        if not Fr(1, 2) <= self.lam <= Fr(3, 2):
            raise ValidationError(f"lambda: must lie in [1/2, 3/2], got {self.lam}")
        if self.mass <= 0:
            raise ValidationError("mass: must be positive")
        if self.gamma0 <= 0:
            raise ValidationError("gamma0: must be positive")
        if self.tau0 < self.n:
            raise ValidationError(f"tau0: must be at least n = {self.n}")

    @classmethod
    def create(cls, omega_bar, gamma0, tau0, lam=Fr(1), theta=Fr(0), mass=Fr(1),
               dio_ell_max: int | None = None) -> "FrequencyParams":
        wb = tuple(exact.parse_rational(w, "omega_bar") for w in omega_bar)
        params = cls(n=len(wb), omega_bar=wb,
                     gamma0=exact.parse_rational(gamma0, "gamma0"),
                     tau0=exact.parse_rational(tau0, "tau0"),
                     lam=exact.parse_rational(lam, "lambda"),
                     theta=exact.parse_rational(theta, "theta"),
                     mass=exact.parse_rational(mass, "mass"))
        if dio_ell_max:
            res = diophantine_check(params.omega_bar, params.gamma0,
                                    params.tau0, dio_ell_max)
            if not res.passed:
                raise ValidationError(
                    f"omega_bar: fails the Diophantine floor at ell={res.worst_ell}; "
                    f"the largest admissible gamma0 is {res.max_gamma0}")
        return params

    def omega(self):
        return tuple(self.lam * w for w in self.omega_bar)

    def omega_dot(self, ell):
        if len(ell) != self.n:
            raise DimensionMismatch("ell length disagrees with n")
        return self.lam * sum(w * l for w, l in zip(self.omega_bar, ell))


class SpaceTimeSite(NamedTuple):
    ell: tuple
    j: tuple
    a: int = 1


def site_distance(s1: SpaceTimeSite, s2: SpaceTimeSite) -> int:
    """Sup-distance on the space-time lattice; a pure sign flip counts 1."""
    if s1.ell == s2.ell and s1.j == s2.j:
        return 0 if s1.a == s2.a else 1
    return max(max(abs(a - b) for a, b in zip(s1.ell, s2.ell)),
               max(abs(a - b) for a, b in zip(s1.j, s2.j)))


def symbol_nlw(basis: LatticeBasis, params: FrequencyParams, ell, j):
    """Wave symbol: -(lam*wbar.ell + theta)^2 + mu_j + mass."""
    y = params.omega_dot(ell) + params.theta
    return -(y * y) + mu(basis, j) + params.mass


def symbol_nls(basis: LatticeBasis, params: FrequencyParams, ell, j, a):
    """Schroedinger symbol: -a (lam*wbar.ell + theta) + mu_j + mass."""
    if a not in (1, -1):
        raise ValidationError("sign a must be +1 or -1")
    y = params.omega_dot(ell) + params.theta
    return -a * y + mu(basis, j) + params.mass


def symbol(basis, params, site: SpaceTimeSite, kind: str):
    if kind == NLW:
        return symbol_nlw(basis, params, site.ell, site.j)
    return symbol_nls(basis, params, site.ell, site.j, site.a)


class _Symbols:
    """The symbols of a basis as ``rho(j) - c(y(ell), a)`` over one ``L``.

    With ``(G, D) = basis.gram``, ``lam*omega_bar = W/E`` and
    ``theta = T/E`` over the least common denominator ``E``,
    ``y(ell) = Y/E`` with ``Y = W.ell + T``, and ``mu_j + m = rho/L`` with
    ``rho = (j^T G j) L/D + m L``.  The symbol is ``(rho - c)/L`` with
    centre ``c = a Y L/E`` (Schroedinger, ``L = lcm(D, E, den m)``) or
    ``c = Y^2 L/E^2`` (wave, ``L = lcm(D, E^2, den m)``), all integers.
    The scalars are rationals, as :meth:`FrequencyParams.create` parses
    them.  A kind other than the wave kind is the Schroedinger kind, as in
    :func:`symbol`.
    """

    def __init__(self, basis: LatticeBasis, params: FrequencyParams, kind):
        self.basis = basis
        self.wave = kind == NLW
        omega = params.omega()
        self.D = basis.gram[1]
        self.E = E = math.lcm(*(x.denominator for x in omega),
                              params.theta.denominator)
        self.W = tuple(int(x * E) for x in omega)
        self.T = int(params.theta * E)
        scale = self.E ** 2 if self.wave else self.E
        self.L = math.lcm(self.D, scale, params.mass.denominator)
        self.per_D, self.per_E = self.L // self.D, self.L // scale
        self.mass_L = int(params.mass * self.L)

    def y(self, ell):
        if len(ell) != len(self.W):
            raise DimensionMismatch("ell length disagrees with n")
        return sum(map(operator.mul, self.W, ell)) + self.T

    def rho(self, j):
        return mu_numerator(self.basis, j) * self.per_D + self.mass_L

    def center(self, Y, a):
        return Y * Y * self.per_E if self.wave else a * Y * self.per_E

    def below(self, site: SpaceTimeSite) -> bool:
        """``|symbol(site)| < 1``: ``c - L < rho < c + L``, the window that
        :func:`enumerate_singular_sites` bisects."""
        if not self.wave and site.a not in (1, -1):
            raise ValidationError("sign a must be +1 or -1")
        c = self.center(self.y(site.ell), site.a)
        return c - self.L < self.rho(site.j) < c + self.L


def is_singular(basis, params, site: SpaceTimeSite, kind: str) -> bool:
    """Strict sublevel test |symbol| < 1; boundary values are regular.

    It tests the window that :func:`enumerate_singular_sites` bisects, on
    the same integers (:meth:`_Symbols.below`).
    """
    return _Symbols(basis, params, kind).below(site)


def enumerate_singular_sites(basis: LatticeBasis, params: FrequencyParams,
                             kind: str, ell_radius: int, j_radius: int):
    """All sites in the box with ``|symbol| < 1`` (the singular sites), in
    lexicographic (ell, j, a) order.

    A site is kept when ``rho_j = mu_j + mass`` lies in the open window
    ``(c - 1, c + 1)``, with ``c = y^2`` (wave) or ``c = a*y``
    (Schroedinger) and ``y = lam*wbar.ell + theta``.  The modes are sorted
    once by ``rho``; each (ell, sign) then bisects its window, so the scan
    costs O(|js| log|js| + |ells| log|js| + output) instead of
    O(|ells| |js|).  It scans the numerators of :class:`_Symbols` and the
    window ``(c - L, c + L)``, the predicate of :meth:`_Symbols.below`.
    """
    signs = _signs(kind)
    ells = box_sites(ell_radius, params.n)
    js, rho, _ = _box_numerators(basis, j_radius)
    sym = _Symbols(basis, params, kind)
    # rebound: the numerators are freed before the sort
    rho = [x * sym.per_D + sym.mass_L for x in rho]
    ys = [sym.y(ell) for ell in ells]
    L = sym.L
    order = sorted(range(len(js)), key=rho.__getitem__)
    rhos = [rho[i] for i in order]

    sites = []
    for ell, y in zip(ells, ys):
        for a in signs:
            c = sym.center(y, a)
            # strict window: |rho - c| = L is regular
            lo = bisect_right(rhos, c - L)
            hi = bisect_left(rhos, c + L, lo)
            sites.extend(SpaceTimeSite(ell, js[i], a) for i in order[lo:hi])
    sites.sort()
    return sites


def section_multiplicity(sites) -> int:
    """Largest number of sites sharing one space mode."""
    counts = {}
    for s in sites:
        counts[s.j] = counts.get(s.j, 0) + 1
    return max(counts.values()) if counts else 0


@dataclass(frozen=True)
class SingularChain:
    sites: tuple
    gamma: object

    @property
    def length(self) -> int:
        return len(self.sites) - 1

    @property
    def section_count(self) -> int:
        return section_multiplicity(self.sites)

    def min_exponent(self) -> float:
        """Smallest C with length <= (max(K,2) * gamma)^C."""
        if self.length <= 1:
            return 0.0
        base = max(self.section_count, 2) * float(self.gamma)
        return math.log(self.length) / math.log(base)

    def breaks_exponent_bound(self, bound) -> bool:
        """True when length > (max(K,2) * gamma)^bound; never below length 2."""
        base = max(self.section_count, 2) * float(self.gamma)
        return (self.length >= 2
                and math.log(self.length) > bound * math.log(base) + 1e-12)

    def is_valid(self, basis, params, kind) -> bool:
        if len(set(self.sites)) != len(self.sites):
            return False
        if not all(map(_Symbols(basis, params, kind).below, self.sites)):
            return False
        return all(site_distance(a, b) <= self.gamma
                   for a, b in zip(self.sites, self.sites[1:]))


@dataclass
class ChainSurvey:
    chains: list
    gamma: object
    site_count: int
    truncated: bool
    fitted_exponent: float
    expanded: int             # DFS nodes + DP states, each comp in node_budget
    floods: int               # DFS flood fills over all components

    def max_length(self) -> int:
        return max((c.length for c in self.chains), default=0)


def enumerate_singular_chains(basis: LatticeBasis, params: FrequencyParams,
                              kind: str, ell_radius: int, j_radius: int,
                              gamma,
                              node_budget: int = 2_000_000) -> ChainSurvey:
    """Longest chain of singular sites per link-graph component.

    Components are explored by budgeted exact search; each reported chain is
    not extendable at either end, canonically oriented (smaller endpoint
    first), and carries its section count and the minimal exponent making the
    polynomial length bound tight (:meth:`SingularChain.breaks_exponent_bound`
    tests a given bound).
    """
    sites = enumerate_singular_sites(basis, params, kind, ell_radius, j_radius)
    adjacency = _link_graph(sites, gamma)

    from .search import connected_components

    chains = []
    truncated = False
    expanded = 0
    floods = 0
    for comp in connected_components(adjacency):
        sub_index = {v: t for t, v in enumerate(comp)}
        sub_adj = [[sub_index[w] for w in adjacency[v] if w in sub_index]
                   for v in comp]
        res = longest_path(sub_adj, node_budget=node_budget)
        truncated = truncated or res.truncated
        expanded += res.expanded
        floods += res.floods
        path = [comp[t] for t in res.path]
        if res.truncated:
            # a budget-cut path may still be extendable; grow it greedily so
            # every reported chain is maximal w.r.t. extension
            used = set(path)
            for at_end in (True, False):
                while True:
                    tip = path[-1] if at_end else path[0]
                    nxt = next((w for w in adjacency[tip] if w not in used),
                               None)
                    if nxt is None:
                        break
                    used.add(nxt)
                    if at_end:
                        path.append(nxt)
                    else:
                        path.insert(0, nxt)
        path_sites = tuple(sites[v] for v in path)
        if path_sites and path_sites[-1] < path_sites[0]:
            path_sites = tuple(reversed(path_sites))
        chains.append(SingularChain(path_sites, gamma))
    chains.sort(key=lambda c: (-c.length, c.sites))
    fitted = max((c.min_exponent() for c in chains), default=0.0)
    return ChainSurvey(chains=chains, gamma=gamma, site_count=len(sites),
                       truncated=truncated, fitted_exponent=fitted,
                       expanded=expanded, floods=floods)


def _link_graph(sites, gamma) -> list:
    """Sorted adjacency lists of the ``gamma``-link graph on sorted sites.

    Sites are grouped by their point ``ell + j``.  The signs of one point
    are a sign flip, distance 1, apart; two points are the sup norm of their
    offset apart, so each pair of points one positive offset of sup norm at
    most ``floor(gamma)`` apart joins their groups.  A point is one integer
    key in a mixed radix whose digit spans the sites' coordinate range plus
    that radius, so no offset carries into the next digit.
    """
    adjacency = [[] for _ in sites]
    if not sites or gamma < 1:
        return adjacency
    radius = math.floor(gamma)
    columns = list(zip(*(s.ell + s.j for s in sites)))
    lows = [min(c) for c in columns]
    strides = [1] * len(columns)
    for t in range(len(columns) - 2, -1, -1):
        width = max(columns[t + 1]) - lows[t + 1] + 1 + radius
        strides[t] = strides[t + 1] * width
    groups = {}
    for i, point in enumerate(zip(*columns)):
        key = sum((x - low) * t for x, low, t in zip(point, lows, strides))
        groups.setdefault(key, []).append(i)
    steps = [sum(map(operator.mul, o, strides))
             for o in positive_offsets(len(strides), radius)]

    def link(pairs):
        for i, k in pairs:
            adjacency[i].append(k)
            adjacency[k].append(i)

    for key, group in groups.items():
        link(combinations(group, 2))
        for step in steps:
            other = groups.get(key + step)
            if other:
                link(product(group, other))
    for nbrs in adjacency:
        nbrs.sort()
    return adjacency


# ---------------------------------------------------------------------------
# chain-restricted bilinear form and its determinant identity


@dataclass(frozen=True)
class ChainBilinearData:
    """Difference vectors of a chain and the restricted bilinear form.

    ``l_vectors`` and ``k_vectors`` are the time and space differences against
    the anchor; the form value on ``f_i = (omega.l_i, k_i)`` pairs is
    ``-(omega.l_i)(omega.l_i') + <W k_i, W k_i'>``.
    """

    basis: LatticeBasis
    params: FrequencyParams
    l_vectors: tuple
    k_vectors: tuple

    @property
    def g(self) -> int:
        return len(self.l_vectors)

    def omega_bar_dots(self):
        return [sum(w * l for w, l in zip(self.params.omega_bar, lv))
                for lv in self.l_vectors]

    def f_vectors(self, lam=None):
        lam = self.params.lam if lam is None else lam
        return [(lam * wd, *kv) for wd, kv in
                zip(self.omega_bar_dots(), self.k_vectors)]

    def S_bar(self):
        wd = self.omega_bar_dots()
        return [[wd[i] * wd[l] for l in range(self.g)] for i in range(self.g)]

    def R(self):
        return [[bilinear(self.basis, self.k_vectors[i], self.k_vectors[l])
                 for l in range(self.g)] for i in range(self.g)]

    def A(self, lam=None):
        lam = self.params.lam if lam is None else lam
        xi = lam * lam
        S, R = self.S_bar(), self.R()
        return [[R[i][l] - xi * S[i][l] for l in range(self.g)]
                for i in range(self.g)]

    def det_A(self, lam=None):
        return exact.det(self.A(lam))


def chain_bilinear_data(basis: LatticeBasis, params: FrequencyParams, chain,
                        anchor: int, indices) -> ChainBilinearData:
    """Difference data for selected chain positions against an anchor.

    Raises DependentVectors when the selected f-vectors do not span a space of
    their own count (rank computed exactly at the configured lambda).
    """
    sites = chain.sites if isinstance(chain, SingularChain) else tuple(chain)
    base = sites[anchor]
    ls, ks = [], []
    for q in indices:
        s = sites[q]
        ls.append(tuple(a - b for a, b in zip(s.ell, base.ell)))
        ks.append(tuple(a - b for a, b in zip(s.j, base.j)))
    data = ChainBilinearData(basis=basis, params=params,
                             l_vectors=tuple(ls), k_vectors=tuple(ks))
    rows = [list(f) for f in data.f_vectors()]
    if exact.mat_rank(rows) < data.g:
        raise DependentVectors("selected difference vectors are dependent")
    return data


@dataclass
class ChainDetIdentity:
    """Minor data certifying det A(lam) = eta - lam^2 zeta."""

    p: tuple
    m_coeffs: tuple
    eta: object
    zeta: object
    gram_positive: bool
    m_bound_limit: int
    m_bound_ok: bool

    def det_value(self, lam):
        return self.eta - lam * lam * self.zeta


# the three spreads at which chain_det_identity evaluates det A(lam)
_LAMBDAS = (Fr(1, 2), Fr(1), Fr(3, 2))


def chain_det_identity(data: ChainBilinearData) -> ChainDetIdentity:
    """Expand det A(lam) into minor data and verify it at three spreads.

    ``p`` collects the g x g minors of the space differences; each ``m``
    coefficient is the signed Laplace expansion of the time column against a
    choice of g-1 space coordinates.  The identity
    ``det A(lam) = |C_g(W) p|^2 - lam^2 |C_{g-1}(W) (wbar x m)|^2`` is affine
    in lam^2, so two evaluation points determine it and the third is the
    consistency check; any nonzero residual raises.

    Everything runs on integers: the space form from
    :func:`~toruskit.lattice.gram_numerators` (``N / D``), the images from
    the dual image ``W = A / c``, and ``wbar = Om / E`` cleared.  At
    ``lam = u / v`` the matrix ``v^2 D E^2 A(lam) = v^2 E^2 N - u^2 D s s^T``
    with ``s_i = Om . l_i``, so each side of the identity is an integer over
    a known denominator and the check cross-multiplies.
    """
    basis, params, g = data.basis, data.params, data.g
    K = [list(k) for k in data.k_vectors]                      # g x d
    p = tuple(row[0] for row in exact._int_compound(exact.mat_transpose(K), g))
    # the (g-1)-minors of K; the row set without row i is row g-1-i
    cof = exact._int_compound(K, g - 1)
    m_coeffs = []
    for t in range(len(cof[0])):
        m_vec = [0] * params.n
        for i, l in enumerate(data.l_vectors):
            x = cof[g - 1 - i][t]
            if x:
                x = -x if i & 1 else x
                m_vec = [a + x * b for a, b in zip(m_vec, l)]
        m_coeffs.append(tuple(m_vec))

    Om, E, _ = exact._clear([list(params.omega_bar)])         # wbar = Om / E
    s = [sum(map(operator.mul, Om[0], l)) for l in data.l_vectors]
    omega_x_m = [sum(map(operator.mul, Om[0], mv)) for mv in m_coeffs]
    A, c = basis.image
    # over c^(2g) and c^(2g-2) E^2
    eta_n = exact.norm_sq([sum(map(operator.mul, row, p))
                           for row in exact._int_compound(A, g)])
    zeta_n = exact.norm_sq([sum(map(operator.mul, row, omega_x_m))
                            for row in exact._int_compound(A, g - 1)])
    N, D = gram_numerators(basis, data.k_vectors)
    E2, c2 = E * E, c * c
    c2g = c2**g
    for lam in _LAMBDAS:
        u2, v2 = lam.numerator ** 2, lam.denominator ** 2
        M = [[v2 * E2 * x - u2 * D * si * sl for x, sl in zip(row, s)]
             for row, si in zip(N, s)]
        lhs_n, lhs_d = exact._int_det(M), (v2 * D * E2) ** g
        rhs_n, rhs_d = v2 * E2 * eta_n - u2 * c2 * zeta_n, v2 * E2 * c2g
        if lhs_n * rhs_d != rhs_n * lhs_d:
            residual = abs(Fraction(lhs_n, lhs_d) - Fraction(rhs_n, rhs_d))
            raise IdentityViolation(
                f"determinant identity residual {residual} at lambda {lam}")
    eta, zeta = Fraction(eta_n, c2g), Fraction(zeta_n, c2g // c2 * E2)

    # Gram positivity at xi = -1: the form phi_1 + phi_2 is a scalar product,
    # and D E^2 (R + S) = E^2 N + D s s^T
    gram = exact._int_det([[E2 * x + D * si * sl for x, sl in zip(row, s)]
                           for row, si in zip(N, s)])
    gram_positive = gram > 0

    max_l = max((exact.sup_norm(l) for l in data.l_vectors), default=0)
    max_k = max((exact.sup_norm(k) for k in data.k_vectors), default=0)
    limit = g * math.factorial(g - 1) * max_l * max_k ** (g - 1)
    m_ok = all(exact.sup_norm(mv) <= limit for mv in m_coeffs)
    return ChainDetIdentity(p=p, m_coeffs=tuple(m_coeffs), eta=eta, zeta=zeta,
                            gram_positive=gram_positive,
                            m_bound_limit=limit, m_bound_ok=m_ok)


# ---------------------------------------------------------------------------
# theta sublevel covering


def _isqrt_floor_inv_sqrt(m) -> int:
    """floor(1/sqrt(m)) for rational m > 0, exactly."""
    k = 0
    while (k + 1) * (k + 1) * m <= 1:
        k += 1
    return k


def max_cover_intervals(mass, kind: str) -> int:
    """Interval budget of the covering: 2(floor(1/sqrt(m)) + 1) resp. 2."""
    if kind == NLW:
        return 2 * (_isqrt_floor_inv_sqrt(mass) + 1)
    return 2


@dataclass
class SublevelCover:
    """Exact theta-intervals where the symbol modulus drops to eps."""

    kind: str
    intervals: list          # float (lo, hi) pairs, sorted
    rho: object              # mu_j + mass
    eps: object
    shift: object            # lam * (wbar . ell)
    a: int = 1

    def contains(self, theta) -> bool:
        """Whether ``|symbol(theta)| <= eps``, decided exactly on
        ``Fraction(theta)``; the float ``intervals`` only view the set."""
        t = Fr(theta)
        if self.kind == NLS:
            return abs(self.a * self.rho - self.shift - t) <= self.eps
        return abs(self.rho - (t + self.shift) ** 2) <= self.eps

    def max_length(self) -> float:
        return max((hi - lo for lo, hi in self.intervals), default=0.0)

    def length_bound_exact(self, mass) -> bool:
        """Exact test: every interval length at most eps / sqrt(mass).

        For the wave kind with two branches this reduces to
        ``rho >= mass + eps^2/(4 mass)``; with a single branch to
        ``4(rho + eps) <= eps^2 / mass``; the linear kind compares
        ``2 eps <= eps/sqrt(mass)`` i.e. ``4 mass <= 1``.
        """
        rho, eps = self.rho, self.eps
        if self.kind == NLS:
            return 4 * mass <= 1
        if not self.intervals:
            return True
        if rho - eps > 0:
            return rho >= mass + eps * eps / (4 * mass)
        return 4 * (rho + eps) * mass <= eps * eps


def theta_sublevel_cover(basis: LatticeBasis, params: FrequencyParams,
                         ell, j, N: int, tau1: int, kind: str,
                         a: int = 1) -> SublevelCover:
    """Solve |symbol(theta)| <= N^{-tau1} for theta, exactly.

    The wave symbol is quadratic in theta: the sublevel set is at most two
    intervals obtained from square roots of rational bounds.  The linear kind
    yields a single interval of rational endpoints and length 2 N^{-tau1}.
    """
    if N <= 1:
        raise ValidationError("N must exceed 1")
    if int(tau1) != tau1 or tau1 < 1:
        raise ValidationError("tau1 must be a positive integer")
    eps = Fr(1, int(N) ** int(tau1))
    rho = mu(basis, j) + params.mass
    shift = params.omega_dot(ell)
    if kind == NLS:
        center = a * rho - shift
        lo, hi = center - eps, center + eps
        return SublevelCover(kind=NLS, intervals=[(float(lo), float(hi))],
                             rho=rho, eps=eps, shift=shift, a=a)
    if kind != NLW:
        raise ValidationError(f"unknown symbol kind {kind!r}")
    sh = float(shift)
    if rho + eps < 0:
        intervals = []
    elif rho - eps > 0:
        lo_r, hi_r = math.sqrt(float(rho - eps)), math.sqrt(float(rho + eps))
        intervals = [(-hi_r - sh, -lo_r - sh), (lo_r - sh, hi_r - sh)]
    else:
        hi_r = math.sqrt(float(rho + eps))
        intervals = [(-hi_r - sh, hi_r - sh)]
    return SublevelCover(kind=NLW, intervals=sorted(intervals),
                         rho=rho, eps=eps, shift=shift, a=1)


# ---------------------------------------------------------------------------
# Diophantine floor and frequency-set measure


@dataclass
class DiophantineResult:
    passed: bool
    worst_ell: tuple
    max_gamma0: object    # largest gamma0 that would pass at this tau0


def diophantine_check(omega_bar, gamma0, tau0, ell_max: int) -> DiophantineResult:
    """Exhaustive floor check |wbar . ell| >= 2 gamma0 / |ell|^tau0.

    Scans 0 < |ell| <= ell_max (one representative per +-pair) and reports the
    minimizing ell together with the largest gamma0 the vector supports.
    """
    if ell_max < 1:
        raise ValidationError("ell_max must be at least 1")
    n = len(omega_bar)
    tau_int = int(tau0) if float(tau0) == int(tau0) else None
    best = None
    worst = None
    for ell in positive_offsets(n, ell_max):
        dot = abs(sum(w * l for w, l in zip(omega_bar, ell)))
        sup = exact.sup_norm(ell)
        score = dot * (Fr(sup) ** tau_int if tau_int is not None
                       else float(sup) ** float(tau0)) / 2
        if best is None or score < best:
            best, worst = score, ell
    return DiophantineResult(passed=bool(gamma0 <= best), worst_ell=worst,
                             max_gamma0=best)


def compound_floor(basis: LatticeBasis) -> Fraction:
    """Certified positive floor for minor-vector images, min over orders.

    Uses the Frobenius norm of the compound of W^{-1}, which dominates the
    operator norm, so the floor is safe (and rational).
    """
    winv = basis.W_inverse_rows()
    return min(Fr(1) / exact.frobenius_sq(exact.compound(winv, g))
               for g in range(1, basis.d + 1))


@dataclass
class MeasureResult:
    lambda_measure: float
    xi_intervals: list       # exact (lo, hi) pairs in xi = lambda^2
    xi_measure: object
    pairs_total: int
    pairs_excluding: int
    fully_excluded: bool


def excluded_lambda_measure(basis: LatticeBasis, omega_bar, gamma, tau: int,
                            g: int, p_max: int, m_max: int) -> MeasureResult:
    """Exact measure of the lambda set where some minor polynomial is small.

    For every integer pair ``(p, m)`` in range the polynomial
    ``eta_p - xi zeta_m`` is affine in ``xi = lambda^2``; the sublevel set
    ``|P| < gamma/(1+|m|^tau)`` is an exact rational interval in xi.  The
    union is merged exactly and the returned measure is the total length of
    its square-root image inside [1/2, 3/2] (no sampling anywhere).
    """
    d, n = basis.d, len(omega_bar)
    wb = [exact.parse_rational(w, "omega_bar") for w in omega_bar]
    gamma = exact.parse_rational(gamma, "gamma")
    floor = compound_floor(basis)
    if not 0 < gamma <= floor / 4:
        raise GammaOutOfRange(f"gamma must lie in (0, {floor}/4]")
    if not 1 <= g <= d + 1:
        raise ValidationError(f"order g={g} outside 1..{d + 1}")

    if g <= d:
        cw = exact.compound(basis.W_rows(), g)
        p_dim = len(cw)
        etas = set()
        for p in product(range(-p_max, p_max + 1), repeat=p_dim):
            etas.add(exact.norm_sq(exact.mat_vec(cw, list(p))))
        eta_values = sorted(etas)
        p_count = (2 * p_max + 1) ** p_dim
    else:
        eta_values = [Fr(0)]
        p_count = 1

    cw1 = exact.compound(basis.W_rows(), g - 1)
    m_dim = len(cw1) * n
    lo_xi, hi_xi = Fr(1, 4), Fr(9, 4)
    intervals = []
    fully = False
    pairs_total = 0
    pairs_excluding = 0
    for m in product(range(-m_max, m_max + 1), repeat=m_dim):
        m_sup = exact.sup_norm(m)
        eps = gamma / (1 + Fr(m_sup) ** int(tau))
        blocks = [m[t * n:(t + 1) * n] for t in range(len(cw1))]
        wxm = [sum(w * x for w, x in zip(wb, blk)) for blk in blocks]
        zeta = exact.norm_sq(exact.mat_vec(cw1, wxm))
        for eta in eta_values:
            pairs_total += 1
            if eta == 0 and m_sup == 0:
                continue  # excluded pair (0, 0)
            if zeta == 0:
                if eta < eps:
                    fully = True
                    intervals.append((lo_xi, hi_xi))
                    pairs_excluding += 1
                continue
            lo = max(lo_xi, (eta - eps) / zeta)
            hi = min(hi_xi, (eta + eps) / zeta)
            if hi > lo:
                intervals.append((lo, hi))
                pairs_excluding += 1
    merged = exact.merge_intervals(intervals)
    xi_measure = exact.intervals_measure(merged)
    lam_measure = sum(math.sqrt(float(hi)) - math.sqrt(float(lo))
                      for lo, hi in merged)
    return MeasureResult(lambda_measure=lam_measure, xi_intervals=merged,
                         xi_measure=xi_measure, pairs_total=pairs_total,
                         pairs_excluding=pairs_excluding, fully_excluded=fully)


# ---------------------------------------------------------------------------
# per-pair bilinear bounds along chains


@dataclass
class PairBoundReport:
    empirical_constant: float
    worst_pair: tuple | None
    pair_count: int
    step_bound_ok: bool | None     # theta-eliminating step bound (linear kind)
    max_step_mu_gap: float

    def to_dict(self):
        return {"empirical_constant": self.empirical_constant,
                "worst_pair": list(self.worst_pair) if self.worst_pair else None,
                "pair_count": self.pair_count,
                "step_bound_ok": self.step_bound_ok,
                "max_step_mu_gap": self.max_step_mu_gap}


def chain_pair_bounds(basis: LatticeBasis, params: FrequencyParams,
                      chain: SingularChain, kind: str) -> PairBoundReport:
    """Empirical constant of the quadratic pair bound along a singular chain.

    For every ordered pair the bilinear form of the anchor against the
    difference is compared with ``|q - q0|^2 gamma^2``; the reported constant
    is the smallest one making all bounds hold.  For the linear kind the
    theta-free consecutive-step inequality (budget ``2(m+1)``) is also
    replayed.  It reads the integer Gram numerators of the chain's modes
    (:func:`_integer_worst_pair`); a step is compared over the ``L`` of
    :class:`_Symbols`, and its mu gap ``|dn| / D`` rounds as a Fraction's.
    """
    sites = chain.sites
    sym = _Symbols(basis, params, kind)
    best_c, worst, nums = _integer_worst_pair(sym, chain, kind)
    step_ok = None
    max_gap = 0.0
    if len(sites) >= 2:
        budget = 2 * (sym.mass_L + sym.L)
        step_ok = True if kind == NLS else None
        for q in range(len(sites) - 1):
            max_gap = max(max_gap, abs(nums[q + 1] - nums[q]) / sym.D)
            if kind == NLS:
                s, s2 = sites[q], sites[q + 1]
                # mu' - mu, or mu' + mu when the signs differ, less a' w.dell
                val = abs(sym.per_D * (nums[q + 1] - s.a * s2.a * nums[q])
                          - s2.a * sym.per_E * (sym.y(s2.ell) - sym.y(s.ell)))
                if val > budget:
                    step_ok = False
    return PairBoundReport(empirical_constant=best_c, worst_pair=worst,
                           pair_count=len(sites) * (len(sites) - 1),
                           step_bound_ok=step_ok, max_step_mu_gap=max_gap)


def _integer_worst_pair(sym: _Symbols, chain: SingularChain, kind: str):
    """``(constant, worst pair, j^T G j per site)`` on integer numerators.

    A pair's space part is the difference of two entries of the anchor's
    row of :func:`~toruskit.lattice.gram_numerators` (which checks each
    ``j``'s length), the wave kind's value one integer over ``L``, and each ratio
    an ``int / int`` division, which rounds as ``float(Fraction)`` does.
    """
    sites = chain.sites
    n = len(sites)
    D, L, per_D, per_E = sym.D, sym.L, sym.per_D, sym.per_E
    # N[q0][q] = j_q0^T G j_q, so N[q][q] is the numerator of mu(j_q)
    N, _ = gram_numerators(sym.basis, [s.j for s in sites])
    ys = [sym.y(s.ell) for s in sites]
    g2 = float(chain.gamma) ** 2
    dens = [k * k * g2 for k in range(n)]
    worst = None
    best_c = 0.0
    for q0, dots in enumerate(N):
        d0 = dots[q0]
        # |q - q0|^2 gamma^2 per q; the anchor's own slot reads 0
        row = dens[q0:0:-1] + [math.inf] + dens[1:n - q0]
        if kind == NLW:
            # L (-y0 (y_q - y0) + <W j0, W (j_q - j0)>)
            y0 = ys[q0] * per_E
            c0 = y0 * ys[q0] - d0 * per_D
            ratios = [abs(c0 - y0 * y + per_D * t) / L / den
                      for y, t, den in zip(ys, dots, row)]
        else:
            ratios = [abs(t - d0) / D / den for t, den in zip(dots, row)]
        # the first pair reaching a new maximum, as a pair-by-pair scan finds
        top = max(ratios)
        if top > best_c:
            best_c, worst = top, (q0, ratios.index(top))
    return best_c, worst, [N[q][q] for q in range(n)]

