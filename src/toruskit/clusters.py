"""Eigenvalue clustering on integer boxes: chains, partitions, verification.

A mode ``j`` is paired with its eigenvalue through ``Phi(j) = (j, mu_j)``.
Chains link modes whose Phi-images stay within a fixed distance; the cluster
partition is the transitive closure of the one-step relation whose distance
budget grows like ``(|j| + |j'|)**delta``.  Norms on multi-indices are
sup-norms throughout; the Phi-difference uses the sup of the spatial part and
the eigenvalue gap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, product
from typing import NamedTuple

from . import exact
from .errors import DeltaOutOfRange
from .lattice import LatticeBasis, mu, mu_numerator
from .search import PathSearchResult, longest_path

Fr = Fraction


def chain_exponent(d: int) -> int:
    """Dimensional exponent bounding chain lengths: 2(2d+1)d."""
    return 2 * (2 * d + 1) * d


def delta_max(d: int) -> Fraction:
    """Upper end of the guaranteed delta range: 1/(2*chain_exponent(d) + 2)."""
    return Fr(1, 2 * chain_exponent(d) + 2)


def _spatial(j, j2) -> int:
    # |j - j'| in the sup norm, d >= 1 (new_lattice refuses an empty basis)
    return max(map(abs, map(operator.sub, j, j2)))


def phi_distance(basis: LatticeBasis, j, j2):
    """Sup-norm of Phi(j2) - Phi(j): max of spatial gap and eigenvalue gap."""
    return max(Fr(_spatial(j, j2)), abs(mu(basis, j2) - mu(basis, j)))


def is_gamma_link(basis: LatticeBasis, j, j2, gamma) -> bool:
    """True when Phi(j) and Phi(j2) are within gamma (sup-norm)."""
    if tuple(j) == tuple(j2):
        raise ValueError("link requires distinct modes")
    return phi_distance(basis, j, j2) <= gamma


def relation_link(basis: LatticeBasis, j, j2, delta) -> bool:
    """One step of the cluster relation: Phi-gap at most (|j|+|j2|)**delta."""
    s = exact.sup_norm(j) + exact.sup_norm(j2)
    return exact.le_pow(phi_distance(basis, j, j2), s, delta)


@dataclass(frozen=True)
class GammaChain:
    """Ordered distinct modes with consecutive Phi-gaps at most gamma."""

    sites: tuple
    gamma: object

    @property
    def length(self) -> int:
        return len(self.sites) - 1

    def is_valid(self, basis: LatticeBasis) -> bool:
        if len(set(self.sites)) != len(self.sites):
            return False
        return all(is_gamma_link(basis, a, b, self.gamma)
                   for a, b in zip(self.sites, self.sites[1:]))


@dataclass
class ChainSearchResult:
    length: int
    witness: GammaChain
    truncated: bool
    expanded: int
    floods: int


def box_sites(radius: int, d: int):
    """All integer vectors of sup-norm at most radius, lexicographic."""
    return [tuple(p) for p in product(range(-radius, radius + 1), repeat=d)]


def positive_offsets(d: int, radius: int) -> list:
    """Lexicographically positive offsets of sup-norm at most radius, in order."""
    return [o for o in product(range(-radius, radius + 1), repeat=d)
            if o > (0,) * d]


def _slab_runs(basis: LatticeBasis, box_radius: int, link_radius: int,
               reach: int):
    """Per positive offset ``o`` of sup-norm at most ``link_radius``, in
    order: ``(|o|, step, starts)``.

    ``starts`` lists the indices i into ``box_sites(box_radius, d)`` whose
    site ``j`` has ``j + o`` in the box, at index ``i + step`` (the box is
    row-major), and ``|n_{j+o} - n_j| <= reach`` for the numerators
    ``n_j = jᵀGj`` of ``basis.gram``.  The difference is
    ``jᵀ(G + Gᵀ)o + oᵀGo``, linear in ``j``, so along the axis where
    ``v = (G + Gᵀ)o`` is largest in size those ``j`` of one box row form an
    integer interval; each row's interval is solved exactly in integers
    and clipped to the box.
    """
    G = basis.gram[0]
    d, N = basis.d, box_radius
    L = 2 * N + 1
    strides = [L ** (d - 1 - t) for t in range(d)]
    sym = [[a + b for a, b in zip(row, col)] for row, col in zip(G, zip(*G))]
    # an offset longer than 2N joins no two sites of the box
    for o in positive_offsets(d, min(link_radius, 2 * N)):
        v = [sum(map(operator.mul, row, o)) for row in sym]
        c = mu_numerator(basis, o)
        axis = max(range(d), key=lambda t: abs(v[t]))
        # fold the sign of v[axis] in: |w*x + r| <= reach with w > 0
        sign = 1 if v[axis] > 0 else -1
        w = sign * v[axis]
        # (index of the row's site at x = 0 on the axis, r of that row),
        # over the coordinates of the other axes with j and j + o in the box
        rows = [(N * strides[axis], sign * c)]
        for t in range(d):
            if t != axis:
                stride, vt, a = strides[t], sign * v[t], o[t]
                rows = [(i + (x + N) * stride, r + vt * x) for i, r in rows
                        for x in range(max(-N, -N - a), min(N, N - a) + 1)]
        stride, a = strides[axis], o[axis]
        low, high = max(-N, -N - a), min(N, N - a)
        starts = []
        for i, r in rows:
            lo = max(low, -((reach + r) // w))
            hi = min(high, (reach - r) // w)
            if lo <= hi:
                starts += range(i + lo * stride, i + hi * stride + 1, stride)
        yield exact.sup_norm(o), sum(map(operator.mul, o, strides)), starts


def _box_numerators(basis: LatticeBasis, box_radius: int):
    """Box sites and ``mu = n / D`` per site: integer ``n`` over ``D`` of
    ``basis.gram``.

    The integers are :func:`toruskit.lattice.mu_numerator`'s, filled one box
    row at a time: along the last coordinate x of a lexicographic row with
    prefix p, ``n = c0 + x*(b + g*x)`` where ``c0 = pᵀGp``, ``b`` is p dotted
    with the last column and row of ``G`` off the diagonal, and
    ``g = G[-1][-1]``.
    """
    d = basis.d
    sites = box_sites(box_radius, d)
    G, D = basis.gram
    g = G[-1][-1]
    last = [row[-1] + col for row, col in zip(G, G[-1])]
    xs = range(-box_radius, box_radius + 1)
    n = []
    for p in product(xs, repeat=d - 1):
        # zip stops at the prefix: the leading (d-1)x(d-1) block of G
        c0 = sum(a * sum(map(operator.mul, row, p)) for a, row in zip(p, G))
        b = sum(map(operator.mul, p, last))
        n += [c0 + x * (b + g * x) for x in xs]
    return sites, n, D


def max_chain_length(basis: LatticeBasis, box_radius: int, gamma,
                     node_budget: int = 2_000_000) -> ChainSearchResult:
    """Maximal chain length over the box, by exact search.

    Returns the best chain found; when the node budget runs out the result
    is a lower bound and is flagged ``truncated``.  A pair within
    ``floor(gamma)`` is linked when ``|n_k - n_i| <= floor(D*gamma)``, the
    slab of :func:`_slab_runs`, exact for a float gamma too.
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    if box_radius < 1:
        raise ValueError("box_radius must be at least 1")
    sites = box_sites(box_radius, basis.d)
    adjacency = [[] for _ in sites]
    # every slab pair is a gamma-link: the slab is the numerator test
    for _, step, starts in _slab_runs(basis, box_radius, math.floor(gamma),
                                      math.floor(basis.gram[1] * Fr(gamma))):
        for i in starts:
            adjacency[i].append(i + step)
            adjacency[i + step].append(i)
    adjacency = [sorted(nbrs) for nbrs in adjacency]
    raw: PathSearchResult = longest_path(adjacency, node_budget=node_budget)
    witness = GammaChain(tuple(sites[i] for i in raw.path), gamma)
    return ChainSearchResult(raw.length, witness, raw.truncated, raw.expanded,
                             raw.floods)


# ---------------------------------------------------------------------------
# cluster partitions


def _box_index(N: int, d: int, j) -> int:
    """Row-major index of the site ``j`` in ``box_sites(N, d)``; a ValueError
    names a ``j`` of another length, or with a coordinate that is not an
    ``int`` (a bool is refused) or lies outside ``[-N, N]``."""
    if len(j) != d:
        raise ValueError(f"{list(j)} has length {len(j)}, d is {d}")
    i = 0
    for x in j:
        if type(x) is not int:
            raise ValueError(f"{list(j)} has a non-integer coordinate")
        if not -N <= x <= N:
            raise ValueError(f"{list(j)} lies outside [-{N}, {N}]^{d}")
        i = i * (2 * N + 1) + x + N
    return i


def _box_sup(N: int, d: int) -> list:
    """Sup norms of ``box_sites(N, d)``, axis by axis: max(|prefix|, |x|)."""
    # rows[m]: max(m, |x|) for x from -N to N
    rows = [[*range(N, m, -1), *[m] * (2 * m + 1), *range(m + 1, N + 1)]
            for m in range(N + 1)]
    sup = [0]
    for _ in range(d):
        sup = list(chain.from_iterable(map(rows.__getitem__, sup)))
    return sup


def _check_box(box_radius, d, count: int, what: str) -> None:
    """A ValueError unless ``box_radius`` and ``d`` are nonnegative ints and
    ``[-N, N]^d`` has ``count`` sites."""
    for name, value in (("box_radius", box_radius), ("d", d)):
        # int() would read true as 1 and truncate 1.9; both are refused
        if type(value) is not int or value < 0:
            raise ValueError(f"{name}: {value!r} is not a nonnegative integer")
    # (2N + 1)**k > count once N > 0 and k passes the bits of count
    if (2 * box_radius + 1) ** min(d, count.bit_length()) != count:
        raise ValueError(f"{what}: {count} sites, not one per site of "
                         f"[-{box_radius}, {box_radius}]^{d}")


@dataclass(frozen=True)
class ClusterPartition:
    """The ``cluster`` id of each index of ``box_sites(box_radius, d)``, all
    ids from 0 up used; delta by :func:`check_delta`, no theorem bound.
    Derived, not settable: per id its least and largest sup norm, and
    ``boundary``: within ``margin`` = one-step reach ceil((2N)**delta) + 1
    of the edge, it could change on a larger box."""

    box_radius: int
    d: int
    delta: Fraction
    cluster: tuple
    margin: int = field(init=False)
    m_alpha: list = field(init=False)
    M_alpha: list = field(init=False)
    boundary: list = field(init=False)
    _first: list = field(init=False)
    _groups: dict = field(init=False)

    def __post_init__(self):
        N, d, cluster = self.box_radius, self.d, tuple(self.cluster)
        _check_box(N, d, len(cluster), "cluster")
        delta = check_delta(d, self.delta, enforce_delta_bound=False)
        if set(map(type, cluster)) != {int} or min(cluster) < 0:
            raise ValueError("cluster: an id is not a nonnegative int")
        first = [None] * (max(cluster) + 1)
        m, M, groups = first[:], first[:], {}
        for i, c, s in zip(count(), cluster, _box_sup(N, d)):
            if first[c] is None:
                first[c], m[c], M[c] = i, s, s
            else:
                groups.setdefault(c, [first[c]]).append(i)
                m[c], M[c] = min(m[c], s), max(M[c], s)
        if None in first:
            raise ValueError(f"cluster: id {first.index(None)} is unused")
        margin = exact.ceil_pow(2 * N, delta) + 1
        vars(self).update(
            delta=delta, cluster=cluster, margin=margin, m_alpha=m, M_alpha=M,
            boundary=[N - x <= margin for x in M], _first=first, _groups=groups)

    def members(self, c: int) -> list:
        """Ascending indices of id c; only ids of two or more keep a list."""
        return self._groups.get(c) or [self._first[c]]

    def cluster_of(self, j) -> int:
        """The cluster id of the site ``j``; a ValueError if it is none."""
        return self.cluster[_box_index(self.box_radius, self.d, j)]

    def to_dict(self):
        sites, members = box_sites(self.box_radius, self.d), self.members
        return {
            "box_radius": self.box_radius,
            "d": self.d,
            "delta": exact.format_rational(self.delta),
            "margin": self.margin,
            "clusters": [
                {"id": c, "members": [list(sites[i]) for i in members(c)],
                 "m_alpha": m, "M_alpha": M, "boundary": boundary}
                for c, (m, M, boundary) in enumerate(zip(
                    self.m_alpha, self.M_alpha, self.boundary))
            ],
        }

    @classmethod
    def from_dict(cls, data) -> "ClusterPartition":
        """The partition of :meth:`to_dict`'s ``box_radius``, ``d``, ``delta``
        and members of id c in record c.  A ValueError names the field of a
        number that is not an integer, a member count other than the box's
        (before any allocation), an empty cluster or a bad member."""
        N, d, records = data["box_radius"], data["d"], data["clusters"]
        count = sum(len(rec["members"]) for rec in records)
        _check_box(N, d, count, "clusters")
        # count sites, none twice and each in the box: the box covered once
        cluster = [None] * count
        for c, rec in enumerate(records):
            if not rec["members"]:
                raise ValueError(f"clusters[{c}].members: empty")
            for k, j in enumerate(rec["members"]):
                try:
                    i = _box_index(N, d, j)
                except ValueError as exc:
                    raise ValueError(f"clusters[{c}].members[{k}]: {exc}") \
                        from None
                if cluster[i] is not None:
                    raise ValueError(f"clusters[{c}].members[{k}]: {list(j)} "
                                     "is listed twice")
                cluster[i] = c
        return cls(N, d, data["delta"], cluster)


# Largest denominator q of a delta p/q.  A threshold is the integer q-th
# root of D**q * s**p (exact.scaled_floor_pow).  By Newton steps its cost
# grows with q and with the bits of the Gram denominator D, so a D**q of
# more than 10**4 bits takes the root from a decimal bracket instead, whose
# cost barely depends on q.  At D of 203 bits (a 2-d lattice typed with
# 16-digit decimals), on one x86_64 core under Python 3.11, one root at
# s = 64 took 120-230 us at every q from 10**3 to 10**6 (Newton: 0.02 s at
# 10**3, 0.4-0.6 s at 10**4, 22 s at 10**5), and a radius-32 cluster run
# took 0.23 s at delta 37/1000 and 237/10**4 and 0.31 s at 371/10**4
# (Newton: 0.9 s, 22 s and 33 s).  The cap stays: a long decimal delta is
# still refused at once, and an exact power or a bracket that holds an
# integer falls back to Newton steps.
DELTA_MAX_DENOMINATOR = 10**4


def check_delta(d: int, delta, enforce_delta_bound: bool = True) -> Fraction:
    """The one delta rule: ``delta`` as a Fraction, or DeltaOutOfRange.

    A float reads as its decimal (:func:`toruskit.exact.parse_rational`).
    Delta must lie in (0, 1) with a denominator of at most
    :data:`DELTA_MAX_DENOMINATOR`, and below ``delta_max(d)`` when the
    theorem bound is enforced.
    """
    delta = exact.parse_rational(delta, "delta")
    if not 0 < delta < 1:
        raise DeltaOutOfRange(f"delta {delta} outside (0, 1)")
    if delta.denominator > DELTA_MAX_DENOMINATOR:
        raise DeltaOutOfRange(f"delta {delta}: denominator above "
                              f"{DELTA_MAX_DENOMINATOR}")
    if enforce_delta_bound and delta >= delta_max(d):
        raise DeltaOutOfRange(
            f"delta {delta} >= delta_max({d}) = {delta_max(d)}; set "
            "allow_delta_above_theorem (enforce_delta_bound=False) to override")
    return delta


def _link_radius(box_radius: int, delta) -> int:
    # one-step links have spatial range at most (2N)**delta
    return max(1, exact.floor_pow(2 * box_radius, delta))


class BoxTable(NamedTuple):
    """One box's data for the link and separation scans (:func:`box_table`).

    ``sites`` are :func:`box_sites` of the box; per site ``mu = n / D`` and
    its sup norm ``sup``.  For an integer x, ``x <= T[s]`` decides
    ``x / D <= s**delta`` for the rational delta:
    ``T[s] = floor(D * s**delta)`` (:func:`toruskit.exact.scaled_floor_pow`).
    """

    basis: LatticeBasis
    box_radius: int
    delta: Fraction
    sites: list
    n: list
    sup: list
    D: int
    T: list


def box_table(basis: LatticeBasis, box_radius: int, delta) -> BoxTable:
    """The :class:`BoxTable` of the box; delta is read by :func:`check_delta`
    with no theorem bound.  A cluster or homological call builds one and
    passes it to :func:`relation_links`, :func:`group_links` and
    :func:`verify_cluster_properties` or the homological solve."""
    delta = check_delta(basis.d, delta, enforce_delta_bound=False)
    sites, n, D = _box_numerators(basis, box_radius)
    sup = _box_sup(box_radius, basis.d)
    T = list(map(exact.scaled_floor_pow(D, delta), range(2 * box_radius + 1)))
    return BoxTable(basis, box_radius, delta, sites, n, sup, D, T)


def relation_links(table: BoxTable) -> list:
    """Index pairs ``(i, k)`` into ``table.sites`` that :func:`relation_link`
    accepts, ``i < k``, sorted.

    A pair is linked when ``max(D*|j2-j|, |n_j2 - n_j|) / D <=
    (|j|+|j2|)**delta``, which is :func:`relation_link`'s test with
    ``mu = n / D``.  Only the pairs of :func:`_slab_runs` with
    ``|n_j2 - n_j| <= T[2N]``, the largest threshold, are tested.
    """
    basis, N, delta, _, n, sup, D, T = table
    links = []
    for spatial, step, starts in _slab_runs(basis, N, _link_radius(N, delta),
                                            T[-1]):
        Ds = D * spatial
        links += [(i, i + step) for i in starts
                  if max(Ds, abs(n[i + step] - n[i]))
                  <= T[sup[i] + sup[i + step]]]
    links.sort()
    return links


def group_links(table: BoxTable, links) -> ClusterPartition:
    """The partition of ``table``'s box into the connected components of the
    index pairs ``links``, by one union-find pass.  Ids follow each
    cluster's smallest index and members ascend, as
    :func:`toruskit.search.connected_components` orders them."""
    # root[i] <= i lies in i's component: a union hangs the larger root
    # under the smaller, and path halving only skips to smaller indices
    root = list(range(len(table.sites)))
    for i, k in links:
        while root[i] != i:
            root[i] = i = root[root[i]]
        while root[k] != k:
            root[k] = k = root[root[k]]
        root[max(i, k)] = min(i, k)
    # ids in place, ascending: each root[i] < i already holds its id
    ids = count()
    for i, r in enumerate(root):
        root[i] = next(ids) if r == i else root[r]
    return ClusterPartition(table.box_radius, table.basis.d, table.delta, root)


def build_partition(basis: LatticeBasis, box_radius: int, delta,
                    enforce_delta_bound: bool = True) -> ClusterPartition:
    """Connected components of the one-step relation, restricted to the box.

    Delta is read by :func:`check_delta`.  The guaranteed range is
    0 < delta < delta_max(d); larger deltas still define a partition but
    lose the theorem backing, so they are refused unless
    ``enforce_delta_bound`` is switched off.  One :class:`BoxTable` serves
    :func:`relation_links` and :func:`group_links`.
    """
    delta = check_delta(basis.d, delta, enforce_delta_bound)
    table = box_table(basis, box_radius, delta)
    return group_links(table, relation_links(table))


@dataclass
class VerificationReport:
    """Outcome of the separation / dyadicity scan over a partition."""

    separation_violations: list
    dyadic_violations: list
    pairs_checked: int
    interior_clusters: int
    boundary_clusters: int
    fitted_threshold: int
    fitted_constant: float
    fitted_exponent: float
    cluster_stats: list = field(default_factory=list)


def verify_cluster_properties(table: BoxTable, partition: ClusterPartition,
                              links) -> VerificationReport:
    """Check cross-cluster separation and dyadicity on interior clusters.

    Cross-cluster pairs (both clusters interior) must satisfy
    ``|j1-j2| + |mu_1-mu_2| > (|j1|+|j2|)**delta``; any violation is an
    implementation bug and is returned as data.  The check reads ``table``,
    which must be of the partition's box radius, d and delta: on an exact
    basis a violation is the integer test
    ``D*|j1-j2| + |n_1-n_2| <= floor(D * (|j1|+|j2|)**delta)``.  A violating
    pair passes :func:`relation_links`' test, so only the table's relation
    ``links`` are tested.  ``pairs_checked`` counts the interior cross pairs
    within the link radius, tested or not: per offset the pairs of interior
    sites by bitmask, less the pairs inside an interior cluster of two or
    more members.  Dyadicity is ``M_alpha <= 2*m_alpha`` above a threshold
    which is fitted: the largest interior M_alpha violating the 2:1 rule.
    The growth constant of intra-cluster spreads is fitted in floats and
    reported, never assumed; each spread is the float of its exact value.
    """
    N, d, delta = partition.box_radius, partition.d, partition.delta
    if (table.box_radius, table.basis.d, table.delta) != (N, d, delta):
        raise ValueError("box table of another box radius, d or delta")
    _, _, _, sites, n, sup, D, T = table
    m_alpha, M_alpha = partition.m_alpha, partition.M_alpha
    cluster, boundary = partition.cluster, partition.boundary
    interior = [c for c, b in enumerate(boundary) if not b]
    # separation demands spread > s**delta; record failures
    found = [(sites[i], sites[k]) for i, k in links
             if cluster[i] != cluster[k] and not boundary[cluster[i]]
             and not boundary[cluster[k]]
             and D * _spatial(sites[i], sites[k]) + abs(n[k] - n[i])
             <= T[sup[i] + sup[k]]]
    radius = _link_radius(N, delta)
    flag = ["0" if b else "1" for b in boundary]
    # bit i: site i is interior, so of sup at most N - margin - 1; the link
    # radius is at most margin - 1, so i + o is in the box at i + step(o)
    inner = int("".join(map(flag.__getitem__, reversed(cluster))), 2)
    strides = [(2 * N + 1) ** (d - 1 - t) for t in range(d)]
    pairs = sum((inner & inner >> sum(map(operator.mul, o, strides)))
                .bit_count() for o in positive_offsets(d, radius))

    exponent = (chain_exponent(d) + 1) * float(delta)
    fitted_c = fitted_e = 0.0
    stats = []
    for c in interior:
        members = partition.members(c)
        diameter = 0
        for a, i in enumerate(members if len(members) > 1 else ()):
            for k in members[a + 1:]:
                j, j2 = sites[i], sites[k]
                spatial = _spatial(j, j2)
                diameter = max(diameter, spatial)
                # an intra pair in the bitmask count is no cross pair
                pairs -= spatial <= radius
                # int / int rounds correctly: the float of the exact spread
                spread = (D * spatial + abs(n[i] - n[k])) / D
                s = sup[i] + sup[k]
                fitted_c = max(fitted_c, spread / float(s) ** exponent)
                if s >= 2 and spread > 0:
                    fitted_e = max(fitted_e, math.log(spread) / math.log(s))
        stats.append({"id": c, "size": len(members), "m_alpha": m_alpha[c],
                      "M_alpha": M_alpha[c], "diameter": diameter})

    # interior clusters off the 2:1 rule
    loose = [c for c in interior if M_alpha[c] > 2 * m_alpha[c]]
    threshold = max((M_alpha[c] for c in loose), default=0)
    return VerificationReport(
        separation_violations=found,
        dyadic_violations=[c for c in loose if M_alpha[c] > threshold],
        pairs_checked=pairs,
        interior_clusters=len(interior),
        boundary_clusters=len(M_alpha) - len(interior),
        fitted_threshold=threshold,
        fitted_constant=fitted_c,
        fitted_exponent=fitted_e,
        cluster_stats=stats,
    )


@dataclass
class ScalingResult:
    rows: list                # one ChainSearchResult per gamma, in order
    slope: float
    slope_bound: int

    @property
    def slope_ok(self) -> bool:
        return self.slope <= self.slope_bound + 1e-9


def chain_scaling_experiment(basis: LatticeBasis, gammas, box_radius: int,
                             node_budget: int = 2_000_000) -> ScalingResult:
    """Maximal chain length as a function of gamma, with a log-log slope fit.

    The fitted slope must stay below the dimensional exponent.  Truncated
    searches mark their row; each row's witness carries its gamma.
    """
    rows = []
    for gamma in gammas:
        if gamma < 2:
            raise ValueError("scaling experiment expects gamma >= 2")
        rows.append(max_chain_length(basis, box_radius, gamma,
                                     node_budget=node_budget))
    pts = [(math.log(float(r.witness.gamma)), math.log(r.length))
           for r in rows if r.length >= 1]
    if len(pts) >= 2:
        n = len(pts)
        sx = sum(x for x, _ in pts)
        sy = sum(y for _, y in pts)
        sxx = sum(x * x for x, _ in pts)
        sxy = sum(x * y for x, y in pts)
        denom = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / denom if denom else 0.0
    else:
        slope = 0.0
    return ScalingResult(rows=rows, slope=slope,
                         slope_bound=chain_exponent(basis.d))
