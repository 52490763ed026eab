"""Longest-path search: the bitset DFS against the plain set-based DFS."""

import random

import pytest

from toruskit import clusters, search
from toruskit.lattice import new_lattice
from toruskit.search import (FLOOD_MEMO, _dfs_longest, _reach_mask,
                             connected_components, longest_path)


def _set_reach(adjacency, origin, visited):
    # the nodes reachable from origin avoiding visited, origin included
    stack = [origin]
    local = {origin}
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in visited and w not in local:
                local.add(w)
                stack.append(w)
    return local


def _set_dfs_longest(adjacency, best_len, budget):
    # branch-and-bound DFS with Python sets for the visited nodes; it floods
    # once per candidate
    best_path = None
    truncated = False
    expanded = 0
    floods = 0
    nodes = len(adjacency)
    for start in range(nodes):
        if nodes - 1 <= best_len or truncated:
            break
        path = [start]
        visited = {start}
        iters = [iter(adjacency[start])]
        while iters:
            if expanded >= budget:
                truncated = True
                break
            it = iters[-1]
            advanced = False
            for w in it:
                if w in visited:
                    continue
                rest = len(_set_reach(adjacency, w, visited)) - 1
                floods += 1
                if len(path) + rest <= best_len:
                    continue
                visited.add(w)
                path.append(w)
                iters.append(iter(adjacency[w]))
                expanded += 1
                if len(path) - 1 > best_len:
                    best_len = len(path) - 1
                    best_path = tuple(path)
                advanced = True
                break
            if not advanced:
                iters.pop()
                visited.discard(path.pop())
    return best_len, best_path, truncated, expanded, floods


def random_graph(rng, n, chords=True):
    """Connected sparse graph: a random tree plus chords, sorted lists."""
    adjacency = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adjacency[u].add(v)
        adjacency[v].add(u)
    for _ in range(rng.randint(n // 4, n) if chords else 0):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return _relabel(rng, adjacency)


def caterpillar(rng, spine, chords=0):
    """A path with pendant branches of one to three nodes, sorted lists.

    Stepping along the spine past a branch splits the unvisited region into
    the rest of the spine and the branch.
    """
    adjacency = [set() for _ in range(spine)]

    def link(u, v):
        adjacency[u].add(v)
        adjacency[v].add(u)

    for v in range(1, spine):
        link(v - 1, v)
    for v in range(spine):
        if rng.random() < 0.6:
            tip = v
            for _ in range(rng.randint(1, 3)):
                adjacency.append(set())
                link(tip, len(adjacency) - 1)
                tip = len(adjacency) - 1
    for _ in range(chords):
        u, v = rng.randrange(spine), rng.randrange(spine)
        if u != v:
            link(u, v)
    return _relabel(rng, adjacency)


def _relabel(rng, adjacency):
    n = len(adjacency)
    order = list(range(n))
    rng.shuffle(order)
    return [sorted(order[w] for w in adjacency[order.index(v)])
            for v in range(n)]


def assert_dfs_matches_set_dfs(adjacency, best_len, budget):
    fast = _dfs_longest(adjacency, best_len, budget)
    plain = _set_dfs_longest(adjacency, best_len, budget)
    # length, path, truncated and expanded; the flood counts differ
    assert fast[:4] == plain[:4]
    return fast


def test_reachable_count_matches_set_flood_fill():
    rng = random.Random(3)
    for _ in range(20):
        adjacency = random_graph(rng, rng.randint(5, 150))
        masks = [sum(1 << w for w in nbrs) for nbrs in adjacency]
        n = len(adjacency)
        for _ in range(10):
            visited = {v for v in range(n) if rng.random() < 0.3}
            origin = rng.randrange(n)
            visited.discard(origin)
            mask = sum(1 << v for v in visited)
            assert _reach_mask(masks, origin, mask) == sum(
                1 << v for v in _set_reach(adjacency, origin, visited))


@pytest.mark.parametrize("seed", range(6))
def test_bitset_dfs_matches_set_dfs(seed, monkeypatch):
    # above 64 nodes, so the DFS runs and not the DP; the trees are searched
    # to the end, the graphs with chords are cut by the budget
    rng = random.Random(seed)
    cases = [(False, 2_000_000), (True, 300), (True, 1000), (True, 3000)]
    for chords, node_budget in cases:
        adjacency = random_graph(rng, rng.randint(65, 100), chords)
        fast = longest_path(adjacency, node_budget=node_budget)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_dfs_longest", _set_dfs_longest)
            plain = longest_path(adjacency, node_budget=node_budget)
        assert (fast.length, fast.path, fast.truncated, fast.expanded) == (
            plain.length, plain.path, plain.truncated, plain.expanded)
        assert fast.length == len(fast.path) - 1
        assert len(set(fast.path)) == len(fast.path)
        assert all(b in adjacency[a] for a, b in zip(fast.path, fast.path[1:]))
        assert fast.truncated == chords


@pytest.mark.parametrize("seed", range(4))
def test_dfs_matches_set_dfs_from_a_positive_best(seed):
    # a caller passes the best length of the components searched before
    rng = random.Random(100 + seed)
    for chords in (False, True):
        adjacency = random_graph(rng, rng.randint(20, 60), chords)
        for best_len in (1, 5, 12, 30):
            assert_dfs_matches_set_dfs(adjacency, best_len, 3000)


@pytest.mark.parametrize("seed", range(4))
def test_dfs_matches_set_dfs_on_paths_with_pendant_branches(seed):
    rng = random.Random(200 + seed)
    improved = 0
    # the trees are searched to the end, the graphs with chords are cut
    for spine, chords in ((15, 0), (30, 0), (30, 4), (50, 10)):
        adjacency = caterpillar(rng, spine, chords)
        full = 2_000_000 if chords == 0 else 5000
        for best_len, budget in ((0, full), (0, 300), (spine // 2, full)):
            length, path, *_ = assert_dfs_matches_set_dfs(
                adjacency, best_len, budget)
            improved += path is not None
    assert improved


def test_dfs_floods_less_than_one_per_candidate(monkeypatch):
    # the set DFS floods once per candidate; the bitset DFS reuses a frame's
    # reach masks and cuts by the region left, with the same outcome
    rng = random.Random(7)
    adjacency = caterpillar(rng, 40, 6)
    counts = {"fast": 0, "plain": 0}

    def counted(name, flood):
        def wrapper(*args):
            counts[name] += 1
            return flood(*args)
        return wrapper

    monkeypatch.setattr(search, "_reach_mask",
                        counted("fast", search._reach_mask))
    monkeypatch.setitem(globals(), "_set_reach", counted("plain", _set_reach))
    fast = _dfs_longest(adjacency, 0, 5000)
    plain = _set_dfs_longest(adjacency, 0, 5000)
    assert fast[:4] == plain[:4]
    assert 0 < counts["fast"] < counts["plain"]
    assert (fast[4], plain[4]) == (counts["fast"], counts["plain"])


@pytest.mark.parametrize("memo", [FLOOD_MEMO, 1, 8])
def test_flood_memo_generations_rotate(memo, monkeypatch):
    # more than two generations of distinct visited sets: the memo drops
    # ``older`` and moves hits back to ``recent``, and the search stays that
    # of the set DFS
    seen = set()  # the distinct visited sets flooded for
    flood = search._reach_mask

    def wrapper(masks, origin, visited):
        seen.add(visited)
        return flood(masks, origin, visited)

    monkeypatch.setattr(search, "_reach_mask", wrapper)
    monkeypatch.setattr(search, "FLOOD_MEMO", memo)
    rng = random.Random(11)
    for n in (70, 90):
        adjacency = random_graph(rng, n)
        seen.clear()
        assert_dfs_matches_set_dfs(adjacency, 0, 3000)
        assert len(seen) > 2 * FLOOD_MEMO >= 2 * memo


def _chain_graph(shear, box_radius, gamma, whole=False):
    # the largest component of the gamma-link graph max_chain_length searches,
    # or with ``whole`` the graph itself
    captured = []

    def capture(adjacency, **kwargs):
        captured.append(adjacency)
        return longest_path([])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clusters, "longest_path", capture)
        clusters.max_chain_length(new_lattice([["1", shear], ["0", "1"]]),
                                  box_radius, gamma)
    adjacency, = captured
    if whole:
        return adjacency
    comp = max(connected_components(adjacency), key=len)
    local = {v: i for i, v in enumerate(comp)}
    return [[local[w] for w in adjacency[v] if w in local] for v in comp]


@pytest.mark.parametrize("shear, gamma", [("1/2", 3), ("2/3", 4)])
def test_flood_memo_on_a_chain_graph(shear, gamma):
    # a gamma-link graph reaches one visited set in many orders, so most
    # candidates reuse a memo mask
    adjacency = _chain_graph(shear, 4, gamma)
    assert len(adjacency) > 64
    _, _, truncated, expanded, floods = assert_dfs_matches_set_dfs(
        adjacency, 0, 3000)
    assert truncated and expanded == 3000
    assert 0 < floods < expanded / 2


def _brute_longest(adjacency):
    # the longest simple path by plain DFS from every node; it stops only
    # once a path visits every node of the largest component
    top = max(map(len, connected_components(adjacency))) - 1
    best = 0

    def grow(v, visited, length):
        nonlocal best
        best = max(best, length)
        for w in adjacency[v]:
            if w not in visited and best < top:
                grow(w, visited | {w}, length + 1)

    for v in range(len(adjacency)):
        grow(v, {v}, 0)
    return best


def _small_graphs(rng):
    # random graphs of at most 10 nodes, often in several components, and
    # complete graphs
    for _ in range(60):
        n = rng.randint(1, 10)
        p = rng.choice((0.15, 0.3, 0.6, 1.0))
        adjacency = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        yield [sorted(nbrs) for nbrs in adjacency]


def assert_simple_path(adjacency, result):
    path = result.path
    assert result.length == len(path) - 1
    assert len(set(path)) == len(path)
    assert all(b in adjacency[a] for a, b in zip(path, path[1:]))


def test_longest_path_matches_brute_force_on_small_graphs():
    rng = random.Random(21)
    for adjacency in _small_graphs(rng):
        result = longest_path(adjacency)
        assert not result.truncated
        assert result.length == _brute_longest(adjacency)
        assert_simple_path(adjacency, result)


def test_every_budget_bounds_the_search():
    # the DFS probe, the DP and the DFS of a component above 64 nodes all
    # count toward the one budget; an uncut search is exact
    rng = random.Random(22)
    graphs = list(_small_graphs(rng))[:20]
    graphs += [random_graph(rng, 20), random_graph(rng, 24),
               caterpillar(rng, 50, 4)]
    exact = [longest_path(adjacency).length for adjacency in graphs]
    for budget in list(range(1, 60)) + [100, 400, 1000, 3000]:
        for adjacency, length in zip(graphs, exact):
            result = longest_path(adjacency, node_budget=budget)
            assert result.expanded <= budget
            assert_simple_path(adjacency, result)
            assert result.length <= length
            if not result.truncated:
                assert result.length == length


def test_dp_states_count_toward_the_budget(monkeypatch):
    # box 3, shear 1/2, gamma 2: a 24-node component whose DP needs 167,834
    # states.  A budget of 500 ends in the probe; with 60,000 the DP gives
    # up at half the budget left and the DFS then finishes on the rest
    adjacency = _chain_graph("1/2", 3, 2, whole=True)
    assert 24 in map(len, connected_components(adjacency))
    result = longest_path(adjacency, node_budget=500)
    assert result.expanded == 500 and result.truncated
    assert_simple_path(adjacency, result)

    outcomes = []
    dp = search._dp_longest

    def wrapper(*args):
        outcomes.append(dp(*args))
        return outcomes[-1]

    monkeypatch.setattr(search, "_dp_longest", wrapper)
    result = longest_path(adjacency, node_budget=60_000)
    assert outcomes == [None]
    assert (result.length, result.truncated) == (22, False)
    assert result.expanded <= 60_000
    assert_simple_path(adjacency, result)
    assert longest_path(adjacency, node_budget=400_000).length == 22


def test_small_dense_component_does_not_starve_a_long_path():
    # a complete graph on nodes 0..11 comes first by first node; its DP
    # alone needs 12 * 2**11 states, but the 40-node path component is
    # searched first and settles the search
    dense = [[w for w in range(12) if w != v] for v in range(12)]
    chain = [[w for w in (v - 1, v + 1) if 12 <= w < 52]
             for v in range(12, 52)]
    result = longest_path(dense + chain, node_budget=1000)
    assert (result.length, result.truncated) == (39, False)
    assert result.expanded <= 1000
    assert sorted(result.path) == list(range(12, 52))
