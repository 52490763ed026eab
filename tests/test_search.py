"""Longest-path search: the bitset DFS against the plain set-based DFS."""

import random

import pytest

from toruskit import search
from toruskit.search import _reachable_count, longest_path


def _set_reachable_count(adjacency, origin, visited):
    stack = [origin]
    local = {origin}
    count = 0
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in visited and w not in local:
                local.add(w)
                count += 1
                stack.append(w)
    return count


def _set_dfs_longest(adjacency, comp, best_len, length_cap, budget):
    # branch-and-bound DFS with Python sets for the visited nodes
    best_path = None
    truncated = False
    expanded = 0
    comp_size = len(comp)
    for start in comp:
        if comp_size - 1 <= best_len or truncated:
            break
        path = [start]
        visited = {start}
        iters = [iter(adjacency[start])]
        while iters:
            if expanded >= budget or (length_cap is not None
                                      and best_len >= length_cap):
                truncated = True
                break
            it = iters[-1]
            advanced = False
            for w in it:
                if w in visited:
                    continue
                rest = _set_reachable_count(adjacency, w, visited)
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
    return best_len, best_path, truncated, expanded


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
    order = list(range(n))
    rng.shuffle(order)
    return [sorted(order[w] for w in adjacency[order.index(v)])
            for v in range(n)]


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
            assert (_reachable_count(masks, origin, mask)
                    == _set_reachable_count(adjacency, origin, visited))


@pytest.mark.parametrize("seed", range(6))
def test_bitset_dfs_matches_set_dfs(seed, monkeypatch):
    # above 64 nodes, so the DFS runs and not the DP; the trees are searched
    # to the end, the graphs with chords are cut by the budget or the cap
    rng = random.Random(seed)
    cases = [(False, None, 2_000_000), (True, None, 300), (True, None, 3000),
             (True, 12, 3000)]
    for chords, length_cap, node_budget in cases:
        adjacency = random_graph(rng, rng.randint(65, 100), chords)
        fast = longest_path(adjacency, length_cap=length_cap,
                            node_budget=node_budget)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_dfs_longest", _set_dfs_longest)
            plain = longest_path(adjacency, length_cap=length_cap,
                                 node_budget=node_budget)
        assert (fast.length, fast.path, fast.truncated, fast.expanded) == (
            plain.length, plain.path, plain.truncated, plain.expanded)
        assert fast.length == len(fast.path) - 1
        assert len(set(fast.path)) == len(fast.path)
        assert all(b in adjacency[a] for a, b in zip(fast.path, fast.path[1:]))
        assert fast.truncated == chords
