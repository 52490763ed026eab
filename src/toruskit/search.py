"""Graph utilities: connected components and budgeted exact longest-path search."""

from __future__ import annotations

from dataclasses import dataclass

# the most visited sets each of the two generations of the DFS flood memo holds
FLOOD_MEMO = 512


@dataclass
class PathSearchResult:
    """Longest simple path found; ``length`` counts edges.

    ``expanded`` counts DFS expansions plus DP states and never exceeds the
    node budget; ``floods`` counts the flood fills the DFS ran (the DP runs
    none).
    """

    length: int
    path: tuple
    truncated: bool
    expanded: int
    floods: int


def connected_components(adjacency):
    """Components of an adjacency list, each sorted, ordered by first node."""
    n = len(adjacency)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _reach_mask(masks, origin, visited):
    """Bitmask of the nodes reachable from origin avoiding ``visited``.

    ``masks[v]`` is the neighbour bitmask of node v; the search grows one
    bitmask frontier by frontier and the origin is part of the result.
    """
    frontier = 1 << origin
    blocked = visited | frontier
    while frontier:
        grown = 0
        while frontier:
            v = frontier.bit_length() - 1
            grown |= masks[v]
            frontier ^= 1 << v
        frontier = grown & ~blocked
        blocked |= frontier
    return blocked & ~visited


def _dp_longest(adj, budget):
    """Exact longest path by layered DP over (visited-mask, endpoint) states.

    Returns (length, path, states), or None once the states built pass
    ``budget`` (checked before each state is extended, so the overshoot is
    at most one state's degree).  States of one layer share
    the mask popcount, so layers never overlap and reconstruction walks the
    layers backwards.
    """
    k = len(adj)
    layers = [{(1 << v) * k + v for v in range(k)}]
    total = k
    while True:
        nxt = set()
        for code in layers[-1]:
            if total + len(nxt) > budget:
                return None
            mask, v = divmod(code, k)
            for w in adj[v]:
                bit = 1 << w
                if not mask & bit:
                    nxt.add((mask | bit) * k + w)
        if not nxt:
            break
        total += len(nxt)
        if total > budget:
            return None
        layers.append(nxt)
    code = min(layers[-1])
    mask, v = divmod(code, k)
    path = [v]
    for t in range(len(layers) - 2, -1, -1):
        prev_mask = mask & ~(1 << v)
        for u in adj[v]:
            if prev_mask & (1 << u) and prev_mask * k + u in layers[t]:
                mask, v = prev_mask, u
                path.append(u)
                break
        else:
            raise AssertionError("path reconstruction failed")
    path.reverse()
    return len(path) - 1, path, total


def _dfs_longest(adjacency, best_len, budget):
    """Branch-and-bound DFS over the connected graph ``adjacency`` (one
    component); returns the improved best.

    A candidate is cut when the nodes still reachable from it cannot beat the
    best length.  Each frame (tip ``u``, visited set ``V``) floods every
    component of the unvisited graph next to ``u`` at most once and keeps
    the reach masks: a candidate inside a stored mask reuses its count.  The
    frame also keeps ``left``, the nodes of its region (the component flooded
    when ``u`` was entered, minus ``u``) that no stored mask covers; an
    unflooded candidate's component has at most ``left`` nodes, so it is cut
    without a flood when even ``left`` cannot beat the best.  Neither shortcut
    changes a decision of the exact count.  The visited set and the
    neighbour sets are int bitmasks.

    The search reaches one visited set in many orders, so a flood memo maps
    each visited set to the masks already flooded for it, and a candidate
    inside one of them is not flooded again.  A reused mask is the mask a
    flood would return, so no decision changes.  The memo has two
    generations of at most ``FLOOD_MEMO`` visited sets each: a hit in
    ``older`` moves back to ``recent``, and a full ``recent`` replaces
    ``older``.  Returns (best length, best path, truncated, expanded,
    floods).
    """
    masks = [sum(1 << w for w in nbrs) for nbrs in adjacency]
    best_path = None
    truncated = False
    expanded = 0
    floods_run = 0
    recent, older = {}, {}
    nodes = len(adjacency)
    for start in range(nodes):
        if nodes - 1 <= best_len or truncated:
            break
        path = [start]
        visited = 1 << start
        iters = [iter(adjacency[start])]
        floods = [[]]
        lefts = [nodes - 1]
        while iters:
            if expanded >= budget:
                truncated = True
                break
            it = iters[-1]
            stored = floods[-1]
            # a candidate whose component has at most ``room`` nodes is cut
            room = best_len - len(path) + 1
            advanced = False
            for w in it:
                if visited >> w & 1:
                    continue
                for reach in stored:
                    if reach >> w & 1:
                        break
                else:
                    if lefts[-1] <= room:
                        continue
                    known = recent.get(visited)
                    if known is None:
                        known = older.pop(visited, [])
                        if len(recent) >= FLOOD_MEMO:
                            older, recent = recent, {}
                        recent[visited] = known
                    for reach in known:
                        if reach >> w & 1:
                            break
                    else:
                        reach = _reach_mask(masks, w, visited)
                        known.append(reach)
                        floods_run += 1
                    stored.append(reach)
                    lefts[-1] -= reach.bit_count()
                size = reach.bit_count()
                if size <= room:
                    continue
                visited |= 1 << w
                path.append(w)
                iters.append(iter(adjacency[w]))
                floods.append([])
                lefts.append(size - 1)
                expanded += 1
                if len(path) - 1 > best_len:
                    best_len = len(path) - 1
                    best_path = tuple(path)
                advanced = True
                break
            if not advanced:
                iters.pop()
                floods.pop()
                lefts.pop()
                visited ^= 1 << path.pop()
    return best_len, best_path, truncated, expanded, floods_run


def longest_path(adjacency, node_budget=2_000_000) -> PathSearchResult:
    """Exact longest simple path (in edges) over all components.

    ``node_budget`` bounds all the work: DFS expansions and DP states both
    count toward ``expanded``.  Components are visited largest first, down
    to the first one too small to beat the best path.  A component of
    ``k <= 64`` nodes gets a DFS probe of ``k**2`` expansions (a Hamiltonian
    path is provably longest); a cut probe is followed by the layered mask
    DP on half the budget left, and a DP that gives up is charged that half
    and followed by the DFS on the rest.  Larger components get the
    branch-and-bound DFS (``_dfs_longest``) on the whole budget left;
    ``floods`` counts its flood fills.  A search the budget cuts short is
    honest: the best path found is returned and flagged ``truncated``.
    """
    if not adjacency:
        return PathSearchResult(0, (), False, 0, 0)
    best_len = 0
    best_path = (0,)
    truncated = False
    expanded = 0
    floods = 0

    for comp in sorted(connected_components(adjacency), key=len, reverse=True):
        comp_size = len(comp)
        if comp_size - 1 <= best_len:
            break
        local = {v: i for i, v in enumerate(comp)}
        sub = [[local[w] for w in adjacency[v] if w in local] for v in comp]
        for step in ("probe", "dp", "dfs") if comp_size <= 64 else ("dfs",):
            left = node_budget - expanded
            if step == "dp":
                solved = _dp_longest(sub, left // 2)
                if solved is None:
                    expanded += left // 2
                    continue
                length, sub_path, states = solved
                cut = False
                expanded += states
            else:
                length, sub_path, cut, spent, flooded = _dfs_longest(
                    sub, best_len,
                    min(comp_size ** 2, left) if step == "probe" else left)
                expanded += spent
                floods += flooded
            if sub_path is not None and length > best_len:
                best_len = length
                best_path = tuple(comp[i] for i in sub_path)
            if not cut or best_len >= comp_size - 1 or expanded >= node_budget:
                break
        truncated = truncated or cut
        if expanded >= node_budget:
            truncated = True
            break
    return PathSearchResult(best_len, best_path, truncated, expanded, floods)
