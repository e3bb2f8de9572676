"""Independent reference implementations used only to check the library.

Everything here is written from scratch against the definitions: plain
coordinate arithmetic, dict/set data structures, and numpy enumeration.
None of it shares code paths with the package's bitmap machinery, so an
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def coords_of(dims, v):
    out = []
    for length in reversed(dims):
        out.append(v % length)
        v //= length
    return tuple(reversed(out))


def vid_of(dims, coords):
    v = 0
    for c, length in zip(coords, dims):
        v = v * length + c
    return v


def neighbors_of(dims, periodic, v):
    cs = list(coords_of(dims, v))
    out = set()
    for axis in range(len(dims)):
        for delta in (-1, 1):
            c = cs[axis] + delta
            if periodic[axis]:
                c %= dims[axis]
            elif not 0 <= c < dims[axis]:
                continue
            cs2 = list(cs)
            cs2[axis] = c
            out.add(vid_of(dims, cs2))
    return sorted(out)


def all_edges(dims, periodic):
    n = 1
    for x in dims:
        n *= x
    out = set()
    for v in range(n):
        for u in neighbors_of(dims, periodic, v):
            out.add((min(u, v), max(u, v)))
    return out


def edges_between(dims, periodic, U, W):
    """Undirected edges with one end in U and the other in W, as (min, max)."""
    W = set(W)
    return {(min(u, w), max(u, w))
            for u in U for w in neighbors_of(dims, periodic, u) if w in W}


def out_edges(dims, periodic, U):
    """Out-directed boundary edges (u, v) with u in U and v outside."""
    U = set(U)
    return {(u, v) for u in U for v in neighbors_of(dims, periodic, u) if v not in U}


def boundary_sets(dims, periodic, members: set[int]):
    """(internal, external) vertex boundaries by direct definition."""
    n = 1
    for x in dims:
        n *= x
    internal = set()
    external = set()
    for v in range(n):
        nbrs = neighbors_of(dims, periodic, v)
        if v in members and any(u not in members for u in nbrs):
            internal.add(v)
        if v not in members and any(u in members for u in nbrs):
            external.add(v)
    return internal, external


def flood_components(dims, periodic, members: set[int], power: int = 1):
    """Components under distance-<=power adjacency, via plain BFS."""
    n = 1
    for x in dims:
        n *= x

    def ball(v):
        seen = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            if seen[u] == power:
                continue
            for w in neighbors_of(dims, periodic, u):
                if w not in seen:
                    seen[w] = seen[u] + 1
                    queue.append(w)
        return [w for w in seen if w != v]

    left = set(members)
    comps = []
    while left:
        seed = min(left)
        comp = {seed}
        queue = deque([seed])
        while queue:
            u = queue.popleft()
            for w in ball(u):
                if w in left and w not in comp:
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
        left -= comp
    return comps


def brute_force_count(dims, periodic, domain: list[int], q: int,
                      allowed: dict[int, set[int]] | None = None,
                      chunk: int = 1 << 18) -> int:
    """Count proper colorings by enumerating every assignment with numpy."""
    m = len(domain)
    if m == 0:
        return 1
    pos = {v: i for i, v in enumerate(domain)}
    edges = [
        (pos[u], pos[v])
        for (u, v) in all_edges(dims, periodic)
        if u in pos and v in pos
    ]
    choices = []
    for v in domain:
        opts = sorted(allowed[v]) if allowed is not None else list(range(1, q + 1))
        if not opts:
            return 0
        choices.append(np.array(opts, dtype=np.int8))
    total_assign = 1
    for c in choices:
        total_assign *= len(c)
    count = 0
    radices = [len(c) for c in choices]
    start = 0
    while start < total_assign:
        stop = min(start + chunk, total_assign)
        idx = np.arange(start, stop, dtype=np.int64)
        cols = np.empty((stop - start, m), dtype=np.int8)
        rem = idx
        for i in range(m - 1, -1, -1):
            cols[:, i] = choices[i][rem % radices[i]]
            rem = rem // radices[i]
        ok = np.ones(stop - start, dtype=bool)
        for (i, j) in edges:
            ok &= cols[:, i] != cols[:, j]
        count += int(ok.sum())
        start = stop
    return count


def enumerate_proper(dims, periodic, domain: list[int], q: int,
                     fixed: dict[int, int] | None = None):
    """Yield proper assignments of the domain as dicts, plain recursion."""
    fixed = fixed or {}
    nbrs = {v: neighbors_of(dims, periodic, v) for v in domain}
    assign = dict(fixed)

    def rec(i):
        if i == len(domain):
            yield {v: assign[v] for v in domain}
            return
        v = domain[i]
        for c in range(1, q + 1):
            if all(assign.get(u) != c for u in nbrs[v]):
                assign[v] = c
                yield from rec(i + 1)
                del assign[v]

    yield from rec(0)


def distances_from(dims, periodic, src):
    """Graph distances from src by plain BFS, as a dict over every cell."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in neighbors_of(dims, periodic, u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def witness_set(dims, periodic, sets, a, outside):
    """The separating construction's witness set T, cell by cell.

    Set i owns the pair (w, z) when w is in a[i] and its neighbor z is in
    sets[i].  An outside cell v is in T when some neighbor w has an owner
    toward at least one neighbor and fewer than half of those nonempty
    owner sets fail to be contained in w's owner set toward v.
    """
    n = 1
    for x in dims:
        n *= x

    def owners(w, z):
        return frozenset(i for i in range(len(sets)) if w in a[i] and z in sets[i])

    found = set()
    for w in range(n):
        nbrs = neighbors_of(dims, periodic, w)
        owned = [own for own in (owners(w, z) for z in nbrs) if own]
        if not owned:
            continue
        for v in nbrs:
            if v in outside:
                escaping = sum(1 for own in owned if not own <= owners(w, v))
                if 2 * escaping < len(owned):
                    found.add(v)
    return found


def striped_fill(dims, a, b):
    """The striped pure-pattern fill cell by cell: an even cell (by
    coordinate sum) takes color number (axis+1)-weighted coordinate sum
    mod |A| of A, an odd cell the same number mod |B| of B."""
    n = 1
    for x in dims:
        n *= x
    out = []
    for v in range(n):
        cs = coords_of(dims, v)
        side = a if sum(cs) % 2 == 0 else b
        out.append(side[sum((axis + 1) * c for axis, c in enumerate(cs)) % len(side)])
    return out
