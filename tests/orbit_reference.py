"""The orbit enumerations that graphs.edge_orbit and
tanner.verify_single_orbit replace, kept as oracles: a BFS over points
(edge or vertex ids) under permutations, a BFS over the sorted supports
of rows of H, the vertex star that holds each orbit row, the per-vertex
single-orbit check built on them, the Schreier generators formed
once per vertex and map, and the star-map check on all |V| x degree
flags at once."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from cayleycodes.gf2 import independent

from code_reference import h_csr


def point_orbit(perms, n_points: int, start: int = 0) -> int:
    """Size of the orbit of one point under permutations of
    range(n_points), breadth first, one frontier at a time."""
    perms = np.asarray(perms)
    seen = np.zeros(n_points, dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        reached = np.zeros(n_points, dtype=bool)
        reached[perms[:, frontier]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen |= reached
    return int(seen.sum())


def row_orbit(inst, perms, start_row: int = 0) -> np.ndarray:
    """Orbit of one row of H under edge permutations, one sorted support
    per row, in the order of the sequential BFS: one frontier at a time,
    images read in (frontier row, permutation) order, unseen ones kept in
    order of first encounter."""
    table = np.stack(perms).astype(np.int32)
    indptr, indices = h_csr(inst)
    frontier = indices[indptr[start_row]:indptr[start_row + 1]][None]
    k = frontier.shape[1]
    as_key = np.dtype((np.void, 4 * k))   # a support as one opaque value
    levels, seen = [frontier], frontier.view(as_key).ravel()
    while frontier.size:
        images = np.ascontiguousarray(table.T[frontier].swapaxes(1, 2)).reshape(-1, k)
        images.sort(axis=1)
        keys = images.view(as_key).ravel()
        new, first = np.unique(keys, return_index=True)
        unseen = ~np.isin(new, seen, assume_unique=True)
        new = new[unseen]
        frontier = images[np.sort(first[unseen])]
        levels.append(frontier)
        seen = np.concatenate([seen, new])
    return np.concatenate(levels)


def locate_rows(inst, orbit: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Per orbit row of distinct edges: the vertex whose star holds it
    (-1 if none) and its local mask there.  Distinct edges share at most
    one endpoint, so only the shared endpoint of the first two edges can
    qualify; a weight-1 row lies on both endpoint stars and goes to the
    first one in Python's set order."""
    from group_reference import canonical_flags    # it imports this module
    graph = inst.graph
    v, j = np.moveaxis(canonical_flags(graph)[orbit[:, :2]], -1, 0)
    w = graph.adj[v, j]
    if orbit.shape[1] == 1:
        vertex = np.array([next(iter({a, b})) for a, b in
                           zip(v[:, 0].tolist(), w[:, 0].tolist())], dtype=np.int64)
    else:
        (v0, v1), (w0, w1) = v.T, w.T
        vertex = np.where((v0 == v1) | (v0 == w1), v0,
                          np.where((w0 == v1) | (w0 == w1), w0, -1))
    on_star = orbit[:, :, None] == graph.eid[vertex][:, None, :]
    vertex[~on_star.any(axis=2).all(axis=1)] = -1
    packed = np.packbits(on_star.any(axis=1), axis=1, bitorder="little")
    return vertex, [int.from_bytes(row, "little") for row in packed.tolist()]


def single_orbit(inst, orbit: np.ndarray) -> tuple[bool, int | None, int | None]:
    """(passed, bad_row, bad_vertex) of the per-vertex check on an orbit
    of rows: every row lies on one vertex star, and at every vertex the
    local words of the rows found there span the dual of the inner code."""
    vertex, masks = locate_rows(inst, orbit)
    if (vertex < 0).any():
        return False, int(np.argmax(vertex < 0)), None
    local_masks: list[list[int]] = [[] for _ in range(inst.graph.n_vertices)]
    for v, mask in zip(vertex.tolist(), masks):
        local_masks[v].append(mask)
    rank_b = len(independent(inst.dual_rows))
    for v, local in enumerate(local_masks):
        if not len(independent(local)) == rank_b == len(independent(inst.dual_rows + local)):
            return False, None, v
    return True, None, None


class SchreierReference(NamedTuple):
    schreier: set[tuple[int, ...]]       # the distinct Schreier generators
    vertices: int                        # size of the orbit of vertex 0
    missed: int | None                   # the first vertex outside it
    gamma_0: set[int]                    # the stabiliser orbit of position 0
    size: int                            # edges in the orbit of edge 0


def schreier_certificate(graph, maps) -> SchreierReference:
    """The stabiliser certificate of graphs.edge_orbit, per vertex, for
    named star maps (u, tau): a sequential BFS from vertex 0, frontier
    by frontier in id order and through the maps in name order, that
    records the |V| x degree table path[u(v)] = tau o path[v]; one
    sigma = path[u(v)]^-1 o tau o path[v] for every reached vertex v and
    every map, kept as a set of rows; Gamma.0 closed on positions; and
    the orbit of edge 0, halved when the reversed flag (adj[0, 0],
    inv_gen[0]) is in the orbit of the flag (0, 0)."""
    names = sorted(maps)
    n, d = graph.n_vertices, graph.degree
    u = [np.asarray(maps[name][0]).tolist() for name in names]
    tau = [np.asarray(maps[name][1]).tolist() for name in names]
    path: list[list[int] | None] = [None] * n
    path[0] = list(range(d))
    frontier = [0]
    while frontier:
        reached = []
        for v in frontier:
            for p in range(len(names)):
                w = u[p][v]
                if path[w] is None:
                    path[w] = [tau[p][x] for x in path[v]]
                    reached.append(w)
        frontier = sorted(reached)
    inverse = [None if row is None else np.argsort(row).tolist() for row in path]
    schreier = {tuple(inverse[u[p][v]][tau[p][x]] for x in path[v])
                for p in range(len(names)) for v in range(n) if path[v] is not None}
    gamma_0 = [0]
    for x in gamma_0:                    # the list grows as it is read
        gamma_0 += sorted({s[x] for s in schreier} - set(gamma_0))
    w, j = int(graph.adj[0, 0]), int(graph.inv_gen[0])
    paired = path[w] is not None and inverse[w][j] in gamma_0
    vertices = sum(row is not None for row in path)
    return SchreierReference(
        schreier, vertices, next((v for v in range(n) if path[v] is None), None),
        set(gamma_0), vertices * len(gamma_0) // (2 if paired else 1))


def word_orbit(word: int, perms) -> set[int]:
    """The orbit of an integer word under permutations of its bit
    positions, bit s[i] of the image being bit i of the word."""
    orbit, frontier = {word}, [word]
    while frontier:
        images = {sum((w >> i & 1) << p for i, p in enumerate(s))
                  for w in frontier for s in perms}
        frontier = list(images - orbit)
        orbit |= images
    return orbit


def star_map_failure(graph, maps) -> tuple[str, int, int] | None:
    """The first (name, vertex, position), maps in name order and flags
    in row-major order, where a map (u, tau) is no star map, from one
    check on every flag at once: u and tau one-to-one, and u(adj[v, i]) =
    adj[u(v), tau(i)]."""
    for name in sorted(maps):
        u, tau = (np.asarray(x) for x in maps[name])
        ok = (np.bincount(u, minlength=graph.n_vertices)[u, None] == 1) & (
            np.bincount(tau, minlength=graph.degree)[tau] == 1)
        ok &= u[graph.adj] == graph.adj[u[:, None], tau]
        if not ok.all():
            v, i = np.unravel_index(np.argmin(ok), ok.shape)
            return name, int(v), int(i)
    return None
