"""Normalized spectra of regular graphs and the expansion certificate.

Two independent routes to the second eigenvalue, both fed straight from
the graph's (|V|, degree) neighbour table `adj`:

dense     full eigenvalue list of the normalized adjacency matrix via
          the symmetric eigensolver (graphs up to 4000 vertices);
iterative Lanczos with full reorthogonalization, deflating the all-ones
          vector and, on bipartite graphs, the sign vector, so the
          extreme Ritz values converge to the largest and smallest
          nontrivial eigenvalues.  Plain Lanczos loses orthogonality on
          the near-degenerate spectra these graphs have, hence the full
          reorthogonalization (applied twice per step).

Both routes reproduce bit for bit the sparse-matrix (CSR) route kept in
tests/spectra_reference.py.  The dense matrix counts neighbours with
np.add.at, which sums a repeated neighbour as the CSR conversion does,
then divides by the degree in place: toarray() / degree entry by entry.
The matrix-vector product adds (1 / degree) * x[w] over the neighbours
w of each vertex in ascending order, starting from 0.0.  A canonical CSR
matrix (sorted indices, duplicates summed, data 1 / degree after the
scalar division) sums each row from 0.0 over the same products in
ascending column order, and the neighbours of a vertex are distinct
(generate_group rejects repeated generators): the same operations in
the same order.

The Lanczos basis starts with min(cap, 64) columns; when it is full,
the filled columns are copied into a C-order array twice as wide, at
most cap.  Only the leading dimension BLAS sees changes, not the calls
or the results, and a run that converges after 128 steps no longer
holds 1200 columns.

A (q+1)-regular graph certifies as Ramanujan when every nontrivial
normalized eigenvalue has magnitude at most 2 sqrt(q)/(q+1), checked to
an absolute tolerance of 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CheckFailure
from .graphs import CayleyGraph

DENSE_VERTEX_LIMIT = 4000
SPECTRUM_TOL = 1e-6


@dataclass
class SpectrumReport:
    method: str                   # "dense" or "iterative"
    tolerance: float
    top: float                    # largest normalized eigenvalue (should be 1)
    bottom: float                 # smallest normalized eigenvalue
    lambda2: float                # largest nontrivial eigenvalue
    lambda_min: float             # smallest nontrivial eigenvalue
    bipartite: bool
    iterations: Optional[int] = None
    eigenvalues: Optional[np.ndarray] = None  # dense mode only, ascending


def ramanujan_bound(q: int) -> float:
    return 2.0 * math.sqrt(q) / (q + 1)


def spectrum(graph: CayleyGraph, mode: str = "auto", seed: int = 0,
             tol: float = SPECTRUM_TOL) -> SpectrumReport:
    if mode == "auto":
        mode = "dense" if graph.n_vertices <= DENSE_VERTEX_LIMIT else "iterative"
    if mode == "dense":
        return spectrum_dense(graph, tol)
    if mode == "iterative":
        return spectrum_lanczos(graph, seed=seed, tol=tol)
    raise ValueError(f"unknown spectrum mode {mode!r}")


def normalized_adjacency(graph: CayleyGraph) -> np.ndarray:
    """Dense adjacency matrix divided by the degree."""
    n = graph.n_vertices
    a = np.zeros((n, n))
    np.add.at(a, (np.repeat(np.arange(n), graph.degree), graph.adj.ravel()), 1.0)
    a /= graph.degree
    return a


def normalized_matvec(graph: CayleyGraph):
    """x -> A x / degree, summing each row's neighbours in ascending order."""
    cols = np.ascontiguousarray(np.sort(graph.adj, axis=1).T)
    scale = 1.0 / graph.degree

    def matvec(x: np.ndarray) -> np.ndarray:
        y = np.zeros(len(x))
        for neighbours in cols:
            y += scale * x[neighbours]
        return y
    return matvec


def spectrum_dense(graph: CayleyGraph, tol: float = SPECTRUM_TOL) -> SpectrumReport:
    n = graph.n_vertices
    if n > DENSE_VERTEX_LIMIT:
        raise ValueError(f"dense mode limited to {DENSE_VERTEX_LIMIT} vertices, got {n}")
    a = normalized_adjacency(graph)
    if not np.array_equal(a, a.T):
        raise CheckFailure("adjacency is not symmetric; generator set is broken")
    eigs = np.linalg.eigvalsh(a)
    top = float(eigs[-1])
    bottom = float(eigs[0])
    if abs(top - 1.0) > tol:
        raise CheckFailure(f"largest normalized eigenvalue {top} is not 1")
    bottom_is_trivial = graph.bipartite
    if bottom_is_trivial and abs(bottom + 1.0) > tol:
        raise CheckFailure("graph is bipartite but -1 is not an eigenvalue")
    if not graph.bipartite and abs(bottom + 1.0) <= tol:
        raise CheckFailure("-1 in the spectrum of a non-bipartite graph")
    lambda2 = float(eigs[-2])
    # connected graphs have a simple 1, connected bipartite graphs a
    # simple -1, so the nontrivial extremes sit at fixed slots
    lambda_min = float(eigs[1]) if bottom_is_trivial else bottom
    return SpectrumReport(
        method="dense", tolerance=tol, top=top, bottom=bottom,
        lambda2=lambda2, lambda_min=lambda_min, bipartite=graph.bipartite,
        eigenvalues=eigs,
    )


def spectrum_lanczos(graph: CayleyGraph, seed: int = 0, tol: float = SPECTRUM_TOL,
                     max_iterations: int = 1200) -> SpectrumReport:
    n = graph.n_vertices
    matvec = normalized_matvec(graph)
    deflate = [np.ones(n) / math.sqrt(n)]
    if graph.bipartite:
        sign = np.where(graph.color == 0, 1.0, -1.0)
        deflate.append(sign / np.linalg.norm(sign))
    d = np.column_stack(deflate)
    d, _ = np.linalg.qr(d)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v -= d @ (d.T @ v)
    v /= np.linalg.norm(v)

    cap = min(max_iterations, n - d.shape[1])
    q_basis = np.zeros((n, min(cap, 64)))
    alphas = np.zeros(cap)
    betas = np.zeros(cap)
    q_basis[:, 0] = v
    beta = 0.0
    lambda2 = lambda_min = None
    used = 0
    checkpoint = 64
    for j in range(cap):
        w = matvec(q_basis[:, j])
        alphas[j] = q_basis[:, j] @ w
        w = w - alphas[j] * q_basis[:, j]
        if j > 0:
            w = w - beta * q_basis[:, j - 1]
        for _ in range(2):  # full reorthogonalization, applied twice
            w -= d @ (d.T @ w)
            w -= q_basis[:, : j + 1] @ (q_basis[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        used = j + 1
        if beta < 1e-13 or j == cap - 1:
            break
        betas[j] = beta
        if used == q_basis.shape[1]:
            grown = np.zeros((n, min(2 * used, cap)))
            grown[:, :used] = q_basis
            q_basis = grown
        q_basis[:, j + 1] = w / beta
        if used >= checkpoint:
            ev = _tridiag_eigs(alphas, betas, used)
            new2, newmin = float(ev[-1]), float(ev[0])
            if lambda2 is not None and abs(new2 - lambda2) < tol / 10 \
                    and abs(newmin - lambda_min) < tol / 10:
                lambda2, lambda_min = new2, newmin
                break
            lambda2, lambda_min = new2, newmin
            checkpoint *= 2
    ev = _tridiag_eigs(alphas, betas, used)
    lambda2, lambda_min = float(ev[-1]), float(ev[0])
    return SpectrumReport(
        method="iterative", tolerance=tol, top=1.0,
        bottom=-1.0 if graph.bipartite else lambda_min,
        lambda2=lambda2, lambda_min=lambda_min, bipartite=graph.bipartite,
        iterations=used,
    )


def _tridiag_eigs(alphas: np.ndarray, betas: np.ndarray, k: int) -> np.ndarray:
    t = np.diag(alphas[:k])
    if k > 1:
        t += np.diag(betas[: k - 1], 1) + np.diag(betas[: k - 1], -1)
    return np.linalg.eigvalsh(t)


def is_ramanujan(report: SpectrumReport, q: int, tol: float = SPECTRUM_TOL) -> bool:
    """Every nontrivial eigenvalue within the optimal-expansion bound.

    Dense reports are checked against the full eigenvalue list; the
    trivial eigenvalues are one copy of 1 and, for bipartite graphs,
    one copy of -1 (both simple since the graph is connected).
    Iterative reports carry the extreme nontrivial values, which bound
    all the others.
    """
    bound = ramanujan_bound(q) + tol
    if report.eigenvalues is not None:
        eigs = list(report.eigenvalues)
        eigs.pop()  # the single trivial 1
        if report.bipartite:
            eigs.pop(0)  # the single trivial -1
        return all(abs(e) <= bound for e in eigs)
    return report.lambda2 <= bound and report.lambda_min >= -bound
