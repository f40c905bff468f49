"""Reference spectra of Cayley graphs, kept as oracles for the
Gelfand-Graev route in cayleycodes.spectra.

The library computes the nontrivial spectrum from the determinant-class
blocks of a (Q^2 - 1)-square matrix M built from the generators alone.
`gelfand_graev_matrix` builds all of M, whose eigvalsh is the spectrum
the blocks must reproduce.  The other routes work on the whole graph,
for any group (the Z_n toys included):

dense     full eigenvalue list of the normalized adjacency matrix via
          the symmetric eigensolver;
iterative Lanczos with full reorthogonalization, deflating the all-ones
          vector and, on bipartite graphs, the sign vector, so the
          extreme Ritz values converge to the largest and smallest
          nontrivial eigenvalues.

Both are fed straight from `adj` and reproduce bit for bit the
sparse-matrix (CSR) route below: `adjacency` builds the CSR matrix, and
`reference_lanczos` is the Lanczos loop that multiplied by it, with its
basis preallocated at full width.  The dense matrix counts neighbours
with np.add.at, which sums a repeated neighbour as the CSR conversion
does, then divides by the degree in place: toarray() / degree entry by
entry.  The matrix-vector product adds (1 / degree) * x[w] over the
neighbours w of each vertex in ascending order, starting from 0.0, the
operations and order of a canonical CSR row sum.  The matrix-free
Lanczos basis starts with min(cap, 64) columns and doubles when full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from cayleycodes.errors import CheckFailure
from cayleycodes.spectra import additive_character, coset_positions, coset_representatives

SPECTRUM_TOL = 1e-6


@dataclass
class ReferenceSpectrum:
    method: str                   # "dense" or "iterative"
    tolerance: float
    top: float                    # largest normalized eigenvalue (should be 1)
    bottom: float                 # smallest normalized eigenvalue
    lambda2: float                # largest nontrivial eigenvalue
    lambda_min: float             # smallest nontrivial eigenvalue
    bipartite: bool
    iterations: Optional[int] = None
    eigenvalues: Optional[np.ndarray] = None  # dense only, ascending, trivial ones included

    @property
    def nontrivial(self) -> np.ndarray:
        """The dense eigenvalues without the simple 1 and, on bipartite
        graphs, the simple -1."""
        return self.eigenvalues[1 if self.bipartite else 0:-1]


def set_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a value of either array to the nearest
    value of the other: 0 exactly when they hold the same set."""
    def one_way(x, y):
        y = np.sort(y)
        pos = np.clip(np.searchsorted(y, x), 1, len(y) - 1)
        return float(np.minimum(np.abs(x - y[pos - 1]), np.abs(x - y[pos])).max())
    return max(one_way(a, b), one_way(b, a))


def gelfand_graev_matrix(group, gens) -> np.ndarray:
    """M = sum over s in gens of R(s) on Ind_U^G psi, in the coset basis."""
    gens = np.asarray(gens, dtype=np.int64)
    reps = coset_representatives(group)
    index, x = coset_positions(group, group.mul(reps[:, None], gens[None, :]))
    m = np.zeros((len(reps), len(reps)), dtype=complex)
    np.add.at(m, (np.repeat(np.arange(len(reps)), len(gens)), index.ravel()),
              additive_character(group.tables.p)[x.ravel() % group.tables.p])
    return m


def normalized_adjacency(graph) -> np.ndarray:
    """Dense adjacency matrix divided by the degree."""
    n = graph.n_vertices
    a = np.zeros((n, n))
    np.add.at(a, (np.repeat(np.arange(n), graph.degree), graph.adj.ravel()), 1.0)
    a /= graph.degree
    return a


def normalized_matvec(graph):
    """x -> A x / degree, summing each row's neighbours in ascending order."""
    cols = np.ascontiguousarray(np.sort(graph.adj, axis=1).T)
    scale = 1.0 / graph.degree

    def matvec(x: np.ndarray) -> np.ndarray:
        y = np.zeros(len(x))
        for neighbours in cols:
            y += scale * x[neighbours]
        return y
    return matvec


def spectrum_dense(graph, tol: float = SPECTRUM_TOL) -> ReferenceSpectrum:
    a = normalized_adjacency(graph)
    if not np.array_equal(a, a.T):
        raise CheckFailure("adjacency is not symmetric; generator set is broken")
    eigs = np.linalg.eigvalsh(a)
    top = float(eigs[-1])
    bottom = float(eigs[0])
    if abs(top - 1.0) > tol:
        raise CheckFailure(f"largest normalized eigenvalue {top} is not 1")
    if graph.bipartite and abs(bottom + 1.0) > tol:
        raise CheckFailure("graph is bipartite but -1 is not an eigenvalue")
    if not graph.bipartite and abs(bottom + 1.0) <= tol:
        raise CheckFailure("-1 in the spectrum of a non-bipartite graph")
    # connected graphs have a simple 1, connected bipartite graphs a
    # simple -1, so the nontrivial extremes sit at fixed slots
    return ReferenceSpectrum(
        method="dense", tolerance=tol, top=top, bottom=bottom,
        lambda2=float(eigs[-2]), lambda_min=float(eigs[1]) if graph.bipartite else bottom,
        bipartite=graph.bipartite, eigenvalues=eigs,
    )


def spectrum_lanczos(graph, seed: int = 0, tol: float = SPECTRUM_TOL,
                     max_iterations: int = 1200) -> ReferenceSpectrum:
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
                break
            lambda2, lambda_min = new2, newmin
            checkpoint *= 2
    ev = _tridiag_eigs(alphas, betas, used)
    lambda2, lambda_min = float(ev[-1]), float(ev[0])
    return ReferenceSpectrum(
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


# ---------------------------------------------------------------------------
# The sparse-matrix (CSR) route the two above reproduce bit for bit
# ---------------------------------------------------------------------------

def adjacency(graph) -> sp.csr_matrix:
    n = graph.n_vertices
    rows = np.repeat(np.arange(n), graph.degree)
    cols = graph.adj.reshape(-1)
    data = np.ones(n * graph.degree)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def reference_lanczos(graph, seed: int = 0, tol: float = 1e-6,
                      max_iterations: int = 1200) -> tuple[float, float, int]:
    """(lambda2, lambda_min, iterations) of the CSR-fed Lanczos loop."""
    n = graph.n_vertices
    a = adjacency(graph) / graph.degree
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
    q_basis = np.zeros((n, cap))
    alphas = np.zeros(cap)
    betas = np.zeros(cap)
    q_basis[:, 0] = v
    beta = 0.0
    lambda2 = lambda_min = None
    used = 0
    checkpoint = 64
    for j in range(cap):
        w = a @ q_basis[:, j]
        alphas[j] = q_basis[:, j] @ w
        w = w - alphas[j] * q_basis[:, j]
        if j > 0:
            w = w - beta * q_basis[:, j - 1]
        for _ in range(2):
            w -= d @ (d.T @ w)
            w -= q_basis[:, : j + 1] @ (q_basis[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        used = j + 1
        if beta < 1e-13 or j == cap - 1:
            break
        betas[j] = beta
        q_basis[:, j + 1] = w / beta
        if used >= checkpoint:
            ev = _tridiag_eigs(alphas, betas, used)
            new2, newmin = float(ev[-1]), float(ev[0])
            if lambda2 is not None and abs(new2 - lambda2) < tol / 10 \
                    and abs(newmin - lambda_min) < tol / 10:
                break
            lambda2, lambda_min = new2, newmin
            checkpoint *= 2
    ev = _tridiag_eigs(alphas, betas, used)
    return float(ev[-1]), float(ev[0]), used
