"""The sparse-matrix spectrum route, kept as the reference for the
matrix-free one in cayleycodes.spectra.

`adjacency` is the CSR matrix the library used to build from the
neighbour table, and `reference_lanczos` the Lanczos loop that
multiplied by it, with its basis preallocated at full width.  The tests
require the library's dense matrix, matrix-vector product and Lanczos
results to equal these bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from cayleycodes.spectra import _tridiag_eigs


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
