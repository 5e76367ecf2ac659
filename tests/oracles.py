"""Independent oracles, and a time limit, shared by the unit and acceptance
suites.

These deliberately avoid the library's closed-form paths: probabilities
come from exhaustive enumeration, so the tests they feed stay meaningful
if the production formulas drift.
"""

import contextlib
import itertools
import signal

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve


def row_lists(csr):
    """The rows of a CSR (indptr, indices) as lists of ints, for references
    that walk a graph row by row: `row_lists(g.reverse_csr())[v]` lists the
    dispatchers of server v."""
    indptr, indices = csr
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]


class TimeLimit(BaseException):
    """Raised by `time_limit`. A BaseException, so that no `except Exception`
    in the code under test, and no mapping of TimeoutError (an OSError) to
    an exit code, can hide a hang."""


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeLimit in the block once `seconds` of wall time have passed
    (SIGALRM: the main thread only)."""
    def expire(signum, frame):
        raise TimeLimit(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def min_of_d_oracle(x, d):
    """Exact law of the minimum of d i.i.d. draws from x, by enumeration
    over the d-fold product."""
    x = list(x)
    p = [0.0] * len(x)
    for combo in itertools.product(range(len(x)), repeat=d):
        prob = 1.0
        for idx in combo:
            prob *= x[idx]
        p[min(combo)] += prob
    return np.array(p)


def grid_distributions(support, denominator):
    """All distributions with `support` levels and entries k/denominator
    (stars and bars over the integer compositions)."""
    for cuts in itertools.combinations(range(denominator + support - 1), support - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(denominator + support - 2 - prev)
        yield np.array(parts, dtype=float) / denominator


def jsqd_stationary(rows, n_servers, d, lam, level):
    """Exact stationary law of JSQ(d) on a bipartite graph, truncated at `level`.

    The chain lives on queue-length vectors with entries 0..level. Each
    busy server completes a task at rate 1. Dispatcher w (of M) receives
    tasks at rate lam*N/M, samples min(d, |rows[w]|) of its servers without
    replacement, and sends the task to a shortest sampled queue, ties
    uniform; a task whose chosen queue already holds `level` tasks is lost.
    Solves pi Q = 0 with the generator built from numpy arrays.

    Returns (occupancy, cut_mass): occupancy[i-1] is E[#servers with at
    least i tasks] / N for i = 1..level, and cut_mass is the probability
    that some queue holds `level` tasks.
    """
    n, size = n_servers, level + 1
    states = np.indices((size,) * n).reshape(n, -1).T  # row k: the state with index k
    k = len(states)
    stride = size ** np.arange(n - 1, -1, -1)
    index = np.arange(k)
    src, dst, rate = [], [], []
    for v in range(n):
        busy = index[states[:, v] > 0]
        src.append(busy)
        dst.append(busy - stride[v])
        rate.append(np.ones(len(busy)))
    for row in rows:
        subsets = list(itertools.combinations(row, min(d, len(row))))
        share = lam * n / len(rows) / len(subsets)
        for sub in subsets:
            x = states[:, sub]
            tied = x == x.min(axis=1, keepdims=True)
            p = share * tied / tied.sum(axis=1, keepdims=True)
            for j, v in enumerate(sub):
                ok = (p[:, j] > 0) & (states[:, v] < level)
                src.append(index[ok])
                dst.append(index[ok] + stride[v])
                rate.append(p[ok, j])
    src, dst, rate = map(np.concatenate, (src, dst, rate))
    outflow = np.bincount(src, weights=rate, minlength=k)
    # Q^T pi = 0 with its last equation replaced by sum(pi) = 1
    eq = np.concatenate([dst, index])
    var = np.concatenate([src, index])
    val = np.concatenate([rate, -outflow])
    keep = eq != k - 1
    a = sparse.csr_matrix(
        (np.concatenate([val[keep], np.ones(k)]),
         (np.concatenate([eq[keep], np.full(k, k - 1)]), np.concatenate([var[keep], index]))),
        shape=(k, k),
    )
    b = np.zeros(k)
    b[-1] = 1.0
    pi = spsolve(a, b)
    occupancy = np.array([pi @ (states >= i).sum(axis=1) for i in range(1, size)]) / n
    cut_mass = float(pi[states.max(axis=1) == level].sum())
    return occupancy, cut_mass
