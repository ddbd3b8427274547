"""Pure-numpy numeric kernels shared by the Spark layers.

Everything here is side-effect-free and Spark-free so it can be
unit-tested (incl. Hypothesis property tests) without a session.  The
Spark modules call these inside ``mapInPandas`` / ``applyInPandas``.

Notation follows the paper: for cluster ``r`` the *composite vector* is
``D_r = sum_{x in S_r} x`` and ``n_r = |S_r|``; the boost-k-means
objective (Eqn. 2) is ``I = sum_r D_r'D_r / n_r``; moving ``x`` from
``S_u`` to ``S_v`` changes it by ``delta_I`` (Eqn. 3).  Minimising the
paper's distortion ``E`` (Eqn. 4) is equivalent to maximising ``I``
because ``E = (sum_i ||x_i||^2 - I) / n``.
"""
from __future__ import annotations

import numpy as np

_NEG_INF = -np.inf


def squared_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 distances, shape (len(X), len(C)).

    Clamped at 0 to kill the tiny negatives of the expansion trick.
    """
    x2 = np.einsum("ij,ij->i", X, X)[:, None]
    c2 = np.einsum("ij,ij->i", C, C)[None, :]
    d2 = x2 + c2 - 2.0 * (X @ C.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def assign_nearest(X: np.ndarray, C: np.ndarray, block: int = 4096):
    """Nearest-centroid assignment, blocked to bound peak memory.

    Returns ``(labels, sq_dists)``; this is Lloyd's assignment step and
    the evaluation kernel for the distortion E.
    """
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for s in range(0, n, block):
        d2 = squared_distances(X[s : s + block], C)
        labels[s : s + block] = np.argmin(d2, axis=1)
        dists[s : s + block] = d2[np.arange(d2.shape[0]), labels[s : s + block]]
    return labels, dists


def objective_terms(D: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster terms ``||D_r||^2 / n_r`` of Eqn. 2 (0 for empty clusters)."""
    num = np.einsum("ij,ij->i", D, D)
    out = np.zeros_like(num)
    nz = counts > 0
    out[nz] = num[nz] / counts[nz]
    return out


def candidate_matrix(nbrs, labels: np.ndarray) -> np.ndarray:
    """Alg. 2's Q per row: the distinct ``labels[nbrs]`` of each row, ascending,
    padded with ``-1`` to an ``(m, max(1, max |Q|))`` int64 matrix (the
    ``cand`` of :func:`boost_delta_I` and :func:`nearest_among_candidates`).
    ``nbrs`` holds one neighbour-id array per row, ``None`` for none.
    """
    qs = [np.unique(labels[np.asarray([] if a is None else a, dtype=np.int64)]) for a in nbrs]
    out = np.full((len(qs), max([1, *map(len, qs)])), -1, dtype=np.int64)
    for i, q in enumerate(qs):
        out[i, : len(q)] = q
    return out


def boost_delta_I(
    X: np.ndarray,
    labels: np.ndarray,
    cand: np.ndarray,
    D: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch Eqn. 3: best boost-k-means move per point among candidates.

    Parameters
    ----------
    X : (m, d) points.
    labels : (m,) current cluster of each point (``u`` in Eqn. 3).
    cand : (m, c) candidate target clusters per point, ``-1`` = padding.
    D : (k, d) composite vectors; counts : (k,) cluster sizes — both
        *frozen* from the previous synchronous iteration (see DESIGN.md
        on the BSP adaptation of the paper's sequential updates).

    Returns
    -------
    (best_target, best_delta): per point the candidate ``v`` maximising
    ``delta_I`` and that delta.  A move is worth applying iff
    ``best_delta > 0`` and ``best_target != labels``.  Moves out of
    singleton clusters (``n_u == 1``) are forbidden (Eqn. 3 divides by
    ``n_u - 1``; the paper keeps k non-empty clusters).
    """
    m, _ = X.shape
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    out_t = np.empty(m, dtype=np.int64)
    out_d = np.empty(m, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", D, D)
    # Row blocks bound the (b, c, d) gather below to a few tens of MB.
    block = max(1, int(4_000_000 / max(1, cand.shape[1] * X.shape[1])))
    for s in range(0, m, block):
        Xb, lb, cb = X[s : s + block], labels[s : s + block], cand[s : s + block]
        b = Xb.shape[0]
        x2 = np.einsum("ij,ij->i", Xb, Xb)

        nu = counts[lb].astype(np.float64)
        xDu = np.einsum("ij,ij->i", Xb, D[lb])
        # Loss term of leaving u: (||Du - x||^2)/(nu-1) - ||Du||^2/nu.
        with np.errstate(divide="ignore", invalid="ignore"):
            leave = (d2[lb] - 2.0 * xDu + x2) / (nu - 1.0) - d2[lb] / nu
        leave[nu <= 1] = _NEG_INF  # singleton: move forbidden

        safe = np.maximum(cb, 0)
        xDv = np.einsum("ij,icj->ic", Xb, D[safe])  # (b, c)
        nv = counts[safe].astype(np.float64)
        gain = (d2[safe] + 2.0 * xDv + x2[:, None]) / (nv + 1.0)
        nz = nv > 0
        gain[nz] -= d2[safe][nz] / nv[nz]

        delta = gain + leave[:, None]
        invalid = (cb < 0) | (cb == lb[:, None])
        delta[invalid] = _NEG_INF

        best = np.argmax(delta, axis=1)
        rows = np.arange(b)
        out_t[s : s + block] = cb[rows, best]
        out_d[s : s + block] = delta[rows, best]
    return out_t, out_d


def boost_best_move_full(
    X: np.ndarray,
    labels: np.ndarray,
    D: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Eqn. 3 against *all* k clusters — the full boost-k-means step.

    Same contract as :func:`boost_delta_I` but the candidate set is every
    non-empty cluster (the paper's BKM baseline; empty clusters are
    excluded so a batch round cannot dump every point into one of them —
    see DESIGN.md §3 on the BSP adaptation).
    """
    m = X.shape[0]
    k = D.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    out_t = np.empty(m, dtype=np.int64)
    out_d = np.empty(m, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", D, D)
    cnt = counts.astype(np.float64)
    empty = counts <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(empty, 0.0, d2 / cnt)  # ||Dv||^2 / nv, 0 if empty
    block = max(1, int(4_000_000 / max(1, k)))
    for s in range(0, m, block):
        Xb, lb = X[s : s + block], labels[s : s + block]
        b = Xb.shape[0]
        x2 = np.einsum("ij,ij->i", Xb, Xb)
        nu = cnt[lb]
        xDu = np.einsum("ij,ij->i", Xb, D[lb])
        with np.errstate(divide="ignore", invalid="ignore"):
            leave = (d2[lb] - 2.0 * xDu + x2) / (nu - 1.0) - d2[lb] / nu
        leave[nu <= 1] = _NEG_INF
        G = Xb @ D.T  # (b, k)
        gain = (d2[None, :] + 2.0 * G + x2[:, None]) / (cnt[None, :] + 1.0)
        gain -= base[None, :]
        delta = gain + leave[:, None]
        delta[:, empty] = _NEG_INF
        delta[np.arange(b), lb] = _NEG_INF
        best = np.argmax(delta, axis=1)
        out_t[s : s + block] = best
        out_d[s : s + block] = delta[np.arange(b), best]
    return out_t, out_d


def nearest_among_candidates(
    X: np.ndarray,
    labels: np.ndarray,
    cand: np.ndarray,
    centroids: np.ndarray,
) -> np.ndarray:
    """Traditional-k-means assignment restricted to a candidate set.

    The "GK-means−" variant (Section 5.2): pick the closest centroid
    among ``cand ∪ {current label}``; ``-1`` entries are padding.
    """
    m = X.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    out = np.empty(m, dtype=np.int64)
    block = max(1, int(4_000_000 / max(1, (cand.shape[1] + 1) * X.shape[1])))
    for s in range(0, m, block):
        Xb, lb, cb = X[s : s + block], labels[s : s + block], cand[s : s + block]
        full = np.concatenate([lb[:, None], cb], axis=1)
        safe = np.maximum(full, 0)
        C = centroids[safe]  # (b, c+1, d)
        d2 = (
            np.einsum("icj,icj->ic", C, C)
            - 2.0 * np.einsum("ij,icj->ic", Xb, C)
            + np.einsum("ij,ij->i", Xb, Xb)[:, None]
        )
        d2[full < 0] = np.inf
        best = np.argmin(d2, axis=1)
        out[s : s + block] = full[np.arange(full.shape[0]), best]
    return out


def balanced_halves(order: np.ndarray) -> np.ndarray:
    """0/1 side per row: the first ``(n + 1) // 2`` ranks of ``order`` go
    to side 0, the other ``n // 2`` to side 1.  The 2M and random-projection
    tree drivers rely on this rule to know every cluster size from ``n``.
    """
    side = np.ones(len(order), dtype=np.int64)
    side[order[: (len(order) + 1) // 2]] = 0
    return side


def local_two_means(
    X: np.ndarray, seed: int, iters: int = 8
) -> np.ndarray:
    """One bisection of Alg. 1: 2-means then equal-size adjustment.

    Returns a 0/1 label per row, split by :func:`balanced_halves`.  The
    equal-size step ranks points by ``d(x,c0) - d(x,c1)`` and gives the
    smaller-rank half to side 0, exactly the 2M-tree balancing rule.
    Degenerate inputs (n < 2, identical seed rows) fall back to ranking
    by row position, which is still balanced.
    """
    n = X.shape[0]
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    i0, i1 = rng.choice(n, size=2, replace=False)
    c = np.stack([X[i0], X[i1]])
    if np.allclose(c[0], c[1]):
        order = np.arange(n)
    else:
        for _ in range(max(1, iters)):
            d2 = squared_distances(X, c)
            lab = np.argmin(d2, axis=1)
            # Guard collapse: keep previous centroid if a side empties.
            for s in (0, 1):
                if np.any(lab == s):
                    c[s] = X[lab == s].mean(axis=0)
        d2 = squared_distances(X, c)
        margin = d2[:, 0] - d2[:, 1]
        order = np.argsort(margin, kind="stable")
    return balanced_halves(order)


def rp_split(X: np.ndarray, seed: int) -> np.ndarray:
    """Random-projection median split (closure k-means' partition trees).

    Projects onto a hashed Gaussian direction and splits at the median;
    returns a 0/1 side per row, split by :func:`balanced_halves`.
    """
    from repro.common.vectors import hash_normals

    direction = hash_normals(np.array([0], dtype=np.uint64), X.shape[1], seed)[0]
    proj = X @ direction
    return balanced_halves(np.argsort(proj, kind="stable"))


def pairwise_topk(
    ids: np.ndarray, X: np.ndarray, kappa: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-cluster exhaustive comparison (Alg. 3 lines 8-13).

    For every member of one cluster, the ``min(kappa, n-1)`` nearest
    other members.  Returns flat ``(src_id, nbr_id, sq_dist)`` arrays.
    """
    n = X.shape[0]
    if n < 2:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), np.empty(0, dtype=np.float64)
    d2 = squared_distances(X, X)
    np.fill_diagonal(d2, np.inf)
    take = min(kappa, n - 1)
    idx = np.argpartition(d2, take - 1, axis=1)[:, :take]
    rows = np.repeat(np.arange(n), take)
    cols = idx.ravel()
    return ids[rows], ids[cols], d2[rows, cols]

