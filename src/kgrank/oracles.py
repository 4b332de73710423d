"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is written directly from definitions and deliberately shares
no code with the production implementations: metrics recount prefixes
quadratically, BM25 rescans raw token lists, subgraph candidates come from a
triple loop over node pairs, and the KL term is estimated by Monte Carlo
sampling. The comparisons themselves live in `kgrank.selftest`, which both
`kgrank selftest` and the acceptance tests run.
"""

from __future__ import annotations

import math

import numpy as np


def ap_direct(ranking: list[str], relevant: set[str]) -> float:
    """Average precision by recounting precision at every relevant rank."""
    if not relevant:
        return 0.0
    total = 0.0
    for k in range(1, len(ranking) + 1):
        if ranking[k - 1] in relevant:
            hits_at_k = sum(1 for d in ranking[:k] if d in relevant)
            total += hits_at_k / k
    return total / len(relevant)


def ndcg_direct(ranking: list[str], grades: dict[str, int], k: int) -> float:
    dcg = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        dcg += grades.get(doc, 0) / math.log2(i + 1)
    best = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(best, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def recall_direct(ranking: list[str], relevant: set[str], k: int, capped: bool) -> float:
    if not relevant:
        return 0.0
    hits = len(set(ranking[:k]) & relevant)
    return hits / (min(k, len(relevant)) if capped else len(relevant))


def bm25_direct(doc_tokens: dict[str, list[str]], query_terms: list[str],
                doc_id: str, k1: float = 1.2, b: float = 0.75) -> float:
    """BM25 recomputed from raw token lists without an index."""
    n_docs = len(doc_tokens)
    avgdl = sum(len(toks) for toks in doc_tokens.values()) / n_docs if n_docs else 0.0
    tokens = doc_tokens[doc_id]
    score = 0.0
    for term in query_terms:
        tf = tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for toks in doc_tokens.values() if term in toks)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        denom = tf + k1 * (1.0 - b + b * len(tokens) / avgdl)
        score += idf * tf * (k1 + 1.0) / denom
    return score


def two_hop_nodes_direct(triples: list[tuple[str, str, str]],
                         seeds: set[str]) -> set[str]:
    """Seeds plus every node w with undirected edges a-w and w-b, a != b seeds."""
    neighbors: dict[str, set[str]] = {}
    for h, _, t in triples:
        neighbors.setdefault(h, set()).add(t)
        neighbors.setdefault(t, set()).add(h)
    out = set(seeds)
    for w, adj in neighbors.items():
        if w in seeds:
            continue
        touching = adj & seeds
        if len(touching) >= 2:
            out.add(w)
    return out


def subgraph_edges_direct(triples: list[tuple[str, str, str]],
                          retained: set[str]) -> set[tuple[str, str, str]]:
    return {(h, r, t) for h, r, t in triples if h in retained and t in retained}


def kl_mc_estimate(mu: np.ndarray, sigma: np.ndarray, n_samples: int,
                   seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of
    E_{z~N(mu,sigma)}[ln N(z; mu, sigma) - ln N(z; 0, I)]."""
    rng = np.random.default_rng(seed)
    z = mu + sigma * rng.standard_normal((n_samples, mu.size))
    log_p = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi)) - np.log(sigma)
    log_q = -0.5 * (z ** 2 + np.log(2 * np.pi))
    ratio = (log_p - log_q).sum(axis=1)
    return float(ratio.mean()), float(ratio.std(ddof=1) / math.sqrt(n_samples))


def mutual_information_mc(weights: np.ndarray, mus: np.ndarray, sigmas: np.ndarray,
                          n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of I(x; z) for a discrete x
    with P(x = k) = weights[k] and z | x=k ~ N(mus[k], diag sigmas[k]^2).

    Uses I = E_{x,z}[ln p(z|x) - ln p(z)] with the exact mixture marginal.
    """
    rng = np.random.default_rng(seed)
    k, d = mus.shape
    xs = rng.choice(k, size=n_samples, p=weights)
    z = mus[xs] + sigmas[xs] * rng.standard_normal((n_samples, d))
    log_cond = (-0.5 * (((z - mus[xs]) / sigmas[xs]) ** 2 + np.log(2 * np.pi))
                - np.log(sigmas[xs])).sum(axis=1)
    # log p(z) = logsumexp_k [ln w_k + ln N(z; mu_k, sigma_k)]
    comp = np.empty((n_samples, k))
    for j in range(k):
        comp[:, j] = (np.log(weights[j])
                      + (-0.5 * (((z - mus[j]) / sigmas[j]) ** 2 + np.log(2 * np.pi))
                         - np.log(sigmas[j])).sum(axis=1))
    m = comp.max(axis=1)
    log_marginal = m + np.log(np.exp(comp - m[:, None]).sum(axis=1))
    ratio = log_cond - log_marginal
    return float(ratio.mean()), float(ratio.std(ddof=1) / math.sqrt(n_samples))


def kl_closed_form_direct(mu: np.ndarray, sigma: np.ndarray) -> float:
    """0.5 * sum(mu^2 + sigma^2 - 1 - ln sigma^2), written independently."""
    return float(0.5 * np.sum(mu ** 2 + sigma ** 2 - 1.0 - np.log(sigma ** 2)))
