"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is written directly from definitions and deliberately shares
no code with the production implementations: metrics recount prefixes
quadratically, postings count each document's tokenize() tokens (the
per-text tokenizer the index's corpus-wide pass must agree with), BM25
rescans raw token lists, entity links try every surface
name at every word, subgraph candidates come from a triple loop over node
pairs, the KL term is integrated by Gauss-Hermite quadrature, Adam updates one
scalar at a time, and the ranker network is
recomputed one pair, one head and one node at a time in plain numpy (only its
inputs, the prompt ids and the fixed node features, come from the model and
the KG code). The random-instance comparisons live in `kgrank.selftest`,
which both `kgrank selftest` and the acceptance tests run; the model and
training tests compare against the network twins and the Adam loop.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .corpus import tokenize
from .kg import (INTERACTION_RELATION, SELF_RELATION, EntityMention, KnowledgeGraph,
                 empty_subgraph, init_node_embeddings)


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


def postings_direct(docs) -> dict[str, list[tuple[str, int]]]:
    """term -> [(doc id, tf), ...] in doc id order, terms sorted, by counting
    each document's tokenize() tokens."""
    postings: dict[str, list[tuple[str, int]]] = {}
    for doc in sorted(docs, key=lambda d: d.id):
        for term, tf in Counter(tokenize(doc.text)).items():
            postings.setdefault(term, []).append((doc.id, tf))
    return dict(sorted(postings.items()))


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


def capped_nodes_direct(triples: list[tuple[str, str, str]], v_q: set[str],
                        v_d: set[str], cap: int) -> list[tuple[str, str]]:
    """The first cap (node, provenance) pairs of the capping priority: seeds
    in both texts, then query-only, then document-only seeds, then bridges by
    descending count of distinct adjacent seeds; every tie by node id."""
    seeds = v_q | v_d
    adjacent_seeds: dict[str, set[str]] = {}
    for h, _, t in triples:
        for node, other in ((h, t), (t, h)):
            if node not in seeds and other in seeds:
                adjacent_seeds.setdefault(node, set()).add(other)
    ranked = []
    for node in seeds:
        flag = "both" if node in v_q and node in v_d else \
            "query-seed" if node in v_q else "doc-seed"
        ranked.append(((0, ["both", "query-seed", "doc-seed"].index(flag), node), flag))
    for node, touching in adjacent_seeds.items():
        if len(touching) >= 2:
            ranked.append(((1, -len(touching), node), "bridge"))
    ranked.sort()
    return [(key[2], flag) for key, flag in ranked[:cap]]


def subgraph_edges_direct(triples: list[tuple[str, str, str]],
                          retained: set[str]) -> set[tuple[str, str, str]]:
    return {(h, r, t) for h, r, t in triples if h in retained and t in retained}


LINK_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


def words_direct(text: str) -> list[tuple[str, int, int]]:
    """(word, start, end) of each maximal run of a-z/0-9 in the lowercased
    text, one character lowercased at a time; start and end index `text`
    itself, covering every character whose lowercase holds part of the word."""
    words: list[tuple[str, int, int]] = []
    word, start, end = "", 0, 0
    for i, ch in enumerate(text):
        for low in ch.lower():
            if low in LINK_CHARS:
                if not word:
                    start = i
                word, end = word + low, i + 1
            elif word:
                words.append((word, start, end))
                word = ""
    if word:
        words.append((word, start, end))
    return words


def link_entities_direct(text: str, kg: KnowledgeGraph,
                         source: str = "document") -> list[EntityMention]:
    """Every lexicon surface (a node without names is its own surface) tried
    at every word position of the text. A surface matches where its words
    equal the text's words; surfaces of more than 4 words never match, and a
    surface on several nodes links its smallest node id. Overlaps resolve
    greedily: the longer span in characters of the given text first, then
    the earlier start. Mentions come back in order of start."""
    words = words_direct(text)
    surfaces: dict[tuple[str, ...], str] = {}
    for node in kg.nodes:
        for surface in kg.names.get(node, [node]):
            key = tuple(w for w, _, _ in words_direct(surface))
            if 1 <= len(key) <= 4 and (key not in surfaces or node < surfaces[key]):
                surfaces[key] = node
    candidates = []
    for i in range(len(words)):
        for key, node in surfaces.items():
            if tuple(w for w, _, _ in words[i:i + len(key)]) == key:
                start, end = words[i][1], words[i + len(key) - 1][2]
                candidates.append((end - start, start, end, node))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    kept: list[tuple[int, int, str]] = []
    for _, start, end, node in candidates:
        if all(end <= s or e <= start for s, e, _ in kept):
            kept.append((start, end, node))
    return [EntityMention(node=node, start=start, end=end, source=source)
            for start, end, node in sorted(kept)]


def kl_quadrature(mu: np.ndarray, sigma: np.ndarray, nodes: int = 40) -> float:
    """E_{z~N(mu,sigma)}[ln N(z; mu, sigma) - ln N(z; 0, I)] by Gauss-Hermite
    quadrature, per dimension over z = mu + sigma x with x ~ N(0, 1), summed.
    The integrand is quadratic in x, so the rule is exact up to round-off."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    mu, sigma = mu[:, None], sigma[:, None]
    z = mu + sigma * x
    log_p = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi)) - np.log(sigma)
    log_q = -0.5 * (z ** 2 + np.log(2 * np.pi))
    return float(((log_p - log_q) @ (w / w.sum())).sum())


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


def adam_direct(theta: list[float], grads: list[list[float]], lr: float) -> list[list[float]]:
    """Adam as in Kingma & Ba (2015), Algorithm 1, with its default decays and
    eps, one scalar at a time: the parameters after each step's gradient."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta = list(theta)
    m, v = [0.0] * len(theta), [0.0] * len(theta)
    after = []
    for t, g in enumerate(grads, start=1):
        for i in range(len(theta)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] ** 2
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            theta[i] = theta[i] - lr * m_hat / (math.sqrt(v_hat) + eps)
        after.append(list(theta))
    return after


# ---------------------------------------------------------------------------
# The ranker network for one pair, layer by layer. p maps parameter names to
# plain arrays; token and node states are (rows, width) arrays of one pair.

def gelu_direct(x: np.ndarray) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def layer_norm_direct(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    mean = x.mean(-1, keepdims=True)
    var = ((x - mean) ** 2).mean(-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * gain + shift


def softmax_direct(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def attention_direct(p: dict, x: np.ndarray, kv: np.ndarray, prefix: str,
                     heads: int) -> np.ndarray:
    """Multi-head attention of the rows of x over the rows of kv, one head at
    a time."""
    q = x @ p[prefix + ".wq"] + p[prefix + ".bq"]
    k = kv @ p[prefix + ".wk"] + p[prefix + ".bk"]
    v = kv @ p[prefix + ".wv"] + p[prefix + ".bv"]
    dh = q.shape[1] // heads
    outs = []
    for head in range(heads):
        cols = slice(head * dh, (head + 1) * dh)
        att = softmax_direct(q[:, cols] @ k[:, cols].T / math.sqrt(dh))
        outs.append(att @ v[:, cols])
    return np.concatenate(outs, axis=1) @ p[prefix + ".wo"] + p[prefix + ".bo"]


def text_layer_direct(p: dict, h: np.ndarray, layer: int, heads: int) -> np.ndarray:
    """Pre-norm transformer block: self-attention then feed-forward."""
    prefix = f"enc{layer}"
    x = layer_norm_direct(h, p[prefix + ".ln1.g"], p[prefix + ".ln1.b"])
    h = h + attention_direct(p, x, x, prefix + ".attn", heads)
    y = layer_norm_direct(h, p[prefix + ".ln2.g"], p[prefix + ".ln2.b"])
    ff = gelu_direct(y @ p[prefix + ".ff.w1"] + p[prefix + ".ff.b1"])
    return h + ff @ p[prefix + ".ff.w2"] + p[prefix + ".ff.b2"]


def gnn_layer_direct(p: dict, u: np.ndarray, edges: list[tuple[int, str, int]],
                     rel2id: dict[str, int], layer: int) -> np.ndarray:
    """Relation-aware graph attention, node by node over its in-edges; edges
    are (source, relation, target) triples, self-loops included."""
    prefix = f"gnn{layer}"
    q, k, v = (u @ p[f"{prefix}.w{c}"] for c in "qkv")
    rel = p[prefix + ".rel_emb"]
    messages = np.zeros_like(u)
    for i in range(u.shape[0]):
        incoming = [(s, rel[rel2id[r]]) for s, r, t in edges if t == i]
        logits = np.array([q[i] @ (k[s] + er) for s, er in incoming]) / math.sqrt(u.shape[1])
        att = softmax_direct(logits)
        messages[i] = sum(a * (v[s] + er) for a, (s, er) in zip(att, incoming))
    mixed = u + messages @ p[prefix + ".wo"]
    ff = gelu_direct(mixed @ p[prefix + ".ff.w1"] + p[prefix + ".ff.b1"])
    return mixed + ff @ p[prefix + ".ff.w2"] + p[prefix + ".ff.b2"]


def fuse_direct(p: dict, h_int: np.ndarray, u_int: np.ndarray, eps: np.ndarray,
                layer: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Bottleneck exchange of one (1, d_l) token and (1, d_g) node with noise
    eps: the updated pair and the closed-form KL."""
    prefix = f"fuse{layer}"
    hidden = gelu_direct(np.concatenate([h_int, u_int], axis=1) @ p[prefix + ".w1"]
                         + p[prefix + ".b1"])
    stats = hidden @ p[prefix + ".w2"] + p[prefix + ".b2"]
    d_z = stats.shape[1] // 2
    mu, sigma = stats[:, :d_z], np.logaddexp(0.0, stats[:, d_z:]) + 1e-6
    z = mu + sigma * eps
    half = d_z // 2
    return (h_int + z[:, :half] @ p[prefix + ".wh"], u_int + z[:, half:] @ p[prefix + ".wu"],
            kl_closed_form_direct(mu, sigma))


def decode_direct(p: dict, h_final: np.ndarray, heads: int) -> float:
    """One decoder step over the start token: p(true)."""
    s = p["dec.start_emb"]
    x = layer_norm_direct(s, p["dec.ln1.g"], p["dec.ln1.b"])
    s = s + attention_direct(p, x, x, "dec.self", heads)
    x = layer_norm_direct(s, p["dec.ln2.g"], p["dec.ln2.b"])
    s = s + attention_direct(p, x, h_final, "dec.cross", heads)
    y = layer_norm_direct(s, p["dec.ln3.g"], p["dec.ln3.b"])
    s = s + gelu_direct(y @ p["dec.ff.w1"] + p["dec.ff.b1"]) @ p["dec.ff.w2"] + p["dec.ff.b2"]
    return float(softmax_direct(s @ p["dec.out_w"] + p["dec.out_b"])[0, 0])


def relevance_direct(model, query, doc, subgraph) -> float:
    """The relevance score of one pair at the Gaussian mean (eps = 0), from
    the per-pair layer references above."""
    cfg = model.cfg
    p = {name: t.data for name, t in model.params.items()}
    if cfg.text_only or subgraph is None:
        subgraph = empty_subgraph()
    ids = model.build_prompt(query.text, doc.text)
    h = p["tok_emb"][ids] + p["pos_emb"][:len(ids)]
    u = init_node_embeddings(subgraph, cfg.d_g)
    u[0] = p["graph_int_emb"][0]
    n = subgraph.num_nodes
    hub = [(a, INTERACTION_RELATION, b) for i in range(1, n) for a, b in ((0, i), (i, 0))]
    edges = list(subgraph.edges) + hub + [(i, SELF_RELATION, i) for i in range(n)]
    for layer in range(cfg.R):
        h = text_layer_direct(p, h, layer, cfg.heads)
    for s_i in range(cfg.S):
        h = text_layer_direct(p, h, cfg.R + s_i, cfg.heads)
        u = gnn_layer_direct(p, u, edges, model.rel2id, s_i)
        h_int, u_int, _ = fuse_direct(p, h[:1], u[:1], np.zeros((1, cfg.d_z)), s_i)
        h, u = np.concatenate([h_int, h[1:]]), np.concatenate([u_int, u[1:]])
    return decode_direct(p, layer_norm_direct(h, p["enc_ln.g"], p["enc_ln.b"]), cfg.heads)
