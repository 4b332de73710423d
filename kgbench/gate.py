"""Correctness gate: the checks a run must pass before it reports metrics.

Each check returns failure messages; an empty list means the run is correct.
Sampled checks draw their sample from the workload seed, so a given seed
always checks the same pairs and queries.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from kgrank import corpus as cx
from kgrank import kg as kgm
from kgrank import oracles
from kgrank.corpus import BM25_B, BM25_K1
from kgrank.kg import INTERACTION_RELATION

from pipeline import PipelineResult, RETRIEVE_K
from workloads import MAX_NODES, Inputs

FORWARD_SAMPLE = 12
BM25_SAMPLE = 8
SUBGRAPH_SAMPLE = 8
SCORE_TOL = 1e-12
BM25_TOL = 1e-9
METRIC_TOL = 1e-12


def _sample(items: list, size: int, seed: int, tag: int) -> list:
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    picks = rng.choice(len(items), size=min(size, len(items)), replace=False)
    return [items[int(i)] for i in sorted(picks)]


def check_candidates(res: PipelineResult, k: int | None) -> list[str]:
    out = []
    for qid, candidates in res.bm25_run.items():
        top = candidates[:k] if k else candidates
        reranked = res.rerank_run[qid]
        if len(reranked) != len(top) or {d for d, _ in top} != {d for d, _ in reranked}:
            out.append(f"query {qid}: re-ranked candidate set differs from its BM25 set")
        for did, score in reranked:
            if not (math.isfinite(score) and 0.0 < score < 1.0):
                out.append(f"query {qid} doc {did}: score {score!r} not finite in (0, 1)")
    return out


def check_forward(inputs: Inputs, res: PipelineResult, seed: int) -> list[str]:
    """rerank_run scores against a direct forward on the same pair and subgraph."""
    scores = {(qid, did): s for qid, ranking in res.rerank_run.items() for did, s in ranking}
    out = []
    for qid, did in _sample(res.pairs, FORWARD_SAMPLE, seed, 0xF0):
        direct = res.model.forward(inputs.queries_by_id[qid], inputs.docs_by_id[did],
                                   res.provider.cache[(qid, did)]).score
        if (qid, did) not in scores or abs(scores[(qid, did)] - direct) > SCORE_TOL:
            out.append(f"pair ({qid}, {did}): rerank score {scores.get((qid, did))!r} "
                       f"!= direct forward {direct!r}")
    return out


def bm25_exhaustive(doc_terms: dict[str, Counter], query_terms: list[str],
                    k: int) -> list[tuple[str, float]]:
    """Score every document by the BM25 definition and rank them."""
    n_docs = len(doc_terms)
    avgdl = sum(sum(c.values()) for c in doc_terms.values()) / n_docs
    df = {t: sum(1 for c in doc_terms.values() if t in c) for t in set(query_terms)}
    scored = []
    for did, counts in doc_terms.items():
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * sum(counts.values()) / avgdl)
        score = 0.0
        for term in query_terms:
            tf = counts.get(term, 0)
            if tf:
                idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
                score += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
        if score > 0.0:
            scored.append((did, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def check_bm25(inputs: Inputs, res: PipelineResult, seed: int) -> list[str]:
    doc_terms = {d.id: Counter(cx.tokenize(d.text)) for d in inputs.corpus}
    out = []
    for qid in _sample(sorted(res.bm25_run), BM25_SAMPLE, seed, 0xB2):
        want = bm25_exhaustive(doc_terms, cx.tokenize(inputs.queries_by_id[qid].text),
                               RETRIEVE_K)
        got = res.bm25_run[qid]
        if [d for d, _ in got] != [d for d, _ in want] or any(
                abs(g - w) > BM25_TOL * max(1.0, abs(w))
                for (_, g), (_, w) in zip(got, want)):
            out.append(f"query {qid}: retrieve_topk ranking differs from exhaustive BM25")
    return out


def expected_capped(triples, v_q: set[str], v_d: set[str], cap: int) -> list[str]:
    """The capped node list from its definition: seeds (both, query, doc),
    then bridges by descending count of adjacent seeds; ties by node id."""
    seeds = v_q | v_d
    touching: dict[str, set[str]] = {}
    for h, _, t in triples:
        if t in seeds and h not in seeds:
            touching.setdefault(h, set()).add(t)
        if h in seeds and t not in seeds:
            touching.setdefault(t, set()).add(h)
    bridges = {w: len(s) for w, s in touching.items() if len(s) >= 2}
    rank = {n: (0 if n in v_q and n in v_d else 1 if n in v_q else 2) for n in seeds}
    ordered = sorted(seeds, key=lambda n: (rank[n], n))
    ordered += sorted(bridges, key=lambda n: (-bridges[n], n))
    return ordered[:cap]


def check_subgraphs(inputs: Inputs, res: PipelineResult, seed: int) -> list[str]:
    kg = inputs.kg
    out = []
    for key, sub in res.provider.cache.items():
        if sub.num_nodes > MAX_NODES + 1:
            out.append(f"pair {key}: {sub.num_nodes} nodes exceed the cap {MAX_NODES} + 1")
    for qid, did in _sample(res.pairs, SUBGRAPH_SAMPLE, seed, 0x5B):
        v_q = {m.node for m in kgm.link_entities(inputs.queries_by_id[qid].text, kg, "query")}
        v_d = {m.node for m in kgm.link_entities(inputs.docs_by_id[did].text, kg, "document")}
        seeds = v_q | v_d
        full = kgm.extract_subgraph(kg, v_q, v_d, max_nodes=len(kg.nodes) + 1)
        nodes = set(full.node_ids[1:])
        if nodes != oracles.two_hop_nodes_direct(kg.triples, seeds):
            out.append(f"pair ({qid}, {did}): uncapped nodes differ from the 2-hop oracle")
        edges = {(full.node_ids[s], r, full.node_ids[t]) for s, r, t in full.edges
                 if r != INTERACTION_RELATION}
        if edges != oracles.subgraph_edges_direct(kg.triples, nodes):
            out.append(f"pair ({qid}, {did}): uncapped edges differ from the oracle")
        served = res.provider.cache[(qid, did)]
        kept = served.node_ids[1:]
        if "bridge" in served.provenance and not seeds <= set(kept):
            out.append(f"pair ({qid}, {did}): capped subgraph drops a seed but keeps a bridge")
        if kept != expected_capped(kg.triples, v_q, v_d, MAX_NODES):
            out.append(f"pair ({qid}, {did}): capped nodes differ from the priority order")
    for key, sub in res.provider.cache.items():
        back = res.loaded_cache.get(key)
        if back is None or (back.node_ids, back.provenance, back.edges) != \
                (sub.node_ids, sub.provenance, sub.edges):
            out.append(f"pair {key}: subgraph cache does not read back equal")
            break
    return out


def check_eval(inputs: Inputs, res: PipelineResult) -> list[str]:
    out = []
    for name, run in (("bm25", res.bm25_run), ("rerank", res.rerank_run)):
        loaded, table = res.loaded_runs[name], res.tables[name]
        want_run = {q: sorted(r, key=lambda item: (-item[1], item[0]))
                    for q, r in run.items() if r}
        if loaded != want_run:
            out.append(f"{name} run does not read back equal")
        for qid, ranking in loaded.items():
            ids = [d for d, _ in ranking]
            grades = {d: g for (q, d), g in inputs.qrels.items() if q == qid}
            relevant = {d for d, g in grades.items() if g > 0}
            want = {"map": oracles.ap_direct(ids, relevant),
                    "ndcg@10": oracles.ndcg_direct(ids, grades, 10),
                    "recall@100": oracles.recall_direct(ids, relevant, 100, False),
                    "capped_recall@100": oracles.recall_direct(ids, relevant, 100, True)}
            for metric, value in want.items():
                if abs(table[qid][metric] - value) > METRIC_TOL:
                    out.append(f"{name} run, query {qid}: {metric} {table[qid][metric]!r} "
                               f"!= oracle {value!r}")
    return out


def check_training(res: PipelineResult) -> list[str]:
    out = []
    for stats in res.epoch_stats:
        if not (math.isfinite(stats.mean_nll) and math.isfinite(stats.mean_kl)):
            out.append(f"epoch {stats.epoch}: non-finite loss {stats.mean_nll} "
                       f"or KL {stats.mean_kl}")
    loaded = res.model.params
    if set(loaded) != set(res.trained_params) or any(
            not np.array_equal(loaded[n].data, p.data) for n, p in res.trained_params.items()):
        out.append("loaded checkpoint parameters differ from the trained ones")
    return out


def check_index(res: PipelineResult) -> list[str]:
    a, b = res.index, res.loaded_index
    if (a.postings, a.doc_lengths, a.avg_doc_length, a.num_docs) != \
            (b.postings, b.doc_lengths, b.avg_doc_length, b.num_docs):
        return ["index does not read back equal"]
    return []


def run_gate(inputs: Inputs, res: PipelineResult, k: int | None, seed: int) -> list[str]:
    failures = [f"phase {name}: {p.failed} of {p.attempted} operations failed"
                for name, p in res.phases.items() if p.failed]
    failures += check_index(res)
    failures += check_training(res)
    failures += [f"query {qid}: a later serve round ranked differently from the first"
                 for qid in res.round_mismatches]
    failures += check_candidates(res, k)
    failures += check_forward(inputs, res, seed)
    failures += check_bm25(inputs, res, seed)
    failures += check_subgraphs(inputs, res, seed)
    failures += check_eval(inputs, res)
    return failures
