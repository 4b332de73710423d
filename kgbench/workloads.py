"""The benchmark's workloads: what each one generates, and the properties it
is chosen for.

Every workload runs the same four phases (index, train, serve, eval, see
pipeline.py); the workloads differ in input shape, model width and how many
candidates each served query re-ranks, so that each one loads a different
layer.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from kgrank import corpus as cx
from kgrank import kg as kgm
from kgrank import synth
from kgrank.corpus import Document, Query
from kgrank.kg import KnowledgeGraph
from kgrank.model import ModelConfig, build_vocab

import gen

ACCEPTANCE_MODEL = dict(d_l=32, d_g=32, heads=2, R=1, S=2, d_z=16, d_proj=32, max_len=64)
MAX_NODES = 10  # the subgraph node cap, kgrank.kg.DEFAULT_MAX_NODES
SERVE_QUERIES_PER_S = 3.5  # served queries per second of --seconds, in each round


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict
    k: int | None  # candidates extracted and re-ranked per query; None = all
    train_queries: int  # one epoch, batch 8, 2 negatives per positive
    min_serve_queries: int = 100  # p90 then has at least 10 samples beyond it
    spec: gen.GenSpec | None = None  # None: kgrank.synth.generate
    synth_knobs: dict = field(default_factory=dict)
    doc_tokens_range: tuple[float, float] = (0.0, math.inf)
    min_cap_bound_ratio: float = 0.0
    min_postings_ratio: float = 0.0  # against synth-acceptance at the same seed

    def serve_count(self, seconds: int) -> int:
        return max(self.min_serve_queries, math.ceil(SERVE_QUERIES_PER_S * seconds))


WORKLOADS = {w.name: w for w in [
    Workload(
        name="synth-acceptance",
        why="The task every quality claim runs on: 14-token documents, 3-node "
            "subgraphs and the acceptance model, so the per-op Python tape "
            "takes nearly all the time.",
        model=ACCEPTANCE_MODEL, k=None, train_queries=24),
    Workload(
        name="dense-long",
        why="The paper's shape: 150-token Zipfian documents, max_len 256 and a "
            "dense KG where the 10-node cap binds, so matmul, GNN, backward and "
            "extraction all take real shares.",
        model={**ACCEPTANCE_MODEL, "max_len": 256}, k=4, train_queries=12,
        spec=gen.GenSpec(docs=2000, doc_tokens=(120, 180), vocab=5000, zipf_exponent=1.05,
                         communities=100, nodes_per_community=50, triples=20000,
                         intra_share=0.9, entities_per_doc=8, topic_words=20,
                         topic_tokens_per_doc=30, queries=12 + 140, query_words=2,
                         query_topic_words=2, query_entities=2),
        doc_tokens_range=(130.0, 170.0), min_cap_bound_ratio=0.5),
    Workload(
        name="first-stage",
        why="The first stage at scale: 20k Zipfian documents, long postings and "
            "a large sparse KG, with a minimal model, so corpus and kg do most of "
            "the work.",
        model=dict(d_l=8, d_g=8, heads=1, R=0, S=1, d_z=4, d_proj=8, max_len=16),
        k=3, train_queries=16,
        spec=gen.GenSpec(docs=20000, doc_tokens=(40, 80), vocab=20000, zipf_exponent=1.0,
                         communities=150, nodes_per_community=150, triples=30000,
                         intra_share=0.8, entities_per_doc=2, topic_words=10,
                         topic_tokens_per_doc=4, queries=16 + 140, query_words=3,
                         query_topic_words=1, query_entities=1),
        doc_tokens_range=(50.0, 70.0), min_postings_ratio=100.0),
]}


@dataclass
class Inputs:
    corpus: list[Document]
    queries_by_id: dict[str, Query]
    docs_by_id: dict[str, Document]
    qrels: dict[tuple[str, str], int]
    kg: KnowledgeGraph
    cfg: ModelConfig
    train_queries: list[Query]
    train_qrels: dict[tuple[str, str], int]
    serve_queries: list[Query]
    eval_query_ids: list[str]  # the queries nDCG@10 is averaged over


def setup(workload: Workload, seed: int, seconds: int, workdir: Path) -> Inputs:
    """Generate the inputs, assemble the KG through its file loader, and build
    the model configuration (vocabulary and relations)."""
    n_serve = workload.serve_count(seconds)
    if workload.spec is None:
        knobs = synth.TaskKnobs(**workload.synth_knobs)
        task = synth.generate(seed, knobs)
        corpus, queries, qrels = task.corpus, task.queries, task.qrels
        triples, lexicon = task.triples, task.lexicon
        by_id = {q.id: q for q in queries}
        train_ids = task.train_query_ids[:workload.train_queries]
        serve_ids = task.test_query_ids + task.train_query_ids[workload.train_queries:]
        eval_ids = list(task.test_query_ids)
    else:
        made = gen.generate(workload.spec, seed)
        corpus, queries, qrels = made.corpus, made.queries, made.qrels
        triples, lexicon = made.triples, made.lexicon
        by_id = {q.id: q for q in queries}
        train_ids = [q.id for q in queries[:workload.train_queries]]
        serve_ids = [q.id for q in queries[workload.train_queries:]]
        eval_ids = serve_ids[:n_serve]
    if len(serve_ids) < n_serve:
        raise ValueError(f"{workload.name}: {n_serve} served queries asked for, "
                         f"{len(serve_ids)} generated")
    serve_ids = serve_ids[:n_serve]
    eval_ids = [qid for qid in eval_ids if qid in set(serve_ids)]

    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "kg.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples))
    (workdir / "lexicon.tsv").write_text("".join(f"{n}\t{s}\n" for n, s in lexicon))
    kg = kgm.load_kg(workdir / "kg.tsv", workdir / "lexicon.tsv")
    cfg = ModelConfig(vocab=build_vocab(corpus), relations=sorted(kg.relations),
                      **workload.model)
    train_set = set(train_ids)
    return Inputs(corpus=corpus, queries_by_id=by_id, docs_by_id={d.id: d for d in corpus},
                  qrels=qrels, kg=kg, cfg=cfg,
                  train_queries=[by_id[qid] for qid in train_ids],
                  train_qrels={k: v for k, v in qrels.items() if k[0] in train_set},
                  serve_queries=[by_id[qid] for qid in serve_ids],
                  eval_query_ids=eval_ids)


def postings_scanned(index: cx.InvertedIndex, query: Query) -> int:
    """Sum of the posting-list lengths of the query's term occurrences."""
    return sum(len(index.postings.get(term, ())) for term in cx.tokenize(query.text))


def cap_bound(kg: KnowledgeGraph, query_text: str, doc_text: str) -> bool:
    """True iff the pair's uncapped 2-hop node set exceeds the node cap.

    Counts, for every neighbour of a seed, how many distinct seeds it touches;
    a non-seed touching two or more is a bridge.
    """
    seeds = ({m.node for m in kgm.link_entities(query_text, kg, "query")}
             | {m.node for m in kgm.link_entities(doc_text, kg, "document")})
    adjacency = kg.adjacency()
    touching = Counter(w for s in seeds for w in adjacency.get(s, ()) if w not in seeds)
    bridges = sum(1 for count in touching.values() if count >= 2)
    return len(seeds) + bridges > MAX_NODES


def properties(workload: Workload, inputs: Inputs, index: cx.InvertedIndex,
               pairs: list[tuple[str, str]], seed: int) -> tuple[dict, list[str]]:
    """The input properties the workload is chosen for, and the ones that fail."""
    kg = inputs.kg
    props = {
        "mean_doc_tokens": index.avg_doc_length,
        "kg_nodes": len(kg.nodes),
        "kg_triples": len(kg.triples),
        "cap_bound_ratio": statistics.fmean(
            cap_bound(kg, inputs.queries_by_id[q].text, inputs.docs_by_id[d].text)
            for q, d in pairs),
        "postings_scanned_per_query": statistics.fmean(
            postings_scanned(index, q) for q in inputs.serve_queries),
    }
    failures = []
    lo, hi = workload.doc_tokens_range
    if not lo <= props["mean_doc_tokens"] <= hi:
        failures.append(f"mean document length {props['mean_doc_tokens']:.1f} "
                        f"outside [{lo}, {hi}]")
    if props["cap_bound_ratio"] < workload.min_cap_bound_ratio:
        failures.append(f"node cap binds on {props['cap_bound_ratio']:.2f} of pairs, "
                        f"need >= {workload.min_cap_bound_ratio}")
    if workload.min_postings_ratio > 0:
        task = synth.generate(seed)
        synth_index = cx.build_index(task.corpus)
        reference = statistics.fmean(postings_scanned(synth_index, q) for q in task.queries)
        props["postings_ratio_vs_synth"] = props["postings_scanned_per_query"] / reference
        if props["postings_ratio_vs_synth"] < workload.min_postings_ratio:
            failures.append(f"scans {props['postings_ratio_vs_synth']:.1f}x the postings of "
                            f"synth-acceptance, need >= {workload.min_postings_ratio}x")
    return props, failures
