"""Seeded generator for KG-dependent retrieval tasks.

Construction, per query: a query entity `a`, a bridge node `w`, and
RELEVANT_PER_QUERY target entities `b` connected a-w-b in the graph. Each
relevant document mentions a target entity plus the query's weak topic word
but never the query entity itself, so lexical overlap alone cannot find it.
HARD_DISTRACTORS documents mention the query entity (top lexical matches,
irrelevant), MEDIUM_DISTRACTORS share only the topic word, and the rest of the
corpus is background noise. Documents are DOC_TOKENS[0] to DOC_TOKENS[1]
tokens long, and the first TRAIN_FRACTION of the queries are for training.
Distinguishing relevant documents from medium distractors therefore requires
the two-hop graph path, which is checked for every relevant pair at
generation time. This design is fixed; TaskKnobs holds only the counts.

Entities, bridges, and topics are fresh per query, so associations memorized
on training queries do not transfer to test queries; only graph structure does.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Document, Query, build_index, retrieve_topk, save_qrels
from .errors import ValidationError
from .evaluation import ndcg_at_k, ranked
from .fileio import atomic_write
from .kg import KnowledgeGraph

RELATIONS = ("associated_with", "interacts_with", "part_of")
RELEVANT_PER_QUERY = 3
HARD_DISTRACTORS = 3
MEDIUM_DISTRACTORS = 12
DOC_TOKENS = (10, 18)
TRAIN_FRACTION = 0.6
# the (smallest, largest) value of each count; TaskKnobs.validate also relates
# them. round(TRAIN_FRACTION * n) leaves a query in each split exactly when
# n >= 2. With all five at their largest, gen takes at most 24 s and 0.75 GB
# (2-vCPU host).
KNOB_RANGES = {"num_queries": (2, 2_000), "corpus_size": (1, 200_000),
               "kg_nodes": (1, 200_000), "background_vocab": (1, 200_000),
               "decoy_edges": (0, 1_000_000)}


@dataclass
class TaskKnobs:
    num_queries: int = 200
    corpus_size: int = 4000
    kg_nodes: int = 1500
    background_vocab: int = 1200
    decoy_edges: int = 800

    def validate(self) -> None:
        for name, (low, high) in KNOB_RANGES.items():
            value = getattr(self, name)
            if value < low:
                raise ValidationError(f"{name} must be >= {low}, got {value}")
            if value > high:
                raise ValidationError(f"{name} must be <= {high}, got {value}")
        per_query_docs = RELEVANT_PER_QUERY + HARD_DISTRACTORS + MEDIUM_DISTRACTORS
        if self.num_queries * per_query_docs > self.corpus_size:
            raise ValidationError(f"corpus_size must be at least {per_query_docs} × num_queries, "
                                  f"got {self.corpus_size} for {self.num_queries} queries")
        dedicated = self.num_queries * (2 + RELEVANT_PER_QUERY)
        if dedicated + 50 > self.kg_nodes:
            raise ValidationError("kg_nodes too small: each query needs fresh entities")
        background = self.kg_nodes - dedicated
        possible = background * (background - 1) * len(RELATIONS)
        if self.decoy_edges > possible:
            raise ValidationError(f"decoy_edges must be at most the {possible} distinct "
                                  f"triples among {background} background nodes")


@dataclass
class SyntheticTask:
    corpus: list[Document]
    queries: list[Query]
    qrels: dict[tuple[str, str], int]
    triples: list[tuple[str, str, str]]
    lexicon: list[tuple[str, str]]
    train_query_ids: list[str]
    test_query_ids: list[str]
    manifest: dict = field(default_factory=dict)


def _entity_surface(index: int) -> str:
    return f"ent{index:04d}"


def generate(seed: int, knobs: TaskKnobs | None = None) -> SyntheticTask:
    """Build a task; identical bytes for identical (seed, knobs). The seed
    must be non-negative."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    knobs = knobs or TaskKnobs()
    knobs.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7a5c]))
    nq = knobs.num_queries

    node_ids = [f"n{i:04d}" for i in range(knobs.kg_nodes)]
    lexicon = [(node_ids[i], _entity_surface(i)) for i in range(knobs.kg_nodes)]
    background_words = [f"word{i:04d}" for i in range(knobs.background_vocab)]
    topics = [f"topic{i:03d}" for i in range(nq)]

    # Per-query dedicated entities: a (query), w (bridge), b_1..b_k (targets).
    per_query = 2 + RELEVANT_PER_QUERY
    background_entities = node_ids[nq * per_query:]

    triples: set[tuple[str, str, str]] = set()

    def bridge_edge(x: str, y: str) -> tuple[str, str, str]:
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        return (x, rel, y) if rng.random() < 0.5 else (y, rel, x)

    query_entity: list[str] = []
    target_entities: list[list[str]] = []
    for i in range(nq):
        base = i * per_query
        a, w = node_ids[base], node_ids[base + 1]
        targets = [node_ids[base + 2 + j] for j in range(RELEVANT_PER_QUERY)]
        query_entity.append(a)
        target_entities.append(targets)
        triples.add(bridge_edge(a, w))
        for b in targets:
            triples.add(bridge_edge(w, b))
    while len(triples) < nq * (1 + RELEVANT_PER_QUERY) + knobs.decoy_edges:
        h, t = rng.choice(len(background_entities), size=2, replace=False)
        triples.add(bridge_edge(background_entities[int(h)], background_entities[int(t)]))

    def background_sample(k: int) -> list[str]:
        return [background_words[int(j)] for j in rng.integers(len(background_words), size=k)]

    def doc_tokens(core: list[str]) -> str:
        count = int(rng.integers(DOC_TOKENS[0], DOC_TOKENS[1] + 1))
        tokens = core + background_sample(max(count - len(core), 1))
        rng.shuffle(tokens)
        return " ".join(tokens)

    entity_index = {node: i for i, node in enumerate(node_ids)}
    docs: list[tuple[str, str]] = []  # (role marker, text); ids assigned after shuffling
    relevant_texts: list[list[int]] = []  # per query, indexes into docs
    for i in range(nq):
        topic = topics[i]
        rel_idx = []
        for b in target_entities[i]:
            rel_idx.append(len(docs))
            docs.append(("rel", doc_tokens([_entity_surface(entity_index[b]), topic])))
        relevant_texts.append(rel_idx)
        for _ in range(HARD_DISTRACTORS):
            docs.append(("hard", doc_tokens([_entity_surface(entity_index[query_entity[i]])])))
        for _ in range(MEDIUM_DISTRACTORS):
            c = background_entities[int(rng.integers(len(background_entities)))]
            docs.append(("med", doc_tokens([_entity_surface(entity_index[c]), topic])))
    while len(docs) < knobs.corpus_size:
        docs.append(("bg", doc_tokens([])))

    order = rng.permutation(len(docs))
    doc_id_of = {int(orig): f"d{pos:05d}" for pos, orig in enumerate(order)}
    corpus = [Document(id=f"d{pos:05d}", text=docs[int(orig)][1])
              for pos, orig in enumerate(order)]

    queries = []
    qrels: dict[tuple[str, str], int] = {}
    for i in range(nq):
        qid = f"q{i:04d}"
        surface = _entity_surface(entity_index[query_entity[i]])
        queries.append(Query(id=qid, text=f"which finding links {surface} to {topics[i]}"))
        for j in relevant_texts[i]:
            qrels[(qid, doc_id_of[j])] = 1

    n_train = round(nq * TRAIN_FRACTION)
    train_ids = [q.id for q in queries[:n_train]]
    test_ids = [q.id for q in queries[n_train:]]

    task = SyntheticTask(corpus=corpus, queries=queries, qrels=qrels,
                         triples=sorted(triples), lexicon=lexicon,
                         train_query_ids=train_ids, test_query_ids=test_ids)
    _check_and_annotate(task, seed, knobs)
    return task


def _two_hop_connected(adjacency: dict[str, set[str]], v_q: set[str], v_d: set[str]) -> bool:
    """Path of length <= 2 between some query seed and some document seed."""
    for a in v_q:
        neighbors = adjacency.get(a, set())
        if neighbors & v_d:
            return True
        for w in neighbors:
            if adjacency.get(w, set()) & (v_d - {a}):
                return True
    return False


def _check_and_annotate(task: SyntheticTask, seed: int, knobs: TaskKnobs) -> None:
    """Generation-time guarantees: graph-decidable relevance, weak BM25."""
    adjacency = KnowledgeGraph.from_triples(task.triples).adjacency()
    surface_to_node = {surface: node for node, surface in task.lexicon}

    def entities_of(text: str) -> set[str]:
        return {surface_to_node[tok] for tok in text.split() if tok in surface_to_node}

    docs_by_id = {d.id: d for d in task.corpus}
    grades_by_query: dict[str, dict[str, int]] = {}
    for (qid, did), grade in task.qrels.items():
        if grade > 0 and did not in docs_by_id:
            raise ValidationError(f"generated qrels reference unknown doc {did!r}")
        grades_by_query.setdefault(qid, {})[did] = grade

    index = build_index(task.corpus)
    bm25_scores, oracle_scores = [], []
    for q in task.queries:
        grades = grades_by_query.get(q.id, {})
        candidates = retrieve_topk(index, q, k=100)
        bm25_scores.append(ndcg_at_k(candidates, grades, k=10))
        v_q = entities_of(q.text)
        oracle = ranked((did, float(_two_hop_connected(
            adjacency, v_q, entities_of(docs_by_id[did].text)))) for did, _ in candidates)
        oracle_scores.append(ndcg_at_k(oracle, grades, k=10))
        for did, grade in grades.items():
            if grade > 0 and not _two_hop_connected(adjacency, v_q,
                                                    entities_of(docs_by_id[did].text)):
                raise ValidationError(f"relevant pair ({q.id}, {did}) lacks a 2-hop path")

    bm25_ndcg = float(np.mean(bm25_scores))
    oracle_ndcg = float(np.mean(oracle_scores))
    if bm25_ndcg >= 0.7:
        raise ValidationError(f"generator produced a lexically easy task (BM25 nDCG@10={bm25_ndcg:.3f})")
    if oracle_ndcg < 0.95:
        raise ValidationError(f"graph oracle too weak (nDCG@10={oracle_ndcg:.3f})")

    task.manifest = {
        "seed": seed,
        "knobs": asdict(knobs),
        "bm25_ndcg10": bm25_ndcg,
        "oracle_ndcg10": oracle_ndcg,
        "num_docs": len(task.corpus),
        "num_queries": len(task.queries),
        "num_triples": len(task.triples),
        "train_queries": len(task.train_query_ids),
        "test_queries": len(task.test_query_ids),
    }


def write_task(task: SyntheticTask, out_dir: str | Path) -> None:
    """Emit the task directory in the pipeline's file formats."""
    out = Path(out_dir)

    def jsonl(records) -> str:
        return "".join(json.dumps({"id": r.id, "text": r.text}) + "\n" for r in records)

    atomic_write(out / "corpus.jsonl", jsonl(task.corpus))
    atomic_write(out / "queries.jsonl", jsonl(task.queries))
    train_set, test_set = set(task.train_query_ids), set(task.test_query_ids)
    atomic_write(out / "queries_train.jsonl",
                 jsonl([q for q in task.queries if q.id in train_set]))
    atomic_write(out / "queries_test.jsonl",
                 jsonl([q for q in task.queries if q.id in test_set]))
    save_qrels(out / "qrels.txt", task.qrels)
    save_qrels(out / "qrels_train.txt",
               {k: v for k, v in task.qrels.items() if k[0] in train_set})
    save_qrels(out / "qrels_test.txt",
               {k: v for k, v in task.qrels.items() if k[0] in test_set})
    atomic_write(out / "kg.tsv",
                 "".join(f"{h}\t{r}\t{t}\n" for h, r, t in task.triples))
    atomic_write(out / "lexicon.tsv",
                 "".join(f"{node}\t{surface}\n" for node, surface in task.lexicon))
    atomic_write(out / "manifest.json", json.dumps(task.manifest, indent=2, sort_keys=True))
