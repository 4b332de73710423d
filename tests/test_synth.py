"""Synthetic task generator tests: determinism, structural guarantees, and
the measured baseline properties recorded in the manifest."""

from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from kgrank.corpus import build_index, load_documents, load_qrels, load_queries, retrieve_topk
from kgrank.errors import ValidationError
from kgrank.evaluation import ndcg_at_k
from kgrank.kg import load_kg
from kgrank.oracles import two_hop_nodes_direct
from kgrank.synth import KNOB_MINIMUMS, TaskKnobs, generate, write_task

SMALL = TaskKnobs(num_queries=10, corpus_size=200, kg_nodes=120, decoy_edges=60)


@pytest.fixture(scope="module")
def small_task():
    return generate(seed=7, knobs=SMALL)


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        for d in ("one", "two"):
            write_task(generate(seed=7, knobs=SMALL), tmp_path / d)
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.txt", "kg.tsv",
                     "lexicon.tsv", "manifest.json", "queries_train.jsonl",
                     "queries_test.jsonl", "qrels_train.txt", "qrels_test.txt"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes(), name

    def test_different_seeds_differ(self):
        a = generate(seed=7, knobs=SMALL)
        b = generate(seed=8, knobs=SMALL)
        assert [d.text for d in a.corpus] != [d.text for d in b.corpus]


class TestStructuralGuarantees:
    def test_qrels_reference_existing_docs(self, small_task):
        ids = {d.id for d in small_task.corpus}
        for (qid, did), grade in small_task.qrels.items():
            assert did in ids

    def test_every_query_has_a_relevant_doc(self, small_task):
        qids_with_rel = {qid for (qid, _), g in small_task.qrels.items() if g > 0}
        assert qids_with_rel == {q.id for q in small_task.queries}

    def test_relevant_pairs_have_two_hop_paths(self, small_task):
        """Checked against the exhaustive path oracle, not the generator's own
        adjacency bookkeeping."""
        surface_to_node = {s: n for n, s in small_task.lexicon}
        docs = {d.id: d for d in small_task.corpus}
        queries = {q.id: q for q in small_task.queries}
        for (qid, did), grade in small_task.qrels.items():
            if grade <= 0:
                continue
            v_q = {surface_to_node[t] for t in queries[qid].text.split()
                   if t in surface_to_node}
            v_d = {surface_to_node[t] for t in docs[did].text.split()
                   if t in surface_to_node}
            expanded = two_hop_nodes_direct(small_task.triples, v_q | v_d)
            bridges = expanded - (v_q | v_d)
            neighbors: dict[str, set[str]] = {}
            for h, _, t in small_task.triples:
                neighbors.setdefault(h, set()).add(t)
                neighbors.setdefault(t, set()).add(h)
            connected = any(neighbors.get(a, set()) & v_d for a in v_q) or any(
                neighbors.get(w, set()) & v_q and neighbors.get(w, set()) & v_d
                for w in bridges)
            assert connected, (qid, did)

    def test_relevant_docs_share_no_query_entity_surface(self, small_task):
        """The lexical route to the relevant doc goes only through the weak
        topic token, never the query's entity mention."""
        docs = {d.id: d for d in small_task.corpus}
        queries = {q.id: q for q in small_task.queries}
        for (qid, did), grade in small_task.qrels.items():
            if grade <= 0:
                continue
            query_entities = {t for t in queries[qid].text.split() if t.startswith("ent")}
            doc_tokens = set(docs[did].text.split())
            assert not (query_entities & doc_tokens)

    def test_manifest_properties(self, small_task):
        m = small_task.manifest
        assert m["bm25_ndcg10"] < 0.7
        assert m["oracle_ndcg10"] >= 0.95
        assert m["num_docs"] == SMALL.corpus_size
        assert m["train_queries"] + m["test_queries"] == SMALL.num_queries
        assert m["knobs"] == asdict(SMALL)

    def test_bm25_weakness_reproducible(self, small_task):
        """Recompute the pinned BM25 score from the emitted artifacts."""
        index = build_index(small_task.corpus)
        vals = []
        for q in small_task.queries:
            grades = {did: g for (qid, did), g in small_task.qrels.items() if qid == q.id}
            vals.append(ndcg_at_k(retrieve_topk(index, q, k=100), grades, k=10))
        assert float(np.mean(vals)) == pytest.approx(small_task.manifest["bm25_ndcg10"])


class TestKnobValidation:
    def test_every_count_has_a_minimum(self):
        assert set(KNOB_MINIMUMS) == {f.name for f in fields(TaskKnobs)}

    @pytest.mark.parametrize("name", sorted(KNOB_MINIMUMS))
    def test_count_below_its_minimum(self, name):
        knobs = replace(SMALL, **{name: KNOB_MINIMUMS[name] - 1})
        with pytest.raises(ValidationError, match=f"{name} must be >= "):
            knobs.validate()

    def test_corpus_too_small_for_queries(self):
        with pytest.raises(ValidationError):
            generate(seed=0, knobs=TaskKnobs(num_queries=10, corpus_size=50))

    def test_distractors_exceed_corpus(self):
        with pytest.raises(ValidationError, match="corpus_size must be at least 18 × num_queries"):
            generate(seed=0, knobs=TaskKnobs(num_queries=10, corpus_size=150))

    def test_kg_too_small(self):
        with pytest.raises(ValidationError):
            generate(seed=0, knobs=TaskKnobs(num_queries=10, corpus_size=200,
                                             kg_nodes=30))


class TestEmittedFiles:
    def test_roundtrip_through_loaders(self, small_task, tmp_path):
        write_task(small_task, tmp_path)
        docs = load_documents(tmp_path / "corpus.jsonl")
        assert [d.id for d in docs] == [d.id for d in small_task.corpus]
        queries = load_queries(tmp_path / "queries.jsonl")
        assert len(queries) == SMALL.num_queries
        qrels = load_qrels(tmp_path / "qrels.txt")
        assert qrels == small_task.qrels
        kg = load_kg(tmp_path / "kg.tsv", tmp_path / "lexicon.tsv")
        assert sorted(set(kg.triples)) == small_task.triples
        train = load_queries(tmp_path / "queries_train.jsonl")
        test = load_queries(tmp_path / "queries_test.jsonl")
        assert {q.id for q in train} | {q.id for q in test} == {q.id for q in queries}
        assert not ({q.id for q in train} & {q.id for q in test})
