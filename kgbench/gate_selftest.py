"""Self-test of the correctness gate: planted faults must make it fail.

    python3 kgbench/gate_selftest.py

Runs the benchmark pipeline on small inputs, once clean (the gate must pass)
and once per planted fault (the gate must fail with the matching message).
Each fault is planted by patching one kgrank function for the length of a
single pipeline run. Files go to .kgbench_work/selftest in the checkout.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kgrank import corpus as cx  # noqa: E402
from kgrank import evaluation as ev  # noqa: E402
from kgrank import kg as kgm  # noqa: E402
from kgrank import training as tr  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".kgbench_work" / "selftest"
SEED = 5
TINY_MODEL = dict(d_l=8, d_g=8, heads=1, R=0, S=1, d_z=4, d_proj=8, max_len=32)
TINY_SYNTH = workloads.Workload(
    name="tiny-synth", why="", model=TINY_MODEL, k=None, train_queries=4,
    min_serve_queries=10,
    synth_knobs=dict(num_queries=30, corpus_size=600, kg_nodes=200,
                     background_vocab=300, decoy_edges=100))
TINY_DENSE = workloads.Workload(
    name="tiny-dense", why="", model=TINY_MODEL, k=4, train_queries=4, min_serve_queries=10,
    spec=gen.GenSpec(docs=200, doc_tokens=(30, 40), vocab=500, zipf_exponent=1.05,
                     communities=10, nodes_per_community=30, triples=1500, intra_share=0.9,
                     entities_per_doc=8, topic_words=10, topic_tokens_per_doc=6, queries=16,
                     query_words=2, query_topic_words=2, query_entities=2),
    min_cap_bound_ratio=0.5)


def run_gate(workload: workloads.Workload) -> list[str]:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.setup(workload, SEED, 1, work / "setup")
    res = pipeline.run_pipeline(workload, inputs, SEED, work / "run")
    _, failures = workloads.properties(workload, inputs, res.loaded_index, res.pairs, SEED)
    return failures + gate.run_gate(inputs, res, workload.k, SEED)


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def drop_candidate(original):
    def rerank_run(*args, **kwargs):
        out = original(*args, **kwargs)
        return {qid: ranking[:-1] if len(ranking) > 1 else ranking
                for qid, ranking in out.items()}
    return rerank_run


def perturb_bm25(original):
    def retrieve_topk(*args, **kwargs):
        ranked = original(*args, **kwargs)
        if ranked:
            ranked[0] = (ranked[0][0], ranked[0][1] + 1e-6)
        return ranked
    return retrieve_topk


def drop_node(original):
    def extract_subgraph(*args, **kwargs):
        sub = original(*args, **kwargs)
        if sub.num_nodes < 2:
            return sub
        last = sub.num_nodes - 1
        return kgm.QuerySubgraph(node_ids=sub.node_ids[:last], provenance=sub.provenance[:last],
                                 edges=[e for e in sub.edges if last not in (e[0], e[2])])
    return extract_subgraph


def off_by_one_ndcg(original):
    def ndcg_at_k(ranking, grades, k=10):
        dcg = sum(grades.get(doc_id, 0) / math.log2(rank + 1)
                  for rank, (doc_id, _) in enumerate(ranking[:k], start=2))
        ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
        idcg = sum(g / math.log2(rank + 1) for rank, g in enumerate(ideal[:k], start=1))
        return dcg / idcg if idcg else 0.0
    return ndcg_at_k


class GateSelfTest(unittest.TestCase):
    def assert_fails_with(self, failures: list[str], text: str) -> None:
        self.assertTrue(any(text in f for f in failures),
                        f"no failure mentions {text!r}: {failures[:5]}")

    def test_clean_runs_pass(self):
        for workload in (TINY_SYNTH, TINY_DENSE):
            with self.subTest(workload=workload.name):
                self.assertEqual(run_gate(workload), [])

    def test_dropped_candidate(self):
        with patched(tr, "rerank_run", drop_candidate):
            self.assert_fails_with(run_gate(TINY_SYNTH), "candidate set differs")

    def test_perturbed_bm25_score(self):
        with patched(cx, "retrieve_topk", perturb_bm25):
            self.assert_fails_with(run_gate(TINY_SYNTH), "differs from exhaustive BM25")

    def test_dropped_subgraph_node(self):
        with patched(kgm, "extract_subgraph", drop_node):
            self.assert_fails_with(run_gate(TINY_SYNTH), "differ from the 2-hop oracle")

    def test_off_by_one_metric(self):
        with patched(ev, "ndcg_at_k", off_by_one_ndcg):
            self.assert_fails_with(run_gate(TINY_SYNTH), "ndcg@10")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
