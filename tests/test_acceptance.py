"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to watch them stream). Criteria 1-5
run the oracle checks of kgrank.selftest, the same ones `kgrank selftest`
runs, under their time limits. The expensive central-claim comparison
(criterion 6/7) trains three models on the default synthetic task and is
shared through a module-scoped fixture.
"""

import json
import os
import time

import numpy as np
import pytest

from kgrank.cli import main
from kgrank.corpus import Query, build_index, retrieve_topk
from kgrank.evaluation import load_run, ndcg_at_k
from kgrank.kg import KnowledgeGraph
from kgrank.model import ModelConfig, build_vocab
from kgrank.selftest import (check_bm25, check_bottleneck, check_metrics,
                             check_model_gradient, check_primitive_gradients,
                             check_subgraphs)
from kgrank.synth import generate
from kgrank.training import SubgraphProvider, rerank_run, train_model
from test_corpus import FIXTURE_DOCS, FIXTURE_QUERIES, FIXTURE_SCORES


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def report_checks(criterion: str, checks, seconds: float) -> None:
    """Run kgrank.selftest checks and report them as one criterion that must
    also finish within its time limit."""
    started = time.time()
    failures, summaries = [], []
    for check in checks:
        failed, summary = check()
        failures += failed
        summaries.append(summary)
    elapsed = time.time() - started
    report(criterion, not failures and elapsed < seconds,
           "; ".join(summaries + [f"{elapsed:.1f}s (<{seconds:.0f}s)"] + failures[:10]))


def test_criterion_1_gradient_fidelity():
    report_checks("criterion 1 (gradient fidelity)",
                  [check_primitive_gradients, check_model_gradient], 60)


def test_criterion_2_mi_machinery():
    report_checks("criterion 2 (MI machinery)", [check_bottleneck], 120)


def test_criterion_3_metric_oracles():
    report_checks("criterion 3 (metric oracles)", [check_metrics], 30)


def test_criterion_4_subgraph_correctness():
    report_checks("criterion 4 (subgraph correctness)", [check_subgraphs], 30)


def test_criterion_5_bm25_correctness():
    index = build_index(FIXTURE_DOCS)
    served = {(qid, did): score for qid, text in FIXTURE_QUERIES.items()
              for did, score in retrieve_topk(index, Query(qid, text), k=10)}
    worst = max(abs(served.get(pair, 0.0) - expected)
                for pair, expected in FIXTURE_SCORES.items())
    failures, summary = check_bm25()
    report("criterion 5 (BM25 correctness)", worst < 1e-6 and not failures,
           "; ".join([f"fixture max |err| {worst:.2e} (<1e-6)", summary] + failures[:10]))


# ---------------------------------------------------------------------------
# Criteria 6 and 7: the central claim and the MI-fusion ablation, at desk scale.

ACCEPTANCE_MODEL = dict(d_l=32, d_g=32, heads=2, R=1, S=2, d_z=16, d_proj=32,
                        max_len=64)
ACCEPTANCE_SEED = 42


@pytest.fixture(scope="module")
def central_claim_runs():
    """Generate the default task and train graph / text-only / alpha=0 models
    with the same budget (3 epochs, batch 8, lr 3e-4, seed 42)."""
    started = time.time()
    task = generate(seed=ACCEPTANCE_SEED)
    kg = KnowledgeGraph.from_triples(task.triples, task.lexicon)

    train_ids, test_ids = set(task.train_query_ids), set(task.test_query_ids)
    queries_train = [q for q in task.queries if q.id in train_ids]
    queries_test = [q for q in task.queries if q.id in test_ids]
    qrels_train = {k: v for k, v in task.qrels.items() if k[0] in train_ids}
    qrels_test = {k: v for k, v in task.qrels.items() if k[0] in test_ids}

    index = build_index(task.corpus)
    bm25_run = {q.id: retrieve_topk(index, q, k=100) for q in queries_test}

    def test_ndcg(run):
        vals = []
        for qid, ranking in run.items():
            grades = {d: g for (q, d), g in qrels_test.items() if q == qid}
            vals.append(ndcg_at_k(ranking, grades, k=10))
        return float(np.mean(vals))

    vocab = build_vocab(task.corpus)
    relations = sorted(kg.relations)
    docs_by_id = {d.id: d for d in task.corpus}
    queries_by_id = {q.id: q for q in task.queries}

    results = {"bm25": test_ndcg(bm25_run)}
    stats_by_arm = {}
    for arm, overrides in [("graph", dict(alpha=0.01)),
                           ("text_only", dict(alpha=0.01, text_only=True)),
                           ("graph_alpha0", dict(alpha=0.0))]:
        cfg = ModelConfig(vocab=vocab, relations=relations,
                          **ACCEPTANCE_MODEL, **overrides)
        model, stats = train_model(cfg, task.corpus, queries_train, qrels_train,
                                   kg, epochs=3, batch_size=8,
                                   seed=ACCEPTANCE_SEED, lr=3e-4)
        provider = SubgraphProvider(kg, queries_by_id, docs_by_id)
        reranked = rerank_run(model, bm25_run, queries_by_id, docs_by_id, provider)
        results[arm] = test_ndcg(reranked)
        stats_by_arm[arm] = stats
        # re-ranking must preserve every candidate set
        for qid in bm25_run:
            assert {d for d, _ in bm25_run[qid]} == {d for d, _ in reranked[qid]}
    return {"ndcg": results, "stats": stats_by_arm,
            "elapsed": time.time() - started}


def test_criterion_6_central_claim(central_claim_runs):
    ndcg = central_claim_runs["ndcg"]
    elapsed = central_claim_runs["elapsed"]
    margin_text = ndcg["graph"] - ndcg["text_only"]
    margin_bm25 = ndcg["graph"] - ndcg["bm25"]
    report("criterion 6 (central claim at desk scale)",
           margin_text >= 0.05 and margin_bm25 >= 0.05 and elapsed < 600,
           f"test nDCG@10: graph {ndcg['graph']:.4f}, text-only "
           f"{ndcg['text_only']:.4f} (margin {margin_text:+.4f} >= 0.05), "
           f"BM25 {ndcg['bm25']:.4f} (margin {margin_bm25:+.4f} >= 0.05); "
           f"{elapsed:.0f}s (<600s)")


def test_criterion_7_mi_fusion_ablation(central_claim_runs):
    stats = central_claim_runs["stats"]
    ndcg = central_claim_runs["ndcg"]
    kl_with = stats["graph"][-1].mean_kl
    kl_without = stats["graph_alpha0"][-1].mean_kl
    delta_quality = ndcg["graph"] - ndcg["graph_alpha0"]
    report("criterion 7 (MI-fusion ablation)", kl_with < kl_without,
           f"final mean KL: alpha=0.01 -> {kl_with:.3f} < alpha=0 -> "
           f"{kl_without:.3f}; nDCG@10 delta {delta_quality:+.4f} "
           f"(reported, not thresholded)")


# ---------------------------------------------------------------------------
# Criteria 8 and 9: pipeline determinism and candidate preservation, end to
# end through the CLI.

GEN_ARGS = ["--num-queries", "10", "--corpus-size", "200", "--kg-nodes", "120",
            "--decoy-edges", "60"]


def run_pipeline(root) -> None:
    config = {
        "corpus": "task/corpus.jsonl",
        "queries": "task/queries_train.jsonl",
        "qrels": "task/qrels_train.txt",
        "kg": "task/kg.tsv",
        "lexicon": "task/lexicon.tsv",
        "checkpoint_out": "ckpt.json",
        "model_config_out": "model.json",
        "metrics_out": "metrics.csv",
        "epochs": 1,
        "batch_size": 4,
        "seed": 5,
        "model": {"d_l": 16, "d_g": 8, "heads": 2, "R": 0, "S": 1, "d_z": 4,
                  "d_proj": 8, "max_len": 32},
    }
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["gen", "--out", "task", "--seed", "7", *GEN_ARGS]) == 0
        assert main(["index", "--corpus", "task/corpus.jsonl", "--out", "index.json"]) == 0
        assert main(["retrieve", "--index", "index.json",
                     "--queries", "task/queries_test.jsonl", "--k", "100",
                     "--out", "run_bm25.txt"]) == 0
        assert main(["subgraphs", "--kg", "task/kg.tsv", "--lexicon", "task/lexicon.tsv",
                     "--queries", "task/queries.jsonl", "--corpus", "task/corpus.jsonl",
                     "--run", "run_bm25.txt", "--out", "cache.jsonl"]) == 0
        (root / "train.json").write_text(json.dumps(config))
        assert main(["train", "--config", "train.json"]) == 0
        assert main(["rerank", "--checkpoint", "ckpt.json", "--model-config",
                     "model.json", "--run", "run_bm25.txt",
                     "--corpus", "task/corpus.jsonl", "--queries", "task/queries.jsonl",
                     "--cache", "cache.jsonl", "--out", "run_rr.txt"]) == 0
        assert main(["eval", "--run", "run_rr.txt", "--qrels", "task/qrels_test.txt",
                     "--out", "report.csv"]) == 0
    finally:
        os.chdir(cwd)


def test_criterion_8_pipeline_determinism(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        run_pipeline(tmp_path / sub)
    stages = ["task/corpus.jsonl", "task/kg.tsv", "index.json", "run_bm25.txt",
              "cache.jsonl", "ckpt.json", "model.json", "run_rr.txt", "report.csv"]
    mismatched = [name for name in stages
                  if (tmp_path / "a" / name).read_bytes()
                  != (tmp_path / "b" / name).read_bytes()]
    report("criterion 8 (pipeline determinism)", not mismatched,
           f"byte-identical reruns for {', '.join(stages)}"
           + (f"; MISMATCH: {mismatched}" if mismatched else ""))


def test_criterion_9_candidate_set_preservation(tmp_path):
    run_pipeline(tmp_path)
    before = load_run(tmp_path / "run_bm25.txt")
    after = load_run(tmp_path / "run_rr.txt")
    same_queries = set(before) == set(after)
    same_candidates = all({d for d, _ in before[q]} == {d for d, _ in after[q]}
                          for q in before)
    no_new_pairs = all(d in {x for x, _ in before[q]} for q in after for d, _ in after[q])
    report("criterion 9 (candidate-set preservation)",
           same_queries and same_candidates and no_new_pairs,
           f"rerank preserved the per-query candidate sets for "
           f"{len(before)} queries")
