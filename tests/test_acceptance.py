"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to watch them stream). Criteria 1-5
run the oracle checks of kgrank.selftest, the same ones `kgrank selftest`
runs, under their time limits. The expensive central-claim comparison
(criterion 6/7) trains three models on the default synthetic task and is
shared through a module-scoped fixture.
"""

import hashlib
import time

import numpy as np
import pytest

from kgrank.corpus import Query, build_index, retrieve_topk
from kgrank.evaluation import load_run, ndcg_at_k
from kgrank.kg import KnowledgeGraph
from kgrank.model import ModelConfig, build_vocab
from kgrank.selftest import (check_bm25, check_bottleneck, check_metrics,
                             check_model_gradient, check_primitive_gradients,
                             check_subgraphs)
from kgrank.synth import generate
from kgrank.tensor import load_checkpoint
from kgrank.training import SubgraphProvider, rerank_run, train_model
from test_cli import run_pipeline
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
# end through the CLI (test_cli.run_pipeline).

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


# The outputs of run_pipeline, frozen so that a refactor that claims the same
# outputs is checked against them. The task files, the index, the BM25 run
# and the subgraph cache use no BLAS, so they are compared by digest; the
# checkpoint (the L2 norm of each parameter, in sorted order) and the
# re-ranked run (its order exactly, its scores to 1e-12) are compared by
# value. A change that moves any of them on purpose updates these values.
FROZEN_PIPELINE_SHA256 = {
    "task/corpus.jsonl": "62bb71435665f7706ec674a4e451dc057d9c48cb8750d5774731f6dc0fa162f0",
    "task/kg.tsv": "aa441372f996f5045ba4506df21fffb3caf1c8a99b3d26987317f129e867b5a6",
    "task/lexicon.tsv": "684172fa543f1f7c56b4d784f2cbd6fd7b3dee3677afdde1e131c88bb9e8b2bf",
    "task/manifest.json": "9dfc5a2d2d05d2bd9b849bfda99ab36a0cd0262782b939dbc03ef89160a509b1",
    "task/qrels.txt": "ccdaf6e88c13b7ae6a640f7f831721aebab34491cfac4cfffa6673799eb47e40",
    "task/qrels_test.txt": "0c149503fb48cddbea1a4f80653c4abcaa7487d58ccd6da07e8358e68f19cc19",
    "task/qrels_train.txt": "520bde768baffb9c1ed510197f03abe5d1acd3f03807c86db1bd789520b2cf63",
    "task/queries.jsonl": "8d030c23f236b5d35549bb3b9dddf8b056102c57447199b8dddc68d1e407829e",
    "task/queries_test.jsonl": "8195e671228721f2219a96d16cf8e716037acc1910fc0b418d0f21c68bcdca05",
    "task/queries_train.jsonl": "5795c252a3c2c597f1885495f75e7edc3a2112c849a222f84b2acf89e1645820",
    "index.json": "5d0c5623108d9c5255b122ba4bf7e0763fd4e4f0fce53a0a9303920e30bb0d4a",
    "run_bm25.txt": "b5ee1aaa4117794abc884b37d4bf5495eee05d9625836af899a9f6b7b68539e3",
    "cache.jsonl": "5fc4103eef9233d27519712dcc86a4aaccfbcc4733f258bef84d7c7e77744c59",
}
FROZEN_PIPELINE_PARAM_NORMS = [
    4.442163253951371e-13, 0.011390380896795093, 0.007467253921287958, 0.011098819183175896,
    3.943754984234309, 3.85533735357035, 3.768807184205234, 3.6941043464893677,
    0.021761477619109716, 0.011734582534551669, 4.857802318748417, 4.944183450954792,
    0.010396902753320822, 3.999648303290827, 0.006025037228582349, 4.0004818283647605,
    0.01097900156438336, 4.0011359201248755, 0.004142017008692918, 1.688903637317961, 0.0,
    0.010889773091398448, 0.0, 0.01126918011606856, 3.833952446456513, 3.7294639273023003,
    4.2765515070791915, 4.028483135682117, 0.4615937362414392, 3.7625161442752663e-13,
    0.01036427275442542, 0.008125754453053477, 0.009961269876061116, 3.876886720592026,
    3.8997026264950914, 4.085058271999989, 3.8378229401614257, 0.02149962844632172,
    0.011211649971657196, 5.213625083951479, 4.9689282108926545, 0.008820913551344185,
    3.9987176270029297, 0.010504828761016747, 3.999534464910629, 0.0108070689403093,
    3.9990359313762243, 0.008238842648120184, 3.992319482382679, 3.3835384195955513,
    2.7806637841534014, 2.3671450539622314, 1.6511864452270795, 0.01126297449190208,
    0.008503265037823386, 3.1571825190394014, 3.2991437358146305, 0.5829033596651744,
    2.495541588174381, 2.8347186493227423, 2.75463942188571, 2.5053708778894577,
    0.04330638116184505, 2.255186985438438, 13.60311181246226,
]
FROZEN_RERANK_ORDER_SHA256 = 'a2769b2395bf4414f79aad6cbef77a9ec845ca3ab2dae075b37f157cc91a21ac'
FROZEN_RERANK_SCORES = [
    0.3302750289817739, 0.30734496319702437, 0.29729522164282707, 0.291247527573769,
    0.2877924293599378, 0.27636912109336537, 0.27292367876736484, 0.2717449617185745,
    0.2704770391939581, 0.2648944836317348, 0.2592239280477061, 0.25909111439320803,
    0.2432708569551662, 0.2423035499000225, 0.23610751665252191, 0.23481130102608108,
    0.22458209312422564, 0.214596818036043, 0.3653344519634079, 0.32395279443346203,
    0.31300239674405855, 0.3050524309014815, 0.29480936133837005, 0.29448704345418913,
    0.29014595005071037, 0.2833451391668982, 0.2789975983731474, 0.2689173940434115,
    0.26288361455718706, 0.25714139185318546, 0.25340338787188, 0.2477807785192461,
    0.24739765906213648, 0.24354158269840942, 0.23865577500673452, 0.22779694980053408,
    0.3188502766998248, 0.28143218258760494, 0.27777794584612026, 0.27689967074740796,
    0.2727655066446647, 0.2695709831864534, 0.26820404105423373, 0.26691825408289926,
    0.25802023808656743, 0.2521505281367904, 0.25164333154387086, 0.24443940447240606,
    0.23871926849760844, 0.23145144985597801, 0.21880024361012831, 0.21778002588290607,
    0.1974797207672119, 0.18797388752022345, 0.3578373458260072, 0.35580158240250326,
    0.3445182110658714, 0.33718421772931667, 0.33336848228039867, 0.32926774102444056,
    0.3090920659244005, 0.28456083665378484, 0.2824811819808372, 0.2819999909023473,
    0.26881597504081484, 0.2664322689232048, 0.2556300337979075, 0.2514611239794873,
    0.24895041871309018, 0.23850657266860756, 0.23182774905908227, 0.20655485012680325,
]


def test_pipeline_outputs_match_frozen_values(tmp_path):
    run_pipeline(tmp_path)
    for name, digest in FROZEN_PIPELINE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    params = load_checkpoint(tmp_path / "ckpt.json")
    assert len(params) == len(FROZEN_PIPELINE_PARAM_NORMS)
    for name, frozen in zip(sorted(params), FROZEN_PIPELINE_PARAM_NORMS):
        # attention key biases move by round-off alone (see TestBatchedStep)
        tol = dict(abs=1e-11) if name.endswith(".bk") else dict(rel=1e-10)
        assert np.linalg.norm(params[name].data) == pytest.approx(frozen, **tol), name
    rows = [line.split() for line in (tmp_path / "run_rr.txt").read_text().splitlines()]
    order = "".join(f"{qid} {did}\n" for qid, _, did, *_ in rows)
    assert hashlib.sha256(order.encode()).hexdigest() == FROZEN_RERANK_ORDER_SHA256
    np.testing.assert_allclose([float(row[4]) for row in rows], FROZEN_RERANK_SCORES,
                               rtol=0, atol=1e-12)


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
