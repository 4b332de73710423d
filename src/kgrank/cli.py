"""Command-line pipeline: index, retrieve, subgraphs, train, rerank, eval, gen,
selftest.

Each subcommand validates its inputs, writes outputs atomically, and is
idempotent given identical inputs and seeds. Exit codes: 2 for missing or
invalid inputs, 3 for violated internal invariants. KGRANK_THREADS caps how
many queries rerank scores in parallel (default: machine cores).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import corpus as cx
from . import evaluation as ev
from . import oracles
from . import tensor as tz
from .errors import ConfigurationError, InputError, KgrankError, ValidationError
from .kg import load_kg, load_subgraph_cache, save_subgraph_cache, subgraph_for_pair
from .model import ModelConfig, RankerModel, build_vocab, kl_gaussian_std_normal
from .synth import TaskKnobs, generate, write_task
from .tensor import Tensor, load_checkpoint, save_checkpoint
from .training import (SubgraphProvider, loss_from_trace, rerank_run,
                       save_metrics, train_model)


def worker_count() -> int:
    value = os.environ.get("KGRANK_THREADS", "").strip()
    if value:
        try:
            return max(1, int(value))
        except ValueError as exc:
            raise ConfigurationError(f"KGRANK_THREADS={value!r} is not an integer") from exc
    return os.cpu_count() or 1


def _require(path: str, kind: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{kind} file not found: {path}")
    return p


def _check_run(run: dict[str, list[tuple[str, float]]], queries: dict, docs: dict) -> None:
    """Every run query must be in the queries file and every run document in
    the corpus."""
    for qid in sorted(run):
        if qid not in queries:
            raise ValidationError(f"run query {qid!r} missing from queries file")
        for did, _ in run[qid]:
            if did not in docs:
                raise ValidationError(f"run document {did!r} missing from corpus")


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_index(args) -> int:
    docs = cx.load_documents(_require(args.corpus, "corpus"))
    index = cx.build_index(docs)
    cx.save_index(args.out, index)
    print(f"indexed {index.num_docs} documents, {len(index.postings)} terms -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    index = cx.load_index(_require(args.index, "index"))
    queries = cx.load_queries(_require(args.queries, "queries"))
    run = {q.id: cx.retrieve_topk(index, q, k=args.k) for q in queries}
    ev.save_run(args.out, run, tag=args.tag)
    hits = sum(len(v) for v in run.values())
    print(f"retrieved {hits} candidates for {len(queries)} queries -> {args.out}")
    return 0


def cmd_subgraphs(args) -> int:
    kg = load_kg(_require(args.kg, "kg"),
                 _require(args.lexicon, "lexicon") if args.lexicon else None)
    queries = {q.id: q for q in cx.load_queries(_require(args.queries, "queries"))}
    docs = {d.id: d for d in cx.load_documents(_require(args.corpus, "corpus"))}
    run = ev.load_run(_require(args.run, "run"))
    _check_run(run, queries, docs)
    cache = {}
    for qid in sorted(run):
        for did, _ in run[qid]:
            cache[(qid, did)] = subgraph_for_pair(kg, queries[qid].text, docs[did].text,
                                                  max_nodes=args.max_nodes)
    save_subgraph_cache(args.out, cache)
    print(f"cached {len(cache)} subgraphs -> {args.out}")
    return 0


def _training_config(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    base = Path(path).resolve().parent
    for key in ("corpus", "queries", "qrels", "kg", "lexicon", "subgraph_cache",
                "checkpoint_out", "model_config_out", "metrics_out"):
        if cfg.get(key):
            cfg[key] = str((base / cfg[key]).resolve()) if not os.path.isabs(cfg[key]) else cfg[key]
    for key in ("corpus", "queries", "qrels", "kg", "checkpoint_out"):
        if not cfg.get(key):
            raise ConfigurationError(f"training config missing required key {key!r}")
    return cfg


def cmd_train(args) -> int:
    cfg = _training_config(_require(args.config, "config"))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 42))
    docs = cx.load_documents(_require(cfg["corpus"], "corpus"))
    queries = cx.load_queries(_require(cfg["queries"], "queries"))
    qrels = cx.load_qrels(_require(cfg["qrels"], "qrels"))
    kg = load_kg(_require(cfg["kg"], "kg"),
                 _require(cfg["lexicon"], "lexicon") if cfg.get("lexicon") else None)
    cache = load_subgraph_cache(cfg["subgraph_cache"]) if cfg.get("subgraph_cache") else None

    model_fields = {f.name for f in fields(ModelConfig)}
    overrides = dict(cfg.get("model", {}))
    unknown = set(overrides) - model_fields
    if unknown:
        raise ConfigurationError(f"unknown model config keys: {sorted(unknown)}")
    overrides.pop("vocab", None)
    overrides.pop("relations", None)
    if "alpha" in cfg:  # top-level alpha wins over the model section
        overrides["alpha"] = float(cfg["alpha"])
    model_cfg = ModelConfig(vocab=build_vocab(docs), relations=sorted(kg.relations),
                            **overrides)

    model, stats = train_model(
        model_cfg, docs, queries, qrels, kg,
        epochs=int(cfg.get("epochs", 3)), batch_size=int(cfg.get("batch_size", 8)),
        seed=seed, lr=float(cfg.get("lr", 3e-4)),
        negatives_per_positive=int(cfg.get("negatives_per_positive", 2)),
        max_nodes=int(cfg.get("max_nodes", 10)), cache=cache)
    save_checkpoint(cfg["checkpoint_out"], model.params)
    if cfg.get("model_config_out"):
        model_cfg.save(cfg["model_config_out"])
    if cfg.get("metrics_out"):
        save_metrics(cfg["metrics_out"], stats)
    last = stats[-1]
    print(f"trained {last.epoch} epochs: mean_nll={last.mean_nll:.4f} "
          f"mean_kl={last.mean_kl:.4f} -> {cfg['checkpoint_out']}")
    return 0


def cmd_rerank(args) -> int:
    model_cfg = ModelConfig.load(_require(args.model_config, "model config"))
    params = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    model = RankerModel(model_cfg, params)
    run = ev.load_run(_require(args.run, "run"))
    docs = {d.id: d for d in cx.load_documents(_require(args.corpus, "corpus"))}
    queries = {q.id: q for q in cx.load_queries(_require(args.queries, "queries"))}
    _check_run(run, queries, docs)
    cache = load_subgraph_cache(_require(args.cache, "subgraph cache")) if args.cache else None
    kg = None
    if args.kg:
        kg = load_kg(_require(args.kg, "kg"),
                     _require(args.lexicon, "lexicon") if args.lexicon else None)
    if cache is None and kg is None and not model_cfg.text_only:
        raise ConfigurationError("rerank needs --cache or --kg to obtain subgraphs")
    provider = SubgraphProvider(kg, queries, docs, cache, max_nodes=args.max_nodes)
    reranked = rerank_run(model, run, queries, docs, provider, workers=worker_count())
    for qid in run:
        if {d for d, _ in run[qid]} != {d for d, _ in reranked[qid]}:
            raise KgrankError(f"candidate set changed for query {qid!r}")  # invariant
    ev.save_run(args.out, reranked, tag=args.tag)
    print(f"reranked {sum(len(v) for v in reranked.values())} pairs -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    run = ev.load_run(_require(args.run, "run"))
    qrels = cx.load_qrels(_require(args.qrels, "qrels"))
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for metric in metrics:
        ev.compute_metric(metric, [], {})  # validate the metric name early
    table = ev.evaluate_run(run, qrels, metrics)
    if args.out:
        ev.save_report(args.out, table, metrics)
    print(ev.format_report(table, metrics))
    return 0


def cmd_gen(args) -> int:
    knob_fields = {f.name for f in fields(TaskKnobs)}
    overrides = {k: v for k, v in vars(args).items() if k in knob_fields and v is not None}
    seed = args.seed if args.seed is not None else 42
    task = generate(seed=seed, knobs=TaskKnobs(**overrides))
    write_task(task, args.out)
    print(f"generated task (BM25 nDCG@10={task.manifest['bm25_ndcg10']:.3f}, "
          f"graph oracle={task.manifest['oracle_ndcg10']:.3f}) -> {args.out}")
    return 0


def cmd_selftest(args) -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    started = time.time()
    rng = np.random.default_rng(20240917)

    # gradient checks, per primitive
    worst = 0.0
    for name, build in _primitive_cases():
        f, params = build(rng)
        err = tz.finite_diff_check(f, params, step=1e-5, max_coords=40, seed=3)
        worst = max(worst, err)
        if err >= 1e-6:
            check(f"gradient: {name}", False, f"err={err:.2e}")
    check("gradient: primitives", worst < 1e-6, f"max err={worst:.2e}")

    # small full-model gradient check
    model, query, doc, sub, noise = _tiny_model_fixture()
    f = lambda: loss_from_trace(model.forward(query, doc, sub, noise=noise),
                                True, model.cfg.alpha, model.cfg.S)
    err = tz.finite_diff_check(f, model.params, step=1e-4, max_coords=120, seed=5)
    check("gradient: full model", err < 1e-4, f"err={err:.2e}")

    # metric oracles on random instances
    agree = _metric_oracle_trials(rng, trials=100)
    check("metrics: brute-force agreement", agree, "100 random instances per metric")

    # subgraph extraction vs brute-force 2-hop enumeration
    agree = _subgraph_oracle_trials(rng, trials=50)
    check("subgraph: 2-hop oracle", agree, "50 random graphs")

    # KL closed form vs Monte Carlo
    ok = True
    for _ in range(5):
        mu = rng.uniform(-1.5, 1.5, size=4)
        sigma = rng.uniform(0.4, 1.8, size=4)
        closed = kl_gaussian_std_normal(Tensor(mu), Tensor(sigma)).item()
        estimate, se = oracles.kl_mc_estimate(mu, sigma, 200_000, seed=int(rng.integers(2**31)))
        ok = ok and abs(closed - estimate) < max(2e-2, 4 * se)
    check("bottleneck: KL closed form vs Monte Carlo", ok)

    # BM25 vs direct formula
    ok = _bm25_oracle_trials(rng, trials=50)
    check("bm25: direct-formula agreement", ok, "50 random corpora")

    # determinism of a forward pass
    t1 = model.forward(query, doc, sub, noise=noise).score
    t2 = model.forward(query, doc, sub, noise=noise).score
    check("determinism: repeated forward", t1 == t2)

    print(f"selftest finished in {time.time() - started:.1f}s: "
          f"{'OK' if not failures else f'{len(failures)} failure(s)'}")
    return 0 if not failures else 3


def _primitive_cases():
    def elementwise(op):
        def build(rng):
            x = Tensor(rng.normal(size=(3, 5)) + 0.1, requires_grad=True)
            w = Tensor(rng.normal(size=(3, 5)))
            return (lambda: tz.tsum(op(x) * w)), {"x": x}
        return build

    def positive(op):
        def build(rng):
            x = Tensor(rng.uniform(0.2, 3.0, size=(3, 5)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 5)))
            return (lambda: tz.tsum(op(x) * w)), {"x": x}
        return build

    def build_matmul(rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        return (lambda: tz.tsum(a @ b)), {"a": a, "b": b}

    def build_concat_split(rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        def f():
            c = tz.concat([a, b], axis=1)
            lo, hi = tz.split(c, [2, 3], axis=1)
            return tz.tsum(lo * lo) + tz.tsum(hi)
        return f, {"a": a, "b": b}

    def build_gather(rng):
        a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])
        w = Tensor(rng.normal(size=(4, 3)))
        return (lambda: tz.tsum(tz.gather_rows(a, idx) * w)), {"a": a}

    def build_masked(rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mask = rng.random(size=(3, 4)) > 0.5
        return (lambda: tz.tsum(tz.masked_fill(a, mask, -2.0))), {"a": a}

    return [
        ("softmax", elementwise(tz.softmax)),
        ("layer_norm", elementwise(tz.layer_norm)),
        ("gelu", elementwise(tz.gelu)),
        ("relu", elementwise(tz.relu)),
        ("softplus", elementwise(tz.softplus)),
        ("exp", elementwise(tz.exp)),
        ("log", positive(tz.log)),
        ("matmul", build_matmul),
        ("concat/split", build_concat_split),
        ("gather_rows", build_gather),
        ("masked_fill", build_masked),
    ]


def _tiny_model_fixture():
    from .corpus import Document, Query
    from .kg import INTERACTION_NODE, INTERACTION_RELATION, QuerySubgraph
    from .model import RESERVED_TOKENS
    cfg = ModelConfig(d_l=16, d_g=8, heads=2, R=1, S=1, d_z=4, d_proj=8, max_len=16,
                      vocab=list(RESERVED_TOKENS) + ["alpha", "beta", "gamma"],
                      relations=["rel_a"])
    model = RankerModel.build(cfg, seed=11)
    sub = QuerySubgraph(
        node_ids=[INTERACTION_NODE, "n1", "n2"],
        provenance=["interaction", "query-seed", "doc-seed"],
        edges=[(1, "rel_a", 2), (0, INTERACTION_RELATION, 1), (1, INTERACTION_RELATION, 0),
               (0, INTERACTION_RELATION, 2), (2, INTERACTION_RELATION, 0)])
    noise = [np.random.default_rng(9).normal(size=(1, cfg.d_z)) for _ in range(cfg.S)]
    return model, Query("q", "alpha beta"), Document("d", "gamma alpha"), sub, noise


def _metric_oracle_trials(rng, trials: int) -> bool:
    for _ in range(trials):
        n = int(rng.integers(1, 20))
        docs = [f"d{i}" for i in range(n)]
        ranking = [(d, float(s)) for d, s in
                   zip(docs, sorted(rng.normal(size=n), reverse=True))]
        grades = {d: int(rng.integers(0, 4)) for d in docs if rng.random() < 0.5}
        relevant = {d for d, g in grades.items() if g > 0}
        ids = [d for d, _ in ranking]
        k = int(rng.integers(1, 15))
        if ev.average_precision(ranking, relevant) != oracles.ap_direct(ids, relevant):
            return False
        if abs(ev.ndcg_at_k(ranking, grades, k) - oracles.ndcg_direct(ids, grades, k)) > 1e-12:
            return False
        for capped in (False, True):
            if ev.recall_at_k(ranking, relevant, k, capped) != \
                    oracles.recall_direct(ids, relevant, k, capped):
                return False
    return True


def _subgraph_oracle_trials(rng, trials: int) -> bool:
    from .kg import KnowledgeGraph, extract_subgraph
    for _ in range(trials):
        n = int(rng.integers(4, 30))
        nodes = [f"v{i}" for i in range(n)]
        triples = set()
        for _ in range(int(rng.integers(n, 4 * n))):
            h, t = rng.choice(n, size=2, replace=False)
            triples.add((nodes[int(h)], f"r{int(rng.integers(3))}", nodes[int(t)]))
        kg = KnowledgeGraph()
        kg.triples = sorted(triples)
        for h, r, t in kg.triples:
            kg.nodes.update((h, t))
            kg.relations.add(r)
        kg.nodes.update(nodes)
        n_seeds = int(rng.integers(0, min(6, n)))
        seeds = set(str(s) for s in rng.choice(nodes, size=n_seeds, replace=False))
        v_q = {s for s in seeds if rng.random() < 0.6} or seeds
        v_d = seeds - v_q or v_q
        sub = extract_subgraph(kg, set(v_q), set(v_d), max_nodes=n + 1)
        expected = oracles.two_hop_nodes_direct(kg.triples, v_q | v_d)
        if set(sub.node_ids[1:]) != expected:
            return False
        got_edges = {(sub.node_ids[s], r, sub.node_ids[t])
                     for s, r, t in sub.edges if r != "<int>"}
        if got_edges != oracles.subgraph_edges_direct(kg.triples, expected):
            return False
    return True


def _bm25_oracle_trials(rng, trials: int) -> bool:
    from .corpus import Document, Query, build_index, bm25_score, retrieve_topk, tokenize
    words = [f"w{i}" for i in range(12)]
    for _ in range(trials):
        n = int(rng.integers(2, 12))
        docs = [Document(f"d{i}", " ".join(rng.choice(words, size=rng.integers(1, 15))))
                for i in range(n)]
        index = build_index(docs)
        tokens = {d.id: tokenize(d.text) for d in docs}
        q_terms = list(rng.choice(words, size=int(rng.integers(1, 5))))
        for d in docs:
            fast = bm25_score(index, q_terms, d.id)
            slow = oracles.bm25_direct(tokens, q_terms, d.id)
            if abs(fast - slow) > 1e-9:
                return False
        # ordering equals the exhaustive score table
        run = retrieve_topk(index, Query("q", " ".join(q_terms)), k=n)
        table = sorted(((d.id, bm25_score(index, q_terms, d.id)) for d in docs
                        if bm25_score(index, q_terms, d.id) > 0),
                       key=lambda item: (-item[1], item[0]))
        if run != table[:n]:
            return False
    return True


# ---------------------------------------------------------------------------
# Argument parsing.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgrank",
        description="Knowledge-graph-enriched document re-ranking pipeline.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized step (default 42, or the "
                             "training config's seed)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw:
                                argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("index", help="build and persist the inverted index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="BM25 top-k candidates as a TREC run")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--tag", default="bm25")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("subgraphs", help="cache per-pair subgraphs for a run")
    p.add_argument("--kg", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--max-nodes", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subgraphs)

    p = sub.add_parser("train", help="train the ranker from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="re-score a run with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--model-config", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--cache")
    p.add_argument("--kg")
    p.add_argument("--lexicon")
    p.add_argument("--max-nodes", type=int, default=10)
    p.add_argument("--tag", default="kgrank")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="evaluate a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", default=",".join(ev.KNOWN_METRICS))
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic KG-dependent task")
    p.add_argument("--out", required=True)
    for f in fields(TaskKnobs):
        p.add_argument(f"--{f.name.replace('_', '-')}",
                       type=type(f.default), default=None, dest=f.name)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="run gradient, metric, subgraph, and KL oracles")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KgrankError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
