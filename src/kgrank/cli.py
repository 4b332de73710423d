"""Command-line pipeline: index, retrieve, subgraphs, train, rerank, eval, gen,
selftest.

Each subcommand validates its inputs, writes outputs atomically, and is
idempotent given identical inputs and seeds. Exit codes: 2 for missing or
invalid inputs, 3 for violated internal invariants. `selftest` runs the
oracle checks of `kgrank.selftest`, the same ones the acceptance tests for
criteria 1-5 call, and exits 3 if any fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import corpus as cx
from . import evaluation as ev
from . import selftest
from .errors import ConfigurationError, InputError, KgrankError, ParseError, ValidationError
from .fileio import load_json
from .kg import load_kg, load_subgraph_cache, save_subgraph_cache
from .model import ModelConfig, RankerModel, build_vocab
from .synth import TaskKnobs, generate, write_task
from .tensor import load_checkpoint, save_checkpoint
from .training import SubgraphProvider, rerank_run, save_metrics, train_model


def _require(path: str, kind: str) -> Path:
    p = Path(path)
    if p.is_dir():
        raise InputError(f"{kind} file is a directory: {path}")
    if not p.is_file():
        raise InputError(f"{kind} file not found: {path}")
    return p


def _load_kg(path: str, lexicon: str | None):
    return load_kg(_require(path, "kg"), _require(lexicon, "lexicon") if lexicon else None)


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
    print(f"indexed {index.num_docs} documents, {len(index.terms)} terms -> {args.out}")
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
    kg = _load_kg(args.kg, args.lexicon)
    queries = {q.id: q for q in cx.load_queries(_require(args.queries, "queries"))}
    docs = {d.id: d for d in cx.load_documents(_require(args.corpus, "corpus"))}
    run = ev.load_run(_require(args.run, "run"))
    _check_run(run, queries, docs)
    provider = SubgraphProvider(kg, queries, docs)
    for qid in sorted(run):
        for did, _ in run[qid]:
            provider.get(qid, did)
    save_subgraph_cache(args.out, provider.cache)
    print(f"cached {len(provider.cache)} subgraphs -> {args.out}")
    return 0


# Training-config keys besides "model": file paths, and train_model settings
# with the JSON types each may hold (bool is not an int here). train_model
# holds their defaults and checks their ranges.
CONFIG_PATHS = ("corpus", "queries", "qrels", "kg", "lexicon", "subgraph_cache",
                "checkpoint_out", "model_config_out", "metrics_out")
CONFIG_SETTINGS = {"epochs": (int,), "batch_size": (int,), "seed": (int,), "lr": (int, float),
                   "negatives_per_positive": (int,)}


def _training_config(path: str | Path) -> dict:
    cfg = load_json(path, "training config")
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: training config must be a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_PATHS) - set(CONFIG_SETTINGS) - {"model"})
    if unknown:
        raise ConfigurationError(f"{path}: unknown training config key {unknown[0]!r}")
    if not isinstance(cfg.get("model", {}), dict):
        raise ConfigurationError(f"{path}: training config key 'model' must hold an object")
    for key, types in CONFIG_SETTINGS.items():
        if key in cfg and type(cfg[key]) not in types:
            raise ConfigurationError(f"{path}: training config key {key!r} must hold "
                                     f"{' or '.join(t.__name__ for t in types)}, "
                                     f"not {cfg[key]!r}")
    base = Path(path).resolve().parent
    for key in CONFIG_PATHS:
        if cfg.get(key):
            if not isinstance(cfg[key], str):
                raise ConfigurationError(f"{path}: training config key {key!r} must hold a path")
            cfg[key] = str((base / cfg[key]).resolve()) if not os.path.isabs(cfg[key]) else cfg[key]
    for key in ("corpus", "queries", "qrels", "kg", "checkpoint_out"):
        if not cfg.get(key):
            raise ConfigurationError(f"{path}: training config missing required key {key!r}")
    return cfg


def cmd_train(args) -> int:
    cfg = _training_config(_require(args.config, "config"))
    settings = {key: cfg[key] for key in CONFIG_SETTINGS if key in cfg}
    if args.seed is not None:
        settings["seed"] = args.seed
    docs = cx.load_documents(_require(cfg["corpus"], "corpus"))
    queries = cx.load_queries(_require(cfg["queries"], "queries"))
    qrels = cx.load_qrels(_require(cfg["qrels"], "qrels"))
    kg = _load_kg(cfg["kg"], cfg.get("lexicon"))
    cache = (load_subgraph_cache(_require(cfg["subgraph_cache"], "subgraph cache"))
             if cfg.get("subgraph_cache") else None)

    # vocab and relations are derived from the corpus and the KG
    overrides = {k: v for k, v in cfg.get("model", {}).items() if k not in ("vocab", "relations")}
    unknown = set(overrides) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ConfigurationError(f"{args.config}: unknown model config keys: {sorted(unknown)}")
    try:
        model_cfg = ModelConfig(vocab=build_vocab(docs), relations=sorted(kg.relations),
                                **overrides)
        model, stats = train_model(model_cfg, docs, queries, qrels, kg, cache=cache, **settings)
    except ConfigurationError as exc:  # a model or training setting of the config
        raise ConfigurationError(f"{args.config}: {exc}") from exc
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
    try:
        model = RankerModel(model_cfg, params)
    except ValidationError as exc:
        raise ValidationError(f"{args.checkpoint} does not fit {args.model_config}: {exc}") from exc
    run = ev.load_run(_require(args.run, "run"))
    docs = {d.id: d for d in cx.load_documents(_require(args.corpus, "corpus"))}
    queries = {q.id: q for q in cx.load_queries(_require(args.queries, "queries"))}
    _check_run(run, queries, docs)
    cache = load_subgraph_cache(_require(args.cache, "subgraph cache")) if args.cache else None
    kg = _load_kg(args.kg, args.lexicon) if args.kg else None
    if cache is None and kg is None and not model_cfg.text_only:
        raise ConfigurationError("rerank needs --cache or --kg to obtain subgraphs")
    if kg is None and not model_cfg.text_only:
        missing = next(((qid, did) for qid in sorted(run) for did, _ in run[qid]
                        if (qid, did) not in cache), None)
        if missing is not None:
            raise ValidationError(f"{args.cache}: no subgraph for query {missing[0]!r}, "
                                  f"document {missing[1]!r}, and no --kg to extract it from")
    provider = SubgraphProvider(kg, queries, docs, cache)
    reranked = rerank_run(model, run, queries, docs, provider)
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
    task = generate(seed=args.seed, knobs=TaskKnobs(**overrides))
    write_task(task, args.out)
    print(f"generated task (BM25 nDCG@10={task.manifest['bm25_ndcg10']:.3f}, "
          f"graph oracle={task.manifest['oracle_ndcg10']:.3f}) -> {args.out}")
    return 0


def cmd_selftest(args) -> int:
    started = time.time()
    failed = 0
    for name, check in selftest.CHECKS:
        failures, summary = check()
        print(f"[{'FAIL' if failures else 'PASS'}] {name}: {summary}")
        for message in failures:
            print(f"    {message}")
        failed += bool(failures)
    print(f"selftest finished in {time.time() - started:.1f}s: "
          f"{f'{failed} check(s) failed' if failed else 'OK'}")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgrank",
        description="Knowledge-graph-enriched document re-ranking pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subgraphs)

    p = sub.add_parser("train", help="train the ranker from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the training config's seed")
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
    p.add_argument("--seed", type=int, default=42)
    for f in fields(TaskKnobs):
        p.add_argument(f"--{f.name.replace('_', '-')}",
                       type=type(f.default), default=None, dest=f.name)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="run the gradient, KL, metric, subgraph and BM25 oracle checks")
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
