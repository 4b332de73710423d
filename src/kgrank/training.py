"""Objective assembly, negative sampling, Adam, and the training loop.

The objective per example is -ln p(y | prompt) plus alpha/S times the summed
per-layer KL terms, averaged over the batch. One noise draw per fused layer
per example per step estimates the bottleneck penalty; inference uses the
Gaussian mean (no noise).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kg as kgm
from . import tensor as tz
from .corpus import Document, Query
from .errors import ComputationError, ConfigurationError, UsageError, ValidationError
from .evaluation import ranked
from .fileio import atomic_write
from .kg import KnowledgeGraph, QuerySubgraph
from .model import ForwardTrace, ModelConfig, RankerModel
from .tensor import Tensor, backward

DEFAULT_LR = 3e-4
DEFAULT_EPOCHS = 3
MAX_EPOCHS = 1_000
DEFAULT_BATCH_SIZE = 8
DEFAULT_NEGATIVES = 2
DEFAULT_SEED = 42
GRAD_CLIP_NORM = 1.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainingExample:
    query_id: str
    doc_id: str
    label: bool  # True iff qrels grade > 0 for this pair


def sample_training_set(qrels: dict[tuple[str, str], int], corpus_ids: list[str],
                        negatives_per_positive: int = DEFAULT_NEGATIVES,
                        seed: int = DEFAULT_SEED) -> list[TrainingExample]:
    """One true example per positive pair plus uniform negatives outside the
    query's relevant set."""
    if negatives_per_positive < 0:
        raise ConfigurationError(
            f"negatives_per_positive must be >= 0, got {negatives_per_positive}")
    relevant: dict[str, set[str]] = {}
    for (qid, did), grade in qrels.items():
        if grade > 0:
            relevant.setdefault(qid, set()).add(did)
    corpus_sorted = sorted(corpus_ids)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5e6]))
    examples: list[TrainingExample] = []
    eligible_cache: dict[str, list[str]] = {}
    for qid, did in sorted(k for k, grade in qrels.items() if grade > 0):
        examples.append(TrainingExample(qid, did, True))
        if negatives_per_positive == 0:
            continue
        eligible = eligible_cache.get(qid)
        if eligible is None:
            eligible = [d for d in corpus_sorted if d not in relevant[qid]]
            eligible_cache[qid] = eligible
        if len(eligible) < negatives_per_positive:
            raise ValidationError(
                f"corpus too small to sample {negatives_per_positive} negatives for query {qid!r}")
        picks = rng.choice(len(eligible), size=negatives_per_positive, replace=False)
        for i in sorted(picks):
            examples.append(TrainingExample(qid, eligible[i], False))
    return examples


def loss_from_trace(trace: ForwardTrace, labels, alpha: float, s_layers: int) -> Tensor:
    """Minimized objective: the mean over the batch's pairs of
    -ln p(y) + (alpha / S) * sum of KL terms; labels holds one bool per pair."""
    y = np.asarray(labels, dtype=bool)
    if y.shape != trace.scores.shape:
        raise UsageError(f"{y.size} labels for {trace.scores.size} scores")
    if len(trace.kl_tensors) != s_layers:
        raise UsageError(f"expected {s_layers} KL terms, got {len(trace.kl_tensors)}")
    # p(y) is the score for a true label and 1 - score for a false one
    p = trace.score_tensor * np.where(y, 1.0, -1.0) + np.where(y, 0.0, 1.0)
    losses = tz.log(p) * -1.0
    kl_sum = trace.kl_tensors[0]
    for kl in trace.kl_tensors[1:]:
        kl_sum = kl_sum + kl
    losses = losses + kl_sum * (alpha / s_layers)
    return tz.tsum(losses) * (1.0 / y.size)


class Adam:
    """Bias-corrected Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) over a named
    parameter dict, packed in dict order into one flat theta and one flat
    grad: each Tensor's data and grad become views of them, so every update
    is one vector operation, and m and v are flat too."""

    def __init__(self, params: dict[str, Tensor], lr: float = DEFAULT_LR):
        self.params, self.lr = params, lr
        self.theta = np.concatenate([p.data.ravel() for p in params.values()])
        self.grad, self.m, self.v = (np.zeros_like(self.theta) for _ in range(3))
        ends = np.cumsum([p.size for p in params.values()])[:-1]
        for p, data, grad in zip(params.values(), np.split(self.theta, ends),
                                 np.split(self.grad, ends)):
            p.data, p.grad = data.reshape(p.shape), grad.reshape(p.shape)
        self.t = 0

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g = self.grad
        if not np.all(np.isfinite(g)):
            name = next(name for name, p in self.params.items() if not np.all(np.isfinite(p.grad)))
            raise ComputationError(f"non-finite gradient for parameter {name!r}")
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        self.theta -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


def clip_gradients(grad: np.ndarray) -> float:
    """Scale the flat gradient in place so its L2 norm is at most
    GRAD_CLIP_NORM; returns the norm before clipping."""
    norm = float(grad @ grad) ** 0.5
    if norm > GRAD_CLIP_NORM:
        grad *= GRAD_CLIP_NORM / norm
    return norm


@dataclass
class EpochStats:
    epoch: int
    mean_nll: float
    mean_kl: float
    wall_time_s: float


class SubgraphProvider:
    """The one source of per-(query, doc) subgraphs. A miss links the document
    and extracts at the fixed cap kg.DEFAULT_MAX_NODES; a query is linked on
    its first miss only. link_entities and extract_subgraph are looked up on
    the kg module at each call, so wrappers installed there see them."""

    def __init__(self, kg: KnowledgeGraph | None,
                 queries_by_id: dict[str, Query], docs_by_id: dict[str, Document],
                 cache: dict[tuple[str, str], QuerySubgraph] | None = None):
        self.kg = kg
        self.queries_by_id = queries_by_id
        self.docs_by_id = docs_by_id
        self.cache = dict(cache) if cache else {}
        self.query_seeds: dict[str, set[str]] = {}

    def _seeds(self, text: str, source: str) -> set[str]:
        return {m.node for m in kgm.link_entities(text, self.kg, source)}

    def get(self, qid: str, did: str) -> QuerySubgraph:
        key = (qid, did)
        sub = self.cache.get(key)
        if sub is None:
            if self.kg is None:
                raise UsageError(f"no cached subgraph for {key} and no KG to extract from")
            v_q = self.query_seeds.get(qid)
            if v_q is None:
                v_q = self.query_seeds[qid] = self._seeds(self.queries_by_id[qid].text, "query")
            v_d = self._seeds(self.docs_by_id[did].text, "document")
            sub = self.cache[key] = kgm.extract_subgraph(self.kg, v_q, v_d)
        return sub


def train_model(cfg: ModelConfig, corpus: list[Document], queries: list[Query],
                qrels: dict[tuple[str, str], int], kg: KnowledgeGraph | None,
                *, epochs: int = DEFAULT_EPOCHS, batch_size: int = DEFAULT_BATCH_SIZE,
                seed: int = DEFAULT_SEED, lr: float = DEFAULT_LR,
                negatives_per_positive: int = DEFAULT_NEGATIVES,
                cache: dict[tuple[str, str], QuerySubgraph] | None = None,
                ) -> tuple[RankerModel, list[EpochStats]]:
    """Train from scratch; deterministic given the seed (wall time aside).
    A setting out of range, or a run that diverges (a step that saturates a
    score or leaves a value non-finite), raises a ConfigurationError."""
    if not 1 <= epochs <= MAX_EPOCHS or batch_size < 1:
        raise ConfigurationError(f"need 1 <= epochs <= {MAX_EPOCHS} and batch_size >= 1, "
                                 f"got {epochs} and {batch_size}")
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigurationError(f"lr must be finite and > 0, got {lr}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    model = RankerModel.build(cfg, seed=seed)
    docs_by_id = {d.id: d for d in corpus}
    queries_by_id = {q.id: q for q in queries}
    examples = sample_training_set(qrels, list(docs_by_id), negatives_per_positive, seed)
    for ex in examples:
        if ex.query_id not in queries_by_id:
            raise ValidationError(f"qrels query {ex.query_id!r} missing from queries file")
    provider = SubgraphProvider(kg, queries_by_id, docs_by_id, cache)
    optimizer = Adam(model.params, lr=lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5f1e]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xe95]))
    stats: list[EpochStats] = []
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(len(examples))
        nll_total, kl_total = 0.0, 0.0
        for step, lo in enumerate(range(0, len(order), batch_size), start=1):
            batch = [examples[int(idx)] for idx in order[lo:lo + batch_size]]
            optimizer.zero_grad()
            noise = noise_rng.normal(size=(len(batch), cfg.S, cfg.d_z))
            try:
                trace = model.forward_batch(
                    [queries_by_id[ex.query_id] for ex in batch],
                    [docs_by_id[ex.doc_id] for ex in batch],
                    [None if cfg.text_only else provider.get(ex.query_id, ex.doc_id)
                     for ex in batch], noise=noise)
                labels = [ex.label for ex in batch]
                backward(loss_from_trace(trace, labels, cfg.alpha, cfg.S))
                for label, score, kl_terms in zip(labels, trace.scores, trace.kl_terms):
                    nll_total += -math.log(score if label else 1.0 - score)
                    kl_total += float(np.mean(kl_terms))
                clip_gradients(optimizer.grad)
                optimizer.step()
            except ComputationError as exc:  # a saturated or non-finite value
                raise ConfigurationError(f"training diverged at lr {lr}, epoch {epoch}, "
                                         f"step {step}: {exc}") from exc
        stats.append(EpochStats(epoch=epoch,
                                mean_nll=nll_total / len(examples),
                                mean_kl=kl_total / len(examples),
                                wall_time_s=time.perf_counter() - started))
    return model, stats


def save_metrics(path: str | Path, stats: list[EpochStats]) -> None:
    lines = ["epoch,mean_nll,mean_kl,wall_time_s"]
    for s in stats:
        lines.append(f"{s.epoch},{s.mean_nll!r},{s.mean_kl!r},{s.wall_time_s:.3f}")
    atomic_write(path, "\n".join(lines) + "\n")


def rerank_run(model: RankerModel, run: dict[str, list[tuple[str, float]]],
               queries_by_id: dict[str, Query], docs_by_id: dict[str, Document],
               provider: SubgraphProvider, workers: int = 1,
               ) -> dict[str, list[tuple[str, float]]]:
    """Re-score every candidate with the model (eps = 0); the candidate set per
    query is preserved exactly.

    Each query's candidates are scored as one tape-free batch
    (RankerModel.score_batch). Subgraphs are fetched first, in run order;
    workers > 1 then spreads the queries over threads, which cannot change
    any score.
    """
    batches = []
    for qid in sorted(run):
        dids = [did for did, _ in run[qid]]
        if dids:
            subs = [None if model.cfg.text_only else provider.get(qid, did) for did in dids]
            batches.append((qid, dids, subs))

    def score(batch) -> np.ndarray:
        qid, dids, subs = batch
        return model.score_batch(queries_by_id[qid], [docs_by_id[did] for did in dids], subs)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scores = list(pool.map(score, batches))
    else:
        scores = [score(batch) for batch in batches]
    return {qid: ranked(zip(dids, s.tolist())) for (qid, dids, _), s in zip(batches, scores)}
