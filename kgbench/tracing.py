"""Traced-run mode: spans around kgrank's public functions, and the per-layer
metrics computed from them.

The wrappers are installed at runtime from here; nothing in kgrank changes.
Each wrapped call records a span (name, start, end, parent span, and the id
of the query being served, if any). Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover;
calls are nested and single-threaded, so children never overlap and that
time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from kgrank import corpus as cx
from kgrank import evaluation as ev
from kgrank import kg as kgm
from kgrank import model as mm
from kgrank import synth
from kgrank import tensor as tz
from kgrank import training as tr

from workloads import postings_scanned

# Op tags of the tape primitives the model uses, as computation_record reports them.
TAPE_OPS = ("leaf", "add", "add_scalar", "mul", "mul_scalar", "matmul", "transpose",
            "reshape", "concat", "split", "gather_rows", "repeat_rows", "softmax",
            "layer_norm", "gelu", "softplus", "log", "sum")
SHARE_PHASES = {"serve": ("corpus", "kg", "model", "training", "bench"),
                "train": ("kg", "model", "tensor", "training", "bench")}
TAPE_SAMPLE = 16  # served pairs whose forward tape is counted


def unit_of(name: str) -> str:
    if name.endswith("ms_mean"):
        return "ms"
    if name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.startswith("share.") or name.endswith("ratio"):
        return "ratio"
    if name == "training.grad_norm_mean":
        return "l2-norm"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, query)
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.query: str | None = None
        self.active = True
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.query)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a spanning wrapper; observe(args, kwargs,
        result) runs after the span closes and records counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def install(self) -> None:
        c = self.counts

        def file_bytes(metric):
            return lambda args, kwargs, result: c[metric].append(os.path.getsize(args[0]))

        def on_retrieve(args, kwargs, result):
            c["corpus.postings_scanned_per_query"].append(postings_scanned(args[0], args[1]))

        def on_subgraph(args, kwargs, result):
            c["kg.subgraph_nodes_mean"].append(result.num_nodes)
            c["kg.subgraph_edges_mean"].append(len(result.edges))

        def on_prompt(args, kwargs, result):
            _, query_text, doc_text = args
            full = 4 + len(cx.tokenize(query_text)) + len(cx.tokenize(doc_text))
            c["model.prompt_tokens_mean"].append(len(result))
            c["model.prompt_truncated_ratio"].append(float(len(result) < full))

        self.wrap(synth, "generate", "synth.generate")
        self.wrap(cx, "build_index", "corpus.build_index")
        self.wrap(cx, "save_index", "corpus.save_index", file_bytes("corpus.index_bytes"))
        self.wrap(cx, "load_index", "corpus.load_index")
        self.wrap(cx, "retrieve_topk", "corpus.retrieve_topk", on_retrieve)
        self.wrap(kgm, "link_entities", "kg.link_entities",
                  lambda a, k, r: c["kg.mentions_per_text"].append(len(r)))
        self.wrap(kgm, "extract_subgraph", "kg.extract_subgraph", on_subgraph)
        self.wrap(kgm, "save_subgraph_cache", "kg.save_subgraph_cache",
                  file_bytes("kg.cache_bytes"))
        self.wrap(kgm, "load_subgraph_cache", "kg.load_subgraph_cache")
        # training imports backward by name; that is the call train_model makes
        self.wrap(tr, "backward", "tensor.backward")
        self.wrap(tz, "save_checkpoint", "tensor.save_checkpoint",
                  file_bytes("tensor.checkpoint_bytes"))
        self.wrap(tz, "load_checkpoint", "tensor.load_checkpoint")
        for method in ("forward", "encode_fused", "encode_text_layer", "gnn_layer",
                       "fuse_interaction", "decode_relevance"):
            self.wrap(mm.RankerModel, method, f"model.{method}")
        self.wrap(mm.RankerModel, "build_prompt", "model.build_prompt", on_prompt)
        self.wrap(tr, "train_model", "training.train_model")
        self.wrap(tr, "loss_from_trace", "training.loss_from_trace")
        self.wrap(tr, "clip_gradients", "training.clip_gradients",
                  lambda a, k, r: c["training.grad_norm_mean"].append(r))
        self.wrap(tr.Adam, "step", "training.Adam.step")
        self.wrap(tr, "rerank_run", "training.rerank_run")
        self.wrap(tr.SubgraphProvider, "get", "training.provider.get")
        # outermost, so the lookup happens before the spanned call fills the cache
        get = tr.SubgraphProvider.get

        def counting_get(provider, qid, did):
            if self.active:
                c["training.provider.hit_ratio"].append(float((qid, did) in provider.cache))
            return get(provider, qid, did)

        self._installed.append((tr.SubgraphProvider, "get", get))
        tr.SubgraphProvider.get = counting_get
        self.wrap(ev, "evaluate_run", "evaluation.evaluate_run")
        self.wrap(ev, "save_run", "evaluation.save_run")
        self.wrap(ev, "load_run", "evaluation.load_run")

    def count_tape(self, model, pairs, inputs, provider) -> None:
        """Tape nodes per inference forward, by op tag, on the first served pairs."""
        for qid, did in pairs[:TAPE_SAMPLE]:
            trace = model.forward(inputs.queries_by_id[qid], inputs.docs_by_id[did],
                                  provider.cache[(qid, did)])
            ops = Counter(row[0] for row in tz.computation_record(trace.score_tensor))
            self.counts["tensor.tape_nodes_per_forward"].append(sum(ops.values()))
            for op in TAPE_OPS:
                self.counts[f"tensor.ops_per_forward.{op}"].append(ops.get(op, 0))

    # ------------------------------------------------------------------
    # Reading the spans back.

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent, _) in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "query": query}) + "\n")

    def metrics(self, untraced_pipeline_s: float, traced_pipeline_s: float,
                extra: dict[str, float]) -> dict[str, float]:
        selfs = self.self_times()
        durations: dict[str, list[float]] = defaultdict(list)
        self_by_name: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_by_name[name].append(selfs[i])

        def ms_mean(name):
            return 1000.0 * statistics.fmean(durations[name]) if durations[name] else 0.0

        def self_ms_mean(name):
            return 1000.0 * statistics.fmean(self_by_name[name]) if self_by_name[name] else 0.0

        def mean_s(name):
            return statistics.fmean(durations[name]) if durations[name] else 0.0

        def mean_count(name):
            return statistics.fmean(self.counts[name]) if self.counts[name] else 0.0

        out = {
            "corpus.build_index.s": mean_s("corpus.build_index"),
            "corpus.save_index.s": mean_s("corpus.save_index"),
            "corpus.load_index.s": mean_s("corpus.load_index"),
            "corpus.index_bytes": mean_count("corpus.index_bytes"),
            "corpus.retrieve_topk.ms_mean": ms_mean("corpus.retrieve_topk"),
            "corpus.postings_scanned_per_query": mean_count("corpus.postings_scanned_per_query"),
            "kg.link_entities.ms_mean": ms_mean("kg.link_entities"),
            "kg.mentions_per_text": mean_count("kg.mentions_per_text"),
            "kg.extract_subgraph.ms_mean": ms_mean("kg.extract_subgraph"),
            "kg.subgraph_nodes_mean": mean_count("kg.subgraph_nodes_mean"),
            "kg.subgraph_edges_mean": mean_count("kg.subgraph_edges_mean"),
            "kg.save_subgraph_cache.s": mean_s("kg.save_subgraph_cache"),
            "kg.load_subgraph_cache.s": mean_s("kg.load_subgraph_cache"),
            "kg.cache_bytes": mean_count("kg.cache_bytes"),
            "tensor.tape_nodes_per_forward": mean_count("tensor.tape_nodes_per_forward"),
            "tensor.backward.ms_mean": ms_mean("tensor.backward"),
            "tensor.save_checkpoint.s": mean_s("tensor.save_checkpoint"),
            "tensor.load_checkpoint.s": mean_s("tensor.load_checkpoint"),
            "tensor.checkpoint_bytes": mean_count("tensor.checkpoint_bytes"),
            "model.forward.ms_mean": ms_mean("model.forward"),
            "model.forward.self_ms_mean": self_ms_mean("model.forward"),
            "model.encode_fused.self_ms_mean": self_ms_mean("model.encode_fused"),
            "model.encode_text_layer.ms_mean": ms_mean("model.encode_text_layer"),
            "model.gnn_layer.ms_mean": ms_mean("model.gnn_layer"),
            "model.fuse_interaction.ms_mean": ms_mean("model.fuse_interaction"),
            "model.decode_relevance.ms_mean": ms_mean("model.decode_relevance"),
            "model.build_prompt.ms_mean": ms_mean("model.build_prompt"),
            "model.prompt_tokens_mean": mean_count("model.prompt_tokens_mean"),
            "model.prompt_truncated_ratio": mean_count("model.prompt_truncated_ratio"),
            "training.loss_from_trace.ms_mean": ms_mean("training.loss_from_trace"),
            "training.clip_gradients.ms_mean": ms_mean("training.clip_gradients"),
            "training.grad_norm_mean": mean_count("training.grad_norm_mean"),
            "training.Adam.step.ms_mean": ms_mean("training.Adam.step"),
            "training.examples": float(len(durations["training.loss_from_trace"])),
            "training.steps": float(len(durations["training.Adam.step"])),
            "training.rerank_run.self_ms_mean": self_ms_mean("training.rerank_run"),
            "training.provider.hit_ratio": mean_count("training.provider.hit_ratio"),
            "evaluation.evaluate_run.s": mean_s("evaluation.evaluate_run"),
            "evaluation.save_run.s": mean_s("evaluation.save_run"),
            "evaluation.load_run.s": mean_s("evaluation.load_run"),
            "synth.generate.s": mean_s("synth.generate"),
            "trace.overhead_ratio": traced_pipeline_s / untraced_pipeline_s - 1.0,
        }
        for op in TAPE_OPS:
            out[f"tensor.ops_per_forward.{op}"] = mean_count(f"tensor.ops_per_forward.{op}")
        out.update(self.shares(selfs))
        out.update(extra)
        return out

    def shares(self, selfs: list[float]) -> dict[str, float]:
        """Share of each phase's wall time spent in each module's own code.

        'bench' is the benchmark's loop itself: the phase span's self time.
        """
        phase_of: list[str | None] = []
        for name, _, _, parent, _ in self.spans:
            if name.startswith("phase."):
                phase_of.append(name[len("phase."):])
            else:
                phase_of.append(phase_of[parent] if parent >= 0 else None)
        busy: dict[tuple[str, str], float] = defaultdict(float)
        wall: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            phase = phase_of[i]
            if phase is None:
                continue
            module = "bench" if name.startswith("phase.") else name.split(".")[0]
            busy[(phase, module)] += selfs[i]
            if name.startswith("phase."):
                wall[phase] += end - start
        return {f"share.{phase}.{module}": busy[(phase, module)] / wall[phase]
                if wall[phase] else 0.0
                for phase, modules in SHARE_PHASES.items() for module in modules}

