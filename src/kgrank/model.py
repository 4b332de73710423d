"""The mini text+graph relevance ranker.

A prompt "[int] query: ... document: ... relevant:" runs through R text-only
pre-norm transformer layers, then S fused layers where a graph-attention
network updates the subgraph nodes in parallel and the interaction token and
interaction node trade information through a Gaussian bottleneck. A one-step
decoder cross-attends over the final token states and emits the probability of
the true token, which is the document's relevance score.

Two implementations of that network share the parameters. forward scores one
pair on the autodiff tape and serves training. score_batch, used for
re-ranking, scores all candidates of one query at once in plain numpy with no
tape: the prompts are padded into one (candidates x L x d_l) batch with the
padded keys masked, the subgraphs are joined into one node array whose graph
attention is a softmax over each node's in-edges, the bottleneck uses its mean
(eps = 0), and the input-independent decoder self-attention runs once. Both
call the same elementwise kernels in kgrank.tensor, and their scores agree per
pair to round-off.

Parameters are plain named tensors; forward and score_batch only read them,
so calls over shared parameters may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import tensor as tz
from .corpus import Document, Query, tokenize
from .errors import ComputationError, ConfigurationError, UsageError, ValidationError
from .fileio import atomic_write
from .kg import (INTERACTION_RELATION, SELF_RELATION, QuerySubgraph,
                 empty_subgraph, init_node_embeddings)
from .tensor import Tensor

PAD, UNK, T_INT = "<pad>", "<unk>", "<int>"
TRUE_TOK, FALSE_TOK, START_TOK = "<true>", "<false>", "<start>"
MARK_QUERY, MARK_DOC, MARK_REL = "query:", "document:", "relevant:"
RESERVED_TOKENS = (PAD, UNK, T_INT, TRUE_TOK, FALSE_TOK, START_TOK,
                   MARK_QUERY, MARK_DOC, MARK_REL)

INIT_STD = 0.02
EMB_STD = 0.1
SIGMA_BIAS_INIT = -2.0
# Elements in one head's (candidates x L x L) attention-score array of the
# batched scorer; a query's candidates are scored in chunks that fit in it.
ATTENTION_BUDGET = 1 << 18


@dataclass
class ModelConfig:
    """Network sizes and the token/relation vocabularies.

    R text-only layers precede S fused layers; d_z is the bottleneck width and
    must be even because the sample is split into a text half and a graph half.
    """

    d_l: int = 64
    d_g: int = 200
    heads: int = 4
    R: int = 9
    S: int = 3
    d_z: int = 32
    d_proj: int = 100
    max_len: int = 512
    alpha: float = 0.01
    text_only: bool = False
    node_init_seed: int = 0
    vocab: list[str] = field(default_factory=lambda: list(RESERVED_TOKENS))
    relations: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.d_l % self.heads != 0:
            raise ConfigurationError(f"d_l={self.d_l} not divisible by heads={self.heads}")
        if self.d_z % 2 != 0:
            raise ConfigurationError(f"d_z={self.d_z} must be even")
        if self.max_len < 8:
            raise ConfigurationError(f"max_len={self.max_len} must be >= 8")
        if self.S < 1 or self.R < 0:
            raise ConfigurationError(f"need S >= 1 and R >= 0, got S={self.S} R={self.R}")
        if self.alpha < 0:
            raise ConfigurationError(f"alpha={self.alpha} must be >= 0")
        if tuple(self.vocab[:len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ConfigurationError("vocab must start with the reserved tokens")
        for rel in self.relations:
            if rel in (INTERACTION_RELATION, SELF_RELATION):
                raise ConfigurationError(f"relation {rel!r} is reserved")

    def save(self, path: str | Path) -> None:
        atomic_write(path, json.dumps(asdict(self), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ModelConfig":
        with open(path, encoding="utf-8") as fh:
            return cls(**json.load(fh))


def build_vocab(corpus: list[Document]) -> list[str]:
    """Reserved tokens followed by the sorted corpus word types."""
    words: set[str] = set()
    for doc in corpus:
        words.update(tokenize(doc.text))
    return list(RESERVED_TOKENS) + sorted(words)


@dataclass
class ForwardTrace:
    """Relevance score, per-fused-layer KL values, and tensors for training."""

    score: float
    kl_terms: list[float]
    score_tensor: Tensor
    kl_tensors: list[Tensor]

    def __post_init__(self):
        if not (0.0 < self.score < 1.0) or not math.isfinite(self.score):
            raise ComputationError(f"relevance score {self.score} outside (0, 1)")
        for kl in self.kl_terms:
            if kl < -1e-9:
                raise ComputationError(f"negative KL term {kl}")


def kl_gaussian_std_normal(mu: Tensor, sigma: Tensor) -> Tensor:
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)) as a differentiable scalar."""
    if np.any(sigma.data <= 0.0):
        raise ComputationError("kl_gaussian_std_normal: sigma must be positive")
    terms = mu * mu + sigma * sigma + tz.log(sigma) * -2.0 + (-1.0)
    return tz.tsum(terms) * 0.5


class RankerModel:
    """Configuration, parameters, and the forward pass."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params
        self.tok2id = {tok: i for i, tok in enumerate(cfg.vocab)}
        self.rel2id = {INTERACTION_RELATION: 0, SELF_RELATION: 1}
        for i, rel in enumerate(sorted(cfg.relations)):
            self.rel2id[rel] = 2 + i

    # ------------------------------------------------------------------
    # Construction.

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int = 42) -> "RankerModel":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6d6f64]))
        d_l, d_g = cfg.d_l, cfg.d_g
        n_rel = 2 + len(cfg.relations)
        shapes: dict[str, tuple[int, ...]] = {
            "tok_emb": (len(cfg.vocab), d_l),
            "pos_emb": (cfg.max_len, d_l),
            "graph_int_emb": (1, d_g),
            "enc_ln.g": (1, d_l), "enc_ln.b": (1, d_l),
        }
        for l in range(cfg.R + cfg.S):
            p = f"enc{l}."
            shapes.update({
                p + "ln1.g": (1, d_l), p + "ln1.b": (1, d_l),
                p + "attn.wq": (d_l, d_l), p + "attn.wk": (d_l, d_l),
                p + "attn.wv": (d_l, d_l), p + "attn.wo": (d_l, d_l),
                p + "attn.bq": (1, d_l), p + "attn.bk": (1, d_l),
                p + "attn.bv": (1, d_l), p + "attn.bo": (1, d_l),
                p + "ln2.g": (1, d_l), p + "ln2.b": (1, d_l),
                p + "ff.w1": (d_l, 4 * d_l), p + "ff.b1": (1, 4 * d_l),
                p + "ff.w2": (4 * d_l, d_l), p + "ff.b2": (1, d_l),
            })
        for l in range(cfg.S):
            p = f"gnn{l}."
            shapes.update({
                p + "wq": (d_g, d_g), p + "wk": (d_g, d_g),
                p + "wv": (d_g, d_g), p + "wo": (d_g, d_g),
                p + "rel_emb": (n_rel, d_g),
                p + "ff.w1": (d_g, 2 * d_g), p + "ff.b1": (1, 2 * d_g),
                p + "ff.w2": (2 * d_g, d_g), p + "ff.b2": (1, d_g),
            })
            p = f"fuse{l}."
            shapes.update({
                p + "w1": (d_l + d_g, cfg.d_proj), p + "b1": (1, cfg.d_proj),
                p + "w2": (cfg.d_proj, 2 * cfg.d_z), p + "b2": (1, 2 * cfg.d_z),
                p + "wh": (cfg.d_z // 2, d_l), p + "wu": (cfg.d_z // 2, d_g),
            })
        shapes.update({
            "dec.start_emb": (1, d_l),
            "dec.ln1.g": (1, d_l), "dec.ln1.b": (1, d_l),
            "dec.self.wq": (d_l, d_l), "dec.self.wk": (d_l, d_l),
            "dec.self.wv": (d_l, d_l), "dec.self.wo": (d_l, d_l),
            "dec.self.bq": (1, d_l), "dec.self.bk": (1, d_l),
            "dec.self.bv": (1, d_l), "dec.self.bo": (1, d_l),
            "dec.ln2.g": (1, d_l), "dec.ln2.b": (1, d_l),
            "dec.cross.wq": (d_l, d_l), "dec.cross.wk": (d_l, d_l),
            "dec.cross.wv": (d_l, d_l), "dec.cross.wo": (d_l, d_l),
            "dec.cross.bq": (1, d_l), "dec.cross.bk": (1, d_l),
            "dec.cross.bv": (1, d_l), "dec.cross.bo": (1, d_l),
            "dec.ln3.g": (1, d_l), "dec.ln3.b": (1, d_l),
            "dec.ff.w1": (d_l, 4 * d_l), "dec.ff.b1": (1, 4 * d_l),
            "dec.ff.w2": (4 * d_l, d_l), "dec.ff.b2": (1, d_l),
            "dec.out_w": (d_l, 2), "dec.out_b": (1, 2),
        })
        params: dict[str, Tensor] = {}
        for name in sorted(shapes):
            shape = shapes[name]
            if name.endswith(".g"):
                data = np.ones(shape)
            elif name.endswith((".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo", "out_b")):
                data = np.zeros(shape)
            elif name == "graph_int_emb":
                # matches the scale of the fixed node feature vectors
                data = rng.normal(0.0, INIT_STD, size=shape)
            elif name.endswith(("_emb", ".rel_emb")):
                data = rng.normal(0.0, EMB_STD, size=shape)
            else:
                # Glorot scaling; the small-constant init used by large
                # pretrained stacks starves gradients at these widths
                std = math.sqrt(2.0 / (shape[0] + shape[1]))
                data = rng.normal(0.0, std, size=shape)
            params[name] = Tensor(data, requires_grad=True)
        for l in range(cfg.S):
            # start the bottleneck with small variance (softplus(-2) ~ 0.13)
            # so the mean path carries signal before the KL term pulls sigma up
            params[f"fuse{l}.b2"].data[0, cfg.d_z:] = SIGMA_BIAS_INIT
        return cls(cfg, params)

    # ------------------------------------------------------------------
    # Prompt.

    def build_prompt(self, query_text: str, doc_text: str) -> list[int]:
        """Token ids [t_int, query:, q..., document:, d..., relevant:].

        Document tokens are truncated first; markers and the query always
        survive. Out-of-vocabulary words map to <unk>.
        """
        q_tokens = tokenize(query_text)
        d_tokens = tokenize(doc_text)
        overhead = 4  # t_int + three markers
        if self.cfg.max_len < overhead + min(len(q_tokens), 1):
            raise ConfigurationError(f"max_len={self.cfg.max_len} cannot hold the prompt markers")
        if overhead + len(q_tokens) > self.cfg.max_len:
            raise ConfigurationError(
                f"query of {len(q_tokens)} tokens does not fit in max_len={self.cfg.max_len}")
        d_tokens = d_tokens[:self.cfg.max_len - overhead - len(q_tokens)]
        unk = self.tok2id[UNK]
        ids = [self.tok2id[T_INT], self.tok2id[MARK_QUERY]]
        ids += [self.tok2id.get(t, unk) for t in q_tokens]
        ids.append(self.tok2id[MARK_DOC])
        ids += [self.tok2id.get(t, unk) for t in d_tokens]
        ids.append(self.tok2id[MARK_REL])
        return ids

    # ------------------------------------------------------------------
    # Layers.

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        n = x.shape[0]
        g = tz.repeat_rows(self.params[prefix + ".g"], n)
        b = tz.repeat_rows(self.params[prefix + ".b"], n)
        return tz.layer_norm(x) * g + b

    def _mha(self, x: Tensor, kv: Tensor, prefix: str) -> Tensor:
        """Multi-head attention; queries from x, keys/values from kv."""
        p = self.params
        n, m = x.shape[0], kv.shape[0]
        q = x @ p[prefix + ".wq"] + tz.repeat_rows(p[prefix + ".bq"], n)
        k = kv @ p[prefix + ".wk"] + tz.repeat_rows(p[prefix + ".bk"], m)
        v = kv @ p[prefix + ".wv"] + tz.repeat_rows(p[prefix + ".bv"], m)
        dh = self.cfg.d_l // self.cfg.heads
        sizes = [dh] * self.cfg.heads
        outs = []
        for qh, kh, vh in zip(tz.split(q, sizes, axis=1),
                              tz.split(k, sizes, axis=1),
                              tz.split(v, sizes, axis=1)):
            att = tz.softmax((qh @ tz.transpose(kh)) * (1.0 / math.sqrt(dh)))
            outs.append(att @ vh)
        o = tz.concat(outs, axis=1)
        return o @ p[prefix + ".wo"] + tz.repeat_rows(p[prefix + ".bo"], n)

    def encode_text_layer(self, h: Tensor, layer: int) -> Tensor:
        """Pre-norm transformer block: self-attention then feed-forward."""
        p, n = self.params, h.shape[0]
        prefix = f"enc{layer}"
        x = self._ln(h, prefix + ".ln1")
        h = h + self._mha(x, x, prefix + ".attn")
        y = self._ln(h, prefix + ".ln2")
        ff = tz.gelu(y @ p[prefix + ".ff.w1"] + tz.repeat_rows(p[prefix + ".ff.b1"], n))
        return h + (ff @ p[prefix + ".ff.w2"] + tz.repeat_rows(p[prefix + ".ff.b2"], n))

    def _edge_arrays(self, subgraph: QuerySubgraph):
        """Edge endpoint/relation arrays with self-loops, plus in-edge lists."""
        n = subgraph.num_nodes
        src = [s for s, _, _ in subgraph.edges] + list(range(n))
        dst = [t for _, _, t in subgraph.edges] + list(range(n))
        rel_ids = []
        for _, rel, _ in subgraph.edges:
            rid = self.rel2id.get(rel)
            if rid is None:
                raise ValidationError(f"unknown relation in subgraph: {rel!r}")
            rel_ids.append(rid)
        rel_ids += [self.rel2id[SELF_RELATION]] * n
        in_lists = [[] for _ in range(n)]
        for e, t in enumerate(dst):
            in_lists[t].append(e)
        return (np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp),
                np.asarray(rel_ids, dtype=np.intp), in_lists)

    def gnn_layer(self, u: Tensor, edge_arrays, layer: int) -> Tensor:
        """Relation-aware graph attention over in-neighbors (self-loop included)."""
        p = self.params
        src, dst, rel_ids, in_lists = edge_arrays
        prefix = f"gnn{layer}"
        q = u @ p[prefix + ".wq"]
        k = u @ p[prefix + ".wk"]
        v = u @ p[prefix + ".wv"]
        er = tz.gather_rows(p[prefix + ".rel_emb"], rel_ids)
        ke = tz.gather_rows(k, src) + er
        ve = tz.gather_rows(v, src) + er
        qd = tz.gather_rows(q, dst)
        logits = tz.tsum(qd * ke, axis=1, keepdims=True) * (1.0 / math.sqrt(self.cfg.d_g))
        rows = []
        for i in range(u.shape[0]):
            idx = in_lists[i]
            att = tz.softmax(tz.transpose(tz.gather_rows(logits, idx)))
            rows.append(att @ tz.gather_rows(ve, idx))
        mixed = u + tz.concat(rows, axis=0) @ p[prefix + ".wo"]
        n = u.shape[0]
        ff = tz.gelu(mixed @ p[prefix + ".ff.w1"] + tz.repeat_rows(p[prefix + ".ff.b1"], n))
        return mixed + (ff @ p[prefix + ".ff.w2"] + tz.repeat_rows(p[prefix + ".ff.b2"], n))

    def fuse_interaction(self, h_int: Tensor, u_int: Tensor, eps: np.ndarray,
                         layer: int) -> tuple[Tensor, Tensor, Tensor]:
        """Bottleneck exchange between the interaction token and node.

        The concatenated pair parameterizes a Gaussian; one reparameterized
        sample is split in half and projected back onto both modalities as
        residual updates. Returns the updated pair and the closed-form KL to
        the standard-normal prior.
        """
        p = self.params
        prefix = f"fuse{layer}"
        x = tz.concat([h_int, u_int], axis=1)
        hidden = tz.gelu(x @ p[prefix + ".w1"] + p[prefix + ".b1"])
        stats = hidden @ p[prefix + ".w2"] + p[prefix + ".b2"]
        mu, s = tz.split(stats, [self.cfg.d_z, self.cfg.d_z], axis=1)
        sigma = tz.softplus(s) + 1e-6
        z = mu + sigma * tz.constant(eps)
        kl = kl_gaussian_std_normal(mu, sigma)
        half = self.cfg.d_z // 2
        z_h, z_u = tz.split(z, [half, half], axis=1)
        h_new = h_int + z_h @ p[prefix + ".wh"]
        u_new = u_int + z_u @ p[prefix + ".wu"]
        return h_new, u_new, kl

    # ------------------------------------------------------------------
    # Full encoder and decoder.

    def _initial_states(self, token_ids: list[int],
                        subgraph: QuerySubgraph) -> tuple[Tensor, Tensor]:
        p = self.params
        positions = np.arange(len(token_ids))
        h = tz.gather_rows(p["tok_emb"], np.asarray(token_ids, dtype=np.intp)) \
            + tz.gather_rows(p["pos_emb"], positions)
        node_feats = init_node_embeddings(subgraph, self.cfg.d_g, self.cfg.node_init_seed)
        if subgraph.num_nodes > 1:
            u = tz.concat([p["graph_int_emb"], tz.constant(node_feats[1:])], axis=0)
        else:
            u = p["graph_int_emb"]
        return h, u

    def encode_fused(self, token_ids: list[int], subgraph: QuerySubgraph,
                     noise: list[np.ndarray] | None = None
                     ) -> tuple[Tensor, Tensor, list[Tensor]]:
        """R text-only layers, then S fused text+graph layers with interaction."""
        cfg = self.cfg
        if noise is not None and len(noise) != cfg.S:
            raise UsageError(f"need {cfg.S} noise draws, got {len(noise)}")
        h, u = self._initial_states(token_ids, subgraph)
        edge_arrays = self._edge_arrays(subgraph)
        n_tok, n_node = h.shape[0], u.shape[0]
        kl_terms: list[Tensor] = []
        for layer in range(cfg.R):
            h = self.encode_text_layer(h, layer)
        for s_i in range(cfg.S):
            h = self.encode_text_layer(h, cfg.R + s_i)
            u = self.gnn_layer(u, edge_arrays, s_i)
            eps = noise[s_i] if noise is not None else np.zeros((1, cfg.d_z))
            h_new, u_new, kl = self.fuse_interaction(
                tz.gather_rows(h, [0]), tz.gather_rows(u, [0]), eps, s_i)
            h = tz.concat([h_new, tz.gather_rows(h, np.arange(1, n_tok))], axis=0)
            if n_node > 1:
                u = tz.concat([u_new, tz.gather_rows(u, np.arange(1, n_node))], axis=0)
            else:
                u = u_new
            kl_terms.append(kl)
        h = self._ln(h, "enc_ln")
        return h, u, kl_terms

    def decode_relevance(self, h_final: Tensor) -> Tensor:
        """One decoder step over a start token; returns p(true) as a scalar tensor."""
        p = self.params
        s = p["dec.start_emb"]
        x = self._ln(s, "dec.ln1")
        s = s + self._mha(x, x, "dec.self")
        s = s + self._mha(self._ln(s, "dec.ln2"), h_final, "dec.cross")
        y = self._ln(s, "dec.ln3")
        ff = tz.gelu(y @ p["dec.ff.w1"] + p["dec.ff.b1"])
        s = s + (ff @ p["dec.ff.w2"] + p["dec.ff.b2"])
        logits = s @ p["dec.out_w"] + p["dec.out_b"]
        probs = tz.softmax(logits)
        p_true, _ = tz.split(probs, [1, 1], axis=1)
        return tz.reshape(p_true, ())

    def forward(self, query: Query, doc: Document, subgraph: QuerySubgraph | None,
                noise: list[np.ndarray] | None = None) -> ForwardTrace:
        """Score one query-document pair; noise=None means inference (eps = 0)."""
        if self.cfg.text_only or subgraph is None:
            subgraph = empty_subgraph()
        token_ids = self.build_prompt(query.text, doc.text)
        h, _, kl_tensors = self.encode_fused(token_ids, subgraph, noise)
        score = self.decode_relevance(h)
        return ForwardTrace(score=score.item(),
                            kl_terms=[kl.item() for kl in kl_tensors],
                            score_tensor=score, kl_tensors=kl_tensors)

    # ------------------------------------------------------------------
    # Tape-free batched inference.

    def score_batch(self, query: Query, docs: list[Document],
                    subgraphs: list[QuerySubgraph | None]) -> np.ndarray:
        """p(true) for every candidate document of one query (eps = 0).

        The same network as forward, in plain numpy without a tape: prompts
        are padded into one (candidates x L x d_l) batch with padded keys
        masked, and the subgraphs are joined into one node array. Candidates
        are scored in chunks, in order, so that one head's attention scores
        stay within ATTENTION_BUDGET elements. Every score must be finite and
        inside (0, 1); the per-op finite checks of the tape do not run here.
        """
        if len(docs) != len(subgraphs):
            raise UsageError(f"{len(docs)} documents but {len(subgraphs)} subgraphs")
        prompts = [self.build_prompt(query.text, doc.text) for doc in docs]
        if not prompts:
            return np.zeros(0)
        longest = max(len(ids) for ids in prompts)
        chunk = max(1, ATTENTION_BUDGET // (longest * longest))
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
            scores = np.concatenate([
                self._score_chunk(prompts[lo:lo + chunk], subgraphs[lo:lo + chunk])
                for lo in range(0, len(prompts), chunk)])
        bad = ~((scores > 0.0) & (scores < 1.0))  # NaN fails both comparisons
        if bad.any():
            i = int(np.argmax(bad))
            raise ComputationError(
                f"relevance score {scores[i]} outside (0, 1) for document {docs[i].id!r}")
        return scores

    def _score_chunk(self, prompts: list[list[int]],
                     subgraphs: list[QuerySubgraph | None]) -> np.ndarray:
        cfg = self.cfg
        p = {name: t.data for name, t in self.params.items()}
        n_batch, length = len(prompts), max(len(ids) for ids in prompts)
        ids = np.zeros((n_batch, length), dtype=np.intp)
        for b, row in enumerate(prompts):
            ids[b, :len(row)] = row
        lengths = np.array([len(row) for row in prompts])
        key_bias = np.where(np.arange(length) < lengths[:, None], 0.0, -np.inf)[:, None, :]
        h = (p["tok_emb"][ids] + p["pos_emb"][:length]).reshape(n_batch * length, cfg.d_l)
        token_rows = np.arange(n_batch) * length

        graphs = [empty_subgraph() if cfg.text_only or sub is None else sub
                  for sub in subgraphs]
        offsets = np.cumsum([0] + [g.num_nodes for g in graphs[:-1]])
        u = np.concatenate([init_node_embeddings(g, cfg.d_g, cfg.node_init_seed)
                            for g in graphs])
        u[offsets] = p["graph_int_emb"]
        src, dst, rel_ids = [], [], []
        for g, offset in zip(graphs, offsets):
            g_src, g_dst, g_rel, _ = self._edge_arrays(g)
            src.append(g_src + offset)
            dst.append(g_dst + offset)
            rel_ids.append(g_rel)
        src, dst, rel_ids = np.concatenate(src), np.concatenate(dst), np.concatenate(rel_ids)
        order = np.argsort(dst, kind="stable")  # in-edges of a node, in edge order
        src, dst, rel_ids = src[order], dst[order], rel_ids[order]
        # every node has its self-loop, so segment i holds the in-edges of node i
        starts = np.flatnonzero(np.diff(dst, prepend=-1))
        graph = (src, dst, rel_ids, starts)

        for layer in range(cfg.R):
            h = self._text_layer_np(p, h, key_bias, layer)
        for s_i in range(cfg.S):
            h = self._text_layer_np(p, h, key_bias, cfg.R + s_i)
            u = self._gnn_layer_np(p, u, graph, s_i)
            h[token_rows], u[offsets] = self._fuse_np(p, h[token_rows], u[offsets], s_i)
        return self._decode_np(p, self._ln_np(p, h, "enc_ln"), key_bias)

    @staticmethod
    def _ln_np(p: dict[str, np.ndarray], x: np.ndarray, prefix: str) -> np.ndarray:
        return tz.layer_norm_kernel(x)[0] * p[prefix + ".g"] + p[prefix + ".b"]

    def _attention_np(self, p: dict[str, np.ndarray], x: np.ndarray, kv: np.ndarray,
                      prefix: str, key_bias: np.ndarray) -> np.ndarray:
        """_mha for a batch: queries from the (B*Lq, d_l) rows of x, keys and
        values from the (B*Lk, d_l) rows of kv; key_bias is (B, 1, Lk) with
        -inf on padded keys."""
        n_batch, n_keys = key_bias.shape[0], key_bias.shape[2]
        d_l, heads = self.cfg.d_l, self.cfg.heads
        q = (x @ p[prefix + ".wq"] + p[prefix + ".bq"]).reshape(n_batch, -1, d_l)
        k, v = ((kv @ p[f"{prefix}.w{c}"] + p[f"{prefix}.b{c}"]).reshape(n_batch, n_keys, d_l)
                for c in "kv")
        dh = d_l // heads
        outs = []
        for lo in range(0, d_l, dh):
            qh, kh, vh = q[..., lo:lo + dh], k[..., lo:lo + dh], v[..., lo:lo + dh]
            scores = qh @ kh.transpose(0, 2, 1)
            scores *= 1.0 / math.sqrt(dh)
            scores += key_bias
            outs.append(tz.softmax_kernel(scores) @ vh)
        o = np.concatenate(outs, axis=2).reshape(-1, d_l)
        return o @ p[prefix + ".wo"] + p[prefix + ".bo"]

    def _text_layer_np(self, p: dict[str, np.ndarray], h: np.ndarray,
                       key_bias: np.ndarray, layer: int) -> np.ndarray:
        prefix = f"enc{layer}"
        x = self._ln_np(p, h, prefix + ".ln1")
        h = h + self._attention_np(p, x, x, prefix + ".attn", key_bias)
        y = self._ln_np(p, h, prefix + ".ln2")
        ff = tz.gelu_kernel(y @ p[prefix + ".ff.w1"] + p[prefix + ".ff.b1"])[0]
        return h + (ff @ p[prefix + ".ff.w2"] + p[prefix + ".ff.b2"])

    def _gnn_layer_np(self, p: dict[str, np.ndarray], u: np.ndarray, graph,
                      layer: int) -> np.ndarray:
        """gnn_layer over all joined subgraphs: a segment softmax over in-edges."""
        src, dst, rel_ids, starts = graph
        prefix = f"gnn{layer}"
        q, k, v = (u @ p[f"{prefix}.w{c}"] for c in "qkv")
        er = p[prefix + ".rel_emb"][rel_ids]
        ke, ve = k[src] + er, v[src] + er
        logits = (q[dst] * ke).sum(axis=1) * (1.0 / math.sqrt(self.cfg.d_g))
        e = np.exp(logits - np.maximum.reduceat(logits, starts)[dst])
        att = e / np.add.reduceat(e, starts)[dst]
        mixed = u + np.add.reduceat(att[:, None] * ve, starts, axis=0) @ p[prefix + ".wo"]
        ff = tz.gelu_kernel(mixed @ p[prefix + ".ff.w1"] + p[prefix + ".ff.b1"])[0]
        return mixed + (ff @ p[prefix + ".ff.w2"] + p[prefix + ".ff.b2"])

    def _fuse_np(self, p: dict[str, np.ndarray], h_int: np.ndarray, u_int: np.ndarray,
                 layer: int) -> tuple[np.ndarray, np.ndarray]:
        """fuse_interaction at eps = 0, where the sample z is the mean mu."""
        prefix = f"fuse{layer}"
        x = np.concatenate([h_int, u_int], axis=1)
        hidden = tz.gelu_kernel(x @ p[prefix + ".w1"] + p[prefix + ".b1"])[0]
        mu = (hidden @ p[prefix + ".w2"] + p[prefix + ".b2"])[:, :self.cfg.d_z]
        half = self.cfg.d_z // 2
        return h_int + mu[:, :half] @ p[prefix + ".wh"], u_int + mu[:, half:] @ p[prefix + ".wu"]

    def _decode_np(self, p: dict[str, np.ndarray], h_final: np.ndarray,
                   key_bias: np.ndarray) -> np.ndarray:
        """decode_relevance for every candidate. The start token and its
        self-attention block do not depend on the input, so they run once."""
        s = p["dec.start_emb"]
        x = self._ln_np(p, s, "dec.ln1")
        s = s + self._attention_np(p, x, x, "dec.self", np.zeros((1, 1, 1)))
        # every candidate's decoder step starts from the same state s
        x = np.repeat(self._ln_np(p, s, "dec.ln2"), key_bias.shape[0], axis=0)
        s = s + self._attention_np(p, x, h_final, "dec.cross", key_bias)
        y = self._ln_np(p, s, "dec.ln3")
        ff = tz.gelu_kernel(y @ p["dec.ff.w1"] + p["dec.ff.b1"])[0]
        s = s + (ff @ p["dec.ff.w2"] + p["dec.ff.b2"])
        return tz.softmax_kernel(s @ p["dec.out_w"] + p["dec.out_b"])[:, 0]
