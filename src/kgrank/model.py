"""The mini text+graph relevance ranker.

A prompt "[int] query: ... document: ... relevant:" runs through R text-only
pre-norm transformer layers, then S fused layers where a graph-attention
network updates the subgraph nodes in parallel and the interaction token and
interaction node trade information through a Gaussian bottleneck. A one-step
decoder cross-attends over the final token states and emits the probability of
the true token, which is the document's relevance score.

Every layer is written once, over a batch of pairs: the prompts are padded
into one (B x L x d_l) array with the padded keys masked, and the subgraphs
are joined into one node array whose graph attention is a softmax over each
node's in-edges. The layers read their weights from a dict p: the parameter
Tensors record on the autodiff tape (forward, forward_batch, training), their
plain arrays compute without one (score_batch, re-ranking). Scoring only
reads the parameters, so calls over shared parameters may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as tz
from .corpus import Document, Query, tokenize
from .errors import (ComputationError, ConfigurationError, ParseError, UsageError,
                     ValidationError)
from .fileio import atomic_write, check_json_type, load_json
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
# Parameter values a model may hold: 2^27 float64 values are 1 GiB per copy,
# and training keeps four flat copies (parameters, gradients, Adam's m and v).
# While Adam packs them, the built per-parameter arrays and the flat vector
# are both alive: two committed copies, below the four of a step. The CLI
# defaults with a 20k-word vocabulary hold 3.05M.
MAX_PARAM_VALUES = 1 << 27


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
    vocab: list[str] = field(default_factory=lambda: list(RESERVED_TOKENS))
    relations: list[str] = field(default_factory=list)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is MISSING:  # the vocabularies: lists of strings
                for item in check_json_type(value, [], f.name):
                    check_json_type(item, "", f.name)
            else:
                check_json_type(value, f.default, f.name)
        if min(self.d_l, self.d_g, self.heads, self.d_z, self.d_proj) < 1:
            raise ConfigurationError("d_l, d_g, heads, d_z and d_proj must be positive")
        if self.d_l % self.heads != 0:
            raise ConfigurationError(f"d_l={self.d_l} not divisible by heads={self.heads}")
        if self.d_z % 2 != 0:
            raise ConfigurationError(f"d_z={self.d_z} must be even")
        if self.max_len < 8:
            raise ConfigurationError(f"max_len={self.max_len} must be >= 8")
        if self.S < 1 or self.R < 0:
            raise ConfigurationError(f"need S >= 1 and R >= 0, got S={self.S} R={self.R}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(f"alpha={self.alpha} must be finite and >= 0")
        if tuple(self.vocab[:len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ConfigurationError("vocab must start with the reserved tokens")
        for rel in self.relations:
            if rel in (INTERACTION_RELATION, SELF_RELATION):
                raise ConfigurationError(f"relation {rel!r} is reserved")
        size = sum(math.prod(shape) for shape in param_shapes(self).values())
        if size > MAX_PARAM_VALUES:
            raise ConfigurationError(f"the model would hold {size} parameter values, "
                                     f"over the {MAX_PARAM_VALUES} that fit")

    def save(self, path: str | Path) -> None:
        atomic_write(path, json.dumps(asdict(self), sort_keys=True))

    @classmethod
    def from_json(cls, values: dict) -> "ModelConfig":
        """A config from a JSON object; a key that is no field is an error."""
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown model config key {unknown[0]!r}")
        return cls(**values)

    @classmethod
    def load(cls, path: str | Path) -> "ModelConfig":
        """Read a saved config; a malformed file raises a ParseError naming it."""
        try:
            return cls.from_json(check_json_type(load_json(path, "model config"), {},
                                                 "model config"))
        except ConfigurationError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every parameter of a model with this config."""
    d_l, d_g = cfg.d_l, cfg.d_g
    n_rel = 2 + len(cfg.relations)

    def attention(p: str) -> dict[str, tuple[int, ...]]:
        shapes = {f"{p}.w{c}": (d_l, d_l) for c in "qkvo"}
        shapes.update({f"{p}.b{c}": (1, d_l) for c in "qkvo"})
        return shapes

    def norm(p: str) -> dict[str, tuple[int, ...]]:
        return {p + ".g": (1, d_l), p + ".b": (1, d_l)}

    def feed_forward(p: str, d: int, width: int) -> dict[str, tuple[int, ...]]:
        return {p + ".w1": (d, width), p + ".b1": (1, width),
                p + ".w2": (width, d), p + ".b2": (1, d)}

    shapes = {"tok_emb": (len(cfg.vocab), d_l), "pos_emb": (cfg.max_len, d_l),
              "graph_int_emb": (1, d_g), **norm("enc_ln")}
    for l in range(cfg.R + cfg.S):
        shapes.update({**norm(f"enc{l}.ln1"), **attention(f"enc{l}.attn"),
                       **norm(f"enc{l}.ln2"), **feed_forward(f"enc{l}.ff", d_l, 4 * d_l)})
    for l in range(cfg.S):
        p = f"gnn{l}"
        shapes.update({f"{p}.w{c}": (d_g, d_g) for c in "qkvo"})
        shapes.update({p + ".rel_emb": (n_rel, d_g), **feed_forward(p + ".ff", d_g, 2 * d_g)})
        p = f"fuse{l}"
        shapes.update({p + ".w1": (d_l + d_g, cfg.d_proj), p + ".b1": (1, cfg.d_proj),
                       p + ".w2": (cfg.d_proj, 2 * cfg.d_z), p + ".b2": (1, 2 * cfg.d_z),
                       p + ".wh": (cfg.d_z // 2, d_l), p + ".wu": (cfg.d_z // 2, d_g)})
    shapes.update({"dec.start_emb": (1, d_l), **norm("dec.ln1"), **attention("dec.self"),
                   **norm("dec.ln2"), **attention("dec.cross"), **norm("dec.ln3"),
                   **feed_forward("dec.ff", d_l, 4 * d_l),
                   "dec.out_w": (d_l, 2), "dec.out_b": (1, 2)})
    return shapes


def build_vocab(corpus: list[Document]) -> list[str]:
    """Reserved tokens followed by the sorted corpus word types."""
    words: set[str] = set()
    for doc in corpus:
        words.update(tokenize(doc.text))
    return list(RESERVED_TOKENS) + sorted(words)


@dataclass
class ForwardTrace:
    """Relevance scores of a batch of pairs and their KL terms, as the tensors
    the training objective differentiates."""

    score_tensor: Tensor  # (B,)
    kl_tensors: list[Tensor]  # one (B,) tensor per fused layer

    def __post_init__(self):
        check_relevance(self.scores)
        if (self.kl_terms < -1e-9).any():
            raise ComputationError(f"negative KL term {self.kl_terms.min()}")

    @property
    def scores(self) -> np.ndarray:
        return self.score_tensor.data

    @property
    def kl_terms(self) -> np.ndarray:
        """(B, S): the KL term of each pair at each fused layer."""
        return np.stack([kl.data for kl in self.kl_tensors], axis=1)

    @property
    def score(self) -> float:  # of a batch of one pair
        return self.score_tensor.item()


def check_relevance(scores: np.ndarray, docs: list[Document] | None = None) -> None:
    """A ComputationError naming the first score not inside (0, 1), and its doc."""
    bad = np.flatnonzero(~((scores > 0.0) & (scores < 1.0)))  # NaN fails both
    if bad.size:
        where = "" if docs is None else f" for document {docs[bad[0]].id!r}"
        raise ComputationError(f"relevance score {scores[bad[0]]} outside (0, 1){where}")


def kl_gaussian_std_normal(mu, sigma):
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)) over the last axis, as a
    differentiable value per row."""
    if ((sigma.data if isinstance(sigma, Tensor) else sigma) <= 0.0).any():
        raise ComputationError("kl_gaussian_std_normal: sigma must be positive")
    terms = mu * mu + sigma * sigma + tz.log(sigma) * -2.0 + (-1.0)
    return tz.tsum(terms, axis=-1) * 0.5


class RankerModel:
    """Configuration, parameters, and the batched network."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        expected = param_shapes(cfg)
        for name in sorted(set(expected) | set(params)):
            got = params[name].shape if name in params else "missing"
            if got != expected.get(name):
                raise ValidationError(f"parameter {name!r} is {got}; the config needs "
                                      f"{expected.get(name, 'no such parameter')}")
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
        shapes = param_shapes(cfg)
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
            params[name] = Tensor(data)
        for l in range(cfg.S):
            # start the bottleneck with small variance (softplus(-2) ~ 0.13)
            # so the mean path carries signal before the KL term pulls sigma up
            params[f"fuse{l}.b2"].data[0, cfg.d_z:] = SIGMA_BIAS_INIT
        return cls(cfg, params)

    # ------------------------------------------------------------------
    # Prompt and graph inputs.

    def build_prompt(self, query_text: str, doc_text: str) -> list[int]:
        """Token ids [t_int, query:, q..., document:, d..., relevant:].

        Document tokens are truncated first; markers and the query always
        survive. Out-of-vocabulary words map to <unk>.
        """
        q_tokens = tokenize(query_text)
        d_tokens = tokenize(doc_text)
        overhead = 4  # t_int + three markers
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

    def _join_graphs(self, graphs: list[QuerySubgraph]):
        """One node array for a batch of subgraphs: the first row of each graph
        (its interaction node), the fixed node features, and the edges with
        self-loops sorted by target, so that the in-edges of node i form
        segment i."""
        offsets = np.cumsum([0] + [g.num_nodes for g in graphs[:-1]])
        feats = np.concatenate([init_node_embeddings(g, self.cfg.d_g) for g in graphs])
        src, dst, rel_ids = [], [], []
        for g, offset in zip(graphs, offsets):
            loops = list(range(offset, offset + g.num_nodes))
            src += [offset + s for s, _, _ in g.edges] + loops
            dst += [offset + t for _, _, t in g.edges] + loops
            unknown = [rel for _, rel, _ in g.edges if rel not in self.rel2id]
            if unknown:
                raise ValidationError(f"unknown relation in subgraph: {unknown[0]!r}")
            rel_ids += [self.rel2id[rel] for _, rel, _ in g.edges]
            rel_ids += [self.rel2id[SELF_RELATION]] * g.num_nodes
        src, dst, rel_ids = (np.asarray(a, dtype=np.intp) for a in (src, dst, rel_ids))
        order = np.argsort(dst, kind="stable")  # in-edges of a node, in edge order
        dst = dst[order]
        # every node has its self-loop, so each node owns one segment
        starts = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
        return offsets, feats, (src[order], dst, rel_ids[order], starts)

    # ------------------------------------------------------------------
    # Layers. Each runs on a whole batch and reads its weights from p: the
    # parameter Tensors on the tape, or their plain arrays without one.

    def _attention(self, p, x, kv, prefix: str, key_bias: np.ndarray | None):
        """Multi-head attention of the (B, Lq, d_l) queries x over the
        (B, Lk, d_l) keys and values kv; key_bias (B, 1, Lk) is -inf on
        padded keys. Each head is a column slice (a view) of the projections."""
        dh = self.cfg.d_l // self.cfg.heads
        q = tz.linear(x, p[prefix + ".wq"], p[prefix + ".bq"]) * (1.0 / math.sqrt(dh))
        k, v = (tz.linear(kv, p[f"{prefix}.w{c}"], p[f"{prefix}.b{c}"]) for c in "kv")
        heads = [tz.split(t, [dh] * self.cfg.heads, axis=2) for t in (q, k, v)]
        outs = [tz.softmax(qh @ tz.transpose(kh), key_bias) @ vh for qh, kh, vh in zip(*heads)]
        return tz.linear(tz.concat(outs, axis=2), p[prefix + ".wo"], p[prefix + ".bo"])

    def encode_text_layer(self, p, h, key_bias: np.ndarray, layer: int):
        """Pre-norm transformer block over (B, L, d_l): self-attention then
        feed-forward."""
        prefix = f"enc{layer}"
        x = tz.layer_norm(h, p[prefix + ".ln1.g"], p[prefix + ".ln1.b"])
        h = h + self._attention(p, x, x, prefix + ".attn", key_bias)
        y = tz.layer_norm(h, p[prefix + ".ln2.g"], p[prefix + ".ln2.b"])
        ff = tz.gelu(tz.linear(y, p[prefix + ".ff.w1"], p[prefix + ".ff.b1"]))
        return h + tz.linear(ff, p[prefix + ".ff.w2"], p[prefix + ".ff.b2"])

    def gnn_layer(self, p, u, edges, layer: int):
        """Relation-aware graph attention over in-neighbors (self-loop
        included) of the joined (N, d_g) node array; each node's softmax runs
        over its segment of the target-sorted edges."""
        src, dst, rel_ids, starts = edges
        prefix = f"gnn{layer}"
        q, k, v = (u @ p[f"{prefix}.w{c}"] for c in "qkv")
        er = tz.gather_rows(p[prefix + ".rel_emb"], rel_ids)
        ke = tz.gather_rows(k, src) + er
        ve = tz.gather_rows(v, src) + er
        logits = tz.tsum(tz.gather_rows(q, dst) * ke, axis=1) * (1.0 / math.sqrt(self.cfg.d_g))
        att = tz.segment_softmax(logits, starts)
        mixed = u + tz.segment_sum(att, ve, starts) @ p[prefix + ".wo"]
        ff = tz.gelu(tz.linear(mixed, p[prefix + ".ff.w1"], p[prefix + ".ff.b1"]))
        return mixed + tz.linear(ff, p[prefix + ".ff.w2"], p[prefix + ".ff.b2"])

    def fuse_interaction(self, p, h_int, u_int, eps: np.ndarray, layer: int):
        """Bottleneck exchange between the (B, d_l) interaction tokens and the
        (B, d_g) interaction nodes. Each concatenated pair parameterizes a
        Gaussian; one reparameterized sample (noise eps, (B, d_z)) is split in
        half and projected back onto both modalities as residual updates.
        Returns the updated pairs and each pair's KL to the standard normal."""
        prefix = f"fuse{layer}"
        d_z = self.cfg.d_z
        x = tz.concat([h_int, u_int], axis=1)
        hidden = tz.gelu(tz.linear(x, p[prefix + ".w1"], p[prefix + ".b1"]))
        mu, s = tz.split(tz.linear(hidden, p[prefix + ".w2"], p[prefix + ".b2"]),
                         [d_z, d_z], axis=1)
        sigma = tz.softplus(s) + 1e-6
        z = mu + sigma * eps
        kl = kl_gaussian_std_normal(mu, sigma)
        z_h, z_u = tz.split(z, [d_z // 2, d_z // 2], axis=1)
        return h_int + z_h @ p[prefix + ".wh"], u_int + z_u @ p[prefix + ".wu"], kl

    # ------------------------------------------------------------------
    # Full encoder and decoder.

    def encode_fused(self, p, prompts: list[list[int]],
                     subgraphs: list[QuerySubgraph | None], noise: np.ndarray | None):
        """R text-only layers, then S fused text+graph layers with interaction,
        over the prompts padded to (B, L). noise is the (B, S, d_z) bottleneck
        draw, one (B, d_z) slice per fused layer; None means the Gaussian mean
        (eps = 0). Returns the final token states, the (B, 1, L) key bias
        (-inf on padding) and the KL terms."""
        cfg = self.cfg
        lengths = np.array([len(ids) for ids in prompts])
        n_batch, length = len(prompts), lengths.max()
        ids = np.array([row + [self.tok2id[PAD]] * (length - len(row)) for row in prompts])
        key_bias = np.where(np.arange(length) < lengths[:, None], 0.0, -np.inf)[:, None, :]
        graphs = [empty_subgraph() if cfg.text_only or sub is None else sub for sub in subgraphs]
        if noise is None:
            noise = np.zeros((n_batch, cfg.S, cfg.d_z))
        h = tz.gather_rows(p["tok_emb"], ids.reshape(-1)) \
            + tz.gather_rows(p["pos_emb"], np.tile(np.arange(length), n_batch))
        h = tz.reshape(h, (n_batch, length, cfg.d_l))
        offsets, feats, edges = self._join_graphs(graphs)
        u = tz.scatter_rows(feats, offsets, tz.gather_rows(p["graph_int_emb"], [0] * n_batch))
        token_rows = np.arange(n_batch) * length
        kl_terms = []
        for layer in range(cfg.R):
            h = self.encode_text_layer(p, h, key_bias, layer)
        for s_i in range(cfg.S):
            h = self.encode_text_layer(p, h, key_bias, cfg.R + s_i)
            u = self.gnn_layer(p, u, edges, s_i)
            rows = tz.reshape(h, (n_batch * length, cfg.d_l))
            h_new, u_new, kl = self.fuse_interaction(
                p, tz.gather_rows(rows, token_rows), tz.gather_rows(u, offsets),
                noise[:, s_i], s_i)
            h = tz.reshape(tz.scatter_rows(rows, token_rows, h_new), (n_batch, length, cfg.d_l))
            u = tz.scatter_rows(u, offsets, u_new)
            kl_terms.append(kl)
        return tz.layer_norm(h, p["enc_ln.g"], p["enc_ln.b"]), key_bias, kl_terms

    def decode_relevance(self, p, h_final, key_bias: np.ndarray):
        """One decoder step over a start token per pair; returns p(true), (B,)."""
        n_batch, d_l = h_final.shape[0], self.cfg.d_l
        s = p["dec.start_emb"]
        # The lone start token attends to itself with weight exactly 1, so its
        # self-attention is the value path; dec.self.wq/wk/bq/bk do not reach
        # the output. The step does not depend on the input: run it once,
        # then start every pair's step from its state.
        v = tz.linear(tz.layer_norm(s, p["dec.ln1.g"], p["dec.ln1.b"]),
                      p["dec.self.wv"], p["dec.self.bv"])
        s = s + tz.linear(v, p["dec.self.wo"], p["dec.self.bo"])
        s = tz.reshape(tz.gather_rows(s, [0] * n_batch), (n_batch, 1, d_l))
        x = tz.layer_norm(s, p["dec.ln2.g"], p["dec.ln2.b"])
        s = s + self._attention(p, x, h_final, "dec.cross", key_bias)
        y = tz.layer_norm(s, p["dec.ln3.g"], p["dec.ln3.b"])
        ff = tz.gelu(tz.linear(y, p["dec.ff.w1"], p["dec.ff.b1"]))
        s = s + tz.linear(ff, p["dec.ff.w2"], p["dec.ff.b2"])
        probs = tz.softmax(tz.linear(s, p["dec.out_w"], p["dec.out_b"]))  # (B, 1, 2)
        return tz.reshape(tz.split(probs, [1, 1], axis=2)[0], (n_batch,))

    def _run(self, p, prompts: list[list[int]], subgraphs: list[QuerySubgraph | None],
             noise: np.ndarray | None):
        """Scores and per-layer KL terms of a batch of prompts."""
        h, key_bias, kl_terms = self.encode_fused(p, prompts, subgraphs, noise)
        return self.decode_relevance(p, h, key_bias), kl_terms

    def forward_batch(self, queries: list[Query], docs: list[Document],
                      subgraphs: list[QuerySubgraph | None],
                      noise: np.ndarray | None = None) -> ForwardTrace:
        """Score pairs (queries[b], docs[b]) on the tape. noise[b] holds pair
        b's (S, d_z) bottleneck draws; noise=None means inference (eps = 0)."""
        if not len(queries) == len(docs) == len(subgraphs) >= 1:
            raise UsageError("need one query and one subgraph per document, and a document")
        want = (len(docs), self.cfg.S, self.cfg.d_z)
        if noise is not None and getattr(noise, "shape", None) != want:
            raise UsageError(f"noise must be an array of shape {want}")
        prompts = [self.build_prompt(q.text, d.text) for q, d in zip(queries, docs)]
        score, kl_terms = self._run(self.params, prompts, subgraphs, noise)
        return ForwardTrace(score_tensor=score, kl_tensors=kl_terms)

    def forward(self, query: Query, doc: Document, subgraph: QuerySubgraph | None,
                noise: np.ndarray | None = None) -> ForwardTrace:
        """Score one pair on the tape, as a batch of one, with its (S, d_z)
        noise; noise=None means inference (eps = 0)."""
        return self.forward_batch([query], [doc], [subgraph],
                                  None if noise is None else noise[None])

    def score_batch(self, query: Query, docs: list[Document],
                    subgraphs: list[QuerySubgraph | None]) -> np.ndarray:
        """p(true) for every candidate document of one query (eps = 0), from
        the plain parameter arrays, so no tape is built. Candidates are scored
        in chunks, in order, so that one head's attention scores stay within
        ATTENTION_BUDGET elements. Every score must be finite and inside
        (0, 1); the per-op finite checks of the tape do not run here."""
        if len(docs) != len(subgraphs):
            raise UsageError(f"{len(docs)} documents but {len(subgraphs)} subgraphs")
        prompts = [self.build_prompt(query.text, doc.text) for doc in docs]
        if not prompts:
            return np.zeros(0)
        longest = max(len(ids) for ids in prompts)
        chunk = max(1, ATTENTION_BUDGET // (longest * longest))
        p = {name: t.data for name, t in self.params.items()}
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
            scores = np.concatenate([
                self._run(p, prompts[lo:lo + chunk], subgraphs[lo:lo + chunk], None)[0]
                for lo in range(0, len(prompts), chunk)])
        check_relevance(scores, docs)
        return scores
