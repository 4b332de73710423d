"""The oracle checks: every fast path against its brute-force twin.

Each check takes no arguments, draws its random instances from a fixed seed,
and returns (failure messages, one-line summary); an empty failure list means
the check passed. `kgrank selftest` runs every check in CHECKS, and the
acceptance tests for criteria 1-5 call the same functions, so each comparison
is written once. The brute-force twins live in `kgrank.oracles`.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable

import numpy as np

from . import corpus as cx
from . import evaluation as ev
from . import oracles
from . import tensor as tz
from .corpus import Document, Query
from .kg import (INTERACTION_NODE, KnowledgeGraph, QuerySubgraph, extract_subgraph,
                 link_entities)
from .model import RESERVED_TOKENS, ModelConfig, RankerModel, kl_gaussian_std_normal
from .tensor import Tensor, finite_diff_check
from .training import loss_from_trace

CheckResult = tuple[list[str], str]

# ---------------------------------------------------------------------------
# The tape primitives, one gradient case each: (name, fn, leaf shapes, input
# kind); fn takes one leaf per shape. "positive" keeps log away from its
# domain edge.
KEY_BIAS = np.array([[[0.0, 0.0, -np.inf, 0.0, 0.0]], [[0.0, -np.inf, -np.inf, 0.0, 0.0]]])
SEGMENT_STARTS = np.array([0, 1, 4])  # segments of 1, 3 and 2 entries
PRIMITIVE_CASES = [
    ("add", lambda x, p: tz.add(x, p), ((3, 4), (3, 4)), "normal"),
    ("mul", lambda x, p: tz.mul(x, p), ((3, 4), (3, 4)), "normal"),
    ("matmul", lambda x, p: x @ p, ((3, 4), (4, 2)), "normal"),
    ("matmul_batched", lambda x, p: x @ p, ((2, 3, 4), (2, 4, 5)), "normal"),
    ("linear", lambda x, w, b: tz.linear(x, w, b), ((2, 3, 4), (4, 5), (1, 5)), "normal"),
    ("reshape", lambda x: tz.reshape(x, (4, 3)), ((3, 4),), "normal"),
    ("softmax", lambda x: tz.softmax(x), ((3, 4),), "normal"),
    ("attention", lambda q, k, v: tz.attention(q, k, v, 2, KEY_BIAS),
     ((2, 3, 4), (2, 5, 4), (2, 5, 4)), "normal"),
    ("attention_one_query", lambda q, k, v: tz.attention(q, k, v, 3, KEY_BIAS),
     ((2, 1, 6), (2, 5, 6), (2, 5, 6)), "normal"),
    ("segment_softmax", lambda x: tz.segment_softmax(x, SEGMENT_STARTS), ((6,),), "normal"),
    ("segment_sum", lambda w, x: tz.segment_sum(w, x, SEGMENT_STARTS), ((6,), (6, 3)),
     "normal"),
    ("layer_norm", lambda x, g, b: tz.layer_norm(x, g, b), ((2, 3, 4), (1, 4), (1, 4)),
     "normal"),
    ("gelu", lambda x: tz.gelu(x), ((3, 4),), "normal"),
    ("softplus", lambda x: tz.softplus(x), ((3, 4),), "normal"),
    ("log", lambda x: tz.log(x), ((3, 4),), "positive"),
    ("sum_all", lambda x: tz.tsum(x), ((3, 4),), "normal"),
    ("sum_axis0", lambda x: tz.tsum(x, axis=0), ((3, 4),), "normal"),
    ("gather_rows", lambda x: tz.gather_rows(x, [0, 2, 2]), ((3, 4),), "normal"),
    ("scatter_rows", lambda x, r: tz.scatter_rows(x, [0, 3], r), ((4, 3), (2, 3)), "normal"),
    ("concat", lambda x, p: tz.concat([x, p], axis=0), ((3, 4), (2, 4)), "normal"),
    ("split", lambda x: tz.split(x, [1, 3], axis=1)[1], ((3, 4),), "normal"),
]


def primitive_case_seed(name: str) -> int:
    return zlib.crc32(name.encode())


def primitive_leaf(rng, shape, kind) -> Tensor:
    if kind == "positive":
        return Tensor(rng.uniform(0.5, 3.0, size=shape))
    return Tensor(rng.normal(size=shape))


def primitive_objective(name, fn, shapes, kind):
    """(f, params) for one PRIMITIVE_CASES row: f sums the primitive's output
    under a fixed random weighting, so every output entry reaches the loss."""
    rng = np.random.default_rng(primitive_case_seed(name))
    leaves = [primitive_leaf(rng, shape, kind) for shape in shapes]
    weight = rng.normal(size=fn(*leaves).shape)
    return (lambda: tz.tsum(fn(*leaves) * weight)), {f"leaf{i}": leaf
                                                      for i, leaf in enumerate(leaves)}


# ---------------------------------------------------------------------------
# The tiny model of the full-model gradient check, shared with the unit tests.

TINY_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def tiny_config(**overrides) -> ModelConfig:
    defaults = dict(d_l=16, d_g=8, heads=2, R=1, S=1, d_z=4, d_proj=8, max_len=24,
                    vocab=list(RESERVED_TOKENS) + TINY_WORDS,
                    relations=["rel_a", "rel_b"])
    defaults.update(overrides)
    return ModelConfig(**defaults)


def tiny_subgraph() -> QuerySubgraph:
    return QuerySubgraph(
        node_ids=[INTERACTION_NODE, "n1", "n2", "n3"],
        provenance=["interaction", "query-seed", "doc-seed", "bridge"],
        edges=[(1, "rel_a", 3), (3, "rel_b", 2)])


def tiny_model() -> RankerModel:
    return RankerModel.build(tiny_config(), seed=7)


def tiny_pair() -> tuple[Query, Document]:
    return Query("q1", "alpha beta"), Document("d1", "gamma delta alpha")


def frozen_noise(cfg: ModelConfig, seed: int = 3) -> np.ndarray:
    """One pair's (S, d_z) bottleneck noise, as forward takes it."""
    return np.random.default_rng(seed).normal(size=(cfg.S, cfg.d_z))


# ---------------------------------------------------------------------------
# The checks.

def check_primitive_gradients() -> CheckResult:
    """Every tape primitive's analytic gradient against central differences."""
    failures, worst = [], 0.0
    for case in PRIMITIVE_CASES:
        f, params = primitive_objective(*case)
        err = finite_diff_check(f, params, step=1e-5, max_coords=60, seed=2)
        worst = max(worst, err)
        if err >= 1e-6:
            failures.append(f"{case[0]}: relative error {err:.2e} >= 1e-6")
    return failures, f"{len(PRIMITIVE_CASES)} primitives, max err {worst:.2e} (<1e-6)"


def check_model_gradient() -> CheckResult:
    """The training objective of the tiny model against central differences,
    and a repeated forward pass reproduces its score bit for bit."""
    model = tiny_model()
    query, doc = tiny_pair()
    noise = frozen_noise(model.cfg)

    def objective():
        trace = model.forward(query, doc, tiny_subgraph(), noise=noise)
        return loss_from_trace(trace, [True], model.cfg.alpha, model.cfg.S)

    err = finite_diff_check(objective, model.params, step=1e-4, max_coords=200, seed=4)
    failures = [f"full model: relative error {err:.2e} >= 1e-4"] if err >= 1e-4 else []
    first, second = (model.forward(query, doc, tiny_subgraph(), noise=noise).score
                     for _ in range(2))
    if first != second:
        failures.append(f"repeated forward changed the score: {first!r} != {second!r}")
    return failures, f"full model err {err:.2e} (<1e-4), repeated forward bit-identical"


def check_bottleneck() -> CheckResult:
    """Closed-form KL against Gauss-Hermite quadrature on 50 random
    Gaussians, to 1e-12, and the Monte Carlo mutual information of a Gaussian
    mixture against its mean-KL bound."""
    rng = np.random.default_rng(12345)
    failures, worst_gap = [], 0.0
    for i in range(50):
        mu = rng.uniform(-0.8, 0.8, size=4)
        sigma = rng.uniform(0.6, 1.4, size=4)
        closed = kl_gaussian_std_normal(mu, sigma).item()
        exact = oracles.kl_quadrature(mu, sigma)
        gap = abs(closed - exact)
        worst_gap = max(worst_gap, gap)
        if gap >= 1e-12:
            failures.append(f"draw {i}: closed-form KL {closed!r} vs quadrature {exact!r}")

    k, d = 6, 3
    weights = rng.dirichlet(np.ones(k))
    mus = rng.uniform(-1.5, 1.5, size=(k, d))
    sigmas = rng.uniform(0.4, 1.2, size=(k, d))
    mean_kl = sum(w * kl_gaussian_std_normal(m, s).item()
                  for w, m, s in zip(weights, mus, sigmas))
    mi, se = oracles.mutual_information_mc(weights, mus, sigmas, 500_000, seed=99)
    if mi > mean_kl + 3 * se:
        failures.append(f"MC I(x;z) {mi:.4f} exceeds mean KL {mean_kl:.4f} + 3SE")
    return failures, (f"max |closed-quadrature| {worst_gap:.2e} (<1e-12) over 50 draws; "
                      f"MC I(x;z)={mi:.4f} <= mean KL {mean_kl:.4f} + 3SE {3 * se:.4f}")


def check_metrics() -> CheckResult:
    """AP, nDCG@k and both recalls against their direct definitions on 500
    random rankings, exactly (nDCG to 1e-12)."""
    rng = np.random.default_rng(4242)
    failures = []
    for trial in range(500):
        n = int(rng.integers(1, 25))
        ids = [f"d{i}" for i in range(n)]
        rng.shuffle(ids)
        ranking = [(d, float(s)) for d, s in zip(ids, sorted(rng.normal(size=n),
                                                             reverse=True))]
        grades = {d: int(rng.integers(0, 4)) for d in ids if rng.random() < 0.6}
        relevant = {d for d, g in grades.items() if g > 0}
        k = int(rng.integers(1, 30))
        if ev.average_precision(ranking, relevant) != oracles.ap_direct(ids, relevant):
            failures.append(f"instance {trial}: average precision")
        if abs(ev.ndcg_at_k(ranking, grades, k) - oracles.ndcg_direct(ids, grades, k)) > 1e-12:
            failures.append(f"instance {trial}: nDCG@{k}")
        for capped in (False, True):
            if ev.recall_at_k(ranking, relevant, k, capped) != \
                    oracles.recall_direct(ids, relevant, k, capped):
                failures.append(f"instance {trial}: recall@{k} (capped={capped})")
    return failures, "500 random instances per metric, exact agreement"


def check_subgraphs() -> CheckResult:
    """Uncapped extraction against brute-force 2-hop enumeration on 200 random
    graphs, and under a random cap the retained nodes, their provenance and
    the edges against the capping priority built from the triples alone."""
    rng = np.random.default_rng(777)
    failures, binding = [], 0
    for trial in range(200):
        n = int(rng.integers(3, 51))
        nodes = [f"v{i:02d}" for i in range(n)]
        triples = set()
        for _ in range(int(rng.integers(n // 2, 3 * n))):
            h, t = rng.choice(n, size=2, replace=False)
            triples.add((nodes[int(h)], f"r{int(rng.integers(4))}", nodes[int(t)]))
        kg = KnowledgeGraph.from_triples(triples)
        kg.nodes.update(nodes)
        k = int(rng.integers(0, min(7, n + 1)))
        seeds = [str(s) for s in rng.choice(nodes, size=k, replace=False)] if k else []
        v_q = {s for s in seeds if rng.random() < 0.5}
        v_d = set(seeds) - v_q
        sub = extract_subgraph(kg, v_q, v_d, max_nodes=n + 1)  # uncapped
        expected_nodes = oracles.two_hop_nodes_direct(kg.triples, set(seeds))
        if set(sub.node_ids[1:]) != expected_nodes:
            failures.append(f"graph {trial}: node set differs from 2-hop enumeration")
        got_edges = {(sub.node_ids[s], r, sub.node_ids[t]) for s, r, t in sub.edges}
        if got_edges != oracles.subgraph_edges_direct(kg.triples, expected_nodes):
            failures.append(f"graph {trial}: edge set differs from enumeration")

        cap = int(rng.integers(1, 12))
        capped = extract_subgraph(kg, v_q, v_d, max_nodes=cap)
        expected = oracles.capped_nodes_direct(kg.triples, v_q, v_d, cap)
        binding += len(expected) < len(expected_nodes)
        if list(zip(capped.node_ids, capped.provenance)) != \
                [(INTERACTION_NODE, "interaction")] + expected:
            failures.append(f"graph {trial}: cap {cap} retained nodes or provenance differ "
                            f"from the priority order")
        kept = [node for node, _ in expected]
        want_edges = oracles.subgraph_edges_direct(kg.triples, set(kept))
        got_capped = [(capped.node_ids[s], r, capped.node_ids[t]) for s, r, t in capped.edges]
        if len(got_capped) != len(want_edges) or set(got_capped) != want_edges:
            failures.append(f"graph {trial}: cap {cap} edges differ from the triples among "
                            f"the retained nodes")
    return failures, (f"200 random graphs, node and edge sets equal brute-force "
                      f"enumeration; capped node lists, provenance and edges equal the "
                      f"priority order ({binding} caps binding)")


LINK_WORDS = ["bone", "marrow", "cell", "b", "x1", "42", "v1", "v2", "spleen"]
# " İ " lengthens the text under str.lower: "İ".lower() is two characters
LINK_SEPARATORS = [" ", " ", " ", "  ", "-", ", ", "/", ". ", " 7 ", " (", " İ "]
# shared first words and prefixes, a 5-word surface (never linked) and a
# surface with no word at all
PLANTED_SURFACES = ["bone", "bone marrow", "Bone-Marrow cell", "marrow cell", "b 42",
                    "bone marrow cell b x1", "cell", "(-)"]


def check_linking() -> CheckResult:
    """link_entities against oracles.link_entities_direct, which tries every
    surface at every word, on 300 random lexicons and texts: the same nodes,
    spans and order. Each lexicon mixes planted surfaces (shared first words
    and prefixes, a 5-word surface, a surface on two nodes) with random ones
    of 1-5 words in mixed case and punctuation, and leaves some nodes without
    a name, so that their ids are their surfaces. Each text strings words and
    whole surfaces together with spaces, punctuation, digits and a capital
    whose lowercase is two characters, so spans overlap, nest and repeat."""
    rng = np.random.default_rng(2718)

    def phrase(words: list[str]) -> str:
        """The words in random case, joined by random separators."""
        out = ""
        for i, word in enumerate(words):
            out += str(rng.choice(LINK_SEPARATORS)) if i else ""
            out += (word, word.title(), word.upper())[int(rng.integers(3))]
        return out

    failures, linked, multiword = [], 0, 0
    for trial in range(300):
        nodes = [f"v{i}" for i in range(int(rng.integers(1, 8)))]
        lexicon = []
        for node in nodes:
            for _ in range(int(rng.integers(0, 3))):
                if rng.random() < 0.5:
                    lexicon.append((node, str(rng.choice(PLANTED_SURFACES))))
                else:
                    size = int(rng.integers(1, 6))
                    lexicon.append((node, phrase(list(rng.choice(LINK_WORDS, size=size)))))
        if lexicon and rng.random() < 0.3:  # one surface on a second node
            lexicon.append((str(rng.choice(nodes)), lexicon[int(rng.integers(len(lexicon)))][1]))
        kg = KnowledgeGraph.from_triples([], lexicon)
        kg.nodes.update(nodes)
        pieces = []
        for _ in range(int(rng.integers(0, 12))):
            if lexicon and rng.random() < 0.4:
                pieces.append(lexicon[int(rng.integers(len(lexicon)))][1])
            else:
                pieces.append(phrase(list(rng.choice(LINK_WORDS, size=int(rng.integers(1, 4))))))
        text = phrase(pieces)
        source = ("query", "document")[trial % 2]
        got = link_entities(text, kg, source)
        want = oracles.link_entities_direct(text, kg, source)
        if got != want:
            failures.append(f"text {trial} {text!r}: mentions {got} differ from {want}")
        linked += len(want)
        multiword += sum(" " in text[m.start:m.end] for m in want)
    return failures, (f"300 random lexicons and texts, identical mentions ({linked}, "
                      f"{multiword} of them spanning a space)")


def check_bm25() -> CheckResult:
    """retrieve_topk against the exhaustive table of oracles.bm25_direct over
    raw tokens, sorted by (-score, doc id): the same ids, order and scores,
    exactly, untruncated and cut at a k below the number of matching
    documents, on 200 random corpora. Each corpus holds a few copies of its
    documents, so that equal scores straddle the k-th place."""
    rng = np.random.default_rng(31337)
    words = [f"w{i}" for i in range(12)]
    failures, straddled = [], 0
    for trial in range(200):
        n = int(rng.integers(1, 40))
        docs = [Document(f"d{i:02d}", " ".join(rng.choice(words, size=rng.integers(0, 12))))
                for i in range(n)]
        docs += [Document(f"d{n + j:02d}", docs[int(i)].text)
                 for j, i in enumerate(rng.integers(0, n, size=int(rng.integers(0, 4))))]
        index = cx.build_index(docs)
        terms = list(rng.choice(words, size=int(rng.integers(1, 5))))
        query = Query("q", " ".join(terms))
        tokens = {d.id: cx.tokenize(d.text) for d in docs}
        scores = [(d.id, oracles.bm25_direct(tokens, terms, d.id)) for d in docs]
        table = sorted(((did, s) for did, s in scores if s > 0),
                       key=lambda item: (-item[1], item[0]))
        if cx.retrieve_topk(index, query, k=len(docs) + 5) != table:
            failures.append(f"corpus {trial}: top-k differs from the exhaustive table")
        if len(table) > 1:
            ties = [i + 1 for i in range(len(table) - 1) if table[i][1] == table[i + 1][1]]
            k = int(rng.choice(ties)) if ties else int(rng.integers(1, len(table)))
            straddled += bool(ties)
            if cx.retrieve_topk(index, query, k=k) != table[:k]:
                failures.append(f"corpus {trial}: top-{k} differs from the exhaustive "
                                f"table cut to {k}")
    return failures, (f"top-k equals the exhaustive direct-formula table exactly, "
                      f"untruncated and truncated ({straddled} cuts inside a tie), on 200 "
                      f"random corpora")


CHECKS: list[tuple[str, Callable[[], CheckResult]]] = [
    ("gradient: primitives", check_primitive_gradients),
    ("gradient: full model", check_model_gradient),
    ("bottleneck: KL and MI bound", check_bottleneck),
    ("metrics: brute-force agreement", check_metrics),
    ("subgraph: 2-hop enumeration", check_subgraphs),
    ("linking: every surface at every word", check_linking),
    ("bm25: exhaustive direct-formula table", check_bm25),
]
