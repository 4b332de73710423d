"""Seeded input generator for the dense-long and first-stage workloads.

Text is Zipfian: document words are drawn from a power-law vocabulary, so a
few words occur in nearly every document and give long postings lists. The
knowledge graph is split into communities. Each document belongs to one
community: it mentions entities of that community and uses that community's
topic words. A query is cut from one source document (its relevant document)
and keeps some of its entities, topic words and ordinary words, so BM25 puts
same-community documents at the top.

A dense graph (many edges inside each community) gives query-document pairs
many bridge nodes, so the subgraph node cap binds. A sparse graph with few
entities per document keeps subgraphs small, but extraction still scans every
adjacency node, so a large graph makes it slow.

Only the seed picks the inputs; the same (seed, spec) gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kgrank.corpus import Document, Query

RELATIONS = ("causes", "treats", "part_of", "located_in", "interacts_with",
             "associated_with", "produces", "regulates")


@dataclass(frozen=True)
class GenSpec:
    docs: int
    doc_tokens: tuple[int, int]  # inclusive range of document length
    vocab: int
    zipf_exponent: float
    communities: int
    nodes_per_community: int
    triples: int
    intra_share: float  # share of triples inside one community
    entities_per_doc: int
    topic_words: int  # per community
    topic_tokens_per_doc: int
    queries: int
    query_words: int  # ordinary words copied from the source document
    query_topic_words: int
    query_entities: int


@dataclass
class GeneratedInputs:
    corpus: list[Document]
    queries: list[Query]
    qrels: dict[tuple[str, str], int]
    triples: list[tuple[str, str, str]]
    lexicon: list[tuple[str, str]]


def _surface(node: int) -> str:
    return f"ent{node:05d}"


def generate(spec: GenSpec, seed: int) -> GeneratedInputs:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6b6762]))
    n_nodes = spec.communities * spec.nodes_per_community
    size = spec.nodes_per_community

    triples: dict[tuple[str, str, str], None] = {}  # insertion-ordered set
    n_intra = int(round(spec.triples * spec.intra_share))
    for want, intra in ((n_intra, True), (spec.triples, False)):
        while len(triples) < want:
            n = want - len(triples)
            if intra:
                base = rng.integers(spec.communities, size=n) * size
                h = rng.integers(size, size=n)
                t = rng.integers(size - 1, size=n)
                h, t = base + h, base + t + (t >= h)
            else:
                h = rng.integers(n_nodes, size=n)
                t = rng.integers(n_nodes - 1, size=n)
                t = t + (t >= h)
            rels = rng.integers(len(RELATIONS), size=n)
            for hh, tt, rr in zip(h.tolist(), t.tolist(), rels.tolist()):
                if len(triples) < want:
                    triples[(f"n{hh:05d}", RELATIONS[rr], f"n{tt:05d}")] = None
    lexicon = [(f"n{i:05d}", _surface(i)) for i in range(n_nodes)]

    ranks = np.arange(1, spec.vocab + 1, dtype=np.float64)
    probs = ranks ** -spec.zipf_exponent
    probs /= probs.sum()
    words = [f"w{i}" for i in range(spec.vocab)]
    lo, hi = spec.doc_tokens
    lengths = rng.integers(lo, hi + 1, size=spec.docs)
    fixed = spec.entities_per_doc + spec.topic_tokens_per_doc
    word_ids = rng.choice(spec.vocab, size=int((lengths - fixed).sum()), p=probs).tolist()
    doc_community = rng.integers(spec.communities, size=spec.docs).tolist()
    topic_ids = rng.integers(spec.topic_words,
                             size=(spec.docs, spec.topic_tokens_per_doc)).tolist()
    # entities_per_doc distinct members of the community, for every document at once
    entity_ids = np.argpartition(rng.random((spec.docs, size)), spec.entities_per_doc,
                                 axis=1)[:, :spec.entities_per_doc].tolist()

    corpus: list[Document] = []
    doc_parts: list[tuple[list[str], list[str], list[str]]] = []
    offset = 0
    for i in range(spec.docs):
        c = doc_community[i]
        n_words = int(lengths[i]) - fixed
        plain = [words[j] for j in word_ids[offset:offset + n_words]]
        offset += n_words
        topic = [f"t{c}x{j}" for j in topic_ids[i]]
        ents = [_surface(c * size + j) for j in entity_ids[i]]
        tokens = plain + topic + ents
        order = rng.permutation(len(tokens)).tolist()
        corpus.append(Document(id=f"d{i:05d}", text=" ".join([tokens[k] for k in order])))
        doc_parts.append((plain, topic, ents))

    queries: list[Query] = []
    qrels: dict[tuple[str, str], int] = {}
    sources = rng.choice(spec.docs, size=spec.queries, replace=False)
    for qi, src in enumerate(sources.tolist()):
        plain, topic, ents = doc_parts[src]
        picked = ([plain[j] for j in rng.choice(len(plain), size=spec.query_words, replace=False)]
                  + [topic[j] for j in rng.choice(len(topic), size=spec.query_topic_words,
                                                   replace=False)]
                  + [ents[j] for j in rng.choice(len(ents), size=spec.query_entities,
                                                  replace=False)])
        qid = f"q{qi:04d}"
        queries.append(Query(id=qid, text=" ".join(picked)))
        qrels[(qid, corpus[src].id)] = 1
    return GeneratedInputs(corpus=corpus, queries=queries, qrels=qrels,
                           triples=sorted(triples), lexicon=lexicon)
