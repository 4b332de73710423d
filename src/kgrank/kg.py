"""Knowledge-graph loading, entity linking, and 2-hop subgraph extraction.

A query-document subgraph keeps the linked entities of both texts plus every
node bridging two of them through paths of length <= 2 (undirected), capped to
a node budget, with the KG triples among them. An interaction node is
prepended; the model ties it to every retained node in both directions with
the reserved relation, giving the two modalities a single exchange point.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .corpus import WORD_RE, tokenize
from .errors import InputError, ParseError, ValidationError
from .fileio import atomic_write, check_json_type, dump_json, read_jsonl, read_lines

INTERACTION_RELATION = "<int>"
INTERACTION_NODE = "<interaction>"
SELF_RELATION = "<self>"
DEFAULT_MAX_NODES = 10
MAX_SURFACE_WORDS = 4
NODE_INIT_STD = 0.02
NODE_INIT_SEED = 0  # with the node's key, the entropy of each node vector's draw
KG_PROVENANCE = ("both", "query-seed", "doc-seed", "bridge")  # seeds in capping priority


@dataclass
class KnowledgeGraph:
    nodes: set[str] = field(default_factory=set)
    relations: set[str] = field(default_factory=set)
    triples: list[tuple[str, str, str]] = field(default_factory=list)
    names: dict[str, list[str]] = field(default_factory=dict)
    # derived lookups, built lazily, reused across calls and never compared
    _surfaces: dict[tuple[str, ...], str] | None = field(
        default=None, compare=False, repr=False)
    _first_words: dict[str, int] | None = field(default=None, compare=False, repr=False)
    _adjacency: dict[str, set[str]] | None = field(default=None, compare=False, repr=False)
    _by_head: dict[str, list[tuple[str, str, str]]] | None = field(
        default=None, compare=False, repr=False)

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[str, str, str]],
                     lexicon: Iterable[tuple[str, str]] = ()) -> KnowledgeGraph:
        """The graph of the deduplicated, sorted triples. Each (node, surface)
        lexicon pair adds its node and, once per node, its surface name."""
        kg = cls(triples=sorted(set(triples)))
        for head, rel, tail in kg.triples:
            kg.nodes.add(head)
            kg.nodes.add(tail)
            kg.relations.add(rel)
        for node, surface in lexicon:
            kg.nodes.add(node)
            surfaces = kg.names.setdefault(node, [])
            if surface not in surfaces:
                surfaces.append(surface)
        return kg

    def surface_names(self, node: str) -> list[str]:
        return self.names.get(node, [node])

    def surface_index(self) -> dict[tuple[str, ...], str]:
        if self._surfaces is None:
            self._surfaces, self._first_words = _surface_index(self)
        return self._surfaces

    def first_word_lengths(self) -> dict[str, int]:
        """First word of a linkable surface -> the most words such a surface has."""
        self.surface_index()
        return self._first_words

    def adjacency(self) -> dict[str, set[str]]:
        if self._adjacency is None:
            adj: dict[str, set[str]] = {}
            for head, _, tail in self.triples:
                adj.setdefault(head, set()).add(tail)
                adj.setdefault(tail, set()).add(head)
            self._adjacency = adj
        return self._adjacency

    def triples_by_head(self) -> dict[str, list[tuple[str, str, str]]]:
        if self._by_head is None:
            by_head: dict[str, list[tuple[str, str, str]]] = {}
            for triple in self.triples:
                by_head.setdefault(triple[0], []).append(triple)
            self._by_head = by_head
        return self._by_head


@dataclass(frozen=True)
class EntityMention:
    node: str
    start: int
    end: int
    source: str  # "query" or "document"


@dataclass
class QuerySubgraph:
    """Retained nodes (interaction node first) and the KG edges among them.

    Node 0 alone is INTERACTION_NODE, of provenance "interaction"; the others
    have one of KG_PROVENANCE. edges are the (source index, relation, target
    index) KG triples among nodes 1..n-1; the model adds the interaction edges
    and self-loops. Construction raises ValidationError for any other shape.
    """

    node_ids: list[str]
    provenance: list[str]
    edges: list[tuple[int, str, int]]

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        if len(self.provenance) != n:
            raise ValidationError(f"{len(self.provenance)} provenance entries for {n} nodes")
        if n == 0 or (self.node_ids[0], self.provenance[0]) != (INTERACTION_NODE, "interaction"):
            raise ValidationError(f"node 0 must be {INTERACTION_NODE!r} with provenance "
                                  f"'interaction'")
        for i in range(1, n):
            if self.node_ids[i] == INTERACTION_NODE:
                raise ValidationError(f"node {i} is {INTERACTION_NODE!r}, which only node 0 is")
            if self.provenance[i] not in KG_PROVENANCE:
                raise ValidationError(f"node {i} has provenance {self.provenance[i]!r}, "
                                      f"not one of {KG_PROVENANCE}")
        for edge in self.edges:
            if not (1 <= edge[0] < n and 1 <= edge[2] < n):
                raise ValidationError(f"edge {edge} names a node index outside the KG "
                                      f"nodes [1, {n})")
            if edge[1] in (INTERACTION_RELATION, SELF_RELATION):
                raise ValidationError(f"edge {edge} has the reserved relation {edge[1]!r}")

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


def _tsv_rows(path: str | Path, kind: str, width: int,
              expected: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each line not blank; '#' marks no comment."""
    for lineno, line in read_lines(path, kind, comments=False):
        parts = line.split("\t")
        if len(parts) != width or not all(p.strip() for p in parts):
            raise ParseError(f"{path}:{lineno}: expected {expected!r}")
        yield lineno, [p.strip() for p in parts]


def load_kg(path: str | Path, lexicon_path: str | Path | None = None) -> KnowledgeGraph:
    """Load 'head<TAB>relation<TAB>tail' triples, deduplicated and canonically
    sorted, and the optional 'node_id<TAB>surface name' lexicon in file order."""
    triples: list[tuple[str, str, str]] = []
    for lineno, (head, rel, tail) in _tsv_rows(path, "KG", 3, "head<TAB>relation<TAB>tail"):
        if rel in (INTERACTION_RELATION, SELF_RELATION):
            raise ParseError(f"{path}:{lineno}: relation {rel!r} is reserved")
        if INTERACTION_NODE in (head, tail):
            raise ParseError(f"{path}:{lineno}: node id {INTERACTION_NODE!r} is reserved")
        triples.append((head, rel, tail))
    lexicon = [] if lexicon_path is None else [
        (node, surface) for _, (node, surface)
        in _tsv_rows(lexicon_path, "lexicon", 2, "node_id<TAB>surface name")]
    return KnowledgeGraph.from_triples(triples, lexicon)


def _surface_index(kg: KnowledgeGraph) -> tuple[dict[tuple[str, ...], str], dict[str, int]]:
    """The lowercased word tuple of each linkable surface (1 to
    MAX_SURFACE_WORDS words) -> smallest matching node id, and the first word
    of each such tuple -> the most words of a tuple starting with it."""
    index: dict[tuple[str, ...], str] = {}
    first_words: dict[str, int] = {}
    for node in sorted(kg.nodes):
        for surface in kg.surface_names(node):
            key = tuple(tokenize(surface))
            if 1 <= len(key) <= MAX_SURFACE_WORDS:
                index.setdefault(key, node)
                first_words[key[0]] = max(first_words.get(key[0], 0), len(key))
    return index, first_words


def link_entities(text: str, kg: KnowledgeGraph,
                  source: str = "document") -> list[EntityMention]:
    """Greedy longest match of node surface names against the text's words.

    Words are corpus.tokenize's (WORD_RE in the lowercased text). A surface
    matches where its words equal consecutive words of the text; surfaces of
    more than MAX_SURFACE_WORDS (4) words are never linked, and a surface
    shared by several nodes links the smallest node id. Overlaps resolve
    longer-span-first, then earlier start, on spans that index `text`; the
    result is deterministic and mentions never overlap. The cost is one dict
    lookup per word, plus n-gram lookups only at words where a surface name
    starts, up to that word's longest surface.
    """
    surface_index = kg.surface_index()
    first_words = kg.first_word_lengths()
    lowered = text.lower()
    words = WORD_RE.findall(lowered)
    found: list[tuple[int, int, str]] = []  # (first word, word count, node)
    for i, word in enumerate(words):
        longest = first_words.get(word)
        if longest is not None:
            for n in range(1, min(longest, len(words) - i) + 1):
                node = surface_index.get(tuple(words[i:i + n]))
                if node is not None:
                    found.append((i, n, node))
    if not found:
        return []
    spans = [m.span() for m in WORD_RE.finditer(lowered)]
    if len(lowered) != len(text):
        # the index in `text` of each character of `lowered`: str.lower never
        # shortens a character, and its one context rule (final sigma) keeps
        # the length
        owners = [i for i, ch in enumerate(text) for _ in ch.lower()]
        spans = [(owners[s], owners[e - 1] + 1) for s, e in spans]
    candidates: list[tuple[int, int, int, str]] = []  # (-length, start, end, node)
    for i, n, node in found:
        start, end = spans[i][0], spans[i + n - 1][1]
        candidates.append((-(end - start), start, end, node))
    candidates.sort()
    mentions: list[EntityMention] = []
    taken: list[tuple[int, int]] = []
    for _, start, end, node in candidates:
        if any(start < e and s < end for s, e in taken):
            continue
        taken.append((start, end))
        mentions.append(EntityMention(node=node, start=start, end=end, source=source))
    mentions.sort(key=lambda m: m.start)
    return mentions


def extract_subgraph(kg: KnowledgeGraph, v_q: set[str], v_d: set[str],
                     max_nodes: int = DEFAULT_MAX_NODES) -> QuerySubgraph:
    """Seeds plus all nodes on undirected length-<=2 paths between distinct seeds.

    Capping priority: seeds first (both, then query-seed, then doc-seed), then
    bridge nodes by descending count of distinct adjacent seeds; all ties break
    by node id ascending. Retained edges are every KG triple among retained
    nodes with its original direction, and no interaction edge. Bridges are
    found from the seeds' neighbours, so the cost grows with the sum of the
    seeds' degrees, not with the size of the graph.
    """
    if max_nodes < 1:
        raise ValidationError(f"max_nodes must be >= 1, got {max_nodes}")
    for seed in sorted((v_q | v_d) - kg.nodes):
        raise ValidationError(f"seed node not in knowledge graph: {seed!r}")

    seeds = v_q | v_d
    adjacency = kg.adjacency()

    # a neighbour of a seed is reached once per distinct seed it touches
    touching: dict[str, int] = {}
    for seed in seeds:
        for node in adjacency.get(seed, ()):  # lexicon-only nodes have no entry
            if node not in seeds:
                touching[node] = touching.get(node, 0) + 1
    bridge_scores = {node: count for node, count in touching.items() if count >= 2}

    def seed_flag(node: str) -> str:
        if node in v_q and node in v_d:
            return "both"
        return "query-seed" if node in v_q else "doc-seed"

    ordered = sorted(seeds, key=lambda n: (KG_PROVENANCE.index(seed_flag(n)), n))
    ordered += sorted(bridge_scores, key=lambda n: (-bridge_scores[n], n))
    retained = ordered[:max_nodes]

    node_ids = [INTERACTION_NODE] + retained
    provenance = ["interaction"] + [seed_flag(n) if n in seeds else "bridge"
                                    for n in retained]
    position = {node: i for i, node in enumerate(node_ids)}

    edges: list[tuple[int, str, int]] = []
    by_head = kg.triples_by_head()
    for node in retained:
        for head, rel, tail in by_head.get(node, ()):
            if tail in position:
                edges.append((position[head], rel, position[tail]))
    edges.sort()
    return QuerySubgraph(node_ids=node_ids, provenance=provenance, edges=edges)


def empty_subgraph() -> QuerySubgraph:
    """Interaction node only; used by the text-only ablation."""
    return QuerySubgraph(node_ids=[INTERACTION_NODE], provenance=["interaction"], edges=[])


def _node_key(node_id: str) -> int:
    digest = hashlib.sha256(node_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=1 << 16)
def _node_vector(node_id: str, d_g: int) -> np.ndarray:
    """One node's vector, drawn once per (node id, d_g) and read-only."""
    rng = np.random.default_rng(np.random.SeedSequence([NODE_INIT_SEED, _node_key(node_id)]))
    vec = rng.normal(0.0, NODE_INIT_STD, size=d_g)
    vec.flags.writeable = False
    return vec


def init_node_embeddings(subgraph: QuerySubgraph, d_g: int) -> np.ndarray:
    """Per-node N(0, 0.02^2) vectors keyed by the global node id.

    The same entity receives the same vector in every subgraph. Row 0 (the
    interaction node) is zeros here; the model substitutes its learned vector.
    Each vector is drawn once and memoised; the returned array is a fresh
    copy, so writing into it changes no later result.
    """
    if d_g < 1:
        raise ValidationError(f"d_g must be >= 1, got {d_g}")
    out = np.zeros((subgraph.num_nodes, d_g), dtype=np.float64)
    for i, node_id in enumerate(subgraph.node_ids[1:], start=1):
        out[i] = _node_vector(node_id, d_g)
    return out


# ---------------------------------------------------------------------------
# Subgraph cache: JSON-lines keyed by (query id, doc id).

def save_subgraph_cache(path: str | Path,
                        cache: dict[tuple[str, str], QuerySubgraph]) -> None:
    lines = []
    for (qid, did), sub in sorted(cache.items()):
        lines.append(dump_json({
            "query_id": qid,
            "doc_id": did,
            "nodes": sub.node_ids,
            "provenance": sub.provenance,
            "edges": [[s, r, t] for s, r, t in sub.edges],
        }))
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def load_subgraph_cache(path: str | Path) -> dict[tuple[str, str], QuerySubgraph]:
    """Records as save_subgraph_cache writes them. A malformed record, or a
    second record of a pair, is a ParseError naming its line."""
    cache: dict[tuple[str, str], QuerySubgraph] = {}
    for lineno, obj in read_jsonl(path, "subgraph cache"):
        try:
            qid, did = (check_json_type(obj[key], "", key) for key in ("query_id", "doc_id"))
            nodes, provenance, edges = (check_json_type(obj[key], [], key)
                                        for key in ("nodes", "provenance", "edges"))
            sub = QuerySubgraph(
                node_ids=[check_json_type(node, "", "node id") for node in nodes],
                provenance=[check_json_type(flag, "", "provenance") for flag in provenance],
                edges=[(check_json_type(s, 0, "edge end"), check_json_type(r, "", "relation"),
                        check_json_type(t, 0, "edge end")) for s, r, t in edges],
            )
        except (KeyError, TypeError, ValueError, InputError) as exc:
            raise ParseError(f"{path}:{lineno}: malformed subgraph record ({exc}); rebuild "
                             f"the cache with `kgrank subgraphs`") from exc
        if (qid, did) in cache:
            raise ParseError(f"{path}:{lineno}: duplicate (query, doc) pair ({qid!r}, {did!r})")
        cache[qid, did] = sub
    return cache
