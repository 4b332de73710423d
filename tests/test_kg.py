"""Knowledge graph loading, entity linking, and subgraph extraction tests.

The 2-hop extraction's comparison with an exhaustive path enumeration runs
in kgrank.selftest.check_subgraphs (criterion 4), and the linker's with an
every-surface-at-every-word table in kgrank.selftest.check_linking; these
tests pin hand-built cases, the capping rules and the linking rules.
"""

import numpy as np
import pytest

from kgrank import selftest
from kgrank.errors import ParseError, ValidationError
from kgrank.kg import (INTERACTION_NODE, INTERACTION_RELATION, SELF_RELATION, KnowledgeGraph,
                       QuerySubgraph, _node_key, extract_subgraph, init_node_embeddings,
                       link_entities, load_kg, load_subgraph_cache, save_subgraph_cache)


def random_kg(rng, max_nodes=50):
    n = int(rng.integers(3, max_nodes))
    nodes = [f"v{i:02d}" for i in range(n)]
    triples = set()
    for _ in range(int(rng.integers(n // 2, 3 * n))):
        h, t = rng.choice(n, size=2, replace=False)
        triples.add((nodes[int(h)], f"r{int(rng.integers(4))}", nodes[int(t)]))
    kg = KnowledgeGraph.from_triples(triples)
    kg.nodes.update(nodes)
    return kg, nodes


class TestLoadKg:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("")
        kg = load_kg(path)
        assert kg.triples == [] and kg.nodes == set()

    def test_duplicates_removed(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("a\trel\tb\nb\trel\tc\na\trel\tb\n")
        kg = load_kg(path)
        assert len(kg.triples) == 2

    def test_fixture_counts(self, tmp_path):
        """20 unique triples over a small vocabulary; counts by hand."""
        rng = np.random.default_rng(3)
        lines, seen = [], set()
        while len(seen) < 20:
            h, t = rng.choice(12, size=2, replace=False)
            triple = (f"n{h}", f"rel{int(rng.integers(2))}", f"n{t}")
            if triple not in seen:
                seen.add(triple)
                lines.append("\t".join(triple))
        path = tmp_path / "kg.tsv"
        path.write_text("\n".join(lines) + "\n")
        kg = load_kg(path)
        assert len(kg.triples) == 20
        expected_nodes = {x for h, _, t in seen for x in (h, t)}
        assert kg.nodes == expected_nodes
        assert kg.relations <= {"rel0", "rel1"}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("a\trel\tb\nbroken line\n")
        with pytest.raises(ParseError, match=":2:"):
            load_kg(path)

    def test_hash_lines_are_data(self, tmp_path):
        """KG and lexicon files have no comments: a line starting with '#'
        is a row like any other, and a '# note' line is a malformed one.
        "#a<TAB>rel<TAB>b" used to vanish as a comment."""
        path, lexicon = tmp_path / "kg.tsv", tmp_path / "lex.tsv"
        path.write_text("#a\trel\tb\nb\trel\t#y\n")
        lexicon.write_text("#z\tzeta\n")
        kg = load_kg(path, lexicon)
        assert kg.triples == [("#a", "rel", "b"), ("b", "rel", "#y")]
        assert kg.nodes == {"#a", "b", "#y", "#z"}
        path.write_text("a\trel\tb\n  # note\n")
        with pytest.raises(ParseError, match=":2: expected"):
            load_kg(path)

    def test_reserved_relation_rejected(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text(f"a\t{INTERACTION_RELATION}\tb\n")
        with pytest.raises(ParseError, match="reserved"):
            load_kg(path)

    def test_equality_ignores_derived_lookups(self):
        triples = [("a", "rel", "b"), ("b", "rel", "c")]
        used, fresh = (KnowledgeGraph.from_triples(triples, [("a", "alpha")]) for _ in range(2))
        link_entities("alpha beta", used)
        extract_subgraph(used, {"a"}, {"c"})
        assert used._surfaces is not None and used._adjacency is not None
        assert used == fresh

    def test_lexicon_merge(self, tmp_path):
        kg_path = tmp_path / "kg.tsv"
        kg_path.write_text("a\trel\tb\n")
        lex = tmp_path / "lex.tsv"
        lex.write_text("a\tBone Marrow\na\tmarrow\nc\tspleen\na\tmarrow\n")
        kg = load_kg(kg_path, lex)
        assert kg.names["a"] == ["Bone Marrow", "marrow"]
        assert "c" in kg.nodes  # lexicon-only node becomes linkable
        assert kg == KnowledgeGraph.from_triples(
            [("a", "rel", "b")], [("a", "Bone Marrow"), ("a", "marrow"), ("c", "spleen")])


class TestLinkEntities:
    KG = None

    @classmethod
    def setup_class(cls):
        cls.KG = KnowledgeGraph.from_triples(
            [("bm", "rel", "sp")],
            [("bm", "bone marrow"), ("bm", "marrow"), ("sp", "spleen"), ("gp", "gpc6 gene")])

    def test_empty_text(self):
        assert link_entities("", self.KG) == []

    def test_single_mention_span(self):
        text = "inflamed spleen observed"
        (m,) = link_entities(text, self.KG)
        assert m.node == "sp"
        assert text[m.start:m.end] == "spleen"

    def test_longest_match_wins(self):
        """'bone marrow' and 'marrow' both match; the longer span is kept."""
        mentions = link_entities("the bone marrow sample", self.KG)
        assert [m.node for m in mentions] == ["bm"]
        assert mentions[0].end - mentions[0].start == len("bone marrow")

    def test_multiword_casefolding_and_punctuation(self):
        (m,) = link_entities("Mutation of the GPC6/gene cluster", self.KG)
        assert m.node == "gp"

    def test_mentions_never_overlap(self):
        mentions = link_entities("marrow bone marrow marrow", self.KG)
        spans = sorted((m.start, m.end) for m in mentions)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_source_flag(self):
        (m,) = link_entities("spleen", self.KG, source="query")
        assert m.source == "query"

    def test_matches_every_surface_at_every_word(self):
        failures, _ = selftest.check_linking()
        assert failures == []

    def test_surfaces_sharing_a_first_word(self):
        kg = KnowledgeGraph.from_triples([], [("b1", "bone"), ("b2", "bone marrow"),
                                              ("b3", "Bone-Marrow cell")])
        assert kg.first_word_lengths() == {"bone": 3}
        text = "bone marrow cell, bone marrow and bone"
        mentions = link_entities(text, kg)
        assert [(m.node, text[m.start:m.end]) for m in mentions] == [
            ("b3", "bone marrow cell"), ("b2", "bone marrow"), ("b1", "bone")]

    def test_surface_on_two_nodes_links_the_smallest_id(self):
        kg = KnowledgeGraph.from_triples([], [("z9", "spleen"), ("a1", "Spleen")])
        assert [m.node for m in link_entities("the spleen", kg)] == ["a1"]

    def test_surface_of_five_words_is_never_linked(self):
        kg = KnowledgeGraph.from_triples([], [("long", "a b c d e"), ("four", "b c d e")])
        assert kg.first_word_lengths() == {"b": 4}
        assert [m.node for m in link_entities("a b c d e", kg)] == ["four"]

    def test_spans_index_the_given_text_when_lower_lengthens_it(self):
        """'İ'.lower() is two characters; spans still point at the mention."""
        text = "İİ spleen"
        (m,) = link_entities(text, self.KG)
        assert (m.start, m.end, text[m.start:m.end]) == (3, 9, "spleen")
        text = "BONE İ MARROW spleen"
        assert [(m.node, text[m.start:m.end]) for m in link_entities(text, self.KG)] == [
            ("bm", "MARROW"), ("sp", "spleen")]


class TestExtractSubgraph:
    def test_empty_seeds_interaction_only(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b")])
        sub = extract_subgraph(kg, set(), set())
        assert sub.node_ids == [INTERACTION_NODE]
        assert sub.edges == []
        assert sub.provenance == ["interaction"]

    def test_chain_bridge_retained(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "w"), ("w", "r", "b")])
        sub = extract_subgraph(kg, {"a"}, {"b"}, max_nodes=10)
        assert set(sub.node_ids) == {INTERACTION_NODE, "a", "b", "w"}
        flags = dict(zip(sub.node_ids, sub.provenance))
        assert flags["a"] == "query-seed" and flags["b"] == "doc-seed"
        assert flags["w"] == "bridge"

    def test_unknown_seed_rejected(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b")])
        with pytest.raises(ValidationError, match="ghost"):
            extract_subgraph(kg, {"ghost"}, set())

    def test_no_edge_touches_the_interaction_node(self):
        """The model wires the interaction node; a subgraph stores KG edges only."""
        rng = np.random.default_rng(67)
        for _ in range(50):
            kg, nodes = random_kg(rng, max_nodes=25)
            seeds = [str(s) for s in rng.choice(nodes, size=3, replace=False)]
            sub = extract_subgraph(kg, set(seeds[:2]), set(seeds[1:]))
            for s, r, t in sub.edges:
                assert 0 not in (s, t) and r in kg.relations

    def test_capping_never_drops_seed_for_bridge(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            kg, nodes = random_kg(rng, max_nodes=25)
            k = int(rng.integers(1, min(6, len(nodes) + 1)))
            seeds = {str(s) for s in rng.choice(nodes, size=k, replace=False)}
            cap = int(rng.integers(1, 8))
            sub = extract_subgraph(kg, seeds, set(), max_nodes=cap)
            flags = dict(zip(sub.node_ids, sub.provenance))
            retained_seeds = {n for n, f in flags.items() if f in ("both", "query-seed")}
            has_bridge = any(f == "bridge" for f in sub.provenance)
            if has_bridge:
                assert retained_seeds == seeds
            assert len(sub.node_ids) <= cap + 1

    def test_capping_priority_and_tiebreak(self):
        # w2 touches three seeds, w1 two, w0 two; ties break by id ascending
        triples = [("s1", "r", "w2"), ("s2", "r", "w2"), ("s3", "r", "w2"),
                   ("s1", "r", "w1"), ("s2", "r", "w1"),
                   ("s1", "r", "w0"), ("s3", "r", "w0")]
        kg = KnowledgeGraph.from_triples(triples)
        sub = extract_subgraph(kg, {"s1", "s2"}, {"s3"}, max_nodes=5)
        assert sub.node_ids == [INTERACTION_NODE, "s1", "s2", "s3", "w2", "w0"]

    def test_invariant_to_triple_permutation(self, tmp_path):
        rng = np.random.default_rng(61)
        kg, nodes = random_kg(rng)
        lines = [f"{h}\t{r}\t{t}" for h, r, t in kg.triples]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("\n".join(lines) + "\n")
        shuffled = list(lines)
        rng.shuffle(shuffled)
        b.write_text("\n".join(shuffled) + "\n")
        seeds = set(nodes[:3])
        sub_a = extract_subgraph(load_kg(a), seeds, set(), max_nodes=8)
        sub_b = extract_subgraph(load_kg(b), seeds, set(), max_nodes=8)
        assert sub_a == sub_b

    def test_both_provenance(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b")])
        sub = extract_subgraph(kg, {"a"}, {"a", "b"})
        flags = dict(zip(sub.node_ids, sub.provenance))
        assert flags["a"] == "both" and flags["b"] == "doc-seed"
        # both-seeds sort before query-seeds and doc-seeds
        assert sub.node_ids[1] == "a"

    def test_lexicon_only_seed_without_triples(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "w"), ("w", "r", "b")],
                                         [("lonely", "lonely")])
        sub = extract_subgraph(kg, {"a", "lonely"}, {"b"})
        assert sub.node_ids == [INTERACTION_NODE, "a", "lonely", "b", "w"]
        assert sub.provenance == ["interaction", "query-seed", "query-seed", "doc-seed",
                                  "bridge"]
        assert sub.edges == [(1, "r", 4), (4, "r", 3)]


class TestQuerySubgraph:
    @pytest.mark.parametrize("edge", [(1, "rel_a", -1), (4, "rel_a", 1)])
    def test_edge_outside_the_nodes_raises(self, edge):
        sub = selftest.tiny_subgraph()
        with pytest.raises(ValidationError, match="outside"):
            QuerySubgraph(sub.node_ids, sub.provenance, sub.edges + [edge])

    def test_provenance_of_another_length_raises(self):
        with pytest.raises(ValidationError, match="provenance"):
            QuerySubgraph([INTERACTION_NODE, "a"], ["interaction"], [])

    @pytest.mark.parametrize("nodes,provenance,message", [
        ([], [], "node 0 must be"),
        (["n1", "n2", "n3", "n4"], ["interaction", "query-seed", "doc-seed", "bridge"],
         "node 0 must be"),
        ([INTERACTION_NODE, "n1", "n2", "n3"], ["query-seed", "query-seed", "doc-seed", "bridge"],
         "node 0 must be"),
        ([INTERACTION_NODE, "n1", INTERACTION_NODE, "n3"],
         ["interaction", "query-seed", "doc-seed", "bridge"], "which only node 0 is"),
        ([INTERACTION_NODE, "n1", "n2", "n3"], ["interaction", "query-seed", "seed", "bridge"],
         "provenance 'seed'"),
        ([INTERACTION_NODE, "n1", "n2", "n3"],
         ["interaction", "query-seed", "interaction", "bridge"], "provenance 'interaction'"),
    ], ids=["no nodes", "no interaction node", "node 0 of another provenance",
            "second interaction node", "unknown provenance", "second interaction provenance"])
    def test_node_outside_the_shape_raises(self, nodes, provenance, message):
        with pytest.raises(ValidationError, match=message):
            QuerySubgraph(nodes, provenance, [])

    @pytest.mark.parametrize("edge,message", [
        ((0, INTERACTION_RELATION, 1), "outside"), ((2, "rel_a", 0), "outside"),
        ((1, INTERACTION_RELATION, 2), "reserved relation '<int>'"),
        ((1, SELF_RELATION, 1), "reserved relation '<self>'"),
    ], ids=["interaction edge out", "KG edge into node 0", "interaction relation",
            "self-loop"])
    def test_edge_the_model_adds_raises(self, edge, message):
        sub = selftest.tiny_subgraph()
        with pytest.raises(ValidationError, match=message):
            QuerySubgraph(sub.node_ids, sub.provenance, sub.edges + [edge])


class TestNodeEmbeddings:
    def test_same_node_same_seed_same_vector(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b"), ("a", "r", "c")])
        sub1 = extract_subgraph(kg, {"a"}, {"b"})
        sub2 = extract_subgraph(kg, {"c"}, {"a"})
        e1 = init_node_embeddings(sub1, d_g=16)
        e2 = init_node_embeddings(sub2, d_g=16)
        i1 = sub1.node_ids.index("a")
        i2 = sub2.node_ids.index("a")
        np.testing.assert_array_equal(e1[i1], e2[i2])

    def test_interaction_row_left_for_model(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b")])
        sub = extract_subgraph(kg, {"a"}, {"b"})
        emb = init_node_embeddings(sub, d_g=8)
        np.testing.assert_array_equal(emb[0], np.zeros(8))

    def test_memoised_vector_equals_a_fresh_draw(self):
        sub = QuerySubgraph(node_ids=[INTERACTION_NODE, "a", "b", "a"],
                            provenance=["interaction", "query-seed", "doc-seed", "bridge"],
                            edges=[])
        for _ in range(2):  # the second call reads the memo
            emb = init_node_embeddings(sub, d_g=16)
            for i, node in enumerate(sub.node_ids[1:], start=1):
                rng = np.random.default_rng(np.random.SeedSequence([0, _node_key(node)]))
                np.testing.assert_array_equal(emb[i], rng.normal(0.0, 0.02, 16))

    def test_writing_into_result_changes_no_later_result(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b")])
        sub = extract_subgraph(kg, {"a"}, {"b"})
        first = init_node_embeddings(sub, d_g=8)
        kept = first.copy()
        first[:] = 1.0
        np.testing.assert_array_equal(init_node_embeddings(sub, d_g=8), kept)

    def test_norms_concentrate(self):
        """Monte Carlo over 1000 nodes: |v| stays within 20% of 0.02*sqrt(d_g)."""
        sub = QuerySubgraph(node_ids=[INTERACTION_NODE] + [f"x{i}" for i in range(1000)],
                            provenance=["interaction"] + ["bridge"] * 1000, edges=[])
        emb = init_node_embeddings(sub, d_g=200)
        norms = np.linalg.norm(emb[1:], axis=1)
        target = 0.02 * np.sqrt(200)
        assert np.all(norms > 0.8 * target)
        assert np.all(norms < 1.2 * target)


class TestSubgraphCache:
    def test_roundtrip_and_byte_stability(self, tmp_path):
        kg = KnowledgeGraph.from_triples([("a", "r", "w"), ("w", "r", "b")])
        cache = {
            ("q1", "d1"): extract_subgraph(kg, {"a"}, {"b"}),
            ("q1", "d2"): extract_subgraph(kg, {"a"}, set()),
        }
        p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        save_subgraph_cache(p1, cache)
        save_subgraph_cache(p2, cache)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_subgraph_cache(p1)
        assert loaded == cache

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id": "q", "doc_id": "d"}\n')
        with pytest.raises(ParseError):
            load_subgraph_cache(path)
