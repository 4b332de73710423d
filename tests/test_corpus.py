"""Corpus, inverted index, and BM25 retrieval tests.

Every derived expectation here was computed first with the direct-from-
definition oracle in kgrank.oracles and then frozen as a literal.
"""

import math
import re

import numpy as np
import pytest

from kgrank import selftest
from kgrank.corpus import (Document, Query, _corpus_terms, build_index, load_documents,
                           load_qrels, load_queries, retrieve_topk, save_index, load_index,
                           tokenize)
from kgrank.errors import InputError, ParseError, ValidationError
from kgrank.oracles import bm25_direct

FIXTURE_DOCS = [
    Document("d1", "insulin regulates glucose uptake"),
    Document("d2", "glucose metabolism in liver cells"),
    Document("d3", "insulin resistance and type two diabetes"),
    Document("d4", "liver enzymes break down toxins"),
    Document("d5", "cells use glucose for energy energy"),
]

# bm25_direct(tokens, tokenize(query), doc), frozen
FIXTURE_SCORES = {
    ("q1", "d1"): 1.5619191432153046,
    ("q1", "d2"): 0.5476127858243288,
    ("q1", "d3"): 0.8236317726421559,
    ("q1", "d4"): 0.0,
    ("q1", "d5"): 0.5070822342419361,
    ("q2", "d1"): 0.0,
    ("q2", "d2"): 1.7789275941969123,
    ("q2", "d3"): 0.0,
    ("q2", "d4"): 0.8894637970984561,
    ("q2", "d5"): 0.8236317726421559,
    ("q3", "d1"): 0.0,
    ("q3", "d2"): 1.4084553722212745,
    ("q3", "d3"): 0.0,
    ("q3", "d4"): 0.0,
    ("q3", "d5"): 1.8270976372363537,
}
FIXTURE_QUERIES = {"q1": "insulin glucose", "q2": "liver cells", "q3": "energy metabolism"}


def postings_of(index, term: str) -> list[tuple[str, int]]:
    """(doc id, tf) of each posting of term, read from the index arrays."""
    i = index.terms.index(term)
    lo, hi = index.offsets[i], index.offsets[i + 1]
    return [(index.doc_ids[d], tf) for d, tf in zip(index.docs[lo:hi].tolist(),
                                                    index.tfs[lo:hi].tolist())]


def assert_same_index(a, b):
    """Every field equal, arrays in value and dtype."""
    assert (a.doc_ids, a.terms, a.num_docs, a.avg_doc_length) == \
        (b.doc_ids, b.terms, b.num_docs, b.avg_doc_length)
    for name in ("lengths", "offsets", "docs", "tfs"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def direct_scores(docs: list[Document], terms: list[str]) -> dict[str, float]:
    """Every document's BM25 score from the raw-token oracle."""
    tokens = {d.id: tokenize(d.text) for d in docs}
    return {d.id: bm25_direct(tokens, terms, d.id) for d in docs}


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_splits_on_non_alphanumeric(self):
        assert tokenize("CRISPR/Cas9 knockout") == ["crispr", "cas9", "knockout"]
        assert tokenize("GPC6 gene, chromosome 13") == ["gpc6", "gene", "chromosome", "13"]

    def test_deterministic(self):
        text = "Ab-12 c_d  e!!f"
        assert tokenize(text) == tokenize(text)


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert index.num_docs == 0
        assert index.avg_doc_length == 0.0
        assert index.doc_ids == [] and index.terms == []
        assert index.offsets.tolist() == [0]
        assert len(index.lengths) == len(index.docs) == len(index.tfs) == 0

    def test_single_doc_counts(self):
        index = build_index([Document("d", "a a b")])
        assert (index.doc_ids, index.lengths.tolist()) == (["d"], [3])
        assert (index.terms, index.offsets.tolist()) == (["a", "b"], [0, 1, 2])
        assert (index.docs.tolist(), index.tfs.tolist()) == ([0, 0], [2, 1])
        assert (index.lengths.dtype, index.offsets.dtype, index.docs.dtype, index.tfs.dtype) \
            == (np.int64, np.int64, np.int32, np.int32)

    def test_three_doc_corpus_against_hand_count(self):
        """Postings verified term by term against a brute-force recount."""
        docs = [Document("x", "gene therapy gene"), Document("y", "therapy trial"),
                Document("z", "")]
        index = build_index(docs)
        from collections import Counter
        for doc in docs:
            counts = Counter(tokenize(doc.text))
            for term, tf in counts.items():
                assert (doc.id, tf) in postings_of(index, term)
            assert index.lengths[index.doc_ids.index(doc.id)] == len(tokenize(doc.text))
        assert index.terms == ["gene", "therapy", "trial"]
        assert index.doc_ids == ["x", "y", "z"]

    def test_duplicate_id_raises_with_name(self):
        with pytest.raises(ValidationError, match="dup1"):
            build_index([Document("dup1", "a"), Document("dup1", "b")])

    def test_statistics_invariants(self):
        rng = np.random.default_rng(5)
        docs = [Document(f"d{i}", " ".join(rng.choice(["a", "b", "c"], size=rng.integers(0, 6))))
                for i in range(9)]
        index = build_index(docs[::-1])
        assert index.doc_ids == sorted(d.id for d in docs)
        assert abs(index.lengths.sum() / index.num_docs - index.avg_doc_length) < 1e-9
        assert np.all(np.diff(index.offsets) > 0)
        for i in range(len(index.terms)):
            docs_of_term = index.docs[index.offsets[i]:index.offsets[i + 1]]
            assert np.all(np.diff(docs_of_term) > 0)
        assert np.array_equal(np.bincount(index.docs, weights=index.tfs,
                                          minlength=index.num_docs), index.lengths)

    def test_benchmark_views_are_the_old_dicts(self):
        """postings and doc_lengths, the dict views the benchmark reads, hold
        the dicts the index was once stored as."""
        index = build_index(FIXTURE_DOCS)
        assert index.postings == {
            "and": [("d3", 1)], "break": [("d4", 1)], "cells": [("d2", 1), ("d5", 1)],
            "diabetes": [("d3", 1)], "down": [("d4", 1)], "energy": [("d5", 2)],
            "enzymes": [("d4", 1)], "for": [("d5", 1)],
            "glucose": [("d1", 1), ("d2", 1), ("d5", 1)], "in": [("d2", 1)],
            "insulin": [("d1", 1), ("d3", 1)], "liver": [("d2", 1), ("d4", 1)],
            "metabolism": [("d2", 1)], "regulates": [("d1", 1)], "resistance": [("d3", 1)],
            "toxins": [("d4", 1)], "two": [("d3", 1)], "type": [("d3", 1)],
            "uptake": [("d1", 1)], "use": [("d5", 1)]}
        assert index.doc_lengths == {"d1": 4, "d2": 5, "d3": 6, "d4": 5, "d5": 6}

    def test_rebuild_is_bit_identical(self, tmp_path, set_clock):
        """Saves an hour apart give equal bytes: no member carries the clock."""
        index1 = build_index(FIXTURE_DOCS)
        index2 = build_index(FIXTURE_DOCS)
        set_clock(1_700_000_000.0)
        save_index(tmp_path / "a.json", index1)
        set_clock(1_700_003_600.0)
        save_index(tmp_path / "b.json", index2)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert_same_index(load_index(tmp_path / "a.json"), index1)


class TestCorpusWidePass:
    """build_index and build_vocab tokenize the whole corpus in one pass over
    its bytes (corpus._corpus_terms); tokenize() of each text is the oracle."""

    @pytest.mark.parametrize("texts, terms", [
        pytest.param(["abcdefgh 12345678", "abcdefghi 123456789 abcdefgh"],
                     ["12345678", "123456789", "abcdefgh", "abcdefghi"], id="8-and-9-bytes"),
        pytest.param(["abcdefghi abcdefgh", "abcdefgha ABCDEFGH abcdefghi", "abcdefg"],
                     ["abcdefg", "abcdefgh", "abcdefgha", "abcdefghi"], id="shared-8-byte-prefix"),
        pytest.param(["\u212aelvin and \u212a", "\u0130stanbul"],
                     ["and", "i", "k", "kelvin", "stanbul"], id="non-ascii-lowering-to-ascii"),
        pytest.param(["a\ud800b", "c\x00d\ud800", " -, \t\n\u00e9", "\ud800", ""],
                     ["a", "b", "c", "d"], id="surrogate-nul-and-separators-only"),
        pytest.param([], [], id="empty-corpus"),
        pytest.param(["x y x", "x y x", "zzzzzzzzzz y"], ["x", "y", "zzzzzzzzzz"],
                     id="duplicate-texts"),
    ])
    def test_named_cases_match_the_per_document_count(self, texts, terms):
        docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
        assert selftest.index_faults(docs) == []
        assert build_index(docs).terms == terms

    def test_random_corpora_match_the_per_document_count(self):
        failures, _ = selftest.check_index()
        assert failures == []

    def test_tokens_in_corpus_order(self):
        """The kernel's ranks, read back through its terms and cut by its
        counts, are tokenize() of each text, token for token."""
        rng = np.random.default_rng(17)
        for trial in range(100):
            texts = [d.text for d in selftest.index_corpus(rng)]
            terms, ranks, counts = _corpus_terms(texts)
            words = [terms[r] for r in ranks.tolist()]
            ends = np.cumsum(counts).tolist()
            assert [words[lo:hi] for lo, hi in zip([0] + ends, ends)] == \
                [tokenize(text) for text in texts], f"trial {trial}"
            assert (ranks.dtype, counts.dtype) == (np.int64, np.int64)


class TestBm25Score:
    """BM25 scores as retrieve_topk serves them."""

    def test_absent_terms_contribute_zero(self):
        index = build_index(FIXTURE_DOCS)
        assert retrieve_topk(index, Query("q", "insulin zzz glucose qqq")) == \
            retrieve_topk(index, Query("q", "insulin glucose"))

    def test_single_doc_closed_form(self):
        """One doc 'a', query ['a']: idf = ln(4/3) and the tf factor is 1."""
        index = build_index([Document("d", "a")])
        assert retrieve_topk(index, Query("q", "a")) == \
            [("d", pytest.approx(math.log(4 / 3), abs=1e-12))]

    def test_fixture_table_matches_frozen_hand_values(self):
        """The served scores are the frozen table's; zero-score documents
        are absent."""
        index = build_index(FIXTURE_DOCS)
        for qid, text in FIXTURE_QUERIES.items():
            want = {did: score for (q, did), score in FIXTURE_SCORES.items()
                    if q == qid and score > 0}
            got = dict(retrieve_topk(index, Query(qid, text), k=10))
            assert got == pytest.approx(want, abs=1e-6), qid

    def test_duplicated_query_terms_count_per_occurrence(self):
        index = build_index(FIXTURE_DOCS)
        one = dict(retrieve_topk(index, Query("q", "glucose")))
        two = dict(retrieve_topk(index, Query("q", "glucose glucose")))
        assert two == pytest.approx({did: 2 * score for did, score in one.items()})

    def test_monotone_in_tf(self):
        docs = [Document("a", "t x x x"), Document("b", "t t x x"), Document("c", "t t t x")]
        run = retrieve_topk(build_index(docs), Query("q", "t"))
        assert [did for did, _ in run] == ["c", "b", "a"]
        assert run[0][1] > run[1][1] > run[2][1]


class TestRetrieveTopk:
    def test_no_matching_terms_empty(self):
        index = build_index(FIXTURE_DOCS)
        assert retrieve_topk(index, Query("q", "zzz qqq"), k=10) == []

    def test_k1_is_argmax(self):
        index = build_index(FIXTURE_DOCS)
        for qid, text in FIXTURE_QUERIES.items():
            terms = tokenize(text)
            table = direct_scores(FIXTURE_DOCS, terms)
            best = min((d for d, s in table.items() if s == max(table.values())))
            (got, _), = retrieve_topk(index, Query(qid, text), k=1)
            assert got == best

    def test_tied_identical_docs_break_by_id(self):
        docs = [Document("b", "same text"), Document("a", "same text"),
                Document("c", "other words")]
        index = build_index(docs)
        run = retrieve_topk(index, Query("q", "same text"), k=5)
        assert [d for d, _ in run] == ["a", "b"]

    def test_zero_score_docs_excluded(self):
        index = build_index(FIXTURE_DOCS)
        run = retrieve_topk(index, Query("q1", FIXTURE_QUERIES["q1"]), k=100)
        assert all(score > 0 for _, score in run)
        assert "d4" not in {d for d, _ in run}

    def test_argmax_set_stable_after_adding_nonmatching_doc(self):
        """Adding a doc with no query terms shifts every idf by the same
        additive constant, so the argmax set stays put on these instances.
        (Full orderings can legitimately flip through avgdl; the exhaustive
        oracle comparison in kgrank.selftest.check_bm25 is the binding
        invariant.)"""
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(15)]
        for _ in range(200):
            n = int(rng.integers(2, 12))
            docs = [Document(f"d{i}", " ".join(rng.choice(words[:10], size=rng.integers(1, 12))))
                    for i in range(n)]
            terms = list(rng.choice(words[:10], size=int(rng.integers(1, 4))))
            scores = direct_scores(docs, terms)
            argmax = {d for d, s in scores.items() if s == max(scores.values())}
            extra = Document("zz_extra", " ".join(rng.choice(words[10:],
                                                             size=int(rng.integers(1, 12)))))
            scores2 = direct_scores(docs + [extra], terms)
            del scores2[extra.id]
            argmax2 = {d for d, s in scores2.items() if s == max(scores2.values())}
            assert argmax == argmax2

    def test_k_must_be_positive(self):
        index = build_index(FIXTURE_DOCS)
        with pytest.raises(ValidationError):
            retrieve_topk(index, Query("q", "insulin"), k=0)

    def test_empty_index_returns_nothing(self):
        assert retrieve_topk(build_index([]), Query("q", "insulin"), k=3) == []
        assert retrieve_topk(build_index([Document("e", "")]), Query("q", "x"), k=3) == []

    def test_duplicated_query_terms_count_per_occurrence(self):
        index = build_index(FIXTURE_DOCS)
        terms = ["glucose", "glucose", "insulin", "glucose"]
        table = sorted(((did, score) for did, score in direct_scores(FIXTURE_DOCS, terms).items()
                        if score > 0), key=lambda item: (-item[1], item[0]))
        assert retrieve_topk(index, Query("q", " ".join(terms)), k=10) == table

    def test_same_results_after_save_and_load(self, tmp_path):
        index = build_index(FIXTURE_DOCS)
        save_index(tmp_path / "index.json", index)
        loaded = load_index(tmp_path / "index.json")
        for qid, text in FIXTURE_QUERIES.items():
            for k in (1, 2, 10):
                assert retrieve_topk(loaded, Query(qid, text), k=k) == \
                    retrieve_topk(index, Query(qid, text), k=k)

    def test_saved_bytes_survive_load_and_retrieval(self, tmp_path):
        """A built index and its loaded copy save to the same bytes, and
        deriving the impact view on either changes nothing that is saved."""
        built = build_index(FIXTURE_DOCS)
        save_index(tmp_path / "built", built)
        loaded = load_index(tmp_path / "built")
        save_index(tmp_path / "loaded", loaded)
        for index in (built, loaded):
            retrieve_topk(index, Query("q1", FIXTURE_QUERIES["q1"]))
        save_index(tmp_path / "built_used", built)
        save_index(tmp_path / "loaded_used", loaded)
        want = (tmp_path / "built").read_bytes()
        for name in ("loaded", "built_used", "loaded_used"):
            assert (tmp_path / name).read_bytes() == want, name

    def test_impacts_are_read_only(self):
        index = build_index(FIXTURE_DOCS)
        docs, impacts = index.impacts()["glucose"]
        for arr in (docs, impacts, index.lengths, index.offsets, index.docs, index.tfs):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestFileFormats:
    def test_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "first doc"}\n'
                        '{"id": "b", "text": ""}\n', encoding="utf-8")
        docs = load_documents(path)
        assert docs == [Document("a", "first doc"), Document("b", "")]

    def test_corpus_missing_field_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "b"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_documents(path)

    def test_queries_duplicate_id(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"id": "q1", "text": "x"}\n{"id": "q1", "text": "y"}\n',
                        encoding="utf-8")
        with pytest.raises(ParseError, match="q1"):
            load_queries(path)

    @pytest.mark.parametrize("load,name", [(load_documents, "document"), (load_queries, "query")],
                             ids=["documents", "queries"])
    def test_integer_ids_read_as_their_text(self, tmp_path, load, name):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": 7, "text": "x"}\n{"id": "07", "text": "y"}\n', encoding="utf-8")
        assert [(r.id, r.text) for r in load(path)] == [("7", "x"), ("07", "y")]
        path.write_text('{"id": 7, "text": "x"}\n{"id": "7", "text": "y"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=f":2: duplicate {name} id '7'"):
            load(path)

    @pytest.mark.parametrize("load,name", [(load_documents, "document"), (load_queries, "query")],
                             ids=["documents", "queries"])
    @pytest.mark.parametrize("record,message", [
        ('{"id": "a\\u00a0b", "text": "y"}', "{name} id 'a\\xa0b' is not a record field"),
        ('{"id": true, "text": "y"}', "{name} id must be a string or an integer, not True"),
        ('{"id": 1.5, "text": "y"}', "{name} id must be a string or an integer, not 1.5"),
        ('{"id": null, "text": "y"}', "{name} id must be a string or an integer, not None"),
        ('{"id": "b", "text": null}', "{name} text must hold str, not None"),
        ('{"id": "b", "text": ["y"]}', "{name} text must hold str, not ['y']"),
        ('{"id": "b", "text": 5}', "{name} text must hold str, not 5"),
    ], ids=["no-break space", "bool", "float", "null", "null text", "list text", "number text"])
    def test_bad_id_names_its_line(self, tmp_path, load, name, record, message):
        """Documents and queries share one reader and so one set of checks;
        tests/test_cli.py sends the ids "d 1", "" and "#q1" through it. A
        text that is no JSON string used to load as its str(): null as the
        word "None"."""
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + record + "\n", encoding="utf-8")
        where = re.escape(f"{path}:2: {message.format(name=name)}")
        with pytest.raises(InputError, match=f"^{where}"):
            load(path)

    def test_qrels_parsing_with_comments(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("# comment line\nq1 0 d1 2\nq1 0 d2 0\n\nq2 0 d1 1\n",
                        encoding="utf-8")
        qrels = load_qrels(path)
        assert qrels == {("q1", "d1"): 2, ("q1", "d2"): 0, ("q2", "d1"): 1}

    def test_qrels_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1:"):
            load_qrels(path)

    def test_index_persistence_roundtrip(self, tmp_path):
        index = build_index(FIXTURE_DOCS)
        save_index(tmp_path / "index.json", index)
        loaded = load_index(tmp_path / "index.json")
        assert_same_index(loaded, index)
        # impacts identical through the roundtrip
        assert loaded.impacts().keys() == index.impacts().keys()
        for term, (docs, impacts) in index.impacts().items():
            assert np.array_equal(loaded.impacts()[term][0], docs)
            assert np.array_equal(loaded.impacts()[term][1], impacts)

    @pytest.mark.parametrize("docs", [
        [Document("dé-漢", "alpha beta"), Document("d\x00", "beta"), Document("d", "beta gamma"),
         Document("blank", "!! ..")],
        [],
    ], ids=["non-ascii, NUL-ended and term-free documents", "empty corpus"])
    def test_index_roundtrip_keeps_exact_ids(self, tmp_path, docs):
        """Doc ids are stored as UTF-8 bytes: a fixed-width numpy string
        array would drop the trailing NUL of "d\x00" and merge it with "d"."""
        index = build_index(docs)
        save_index(tmp_path / "index.json", index)
        loaded = load_index(tmp_path / "index.json")
        assert_same_index(loaded, index)
        assert loaded.doc_ids == sorted(d.id for d in docs)

    def test_format_1_json_index_asks_for_a_rebuild(self, tmp_path):
        (tmp_path / "old.json").write_text('{"format_version": 1, "postings": {}}')
        with pytest.raises(ParseError, match="format-1 JSON.*rebuild it"):
            load_index(tmp_path / "old.json")
