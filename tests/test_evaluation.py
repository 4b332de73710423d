"""Metric tests: trivial closed cases, the run-level report against the
brute-force oracles, and the ordering-only invariances. The random-instance
oracle comparison is kgrank.selftest.check_metrics (criterion 3)."""

import math

import numpy as np
import pytest

from kgrank.errors import ParseError, ValidationError
from kgrank.evaluation import (average_precision, evaluate_run, format_report,
                               load_run, ndcg_at_k, ranked, recall_at_k, save_report,
                               save_run)
from kgrank.oracles import ap_direct, ndcg_direct, recall_direct


def ranking_of(ids):
    return [(d, float(-i)) for i, d in enumerate(ids)]


def random_case(rng, max_docs=20):
    n = int(rng.integers(1, max_docs))
    ids = [f"d{i}" for i in range(n)]
    rng.shuffle(ids)
    grades = {d: int(rng.integers(0, 4)) for d in ids if rng.random() < 0.6}
    return ids, grades


class TestAveragePrecision:
    def test_all_relevant_on_top(self):
        assert average_precision(ranking_of(["a", "b", "c", "d"]), {"a", "b"}) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision(ranking_of(["x", "r"]), {"r"}) == 0.5

    def test_empty_relevant_set_is_zero(self):
        assert average_precision(ranking_of(["a", "b"]), set()) == 0.0

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValidationError):
            average_precision([("a", 2.0), ("a", 1.0)], {"a"})


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        grades = {"a": 3, "b": 2, "c": 1}
        assert ndcg_at_k(ranking_of(["a", "b", "c", "z"]), grades, k=10) == 1.0

    def test_single_relevant_at_rank_two(self):
        """DCG = 1/log2(3), IDCG = 1."""
        got = ndcg_at_k(ranking_of(["x", "r"]), {"r": 1}, k=10)
        assert got == pytest.approx(1.0 / math.log2(3), abs=1e-4)
        assert got == pytest.approx(0.6309, abs=1e-4)

    def test_no_relevant_docs_is_zero(self):
        assert ndcg_at_k(ranking_of(["a", "b"]), {"a": 0}, k=10) == 0.0

    def test_insensitive_below_cutoff_when_tail_irrelevant(self):
        grades = {"a": 2, "b": 1}
        head = ["a", "b"] + [f"x{i}" for i in range(8)]
        tail1 = [f"y{i}" for i in range(5)]
        tail2 = list(reversed(tail1))
        assert ndcg_at_k(ranking_of(head + tail1), grades, 10) == \
            ndcg_at_k(ranking_of(head + tail2), grades, 10)


class TestRecall:
    def test_all_relevant_in_topk(self):
        r = ranking_of(["a", "b", "c"])
        assert recall_at_k(r, {"a", "b"}, k=5) == 1.0
        assert recall_at_k(r, {"a", "b"}, k=5, capped=True) == 1.0

    def test_capped_denominator(self):
        """150 relevant, k=100, 100 hits: plain 2/3, capped 1.0."""
        relevant = {f"r{i}" for i in range(150)}
        r = ranking_of([f"r{i}" for i in range(100)])
        assert recall_at_k(r, relevant, k=100) == pytest.approx(100 / 150)
        assert recall_at_k(r, relevant, k=100, capped=True) == 1.0

    def test_empty_relevant_is_zero(self):
        assert recall_at_k(ranking_of(["a"]), set(), k=5) == 0.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            ids, grades = random_case(rng)
            relevant = {d for d, g in grades.items() if g > 0}
            values = [recall_at_k(ranking_of(ids), relevant, k) for k in range(1, 20)]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestOrderingOnlyDependence:
    def test_strictly_increasing_transform_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            ids, grades = random_case(rng)
            relevant = {d for d, g in grades.items() if g > 0}
            base = [(d, float(s)) for d, s in zip(ids, sorted(rng.normal(size=len(ids)),
                                                              reverse=True))]
            squashed = [(d, 1.0 / (1.0 + math.exp(-s))) for d, s in base]
            for metric in (lambda r: average_precision(r, relevant),
                           lambda r: ndcg_at_k(r, grades, 10),
                           lambda r: recall_at_k(r, relevant, 10)):
                assert metric(base) == metric(squashed)

    def test_all_metrics_within_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            ids, grades = random_case(rng)
            relevant = {d for d, g in grades.items() if g > 0}
            r = ranking_of(ids)
            for v in (average_precision(r, relevant), ndcg_at_k(r, grades, 10),
                      recall_at_k(r, relevant, 10), recall_at_k(r, relevant, 10, True)):
                assert 0.0 <= v <= 1.0


class TestEvaluateRun:
    def test_single_query_macro_equals_per_query(self):
        run = {"q1": ranking_of(["a", "b"])}
        qrels = {("q1", "a"): 1}
        table = evaluate_run(run, qrels, ["map", "ndcg@10"])
        assert table["all"]["map"] == table["q1"]["map"] == 1.0

    def test_map_is_mean_of_ap(self):
        run = {"q1": ranking_of(["a"]), "q2": ranking_of(["b"])}
        qrels = {("q1", "a"): 1, ("q2", "zzz"): 1}
        table = evaluate_run(run, qrels, ["map"])
        assert table["q1"]["map"] == 1.0
        assert table["q2"]["map"] == 0.0
        assert table["all"]["map"] == 0.5

    def test_unjudged_query_warns_and_scores_zero(self, capsys):
        run = {"q1": ranking_of(["a"]), "qX": ranking_of(["a"])}
        table = evaluate_run(run, {("q1", "a"): 1}, ["map"])
        assert "qX" in capsys.readouterr().err
        assert table["qX"]["map"] == 0.0

    def test_judged_query_missing_from_run_scores_zero(self, capsys):
        run = {"q1": ranking_of(["a"])}
        qrels = {("q1", "a"): 1, ("q2", "b"): 1, ("q3", "c"): 1, ("q4", "d"): 0}
        table = evaluate_run(run, qrels, ["map", "ndcg@10"])
        assert sorted(table) == ["all", "q1", "q2", "q3"]
        assert table["q2"] == table["q3"] == {"map": 0.0, "ndcg@10": 0.0}
        assert table["all"]["map"] == pytest.approx(1 / 3)
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: 2 judged queries without a run line score 0 (first 'q2')"]

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_run({}, {("q", "d"): 1}, ["map"])

    def test_report_matches_oracle_recomputation(self, tmp_path):
        """The per-query table of evaluate_run, reached through metric names
        and qrels grouped by query, against the oracles; the random metric
        instances themselves are kgrank.selftest.check_metrics's."""
        rng = np.random.default_rng(47)
        run, qrels = {}, {}
        for qi in range(6):
            ids, grades = random_case(rng)
            run[f"q{qi}"] = ranking_of(ids)
            for d, g in grades.items():
                qrels[(f"q{qi}", d)] = g
        metrics = ["map", "ndcg@10", "recall@100", "capped_recall@100"]
        table = evaluate_run(run, qrels, metrics)
        for qid in run:
            ids = [d for d, _ in run[qid]]
            grades = {d: g for (q, d), g in qrels.items() if q == qid}
            relevant = {d for d, g in grades.items() if g > 0}
            assert table[qid]["map"] == ap_direct(ids, relevant)
            assert table[qid]["ndcg@10"] == pytest.approx(ndcg_direct(ids, grades, 10), abs=1e-12)
            assert table[qid]["recall@100"] == recall_direct(ids, relevant, 100, False)
            assert table[qid]["capped_recall@100"] == recall_direct(ids, relevant, 100, True)
        save_report(tmp_path / "report.csv", table, metrics)
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "qid,metric,value"
        assert sum(1 for line in lines if line.startswith("all,")) == len(metrics)
        text = format_report(table, metrics)
        assert "macro averages" in text


class TestRunFiles:
    def test_roundtrip_and_rank_numbering(self, tmp_path):
        run = {"q2": [("b", 1.5), ("a", 2.5)], "q1": [("c", 0.25)]}
        save_run(tmp_path / "run.txt", run, tag="test")
        lines = (tmp_path / "run.txt").read_text().strip().splitlines()
        assert lines[0].split() == ["q1", "Q0", "c", "1", "0.25", "test"]
        assert lines[1].split() == ["q2", "Q0", "a", "1", "2.5", "test"]
        loaded = load_run(tmp_path / "run.txt")
        assert loaded["q2"] == [("a", 2.5), ("b", 1.5)]

    def test_ties_written_by_doc_id(self, tmp_path):
        save_run(tmp_path / "run.txt", {"q": [("z", 1.0), ("a", 1.0)]})
        lines = (tmp_path / "run.txt").read_text().strip().splitlines()
        assert [line.split()[2] for line in lines] == ["a", "z"]

    def test_ranked_is_descending_score_then_doc_id(self):
        pairs = [("b", 1.0), ("c", 2.0), ("a", 1.0), ("d", -0.5)]
        assert ranked(pairs) == [("c", 2.0), ("a", 1.0), ("b", 1.0), ("d", -0.5)]
        assert ranked(iter(pairs)) == ranked(reversed(pairs))

    @pytest.mark.parametrize("tag", ["", "#t", "t\n"])
    def test_tag_that_is_not_one_field_rejected(self, tmp_path, tag):
        with pytest.raises(ValidationError, match="run tag .* is not a record field"):
            save_run(tmp_path / "run.txt", {"q": [("d", 1.0)]}, tag=tag)
        assert not (tmp_path / "run.txt").exists()

    def test_duplicate_pair_rejected_on_load(self, tmp_path):
        (tmp_path / "run.txt").write_text("q Q0 d 1 2.0 t\nq Q0 d 2 1.0 t\n")
        with pytest.raises(ParseError, match=r":2: duplicate \(query, doc\) pair \('q', 'd'\)"):
            load_run(tmp_path / "run.txt")

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_rejected_on_load(self, tmp_path, score):
        """A NaN score compares false both ways, so the metrics of a run with
        one followed its line order."""
        (tmp_path / "run.txt").write_text(f"q Q0 a 1 0.5 t\nq Q0 b 2 {score} t\n")
        with pytest.raises(ParseError, match=f":2: non-finite score '{score}'"):
            load_run(tmp_path / "run.txt")

    def test_malformed_line_number(self, tmp_path):
        (tmp_path / "run.txt").write_text("q Q0 d 1 2.0 t\nbroken line\n")
        with pytest.raises(ParseError, match=":2:"):
            load_run(tmp_path / "run.txt")
