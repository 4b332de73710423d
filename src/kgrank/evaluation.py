"""IR metrics over run files and qrels: MAP, nDCG@k, Recall@k, capped Recall@k.

All metrics depend only on the ordering of the run, never on score magnitudes,
and every function here is pure, so queries may be evaluated concurrently.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from pathlib import Path

from .errors import ParseError, ValidationError
from .fileio import atomic_write, check_field, read_lines

Ranking = list[tuple[str, float]]
Qrels = dict[tuple[str, str], int]

KNOWN_METRICS = ("map", "ndcg@10", "recall@100", "capped_recall@100")


def ranked(pairs: Iterable[tuple[str, float]]) -> Ranking:
    """(doc id, score) pairs by descending score, ties by doc id ascending: the
    order of every ranking (corpus.retrieve_topk gets it from np.lexsort)."""
    return sorted(pairs, key=lambda item: (-item[1], item[0]))


def _check_ranking(ranking: Ranking, k: int = 1) -> None:
    """A ValidationError for a cutoff k below 1 or a document ranked twice."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    seen: set[str] = set()
    for doc_id, _ in ranking:
        if doc_id in seen:
            raise ValidationError(f"duplicate document in ranking: {doc_id!r}")
        seen.add(doc_id)


def average_precision(ranking: Ranking, relevant: set[str]) -> float:
    """Mean of precision@k at each relevant document's rank; 0 if nothing is relevant."""
    _check_ranking(ranking)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, (doc_id, _) in enumerate(ranking, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def ndcg_at_k(ranking: Ranking, grades: dict[str, int], k: int = 10) -> float:
    """Linear-gain nDCG with a log2(rank+1) discount; 0 when no document is relevant."""
    _check_ranking(ranking, k)
    dcg = 0.0
    for rank, (doc_id, _) in enumerate(ranking[:k], start=1):
        dcg += grades.get(doc_id, 0) / math.log2(rank + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    idcg = sum(g / math.log2(rank + 1) for rank, g in enumerate(ideal[:k], start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def recall_at_k(ranking: Ranking, relevant: set[str], k: int = 100,
                capped: bool = False) -> float:
    """Fraction of relevant documents in the top k; the capped variant divides
    by min(k, |relevant|) instead of |relevant|."""
    _check_ranking(ranking, k)
    if not relevant:
        return 0.0
    hits = sum(1 for doc_id, _ in ranking[:k] if doc_id in relevant)
    denom = min(k, len(relevant)) if capped else len(relevant)
    return hits / denom


def metric_function(metric: str) -> Callable[[Ranking, dict[str, int], set[str]], float]:
    """The (ranking, grades, relevant set) -> value function of "map", "ndcg@k",
    "recall@k" or "capped_recall@k" (k in decimal digits), which finds the metric
    function on this module at each call; other names raise a ValidationError."""
    family, _, k = metric.partition("@")
    if metric == "map":
        return lambda ranking, grades, relevant: average_precision(ranking, relevant)
    if k.isascii() and k.isdigit():
        if family == "ndcg":
            return lambda ranking, grades, relevant: ndcg_at_k(ranking, grades, k=int(k))
        if family in ("recall", "capped_recall"):
            return lambda ranking, grades, relevant: recall_at_k(
                ranking, relevant, k=int(k), capped=family == "capped_recall")
    raise ValidationError(f"unknown metric: {metric!r} (map, ndcg@k, recall@k, capped_recall@k)")


def evaluate_run(run: dict[str, Ranking], qrels: Qrels,
                 metrics: tuple[str, ...] | list[str] = KNOWN_METRICS
                 ) -> dict[str, dict[str, float]]:
    """Per-query metric table plus an 'all' row of unweighted macro averages.

    Every query present in the run is evaluated; queries absent from the qrels
    universe score 0 on everything and trigger a warning. A qrels query with a
    relevant document but no run line scores 0 on everything too, with one
    warning for all of them.
    """
    if not metrics:
        raise ValidationError("no metric given (map, ndcg@k, recall@k, capped_recall@k)")
    functions = {m: metric_function(m) for m in metrics}
    if not run:
        raise ValidationError("empty run")
    grades_by_query: dict[str, dict[str, int]] = {}
    for (qid, did), grade in qrels.items():
        grades_by_query.setdefault(qid, {})[did] = grade
    table: dict[str, dict[str, float]] = {}
    for qid in sorted(run):
        if qid not in grades_by_query:
            print(f"warning: query {qid!r} not in qrels; scoring 0", file=sys.stderr)
        grades = grades_by_query.get(qid, {})
        relevant = {did for did, g in grades.items() if g > 0}
        table[qid] = {m: functions[m](run[qid], grades, relevant) for m in metrics}
    missing = sorted(qid for qid, grades in grades_by_query.items()
                     if qid not in run and any(g > 0 for g in grades.values()))
    if missing:
        print(f"warning: {len(missing)} judged queries without a run line score 0 "
              f"(first {missing[0]!r})", file=sys.stderr)
    for qid in missing:
        table[qid] = dict.fromkeys(metrics, 0.0)
    table["all"] = {m: sum(row[m] for row in table.values()) / len(table) for m in metrics}
    return table


# ---------------------------------------------------------------------------
# TREC run files and reports.

def save_run(path: str | Path, run: dict[str, Ranking], tag: str = "kgrank") -> None:
    """Write 'qid Q0 docid rank score tag' lines in ranked order. The tag must
    be one record field (fileio.check_field)."""
    check_field(tag, "run tag")
    lines = []
    for qid in sorted(run):
        for rank, (doc_id, score) in enumerate(ranked(run[qid]), start=1):
            lines.append(f"{qid} Q0 {doc_id} {rank} {score!r} {tag}")
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def load_run(path: str | Path) -> dict[str, Ranking]:
    run: dict[str, Ranking] = {}
    pairs: set[tuple[str, str]] = set()
    for lineno, line in read_lines(path, "run", comments=True):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        qid, _, did, _, score_s, _ = parts
        try:
            score = float(score_s)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric score {score_s!r}") from exc
        if not math.isfinite(score):  # NaN compares false, so metrics would follow line order
            raise ParseError(f"{path}:{lineno}: non-finite score {score_s!r}")
        if (qid, did) in pairs:
            raise ParseError(f"{path}:{lineno}: duplicate (query, doc) pair ({qid!r}, {did!r})")
        pairs.add((qid, did))
        run.setdefault(qid, []).append((did, score))
    return {qid: ranked(ranking) for qid, ranking in run.items()}


def save_report(path: str | Path, table: dict[str, dict[str, float]],
                metrics: list[str]) -> None:
    """CSV report 'qid,metric,value' with an 'all' row per metric."""
    lines = ["qid,metric,value"]
    for qid in sorted(q for q in table if q != "all"):
        for metric in metrics:
            lines.append(f"{qid},{metric},{table[qid][metric]!r}")
    for metric in metrics:
        lines.append(f"all,{metric},{table['all'][metric]!r}")
    atomic_write(path, "\n".join(lines) + "\n")


def format_report(table: dict[str, dict[str, float]], metrics: list[str]) -> str:
    """Human-readable summary of the macro averages plus per-query rows."""
    width = max(len(m) for m in metrics)
    out = ["== macro averages =="]
    for metric in metrics:
        out.append(f"  {metric:<{width}}  {table['all'][metric]:.4f}")
    out.append(f"== {len(table) - 1} queries ==")
    for qid in sorted(q for q in table if q != "all"):
        vals = "  ".join(f"{m}={table[qid][m]:.4f}" for m in metrics)
        out.append(f"  {qid}: {vals}")
    return "\n".join(out)
