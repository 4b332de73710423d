"""Document storage, tokenization, inverted index, and BM25 retrieval.

The index is immutable after build_index; scoring and retrieval are pure
reads, so concurrent use across queries is safe.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .fileio import atomic_write, load_json, read_jsonl

BM25_K1 = 1.2
BM25_B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str


@dataclass
class InvertedIndex:
    """Postings plus the corpus statistics BM25 needs.

    postings maps term -> [(doc_id, tf), ...] sorted by doc_id; doc_lengths
    maps every doc id (including term-free documents) to its token count.
    """

    postings: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    avg_doc_length: float = 0.0
    num_docs: int = 0

    def doc_frequency(self, term: str) -> int:
        return len(self.postings.get(term, []))

    def term_frequency(self, term: str, doc_id: str) -> int:
        for did, tf in self.postings.get(term, []):
            if did == doc_id:
                return tf
        return 0


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


def build_index(corpus: list[Document]) -> InvertedIndex:
    """Build an inverted index; rebuilding from the same corpus is bit-identical."""
    seen: set[str] = set()
    for doc in corpus:
        if doc.id in seen:
            raise ValidationError(f"duplicate document id: {doc.id!r}")
        seen.add(doc.id)

    postings: dict[str, list[tuple[str, int]]] = {}
    doc_lengths: dict[str, int] = {}
    for doc in corpus:
        terms = tokenize(doc.text)
        doc_lengths[doc.id] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((doc.id, tf))
    for plist in postings.values():
        plist.sort(key=lambda entry: entry[0])

    num_docs = len(corpus)
    total = sum(doc_lengths.values())
    avg = total / num_docs if num_docs else 0.0
    return InvertedIndex(postings=postings, doc_lengths=doc_lengths,
                         avg_doc_length=avg, num_docs=num_docs)


def idf(index: InvertedIndex, term: str) -> float:
    """Smoothed non-negative idf: ln(1 + (N - n + 0.5) / (n + 0.5))."""
    n = index.doc_frequency(term)
    return math.log(1.0 + (index.num_docs - n + 0.5) / (n + 0.5))


def bm25_score(index: InvertedIndex, query_terms: list[str], doc_id: str) -> float:
    """BM25 with k1=1.2, b=0.75; duplicated query terms contribute per occurrence."""
    if doc_id not in index.doc_lengths:
        raise KeyError(f"unknown document id: {doc_id!r}")
    doc_len = index.doc_lengths[doc_id]
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / index.avg_doc_length) \
        if index.avg_doc_length > 0 else BM25_K1
    score = 0.0
    for term in query_terms:
        tf = index.term_frequency(term, doc_id)
        if tf == 0:
            continue
        score += idf(index, term) * tf * (BM25_K1 + 1.0) / (tf + norm)
    return score


def retrieve_topk(index: InvertedIndex, query: Query, k: int = 100) -> list[tuple[str, float]]:
    """Top-k documents with positive BM25 score, ties broken by doc id ascending."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    query_terms = tokenize(query.text)
    # Accumulate over postings, term occurrence by term occurrence, so the
    # result is bit-identical to calling bm25_score on each candidate.
    scores: dict[str, float] = {}
    idf_cache: dict[str, float] = {}
    for term in query_terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        if term not in idf_cache:
            idf_cache[term] = idf(index, term)
        term_idf = idf_cache[term]
        for doc_id, tf in plist:
            doc_len = index.doc_lengths[doc_id]
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / index.avg_doc_length)
            scores[doc_id] = scores.get(doc_id, 0.0) + \
                term_idf * tf * (BM25_K1 + 1.0) / (tf + norm)
    ranked = sorted(((d, s) for d, s in scores.items() if s > 0.0),
                    key=lambda item: (-item[1], item[0]))
    return ranked[:k]


# ---------------------------------------------------------------------------
# File formats: JSON-lines corpora/queries, TREC qrels.

def load_documents(path: str | Path) -> list[Document]:
    docs = []
    for lineno, obj in read_jsonl(path):
        if "id" not in obj or "text" not in obj:
            raise ParseError(f"{path}:{lineno}: missing 'id' or 'text' field")
        if not obj["id"]:
            raise ParseError(f"{path}:{lineno}: empty document id")
        docs.append(Document(id=str(obj["id"]), text=str(obj["text"])))
    return docs


def load_queries(path: str | Path) -> list[Query]:
    queries = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        if "id" not in obj or "text" not in obj:
            raise ParseError(f"{path}:{lineno}: missing 'id' or 'text' field")
        qid = str(obj["id"])
        if qid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate query id {qid!r}")
        seen.add(qid)
        queries.append(Query(id=qid, text=str(obj["text"])))
    return queries


def load_qrels(path: str | Path) -> dict[tuple[str, str], int]:
    """TREC qrels: 'qid 0 docid grade' per line, '#' comments ignored."""
    qrels: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            qid, _, did, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer grade {grade_s!r}") from exc
            if grade < 0:
                raise ParseError(f"{path}:{lineno}: negative grade {grade}")
            qrels[(qid, did)] = grade
    return qrels


def save_qrels(path: str | Path, qrels: dict[tuple[str, str], int]) -> None:
    lines = [f"{qid} 0 {did} {grade}" for (qid, did), grade in sorted(qrels.items())]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def save_index(path: str | Path, index: InvertedIndex) -> None:
    payload = {
        "format_version": 1,
        "num_docs": index.num_docs,
        "avg_doc_length": index.avg_doc_length,
        "doc_lengths": index.doc_lengths,
        "postings": {term: [[did, tf] for did, tf in plist]
                     for term, plist in index.postings.items()},
    }
    atomic_write(path, json.dumps(payload, sort_keys=True, ensure_ascii=False))


def load_index(path: str | Path) -> InvertedIndex:
    """Read a saved index; a malformed file raises a ParseError naming it."""
    payload = load_json(path, "index")
    if not isinstance(payload, dict) or payload.get("format_version") != 1:
        raise ParseError(f"{path}: unsupported index format_version")
    try:
        postings = {term: [(did, int(tf)) for did, tf in plist]
                    for term, plist in payload["postings"].items()}
        return InvertedIndex(postings=postings,
                             doc_lengths={k: int(v) for k, v in payload["doc_lengths"].items()},
                             avg_doc_length=float(payload["avg_doc_length"]),
                             num_docs=int(payload["num_docs"]))
    except KeyError as exc:
        raise ParseError(f"{path}: index has no {exc.args[0]!r} field") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed index ({exc})") from exc
