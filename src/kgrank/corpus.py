"""Document storage, tokenization, inverted index, and BM25 retrieval.

The index is immutable after build_index. Retrieval scores over an impact
view of it: the documents in id order and, per term, the positions of its
documents and their BM25 impacts idf·tf·(k1+1)/(tf+norm). The view is
derived from the postings on the first retrieve_topk call, cached on the
index and never saved. It is the only BM25 in the package;
oracles.bm25_direct recomputes each score from raw tokens, and
selftest.check_bm25 compares the two. Scoring and retrieval are pure reads,
so concurrent use across queries is safe: two threads that race to derive
the view compute equal arrays, and either one may be kept.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

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


class ImpactView(NamedTuple):
    """The index as arrays: doc_ids in sorted order, and per term the
    positions of its documents in doc_ids (ascending) with their impacts.
    The arrays are read-only."""

    doc_ids: list[str]
    terms: dict[str, tuple[np.ndarray, np.ndarray]]


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
    # derived from the fields above on first use, reused across queries
    _impacts: ImpactView | None = field(default=None, compare=False, repr=False)

    def impacts(self) -> ImpactView:
        if self._impacts is None:
            self._impacts = _impact_view(self)
        return self._impacts


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


def _impact_view(index: InvertedIndex) -> ImpactView:
    """Every posting's impact in one vectorised pass: BM25 (Robertson &
    Zaragoza, 2009) with k1=1.2, b=0.75 and the smoothed non-negative idf
    ln(1 + (N - df + 0.5) / (df + 0.5)), df being the posting-list length.
    The operations follow oracles.bm25_direct in its order, so each impact is
    bit-equal to that oracle's term for the posting."""
    doc_ids = sorted(index.doc_lengths)
    position = {did: i for i, did in enumerate(doc_ids)}
    lengths = np.array([index.doc_lengths[did] for did in doc_ids], dtype=np.float64)
    norms = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / index.avg_doc_length) \
        if index.avg_doc_length > 0 else np.full(len(doc_ids), BM25_K1)
    plists = list(index.postings.values())
    sizes = [len(plist) for plist in plists]
    total = sum(sizes)
    docs = np.fromiter((position[did] for plist in plists for did, _ in plist),
                       dtype=np.intp, count=total)
    tfs = np.fromiter((tf for plist in plists for _, tf in plist),
                      dtype=np.float64, count=total)
    idfs = np.repeat([math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
                      for df in sizes], sizes)
    impacts = idfs * tfs * (BM25_K1 + 1.0) / (tfs + norms[docs])
    docs.flags.writeable = impacts.flags.writeable = False
    ends = np.cumsum(sizes)
    return ImpactView(doc_ids, {term: (docs[end - size:end], impacts[end - size:end])
                                for term, size, end in zip(index.postings, sizes, ends)})


def retrieve_topk(index: InvertedIndex, query: Query, k: int = 100) -> list[tuple[str, float]]:
    """Top-k documents with positive BM25 score, ties broken by doc id ascending.

    Each query-term occurrence adds its term's impacts into one score array
    (index.impacts()); a document occurs once per term, so every score is
    the sum oracles.bm25_direct forms from raw tokens, in its order, and
    bit-equal to it (selftest.check_bm25 compares the two). The cost is
    the query's postings plus one pass over the documents, never the whole
    index. Only the documents tied with the k-th score or above it are sorted.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    view = index.impacts()
    scores = np.zeros(len(view.doc_ids))
    for term in tokenize(query.text):
        entry = view.terms.get(term)
        if entry is not None:
            docs, impacts = entry
            scores[docs] += impacts
    hits = np.flatnonzero(scores > 0.0)
    top = scores[hits]
    if len(hits) > k:
        kth = np.partition(top, len(top) - k)[len(top) - k]
        keep = top >= kth
        hits, top = hits[keep], top[keep]
    order = np.lexsort((hits, -top))[:k]
    return [(view.doc_ids[i], s) for i, s in zip(hits[order].tolist(), top[order].tolist())]


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
        index = InvertedIndex(postings=postings,
                              doc_lengths={k: int(v) for k, v in payload["doc_lengths"].items()},
                              avg_doc_length=float(payload["avg_doc_length"]),
                              num_docs=int(payload["num_docs"]))
    except KeyError as exc:
        raise ParseError(f"{path}: index has no {exc.args[0]!r} field") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed index ({exc})") from exc
    unknown = next(((term, did) for term, plist in postings.items() for did, _ in plist
                    if did not in index.doc_lengths), None)
    if unknown is not None:
        raise ParseError(f"{path}: postings of {unknown[0]!r} name document {unknown[1]!r}, "
                         f"which is not in doc_lengths")
    return index
