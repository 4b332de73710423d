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

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError
from .fileio import atomic_write, load_arrays, read_jsonl, read_lines, save_arrays

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


class _FlatPostings(NamedTuple):
    """The postings as arrays, documents and terms in sorted order."""

    doc_ids: list[str]
    lengths: np.ndarray  # int64 token count of each document in doc_ids
    terms: list[str]
    sizes: list[int]  # postings per term, in terms order
    docs: np.ndarray  # intp position in doc_ids of each posting, term by term
    tfs: np.ndarray  # int64 tf of each posting


def _flatten(index: InvertedIndex) -> _FlatPostings:
    """One pass over the postings, shared by the impact view and save_index."""
    doc_ids = sorted(index.doc_lengths)
    position = {did: i for i, did in enumerate(doc_ids)}
    terms = sorted(index.postings)
    plists = [index.postings[term] for term in terms]
    sizes = [len(plist) for plist in plists]
    flat = list(itertools.chain.from_iterable(plists))
    docs = np.fromiter(map(position.__getitem__, map(itemgetter(0), flat)),
                       dtype=np.intp, count=len(flat))
    tfs = np.fromiter(map(itemgetter(1), flat), dtype=np.int64, count=len(flat))
    lengths = np.fromiter(map(index.doc_lengths.__getitem__, doc_ids), dtype=np.int64,
                          count=len(doc_ids))
    return _FlatPostings(doc_ids, lengths, terms, sizes, docs, tfs)


def _impact_view(index: InvertedIndex) -> ImpactView:
    """Every posting's impact in one vectorised pass: BM25 (Robertson &
    Zaragoza, 2009) with k1=1.2, b=0.75 and the smoothed non-negative idf
    ln(1 + (N - df + 0.5) / (df + 0.5)), df being the posting-list length.
    The operations follow oracles.bm25_direct in its order, so each impact is
    bit-equal to that oracle's term for the posting."""
    flat = _flatten(index)
    lengths = flat.lengths.astype(np.float64)
    norms = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / index.avg_doc_length) \
        if index.avg_doc_length > 0 else np.full(len(flat.doc_ids), BM25_K1)
    docs, tfs = flat.docs, flat.tfs.astype(np.float64)
    idfs = np.repeat([math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
                      for df in flat.sizes], flat.sizes)
    impacts = idfs * tfs * (BM25_K1 + 1.0) / (tfs + norms[docs])
    docs.flags.writeable = impacts.flags.writeable = False
    ends = np.cumsum(flat.sizes)
    return ImpactView(flat.doc_ids, {term: (docs[end - size:end], impacts[end - size:end])
                                     for term, size, end in zip(flat.terms, flat.sizes, ends)})


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
    for lineno, obj in read_jsonl(path, "corpus"):
        if "id" not in obj or "text" not in obj:
            raise ParseError(f"{path}:{lineno}: missing 'id' or 'text' field")
        if not obj["id"]:
            raise ParseError(f"{path}:{lineno}: empty document id")
        docs.append(Document(id=str(obj["id"]), text=str(obj["text"])))
    return docs


def load_queries(path: str | Path) -> list[Query]:
    queries = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, "queries"):
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
    for lineno, line in read_lines(path, "qrels", comments=True):
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


# An index file is an .npz archive (fileio.save_arrays) of these arrays. Doc
# ids and terms, each list sorted, are stored as their UTF-8 bytes joined,
# with the end offset of each; the postings of terms[i] are entries
# offsets[i]:offsets[i + 1] of docs (positions in the doc ids) and tfs.
INDEX_LAYOUT = {"doc_ids": (np.uint8, 1), "doc_id_ends": (np.int64, 1),
                "doc_lengths": (np.int64, 1), "terms": (np.uint8, 1),
                "term_ends": (np.int64, 1), "offsets": (np.int64, 1),
                "docs": (np.int32, 1), "tfs": (np.int32, 1),
                "num_docs": (np.int64, 0), "avg_doc_length": (np.float64, 0)}


def _pack(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    encoded = [s.encode("utf-8") for s in strings]
    return (np.frombuffer(b"".join(encoded), dtype=np.uint8),
            np.cumsum([len(b) for b in encoded], dtype=np.int64))


def _unpack(path: str | Path, what: str, blob: np.ndarray, ends: np.ndarray) -> list[str]:
    """The strings _pack stored; they must be strictly ascending."""
    if len(ends) and (ends[0] < 0 or np.any(np.diff(ends) < 0) or ends[-1] != len(blob)) \
            or not len(ends) and len(blob):
        raise ParseError(f"{path}: index {what} offsets do not span their bytes")
    data = blob.tobytes()
    bounds = [0, *ends.tolist()]
    try:
        strings = [data[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: index {what} are not UTF-8 ({exc})") from exc
    if any(a >= b for a, b in zip(strings, strings[1:])):
        raise ParseError(f"{path}: index {what} are not strictly ascending")
    return strings


def save_index(path: str | Path, index: InvertedIndex) -> None:
    flat = _flatten(index)
    doc_ids, doc_id_ends = _pack(flat.doc_ids)
    terms, term_ends = _pack(flat.terms)
    save_arrays(path, {
        "doc_ids": doc_ids, "doc_id_ends": doc_id_ends, "doc_lengths": flat.lengths,
        "terms": terms, "term_ends": term_ends,
        "offsets": np.cumsum([0, *flat.sizes], dtype=np.int64),
        "docs": flat.docs.astype(np.int32), "tfs": flat.tfs.astype(np.int32),
        "num_docs": np.array(index.num_docs, dtype=np.int64),
        "avg_doc_length": np.array(index.avg_doc_length, dtype=np.float64)})


def _index_fault(n: int, lengths: np.ndarray, num_docs: int, avg: float, n_terms: int,
                 offsets: np.ndarray, docs: np.ndarray, tfs: np.ndarray) -> str | None:
    """What makes the arrays of an index file inconsistent, or None."""
    if len(lengths) != n or num_docs != n:
        return f"{n} doc ids, {len(lengths)} doc_lengths and num_docs {num_docs} disagree"
    if len(offsets) != n_terms + 1 or offsets[0] != 0 or offsets[-1] != len(docs) \
            or len(tfs) != len(docs):
        return "term offsets do not span the postings"
    if np.any(np.diff(offsets) <= 0):
        return "term offsets are not strictly increasing"
    if len(docs) and (docs.min() < 0 or docs.max() >= n):
        return f"a posting names a document position outside 0..{n - 1}"
    ascending = np.diff(docs) > 0
    ascending[offsets[1:-1] - 1] = True  # a term's first posting follows another term's
    if not ascending.all():
        return "the documents of a term are not in ascending order"
    if len(tfs) and tfs.min() < 1:
        return "a posting has tf < 1"
    if not np.array_equal(np.bincount(docs, weights=tfs, minlength=n), lengths):
        return "the tfs of a document do not sum to its doc_length"
    if avg != (int(lengths.sum()) / n if n else 0.0):
        return f"avg_doc_length {avg} is not the mean doc_length"
    return None


def load_index(path: str | Path) -> InvertedIndex:
    """Read a saved index; a malformed file raises a ParseError naming it."""
    arrays = load_arrays(path, "index", "kgrank index", INDEX_LAYOUT)
    doc_ids = _unpack(path, "doc ids", arrays["doc_ids"], arrays["doc_id_ends"])
    terms = _unpack(path, "terms", arrays["terms"], arrays["term_ends"])
    lengths, offsets, docs, tfs = (arrays[name] for name in ("doc_lengths", "offsets",
                                                             "docs", "tfs"))
    num_docs, avg = int(arrays["num_docs"]), float(arrays["avg_doc_length"])
    fault = _index_fault(len(doc_ids), lengths, num_docs, avg, len(terms), offsets, docs, tfs)
    if fault is not None:
        raise ParseError(f"{path}: {fault}")
    entries = list(zip(np.array(doc_ids, dtype=object)[docs].tolist(), tfs.tolist()))
    bounds = offsets.tolist()
    return InvertedIndex(
        postings={term: entries[lo:hi] for term, lo, hi in zip(terms, bounds, bounds[1:])},
        doc_lengths=dict(zip(doc_ids, lengths.tolist())), avg_doc_length=avg,
        num_docs=num_docs)
