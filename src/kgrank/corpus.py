"""Document storage, tokenization, inverted index, and BM25 retrieval.

tokenize() splits one text. build_index and model.build_vocab instead
tokenize the whole corpus in one numpy pass over its bytes (_corpus_terms),
which gives the words tokenize() gives; oracles.postings_direct counts each
document's tokenize() tokens and selftest.check_index compares the two.

The index is the arrays of its file (INDEX_LAYOUT), held as they are stored:
build_index makes them, save_index writes them and load_index reads and
checks them; nothing converts between forms. It is immutable after it is
made. Retrieval scores over an impact view of it: per term, the positions of
its documents and their BM25 impacts idf·tf·(k1+1)/(tf+norm). The view is
derived from the arrays on the first retrieve_topk call, cached on the index
and never saved. It is the only BM25 in the package; oracles.bm25_direct
recomputes each score from raw tokens, and selftest.check_bm25 compares the
two. Scoring and retrieval are pure reads, so concurrent use across queries
is safe: two threads that race to derive the view compute equal arrays, and
either one may be kept.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .fileio import (atomic_write, check_field, check_json_type, load_arrays, read_jsonl,
                     read_lines, save_arrays)

BM25_K1 = 1.2
BM25_B = 0.75

WORD_RE = re.compile(r"[a-z0-9]+")  # a word of lowercased text, for tokenize and kg
# the bytes of WORD_RE's words, for _corpus_terms
WORD_BYTES = np.array([WORD_RE.fullmatch(chr(b)) is not None for b in range(256)])


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str


@dataclass(eq=False)  # arrays have no ==; compare the saved bytes instead
class InvertedIndex:
    """The postings as arrays, documents and terms in sorted order. The
    postings of terms[i] are entries offsets[i]:offsets[i + 1] of docs and
    tfs. The arrays are read-only."""

    doc_ids: list[str]  # sorted
    lengths: np.ndarray  # int64 token count of each document in doc_ids
    terms: list[str]  # sorted
    offsets: np.ndarray  # int64, len(terms) + 1 of them
    docs: np.ndarray  # int32 position in doc_ids of each posting, ascending within a term
    tfs: np.ndarray  # int32 tf of each posting
    num_docs: int
    avg_doc_length: float
    # derived from the fields above on first use, reused across queries
    _impacts: dict[str, tuple[np.ndarray, np.ndarray]] | None = \
        field(default=None, init=False, repr=False)
    _postings: dict[str, list[tuple[str, int]]] | None = \
        field(default=None, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.lengths, self.offsets, self.docs, self.tfs):
            arr.flags.writeable = False

    def impacts(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term -> (its documents' positions in doc_ids, their impacts)."""
        if self._impacts is None:
            self._impacts = _impact_view(self)
        return self._impacts

    @property
    def postings(self) -> dict[str, list[tuple[str, int]]]:
        """term -> [(doc id, tf), ...] in doc id order, built on first use.
        Only the benchmark (kgbench) reads this view and doc_lengths; both go
        when ROADMAP item 1 stops it reading them."""
        if self._postings is None:
            entries = list(zip(np.array(self.doc_ids, dtype=object)[self.docs].tolist(),
                               self.tfs.tolist()))
            bounds = self.offsets.tolist()
            self._postings = {term: entries[lo:hi]
                              for term, lo, hi in zip(self.terms, bounds, bounds[1:])}
        return self._postings

    @property
    def doc_lengths(self) -> dict[str, int]:
        """doc id -> token count, for every document (term-free ones too);
        a view for the benchmark only, as postings is."""
        return dict(zip(self.doc_ids, self.lengths.tolist()))


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    return WORD_RE.findall(text.lower())


def _corpus_terms(texts: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """tokenize() over all the texts at once: (the sorted distinct terms, the
    int64 rank in them of every token in corpus order, the int64 token count
    of each text).

    The lowercased texts are encoded, joined by a space into one buffer and
    split where WORD_BYTES starts and stops; a non-ASCII character encodes
    to bytes >= 0x80 and so separates words, as in WORD_RE. A token of up to
    8 bytes is keyed by those bytes read as a big-endian uint64 with the
    bytes past its end zeroed, which orders keys as the words sort, so one
    sort of the keys ranks every token. A longer token shares its key with
    its 8-byte prefix; it is ranked through its word and merged in."""
    encoded = [text.lower().encode("utf-8", "surrogatepass") for text in texts]
    # " text0 text1 ... " and 8 bytes of slack for the last key; text i ends
    # before position text_ends[i]
    text_ends = 1 + np.cumsum([len(b) + 1 for b in encoded], dtype=np.int64)
    data = b" ".join([b"", *encoded, bytes(8)])
    del encoded
    word = WORD_BYTES[np.frombuffer(data, dtype=np.uint8)]
    starts = np.flatnonzero(word[1:] > word[:-1]) + 1
    stops = np.flatnonzero(word[1:] < word[:-1]) + 1
    del word
    counts = np.diff(np.searchsorted(starts, text_ends), prepend=0)
    sizes = stops - starts
    # every byte offset of data read as a big-endian uint64, through a stride-1 view
    keys = np.ndarray(len(data) - 7, dtype=">u8", buffer=data, strides=(1,))[starts] \
        .astype(np.uint64)
    shift = (8 - np.minimum(sizes, 8)).astype(np.uint64) << np.uint64(3)
    keys >>= shift
    keys <<= shift
    long = sizes > 8
    words = [data[lo:hi].decode("ascii")
             for lo, hi in zip(starts[long].tolist(), stops[long].tolist())]
    del data, starts, stops, sizes, shift  # before the sort's temporaries
    unique, ranks = np.unique(keys, return_inverse=True)
    del keys
    # the keys of short terms: those that not only long tokens have
    short = np.bincount(ranks, minlength=len(unique)) \
        > np.bincount(ranks[long], minlength=len(unique))
    long_terms = sorted(set(words))
    # a long term sorts after every short term whose key is <= its prefix's
    before = np.searchsorted(unique[short], np.array([int.from_bytes(w[:8].encode(), "big")
                                                      for w in long_terms], dtype=np.uint64),
                             side="right")
    # the position of each short term among all terms, at its key's index
    at_short = np.cumsum(short) - 1
    at_short += np.searchsorted(before, at_short, side="right")
    ranks = at_short[ranks]
    at = dict(zip(long_terms, (before + np.arange(len(long_terms))).tolist()))
    ranks[long] = [at[w] for w in words]
    return sorted(_key_words(unique[short]) + long_terms), ranks, counts


def _key_words(keys: np.ndarray) -> list[str]:
    """The words of _corpus_terms keys of short tokens."""
    return keys.astype(">u8").view("S8").astype("U8").tolist()


def build_index(corpus: list[Document]) -> InvertedIndex:
    """Build an inverted index; rebuilding from the same corpus is bit-identical."""
    ordered = sorted(corpus, key=lambda doc: doc.id)
    for doc, after in zip(ordered, ordered[1:]):
        if doc.id == after.id:
            raise ValidationError(f"duplicate document id: {doc.id!r}")
    n = len(ordered)
    terms, ranks, lengths = _corpus_terms([doc.text for doc in ordered])
    # one key per token, ordered by (term rank, doc position); a key's tf is its count
    keys, tfs = np.unique(ranks * n + np.repeat(np.arange(n), lengths), return_counts=True)
    term_of, docs = np.divmod(keys, max(n, 1))
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(terms)), out=offsets[1:])
    return InvertedIndex([doc.id for doc in ordered], lengths, terms, offsets,
                         docs.astype(np.int32), tfs.astype(np.int32),
                         n, int(lengths.sum()) / n if n else 0.0)


def _impact_view(index: InvertedIndex) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every posting's impact in one vectorised pass: BM25 (Robertson &
    Zaragoza, 2009) with k1=1.2, b=0.75 and the smoothed non-negative idf
    ln(1 + (N - df + 0.5) / (df + 0.5)), df being the posting-list length.
    The operations follow oracles.bm25_direct in its order, so each impact is
    bit-equal to that oracle's term for the posting."""
    lengths = index.lengths.astype(np.float64)
    norms = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / index.avg_doc_length) \
        if index.avg_doc_length > 0 else np.full(len(index.doc_ids), BM25_K1)
    docs, tfs = index.docs.astype(np.intp), index.tfs.astype(np.float64)
    sizes = np.diff(index.offsets)
    idfs = np.repeat([math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
                      for df in sizes.tolist()], sizes)
    impacts = idfs * tfs * (BM25_K1 + 1.0) / (tfs + norms[docs])
    docs.flags.writeable = impacts.flags.writeable = False
    bounds = index.offsets.tolist()
    return {term: (docs[lo:hi], impacts[lo:hi])
            for term, lo, hi in zip(index.terms, bounds, bounds[1:])}


def retrieve_topk(index: InvertedIndex, query: Query, k: int = 100) -> list[tuple[str, float]]:
    """Top-k documents with positive BM25 score, in evaluation.ranked order
    (descending score, ties by doc id ascending), which one np.lexsort gives
    here over the arrays.

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
    scores = np.zeros(len(index.doc_ids))
    for term in tokenize(query.text):
        entry = view.get(term)
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
    return [(index.doc_ids[i], s) for i, s in zip(hits[order].tolist(), top[order].tolist())]


# ---------------------------------------------------------------------------
# File formats: JSON-lines corpora/queries, TREC qrels.

def _load_records(path: str | Path, kind: str, record: type) -> list:
    """The records of a JSON-lines file of {"id", "text"} objects. Ids are JSON
    strings or integers, unique, and each one field (fileio.check_field); a
    text is a JSON string."""
    name = record.__name__.lower()
    records = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, kind):
        if "id" not in obj or "text" not in obj:
            raise ParseError(f"{path}:{lineno}: missing 'id' or 'text' field")
        rid = obj["id"]
        if isinstance(rid, bool) or not isinstance(rid, (str, int)):
            raise ParseError(f"{path}:{lineno}: {name} id must be a string or an integer, "
                             f"not {rid!r}")
        rid = check_field(str(rid), f"{path}:{lineno}: {name} id")
        if rid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate {name} id {rid!r}")
        seen.add(rid)
        text = check_json_type(obj["text"], "", f"{path}:{lineno}: {name} text")
        records.append(record(id=rid, text=text))
    return records


def load_documents(path: str | Path) -> list[Document]:
    return _load_records(path, "corpus", Document)


def load_queries(path: str | Path) -> list[Query]:
    return _load_records(path, "queries", Query)


def load_qrels(path: str | Path) -> dict[tuple[str, str], int]:
    """TREC qrels: 'qid 0 docid grade' per line, '#' comments ignored; a
    (query, doc) pair is judged once."""
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
        if (qid, did) in qrels:
            raise ParseError(f"{path}:{lineno}: duplicate (query, doc) pair ({qid!r}, {did!r})")
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
    doc_ids, doc_id_ends = _pack(index.doc_ids)
    terms, term_ends = _pack(index.terms)
    save_arrays(path, {
        "doc_ids": doc_ids, "doc_id_ends": doc_id_ends, "doc_lengths": index.lengths,
        "terms": terms, "term_ends": term_ends, "offsets": index.offsets,
        "docs": index.docs, "tfs": index.tfs,
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
    return InvertedIndex(doc_ids, lengths, terms, offsets, docs, tfs, num_docs, avg)
