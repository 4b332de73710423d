"""End-to-end CLI tests over a small generated task.

Runs every subcommand in pipeline order inside a temp directory, then checks
exit codes, idempotence, and the candidate-set contract; sends corrupted and
seeded random mutations of every input through the commands that read them;
runs `kgrank selftest` over stand-in checks and with a planted fault;
resolves the public names; and parses the README walkthrough.
"""

import importlib
import io
import json
import os
import re
import shlex
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

import kgrank
from kgrank import evaluation as ev
from kgrank import selftest
from kgrank.cli import build_parser, main
from kgrank.evaluation import load_run
from kgrank.fileio import save_arrays
from kgrank.kg import INTERACTION_NODE, INTERACTION_RELATION, SELF_RELATION
from kgrank.synth import KNOB_RANGES
from kgrank.training import MAX_EPOCHS

GEN_ARGS = ["--num-queries", "10", "--corpus-size", "200", "--kg-nodes", "120",
            "--decoy-edges", "60"]


def with_first_cache_record(change):
    """A subgraph-cache corruption: change(record) edits the record on line
    1, and the error must name that line."""
    def corrupt(data: bytes) -> bytes:
        first, *rest = data.splitlines(keepends=True)
        record = json.loads(first)
        change(record)
        return json.dumps(record).encode() + b"\n" + b"".join(rest)
    corrupt.lineno = 1
    return corrupt


def first_pair_stored_again(data: bytes) -> bytes:
    """A subgraph-cache corruption: line 2 holds a second record of line 1's
    pair, with the interaction node alone, and the error must name line 2."""
    first, *rest = data.splitlines(keepends=True)
    record = {**json.loads(first), "nodes": [INTERACTION_NODE], "provenance": ["interaction"],
              "edges": []}
    return first + json.dumps(record).encode() + b"\n" + b"".join(rest)


first_pair_stored_again.lineno = 2


def naming(message, corrupt):
    """corrupt, whose error must also say message."""
    corrupt.message = message
    return corrupt


ARCHIVES = ("index.json", "ckpt.json")  # .npz archives, corrupted as bytes


def latin1_on_line(lineno):
    """A byte corruption: Latin-1 "caf\xe9", which is not UTF-8, starts line
    lineno, and the error must name that line."""
    def corrupt(data: bytes) -> bytes:
        lines = data.splitlines(keepends=True)
        lines[lineno - 1] = b"caf\xe9" + lines[lineno - 1]
        return b"".join(lines)
    corrupt.lineno = lineno
    return corrupt


def with_arrays(change):
    """An index or checkpoint corruption: change(arrays) edits the arrays of
    the archive in place, and the result is saved as a valid archive."""
    def corrupt(data: bytes) -> bytes:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files if name != "format_version"}
        change(arrays)
        with tempfile.TemporaryDirectory() as tmp:
            save_arrays(Path(tmp) / "archive", arrays)
            return (Path(tmp) / "archive").read_bytes()
    return corrupt


def swap_first_docs_of_a_term(arrays):
    offsets, docs = arrays["offsets"], arrays["docs"]
    lo = int(offsets[:-1][np.diff(offsets) >= 2][0])
    docs[lo], docs[lo + 1] = docs[lo + 1], docs[lo]


def with_setting(fragment: str, section: str | None = None):
    """A training-config corruption: the JSON members of fragment, such as
    '"lr": 1e999', set at the top level or in the named section."""
    def corrupt(text: str) -> str:
        cfg = json.loads(text)
        (cfg[section] if section else cfg).update(json.loads("{" + fragment + "}"))
        return json.dumps(cfg)
    return corrupt


def nan_score_on_line(lineno):
    """A run corruption: the score of line lineno reads nan, and the error
    must name that line."""
    def corrupt(data: bytes) -> bytes:
        lines = data.splitlines(keepends=True)
        fields = lines[lineno - 1].split(b" ")
        fields[4] = b"nan"
        lines[lineno - 1] = b" ".join(fields)
        return b"".join(lines)
    corrupt.lineno = lineno
    return corrupt


def first_line_repeated(data: bytes) -> bytes:
    """A corpus or qrels corruption: line 2 repeats line 1, so a document id
    or a judged (query, doc) pair recurs there."""
    lines = data.splitlines(keepends=True)
    return b"".join(lines[:1] + lines)


first_line_repeated.lineno = 2


def nan_first_parameter(arrays):
    arrays[min(arrays)].reshape(-1)[0] = np.nan


def saturate_the_decoder(arrays):
    """The true-token logits grow a millionfold, so p(true) rounds to 0 or 1."""
    arrays["dec.out_w"][:, 0] *= 1e6


FORMAT_1_INDEX = json.dumps({"format_version": 1, "num_docs": 0, "avg_doc_length": 0.0,
                             "doc_lengths": {}, "postings": {}})
FORMAT_1_CHECKPOINT = json.dumps({"format_version": 1, "params": {}})


TRAIN_CONFIG = {
    "corpus": "task/corpus.jsonl",
    "queries": "task/queries_train.jsonl",
    "qrels": "task/qrels_train.txt",
    "kg": "task/kg.tsv",
    "lexicon": "task/lexicon.tsv",
    "checkpoint_out": "ckpt.json",
    "model_config_out": "model.json",
    "metrics_out": "metrics.csv",
    "epochs": 1,
    "batch_size": 4,
    "seed": 5,
    "model": {"d_l": 16, "d_g": 8, "heads": 2, "R": 0, "S": 1, "d_z": 4,
              "d_proj": 8, "max_len": 32},
}


def absolute_train_config(root: Path) -> dict:
    """TRAIN_CONFIG with its inputs under root by absolute path; its outputs
    go beside wherever the config is written."""
    return {**TRAIN_CONFIG, **{key: str(root / TRAIN_CONFIG[key])
                               for key in ("corpus", "queries", "qrels", "kg", "lexicon")}}


# The pipeline's input files, by their names under its directory.
INPUTS = ("task/corpus.jsonl", "task/queries.jsonl", "task/qrels_test.txt", "task/kg.tsv",
          "task/lexicon.tsv", "run_bm25.txt", "cache.jsonl", "index.json", "ckpt.json",
          "model.json", "train.json")


def command_argv(command: str, f: dict[str, str], out: Path) -> list[str]:
    """argv of a command that reads the file f[name] for each input it takes."""
    return {"index": ["index", "--corpus", f["task/corpus.jsonl"], "--out", str(out)],
            "retrieve": ["retrieve", "--index", f["index.json"],
                         "--queries", f["task/queries.jsonl"], "--out", str(out)],
            "subgraphs": ["subgraphs", "--kg", f["task/kg.tsv"], "--lexicon", f["task/lexicon.tsv"],
                          "--queries", f["task/queries.jsonl"],
                          "--corpus", f["task/corpus.jsonl"], "--run", f["run_bm25.txt"],
                          "--out", str(out)],
            "train": ["train", "--config", f["train.json"]],
            "rerank": ["rerank", "--checkpoint", f["ckpt.json"], "--model-config", f["model.json"],
                       "--run", f["run_bm25.txt"], "--corpus", f["task/corpus.jsonl"],
                       "--queries", f["task/queries.jsonl"], "--cache", f["cache.jsonl"],
                       "--out", str(out)],
            "eval": ["eval", "--run", f["run_bm25.txt"], "--qrels", f["task/qrels_test.txt"],
                     "--out", str(out)]}[command]


def run_pipeline(root: Path) -> None:
    """Run every subcommand in pipeline order inside root; criteria 8 and 9
    and the frozen pipeline outputs of tests/test_acceptance.py run it too."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["gen", "--out", "task", "--seed", "7", *GEN_ARGS]) == 0
        assert main(["index", "--corpus", "task/corpus.jsonl", "--out", "index.json"]) == 0
        assert main(["retrieve", "--index", "index.json",
                     "--queries", "task/queries_test.jsonl",
                     "--k", "100", "--out", "run_bm25.txt"]) == 0
        assert main(["subgraphs", "--kg", "task/kg.tsv", "--lexicon", "task/lexicon.tsv",
                     "--queries", "task/queries.jsonl", "--corpus", "task/corpus.jsonl",
                     "--run", "run_bm25.txt", "--out", "cache.jsonl"]) == 0
        (root / "train.json").write_text(json.dumps(TRAIN_CONFIG))
        assert main(["train", "--config", "train.json"]) == 0
        assert main(["rerank", "--checkpoint", "ckpt.json", "--model-config", "model.json",
                     "--run", "run_bm25.txt", "--corpus", "task/corpus.jsonl",
                     "--queries", "task/queries.jsonl", "--cache", "cache.jsonl",
                     "--out", "run_rr.txt"]) == 0
        assert main(["eval", "--run", "run_rr.txt", "--qrels", "task/qrels_test.txt",
                     "--out", "report.csv"]) == 0
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run the full pipeline once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    run_pipeline(root)
    return root


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        for name in ("index.json", "run_bm25.txt", "cache.jsonl", "ckpt.json",
                     "model.json", "metrics.csv", "run_rr.txt", "report.csv"):
            assert (pipeline_dir / name).exists(), name

    def test_rerank_preserves_candidate_sets(self, pipeline_dir):
        before = load_run(pipeline_dir / "run_bm25.txt")
        after = load_run(pipeline_dir / "run_rr.txt")
        assert set(before) == set(after)
        for qid in before:
            assert {d for d, _ in before[qid]} == {d for d, _ in after[qid]}

    def test_report_has_macro_rows(self, pipeline_dir):
        lines = (pipeline_dir / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "qid,metric,value"
        assert sum(1 for line in lines if line.startswith("all,")) == 4

    def test_retrieve_rerun_is_byte_identical(self, pipeline_dir):
        out2 = pipeline_dir / "run_bm25_again.txt"
        assert main(["retrieve", "--index", str(pipeline_dir / "index.json"),
                     "--queries", str(pipeline_dir / "task/queries_test.jsonl"),
                     "--k", "100", "--out", str(out2)]) == 0
        assert out2.read_bytes() == (pipeline_dir / "run_bm25.txt").read_bytes()

    def test_rerank_rerun_is_byte_identical(self, pipeline_dir, tmp_path):
        out2 = tmp_path / "run_rr_again.txt"
        assert main(["rerank", "--checkpoint", str(pipeline_dir / "ckpt.json"),
                     "--model-config", str(pipeline_dir / "model.json"),
                     "--run", str(pipeline_dir / "run_bm25.txt"),
                     "--corpus", str(pipeline_dir / "task/corpus.jsonl"),
                     "--queries", str(pipeline_dir / "task/queries.jsonl"),
                     "--cache", str(pipeline_dir / "cache.jsonl"),
                     "--out", str(out2)]) == 0
        assert out2.read_bytes() == (pipeline_dir / "run_rr.txt").read_bytes()

    def test_text_only_model_reranks_without_a_cache(self, pipeline_dir, tmp_path):
        """A text-only model reads no subgraph, so rerank needs no --cache;
        given one, it writes the same run."""
        config = tmp_path / "train.json"
        config.write_text(json.dumps({**absolute_train_config(pipeline_dir),
                                      "model": {**TRAIN_CONFIG["model"], "text_only": True}}))
        assert main(["train", "--config", str(config)]) == 0
        files = {f: str(pipeline_dir / f) for f in INPUTS} | {
            name: str(tmp_path / name) for name in ("ckpt.json", "model.json")}
        argv = command_argv("rerank", files, tmp_path / "run_text.txt")
        del argv[argv.index("--cache"):argv.index("--cache") + 2]
        assert main(argv) == 0
        assert main(command_argv("rerank", files, tmp_path / "run_cached.txt")) == 0
        assert ((tmp_path / "run_text.txt").read_bytes()
                == (tmp_path / "run_cached.txt").read_bytes())

    def test_other_line_ends_and_u2028_read_as_before(self, pipeline_dir, tmp_path):
        """\\r\\n and a lone \\r end a line as \\n does, and U+2028 inside a JSON
        string is text, not a line end: subgraphs and eval over inputs so
        rewritten write the pipeline's cache and report."""
        def rewrite(name, text):
            lines = text.splitlines()  # the pipeline writes \n line ends only
            if name == "task/corpus.jsonl":
                lines = [json.dumps({**doc, "text": doc["text"].replace(" ", "\u2028")},
                                    ensure_ascii=False) for doc in map(json.loads, lines)]
                assert "\u2028" in lines[0]
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_bytes(
                "".join(line + ("\r\n", "\r")[i % 2] for i, line in enumerate(lines)).encode())
        for name in INPUTS:
            if not name.endswith(".json"):
                rewrite(name, (pipeline_dir / name).read_text())
        rewrite("run_rr.txt", (pipeline_dir / "run_rr.txt").read_text())
        files = {name: str(tmp_path / name) for name in INPUTS}
        assert main(command_argv("subgraphs", files, tmp_path / "cache_again.jsonl")) == 0
        assert ((tmp_path / "cache_again.jsonl").read_bytes()
                == (pipeline_dir / "cache.jsonl").read_bytes())
        assert main(command_argv("eval", {**files, "run_bm25.txt": str(tmp_path / "run_rr.txt")},
                                 tmp_path / "report_again.csv")) == 0
        assert ((tmp_path / "report_again.csv").read_bytes()
                == (pipeline_dir / "report.csv").read_bytes())

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask 022", "umask 077"])
    def test_outputs_follow_the_umask(self, pipeline_dir, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            assert main(["index", "--corpus", str(pipeline_dir / "task/corpus.jsonl"),
                         "--out", str(tmp_path / "index.json")]) == 0
        finally:
            os.umask(previous)
        assert (tmp_path / "index.json").stat().st_mode & 0o777 == mode
        assert os.listdir(tmp_path) == ["index.json"]

    def test_eval_of_bm25_run_works(self, pipeline_dir, capsys):
        assert main(["eval", "--run", str(pipeline_dir / "run_bm25.txt"),
                     "--qrels", str(pipeline_dir / "task/qrels_test.txt")]) == 0
        out = capsys.readouterr().out
        assert "macro averages" in out

    def test_judged_query_without_candidates_scores_zero(self, tmp_path, monkeypatch, capsys):
        """q2 has no word, so retrieve writes no line for it; eval used to
        report MAP 1.0 over 1 query."""
        monkeypatch.chdir(tmp_path)
        Path("corpus.jsonl").write_text('{"id": "d1", "text": "glucose"}\n'
                                        '{"id": "d2", "text": "insulin"}\n')
        Path("queries.jsonl").write_text('{"id": "q1", "text": "glucose"}\n'
                                         '{"id": "q2", "text": "???"}\n')
        Path("qrels.txt").write_text("q1 0 d1 1\nq2 0 d2 1\n")
        assert main(["index", "--corpus", "corpus.jsonl", "--out", "index.json"]) == 0
        assert main(["retrieve", "--index", "index.json", "--queries", "queries.jsonl",
                     "--out", "run.txt"]) == 0
        capsys.readouterr()
        assert main(["eval", "--run", "run.txt", "--qrels", "qrels.txt", "--metrics", "map"]) == 0
        captured = capsys.readouterr()
        assert "map  0.5000" in captured.out
        assert "== 2 queries ==" in captured.out
        assert captured.err == "warning: 1 judged queries without a run line score 0 " \
                               "(first 'q2')\n"


class TestErrorHandling:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["index", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_corpus_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        assert main(["index", "--corpus", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    def test_unknown_metric_exits_2(self, pipeline_dir):
        assert main(["eval", "--run", str(pipeline_dir / "run_bm25.txt"),
                     "--qrels", str(pipeline_dir / "task/qrels_test.txt"),
                     "--metrics", "made_up_metric"]) == 2

    @pytest.mark.parametrize("metrics,message", [
        ("map,ndcg@x", "unknown metric: 'ndcg@x'"),
        ("map,ndcg@", "unknown metric: 'ndcg@'"),
        ("map,recall@1.5", "unknown metric: 'recall@1.5'"),
        ("", "no metric given"),
        (" , ", "no metric given"),
    ], ids=["ndcg@x", "ndcg@", "recall@1.5", "empty list", "only separators"])
    def test_metric_without_integer_cutoff_exits_2(self, pipeline_dir, tmp_path, capsys,
                                                   metrics, message):
        """Each of these metric lists used to end in a ValueError traceback."""
        capsys.readouterr()
        assert main(["eval", "--run", str(pipeline_dir / "run_bm25.txt"),
                     "--qrels", str(pipeline_dir / "task/qrels_test.txt"),
                     "--metrics", metrics, "--out", str(tmp_path / "report.csv")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()

    def test_rerank_without_graph_source_exits_2(self, pipeline_dir, tmp_path):
        assert main(["rerank", "--checkpoint", str(pipeline_dir / "ckpt.json"),
                     "--model-config", str(pipeline_dir / "model.json"),
                     "--run", str(pipeline_dir / "run_bm25.txt"),
                     "--corpus", str(pipeline_dir / "task/corpus.jsonl"),
                     "--queries", str(pipeline_dir / "task/queries.jsonl"),
                     "--out", str(tmp_path / "x.txt")]) == 2

    @pytest.mark.parametrize("field,bad_id,message", [
        (2, "no_such_doc", "run document 'no_such_doc' missing from corpus"),
        (0, "no_such_query", "run query 'no_such_query' missing from queries file"),
    ])
    def test_rerank_of_unknown_run_ids_exits_2(self, pipeline_dir, tmp_path, capsys,
                                               field, bad_id, message):
        lines = (pipeline_dir / "run_bm25.txt").read_text().splitlines()
        parts = lines[0].split()
        parts[field] = bad_id
        bad_run = tmp_path / "bad_run.txt"
        bad_run.write_text("\n".join([" ".join(parts)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["rerank", "--checkpoint", str(pipeline_dir / "ckpt.json"),
                     "--model-config", str(pipeline_dir / "model.json"),
                     "--run", str(bad_run),
                     "--corpus", str(pipeline_dir / "task/corpus.jsonl"),
                     "--queries", str(pipeline_dir / "task/queries.jsonl"),
                     "--cache", str(pipeline_dir / "cache.jsonl"),
                     "--out", str(tmp_path / "x.txt")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("command,name,corrupt", [
        ("rerank", "model.json", lambda text: json.dumps({**json.loads(text), "dropout": 0.1})),
        ("rerank", "ckpt.json", lambda data: data[:len(data) // 2]),
        ("rerank", "model.json", lambda text: json.dumps({**json.loads(text), "d_z": 8})),
        ("rerank", "model.json", lambda text: json.dumps({**json.loads(text), "d_proj": 12})),
        ("retrieve", "index.json", lambda data: data[:len(data) // 2]),
        ("retrieve", "index.json", with_arrays(lambda a: a.pop("docs"))),
        ("train", "train.json", lambda text: text[:len(text) // 2]),
        ("train", "train.json", lambda text: json.dumps({**json.loads(text), "epoch": 5})),
        ("train", "train.json", lambda text: json.dumps({**json.loads(text), "max_nodes": 10})),
        ("train", "train.json", lambda text: json.dumps({**json.loads(text), "model": [16]})),
        ("train", "train.json", lambda text: json.dumps({**json.loads(text), "corpus": 5})),
        ("rerank", "cache.jsonl", lambda text: "".join(text.splitlines(keepends=True)[1:])),
        ("retrieve", "index.json", with_arrays(
            lambda a: a["docs"].__setitem__(0, len(a["doc_lengths"])))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r["edges"].append([1, "part_of", len(r["nodes"])]))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r["edges"].append([1, "part_of", -1]))),
        ("rerank", "cache.jsonl", with_first_cache_record(lambda r: r["provenance"].pop())),
        ("rerank", "run_bm25.txt", lambda text: "q1 Q0 d1\n" + text),
        ("eval", "task/qrels_test.txt", lambda text: "q1 0 d1 high\n" + text),
        ("retrieve", "index.json", with_arrays(
            lambda a: a["offsets"].__setitem__(1, a["offsets"][2] + 1))),
        ("retrieve", "index.json", with_arrays(swap_first_docs_of_a_term)),
        ("retrieve", "index.json", with_arrays(
            lambda a: a.__setitem__("tfs", a["tfs"].astype(np.float64)))),
        ("retrieve", "index.json", with_arrays(
            lambda a: a["doc_lengths"].__setitem__(0, a["doc_lengths"][0] + 1))),
        ("retrieve", "index.json", lambda data: FORMAT_1_INDEX.encode()),
        ("rerank", "ckpt.json", lambda data: FORMAT_1_CHECKPOINT.encode()),
        ("rerank", "ckpt.json", with_arrays(nan_first_parameter)),
        ("rerank", "cache.jsonl", latin1_on_line(3)),
        ("rerank", "run_bm25.txt", latin1_on_line(5)),
        ("eval", "task/qrels_test.txt", latin1_on_line(2)),
        ("subgraphs", "task/kg.tsv", latin1_on_line(4)),
        ("subgraphs", "task/lexicon.tsv", latin1_on_line(6)),
        ("train", "train.json", with_setting('"lr": "nan"')),
        ("train", "train.json", with_setting('"lr": 1e999')),
        ("train", "train.json", with_setting('"lr": -1')),
        ("train", "train.json", with_setting('"alpha": NaN', "model")),
        ("train", "train.json", with_setting('"alpha": Infinity', "model")),
        ("train", "train.json", with_setting('"epochs": 2.5')),
        ("train", "train.json", with_setting('"epochs": true')),
        ("train", "train.json", with_setting('"seed": "7"')),
        ("train", "train.json", with_setting('"seed": -1')),
        ("train", "train.json", with_setting('"negatives_per_positive": 1.9')),
        ("train", "train.json", with_setting('"batch_size": 0')),
        ("train", "train.json", with_setting('"d_l": "16"', "model")),
        ("index", "task/corpus.jsonl", first_line_repeated),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r.update(nodes=r["nodes"] + [5], provenance=r["provenance"] + ["bridge"]))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r["edges"].append([1, "part_of", 0.5]))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r["edges"].append([True, "part_of", 1]))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r["edges"].append([0, 7, 0]))),
        ("rerank", "cache.jsonl", with_first_cache_record(lambda r: r.update(query_id=True))),
        ("rerank", "model.json", lambda text: json.dumps({**json.loads(text),
                                                          "node_init_seed": 0})),
        ("eval", "run_bm25.txt", nan_score_on_line(3)),
        ("train", "train.json", with_setting('"max_len": 1000000000000', "model")),
        ("rerank", "model.json", lambda text: json.dumps({**json.loads(text),
                                                          "max_len": 10**12})),
        ("train", "train.json", with_setting(f'"epochs": {MAX_EPOCHS + 1}')),
        ("eval", "task/qrels_test.txt", first_line_repeated),
        ("rerank", "ckpt.json", with_arrays(saturate_the_decoder)),
        ("rerank", "cache.jsonl", first_pair_stored_again),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r.update(nodes=[], provenance=[]))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r.update(nodes=r["nodes"][::-1], provenance=r["provenance"][::-1]))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r["provenance"].__setitem__(1, "seed"))),
        ("rerank", "cache.jsonl", naming(
            "rebuild the cache with `kgrank subgraphs`", with_first_cache_record(
                lambda r: r["edges"].append([0, INTERACTION_RELATION, 1])))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r["edges"].append([1, SELF_RELATION, 1]))),
        ("rerank", "cache.jsonl", with_first_cache_record(
            lambda r: r.update(nodes=r["nodes"] + [INTERACTION_NODE],
                               provenance=r["provenance"] + ["bridge"]))),
        ("rerank", "cache.jsonl", naming("repeats node id", with_first_cache_record(
            lambda r: r.update(nodes=r["nodes"] + [r["nodes"][1]],
                               provenance=r["provenance"] + ["bridge"])))),
    ], ids=["unknown config key", "truncated checkpoint", "checkpoint of another d_z",
            "checkpoint of another d_proj", "truncated index", "index without postings",
            "truncated training config", "misspelt training config key",
            "removed max_nodes training config key", "training config model not an object",
            "training config path not a string", "partial subgraph cache without kg",
            "index posting of an unknown document", "cache edge past the node list",
            "negative cache edge", "cache provenance shorter than its nodes",
            "malformed run line", "malformed qrels line", "non-monotone index term offsets",
            "index documents not ascending within a term", "index tfs of float dtype",
            "index tf sums unequal to doc_lengths", "format-1 JSON index",
            "format-1 JSON checkpoint", "NaN checkpoint parameter",
            "cache line not UTF-8", "run line not UTF-8", "qrels line not UTF-8",
            "KG line not UTF-8", "lexicon line not UTF-8", "lr a string",
            "lr infinite", "lr negative", "alpha NaN", "alpha infinite", "epochs a float",
            "epochs a bool", "seed a string", "seed negative", "negatives_per_positive a float",
            "batch_size zero", "model d_l a string", "repeated document id",
            "cache node id an integer", "cache edge end a float", "cache edge end a bool",
            "cache relation an integer", "cache query id a bool",
            "model config of the removed node_init_seed", "run score NaN",
            "training config model too large to allocate",
            "model config too large to allocate", "epochs above its maximum",
            "repeated qrels pair", "checkpoint that saturates a score",
            "cache pair stored twice", "cache of no nodes",
            "cache first node not the interaction node", "cache provenance unknown",
            "cache interaction edge of the old format", "cache self-loop between KG nodes",
            "cache interaction node at index 2", "cache node listed twice"])
    def test_bad_json_artifact_exits_2(self, pipeline_dir, tmp_path, capsys,
                                       command, name, corrupt):
        """A malformed model config, checkpoint, index, training config,
        subgraph cache, run, qrels, KG or lexicon file, a checkpoint that does
        not fit its config or saturates a score, or a subgraph cache that
        lacks a run pair, exits 2 naming the file, and a line that is not
        UTF-8, repeats a document id, a qrels pair or a cached pair, or holds
        a malformed subgraph-cache record exits 2 naming the file and the
        line, and a corruption with a message says it too.
        Index and checkpoint archives and the line corruptions are made on
        bytes, the rest on text. The training config names its inputs by
        absolute path, so that the copy finds them."""
        bad = tmp_path / Path(name).name
        data = (json.dumps(absolute_train_config(pipeline_dir)).encode() if name == "train.json"
                else (pipeline_dir / name).read_bytes())
        lineno = getattr(corrupt, "lineno", None)
        on_bytes = name in ARCHIVES or lineno is not None
        bad.write_bytes(corrupt(data) if on_bytes else corrupt(data.decode()).encode())
        files = {f: str(pipeline_dir / f) for f in INPUTS} | {name: str(bad)}
        capsys.readouterr()
        assert main(command_argv(command, files, tmp_path / "out.txt")) == 2
        err = capsys.readouterr().err
        assert (str(bad) if lineno is None else f"{bad}:{lineno}: ") in err
        assert getattr(corrupt, "message", "") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("argv,written", [
        (["index", "--corpus", "corpus.jsonl", "--out", "."], "."),
        (["index", "--corpus", "corpus.jsonl", "--out", "corpus.jsonl/index.json"],
         "corpus.jsonl/index.json"),
        (["gen", *GEN_ARGS, "--out", "corpus.jsonl"], "corpus.jsonl/corpus.jsonl"),
    ], ids=["out names a directory", "out under a file", "gen out names a file"])
    def test_bad_output_path_exits_2(self, pipeline_dir, tmp_path, monkeypatch, capsys,
                                     argv, written):
        (tmp_path / "corpus.jsonl").write_bytes((pipeline_dir / "task/corpus.jsonl").read_bytes())
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write {written}: " in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["corpus.jsonl"]

    def test_training_config_path_that_is_a_directory_exits_2(self, pipeline_dir, tmp_path,
                                                              capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({**absolute_train_config(pipeline_dir),
                                      "lexicon": str(tmp_path)}))
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"lexicon file is a directory: {tmp_path}" in err
        assert "Traceback" not in err

    def test_training_config_of_the_removed_subgraph_cache_exits_2(self, pipeline_dir, tmp_path,
                                                                   capsys):
        """train extracts every subgraph from the KG; a cache is read by
        rerank alone."""
        config = tmp_path / "train.json"
        config.write_text(json.dumps({**absolute_train_config(pipeline_dir),
                                      "subgraph_cache": str(pipeline_dir / "cache.jsonl")}))
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{config}: unknown training config key 'subgraph_cache'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("flag", ["--kg", "--lexicon"])
    def test_rerank_of_the_removed_graph_flags_exits_2(self, pipeline_dir, tmp_path, capsys,
                                                       flag):
        """rerank reads its subgraphs from the cache alone."""
        files = {f: str(pipeline_dir / f) for f in INPUTS}
        argv = command_argv("rerank", files, tmp_path / "out.txt") + [flag, files["task/kg.tsv"]]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command,name,record,message", [
        ("index", "task/corpus.jsonl", {"id": "d 1", "text": "x"}, "document id 'd 1'"),
        ("retrieve", "task/queries.jsonl", {"id": "", "text": "x"}, "query id ''"),
        ("retrieve", "task/queries.jsonl", {"id": "#q1", "text": "x"}, "query id '#q1'"),
    ], ids=["document id with a space", "empty query id", "query id starting with #"])
    def test_id_that_is_not_one_run_field_exits_2(self, pipeline_dir, tmp_path, capsys,
                                                  command, name, record, message):
        """Each id on line 2 would not read back from a run file as itself:
        document "d 1" read back as query "Q0", document "1"; a run line of
        query "" lost its first field; query "#q1" read back as a comment."""
        first, *rest = (pipeline_dir / name).read_text().splitlines(keepends=True)
        bad = tmp_path / Path(name).name
        bad.write_text(first + json.dumps(record) + "\n" + "".join(rest))
        files = {f: str(pipeline_dir / f) for f in INPUTS} | {name: str(bad)}
        capsys.readouterr()
        assert main(command_argv(command, files, tmp_path / "out.txt")) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: {message} is not a record field" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command", ["retrieve", "rerank"])
    def test_tag_that_is_not_one_run_field_exits_2(self, pipeline_dir, tmp_path, capsys,
                                                   command):
        """A tag "a b" made a run of 7-field lines, which eval refused."""
        files = {f: str(pipeline_dir / f) for f in INPUTS}
        capsys.readouterr()
        assert main(command_argv(command, files, tmp_path / "out.txt") + ["--tag", "a b"]) == 2
        err = capsys.readouterr().err
        assert "run tag 'a b' is not a record field" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    def test_infeasible_gen_knobs_exit_2(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "t"), "--seed", "1",
                     "--num-queries", "10", "--corpus-size", "50"]) == 2

    @pytest.mark.parametrize("flags,message", [
        (["--num-queries", "-3"], "num_queries must be >= 2, got -3"),
        (["--num-queries", "0"], "num_queries must be >= 2, got 0"),
        (["--decoy-edges", "-1"], "decoy_edges must be >= 0, got -1"),
        (["--decoy-edges", "1000000"], "decoy_edges must be at most the 14490 distinct"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--num-queries", "1"], "num_queries must be >= 2, got 1"),
        (["--train-fraction", "0.5"], "unrecognized arguments: --train-fraction 0.5"),
        (["--corpus-size", "10000000000"], "corpus_size must be <= 200000, got 10000000000"),
        *[(["--" + name.replace("_", "-"), str(high + 1)],
           f"{name} must be <= {high}, got {high + 1}") for name, (_, high) in KNOB_RANGES.items()],
    ], ids=["negative query count", "no queries", "negative decoy count",
            "more decoys than triples", "negative seed", "empty test split",
            "removed design flag", "ten billion documents",
            *[f"{name} above its maximum" for name in KNOB_RANGES]])
    def test_out_of_range_gen_value_exits_2(self, tmp_path, capsys, flags, message):
        """Before its bound, --num-queries -3 never ended, --num-queries 1
        wrote an empty test split, and --corpus-size 10000000000 grew lists
        until memory ran out. The task's design is fixed, so argparse refuses
        its old flags."""
        try:
            code = main(["gen", "--out", str(tmp_path / "t"), "--seed", "1", *GEN_ARGS, *flags])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert not (tmp_path / "t").exists()


# Each input kind, its file and a command that reads it.
FUZZ_KINDS = [("corpus", "task/corpus.jsonl", "index"),
              ("queries", "task/queries.jsonl", "retrieve"),
              ("qrels", "task/qrels_test.txt", "eval"),
              ("KG", "task/kg.tsv", "subgraphs"),
              ("lexicon", "task/lexicon.tsv", "subgraphs"),
              ("run", "run_bm25.txt", "eval"),
              ("subgraph cache", "cache.jsonl", "rerank"),
              ("index", "index.json", "retrieve"),
              ("checkpoint", "ckpt.json", "rerank"),
              ("model config", "model.json", "rerank"),
              ("training config", "train.json", "train")]
FUZZ_TRIALS = 6
NOT_SLASH = [b for b in range(256) if b != ord("/")]


def mutate(data: bytes, rng: np.random.Generator, trial: int) -> bytes:
    """Trial 0 overwrites one byte with 0xff, which UTF-8 never holds; later
    trials replace, insert or delete one byte, truncate, or repeat a line. A
    new byte is never '/', so no path in a training config leaves its
    directory."""
    at = int(rng.integers(len(data)))
    if trial == 0:
        return data[:at] + b"\xff" + data[at + 1:]
    new = bytes([NOT_SLASH[int(rng.integers(len(NOT_SLASH)))]])
    op = int(rng.integers(5))
    if op == 0:
        return data[:at] + new + data[at + 1:]
    if op == 1:
        return data[:at] + new + data[at:]
    if op == 2:
        return data[:at] + data[at + 1:]
    if op == 3:
        return data[:at]
    lines = data.splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    return b"".join(lines[:i + 1] + lines[i:])


class TestFuzz:
    """Seeded byte mutations of every input kind, each sent through a command
    that reads it (random-input testing, Miller et al., 1990)."""

    @pytest.mark.parametrize("kind,name,command", FUZZ_KINDS, ids=[k for k, _, _ in FUZZ_KINDS])
    def test_mutated_input_exits_0_or_2(self, pipeline_dir, tmp_path, capsys,
                                        kind, name, command):
        """Every trial exits 0 or 2. An exception that escapes main, which
        the command line would print as a traceback, fails the test."""
        data = (pipeline_dir / name).read_bytes()
        if name == "train.json":
            data = json.dumps(absolute_train_config(pipeline_dir)).encode()
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        bad = tmp_path / Path(name).name
        files = {f: str(pipeline_dir / f) for f in INPUTS} | {name: str(bad)}
        for trial in range(FUZZ_TRIALS):
            bad.write_bytes(mutate(data, rng, trial))
            code = main(command_argv(command, files, tmp_path / "out"))
            err = capsys.readouterr().err
            assert code in (0, 2), f"{kind} trial {trial}: exit {code}: {err}"
            assert "Traceback" not in err


class TestSelftest:
    def test_every_check_passes(self, monkeypatch, capsys):
        """One [PASS] line per check, then exit 0. The checks themselves run
        in tests/test_acceptance.py (criteria 1-5), so stand-ins take their
        place here."""
        names = [name for name, _ in selftest.CHECKS]
        stand_ins = [(name, lambda i=i: ([], f"stand-in {i}")) for i, name in enumerate(names)]
        monkeypatch.setattr(selftest, "CHECKS", stand_ins)
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        for i, name in enumerate(names):
            assert f"[PASS] {name}: stand-in {i}\n" in out
        assert out.count("[PASS]") == len(names)
        assert "[FAIL]" not in out

    def test_planted_metric_fault_exits_3(self, monkeypatch, capsys):
        ndcg_at_k = ev.ndcg_at_k
        monkeypatch.setattr(ev, "ndcg_at_k",  # cuts off one rank too deep
                            lambda ranking, grades, k: ndcg_at_k(ranking, grades, k + 1))
        failures, _ = selftest.check_metrics()
        assert failures and all("nDCG" in message for message in failures)
        # only the failing check, so the case does not rerun the full suite
        monkeypatch.setattr(selftest, "CHECKS",
                            [("metrics: brute-force agreement", selftest.check_metrics)])
        assert main(["selftest"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] metrics: brute-force agreement: " in out
        assert "[PASS]" not in out


def test_readme_walkthrough_parses():
    """Each `kgrank` command of README's sh blocks, lines continued by a
    backslash joined, parses: the walkthrough runs every stage and names no
    subcommand or flag the CLI lacks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [argv[1:] for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if (argv := shlex.split(line, comments=True))[:1] == ["kgrank"]]
    assert {argv[0] for argv in commands} >= {"gen", "index", "retrieve", "subgraphs", "train",
                                              "rerank", "eval"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: kgrank {shlex.join(argv)}")


def test_public_names_resolve():
    assert [name for name in kgrank.__all__ if not hasattr(kgrank, name)] == []


def test_benchmark_wrapped_names_resolve(monkeypatch):
    """kgbench/tracing.py wraps kgrank functions by name at run time, so a
    rename fails here instead of in the first traced benchmark run; uninstall
    puts every original back."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "kgbench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        installed = list(tracer._installed)
    finally:
        tracer.uninstall()
    assert installed
    originals = {}  # a name wrapped twice keeps its first original
    for owner, attr, original in installed:
        originals.setdefault((owner, attr), original)
    assert all(getattr(owner, attr) is original for (owner, attr), original in originals.items())
