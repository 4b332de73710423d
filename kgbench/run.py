"""kgrank benchmark: run one workload from a seed and print its metrics.

    python3 kgbench/run.py --workload synth-acceptance --seed 1 --seconds 30 --trace 0

Runs in one fresh process from the root of a source checkout, importing
kgrank from its src/ directory. With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json; with --trace 1 it runs the pipeline once untraced
(the baseline for trace.overhead_ratio) and once traced, and prints the
per-layer metrics. Either way the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The run exits 1 without that
line if the correctness gate or a workload property check fails, and 2 if
kgrank cannot be imported from the checkout.

Artifacts go to .kgbench_work/ in the checkout; the traced run leaves its span
file there. The benchmark never sets KGRANK_THREADS and scores with
rerank_run(workers=1).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have been
# spent (at most SETUP_MAX_REPEATS times); setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_S = 3.0
UNITS = {"setup_s": "s", "pipeline_s": "s", "index_docs_per_s": "docs/s",
         "retrieve_queries_per_s": "queries/s", "subgraph_pairs_per_s": "pairs/s",
         "train_examples_per_s": "examples/s", "rerank_pairs_per_s": "pairs/s",
         "query_ms_p50": "ms", "query_ms_p90": "ms", "ndcg10": "score",
         "peak_rss_mb": "MB"}
# Printed by every run, but carried by the traced run's per-layer set (from
# its untraced pass) rather than bounded: on a shared host their spread across
# seeds exceeded the largest bound BENCHMARK.json allows. The bounded
# pipeline_s and query latencies include the work they time.
PER_LAYER_RATES = {"index_docs_per_s": "corpus.index_docs_per_s",
                   "retrieve_queries_per_s": "corpus.retrieve_queries_per_s",
                   "subgraph_pairs_per_s": "kg.subgraph_pairs_per_s",
                   "train_examples_per_s": "training.train_examples_per_s"}


def environment() -> dict:
    import ctypes
    import numpy as np
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                threads = fn()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "KGRANK_THREADS": os.environ.get("KGRANK_THREADS", "unset"),
            "rerank_workers": 1, "pinned_cpu": sorted(os.sched_getaffinity(0))}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res, inputs, setup_times: list[float]) -> dict[str, float]:
    """The serve-loop rates are medians over served queries of each query's
    own rate, which a short stall of a shared machine moves less than a sum."""
    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": res.pipeline_s,
        "index_docs_per_s": len(inputs.corpus) / res.phases["index"].seconds,
        "retrieve_queries_per_s": 1.0 / statistics.median(res.retrieve_s),
        "subgraph_pairs_per_s": statistics.median(
            n / t for n, t in zip(res.query_pairs, res.extract_s)),
        "train_examples_per_s": res.examples / res.train_s,
        "rerank_pairs_per_s": statistics.median(
            n / t for n, t in zip(res.query_pairs, res.rerank_s)),
        "query_ms_p50": 1000.0 * statistics.median(res.query_s),
        "query_ms_p90": 1000.0 * percentile(res.query_s, 90),
        "ndcg10": statistics.fmean(res.tables["rerank"][q]["ndcg@10"]
                                   for q in inputs.eval_query_ids),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kgrank
    except ImportError as exc:
        print(f"error: cannot import kgrank from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(kgrank.__file__).resolve().parent.parent != src.resolve():
        print(f"error: kgrank imported from {kgrank.__file__}, not {src}", file=sys.stderr)
        return 2

    # Keep the measuring thread on one CPU: on a shared host each move to a
    # CPU that sat idle costs a slow stretch. Library threads (BLAS) exist by
    # now and keep their own placement.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    import gate
    import pipeline
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".kgbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    print(f"workload {workload.name}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    setup_times: list[float] = []
    while not setup_times or (args.trace == 0 and len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S)):
        # each set-up starts from the same heap: the previous inputs freed
        inputs = None
        gc.collect()
        started = time.perf_counter()
        inputs = workloads.setup(workload, args.seed, args.seconds,
                                 work / f"setup{len(setup_times)}")
        setup_times.append(time.perf_counter() - started)
    res = pipeline.run_pipeline(workload, inputs, args.seed, work / "run")

    tracer = None
    if args.trace:
        # the traced pipeline runs on fresh inputs with the untraced one freed,
        # so that both run in the same conditions
        baseline_s, baseline_runs = res.pipeline_s, (res.bm25_run, res.rerank_run)
        baseline = end_to_end(res, inputs, [0.0])
        baseline_rates = {layer: baseline[name] for name, layer in PER_LAYER_RATES.items()}
        res = inputs = None
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                inputs = workloads.setup(workload, args.seed, args.seconds, work / "setup-traced")
            traced = pipeline.run_pipeline(workload, inputs, args.seed, work / "run-traced",
                                           tracer)
            tracer.active = False
            if (traced.bm25_run, traced.rerank_run) != baseline_runs:
                print("FAIL: the traced run's outputs differ from the untraced run's")
                return 1
            res = traced
            tracer.count_tape(res.model, res.pairs, inputs, res.provider)
        finally:
            tracer.uninstall()

    for name, phase in res.phases.items():
        print(f"phase {name}: {phase.seconds:.3f} s, attempted {phase.attempted}, "
              f"failed {phase.failed}")
    props, prop_failures = workloads.properties(workload, inputs, res.loaded_index,
                                                res.pairs, args.seed)
    print("properties " + json.dumps(props, sort_keys=True))
    failures = prop_failures + gate.run_gate(inputs, res, workload.k, args.seed)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1

    if args.trace:
        spans_path = ROOT / ".kgbench_work" / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
        metrics = tracer.metrics(baseline_s, res.pipeline_s, {
            "kg.adjacency_nodes": float(len(inputs.kg.adjacency())),
            "kg.cap_bound_ratio": props["cap_bound_ratio"],
            **baseline_rates,
        })
        units = {name: tracing.unit_of(name) for name in metrics}
        units.update({layer: UNITS[name] for name, layer in PER_LAYER_RATES.items()})
    else:
        metrics = end_to_end(res, inputs, setup_times)
        units = UNITS
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: value for name, value in metrics.items() if name not in PER_LAYER_RATES}
    shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in res.phases.values())
    failed = sum(p.failed for p in res.phases.values())
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
