"""Knowledge-graph-enriched document re-ranking at desk scale.

Pipeline: BM25 first-stage retrieval over an inverted index, 2-hop subgraph
extraction per query-document pair, a small text+graph encoder-decoder scoring
p(true), trained with a likelihood objective plus a bottleneck KL penalty, and
TREC-style evaluation. Everything differentiable is checkable by finite
differences and every metric by a brute-force oracle; the checks live in
`kgrank.selftest` and run with `kgrank selftest`.
"""

from .corpus import Document, InvertedIndex, Query, build_index, retrieve_topk, tokenize
from .evaluation import (average_precision, evaluate_run, ndcg_at_k,
                         recall_at_k)
from .kg import (KnowledgeGraph, QuerySubgraph, extract_subgraph,
                 init_node_embeddings, link_entities, load_kg)
from .model import ForwardTrace, ModelConfig, RankerModel, kl_gaussian_std_normal
from .tensor import Tensor, backward, finite_diff_check
from .training import Adam, TrainingExample, loss_from_trace, sample_training_set, train_model

__version__ = "0.1.0"

__all__ = [
    "Adam", "Document", "ForwardTrace", "InvertedIndex", "KnowledgeGraph",
    "ModelConfig", "Query", "QuerySubgraph", "RankerModel", "Tensor",
    "TrainingExample", "average_precision", "backward", "build_index",
    "evaluate_run", "extract_subgraph", "finite_diff_check",
    "init_node_embeddings", "kl_gaussian_std_normal", "link_entities",
    "load_kg", "loss_from_trace", "ndcg_at_k", "recall_at_k", "retrieve_topk",
    "sample_training_set", "tokenize", "train_model",
]
