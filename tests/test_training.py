"""Objective, sampling, optimizer, and training-loop tests."""

import math

import numpy as np
import pytest

import kgrank.kg as kgm
import kgrank.tensor as tz
from conftest import tiny_config
from kgrank import selftest
from kgrank.corpus import Document, Query
from kgrank.errors import ComputationError, ConfigurationError, UsageError, ValidationError
from kgrank.kg import INTERACTION_NODE, KnowledgeGraph, QuerySubgraph, empty_subgraph
from kgrank.model import ForwardTrace, RankerModel
from kgrank.oracles import adam_direct
from kgrank.tensor import Tensor, backward, load_checkpoint, save_checkpoint
from kgrank.training import (Adam, SubgraphProvider, TrainingExample,
                             clip_gradients, loss_from_trace, rerank_run,
                             sample_training_set, save_metrics, train_model)


class TestSampleTrainingSet:
    QRELS = {("q1", "d1"): 1, ("q1", "d9"): 0}
    CORPUS = [f"d{i}" for i in range(1, 9)]

    def test_one_positive_two_negatives(self):
        examples = sample_training_set(self.QRELS, self.CORPUS, 2, seed=0)
        assert [e.label for e in examples] == [True, False, False]
        assert examples[0] == TrainingExample("q1", "d1", True)

    def test_zero_negatives(self):
        examples = sample_training_set(self.QRELS, self.CORPUS, 0, seed=0)
        assert examples == [TrainingExample("q1", "d1", True)]

    def test_negatives_never_relevant(self):
        """Exhaustive membership check over 1000 seeded resamples."""
        qrels = {("q1", "d1"): 1, ("q1", "d2"): 2, ("q2", "d3"): 1}
        corpus = [f"d{i}" for i in range(1, 12)]
        relevant = {"q1": {"d1", "d2"}, "q2": {"d3"}}
        for seed in range(1000):
            for ex in sample_training_set(qrels, corpus, 2, seed=seed):
                if not ex.label:
                    assert ex.doc_id not in relevant[ex.query_id]

    def test_corpus_too_small(self):
        with pytest.raises(ValidationError, match="too small"):
            sample_training_set({("q", "d1"): 1}, ["d1", "d2"], 5, seed=0)

    def test_deterministic(self):
        a = sample_training_set(self.QRELS, self.CORPUS, 3, seed=11)
        b = sample_training_set(self.QRELS, self.CORPUS, 3, seed=11)
        assert a == b

    @staticmethod
    def list_reference(qrels, corpus_ids, negatives, seed):
        """Sampling over each query's list of eligible documents, as the
        function was first written."""
        relevant: dict[str, set[str]] = {}
        for (qid, did), grade in qrels.items():
            if grade > 0:
                relevant.setdefault(qid, set()).add(did)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5e6]))
        examples = []
        for qid, did in sorted(k for k, grade in qrels.items() if grade > 0):
            examples.append(TrainingExample(qid, did, True))
            eligible = [d for d in sorted(corpus_ids) if d not in relevant[qid]]
            for i in sorted(rng.choice(len(eligible), size=negatives, replace=False)):
                examples.append(TrainingExample(qid, eligible[i], False))
        return examples

    def test_equals_the_list_reference(self):
        """300 random qrels over shuffled corpora: relevant documents at the
        first and last corpus positions, runs of them, judged documents
        outside the corpus and zero grades."""
        rng = np.random.default_rng(99)
        edges = 0
        for trial in range(300):
            n = int(rng.integers(3, 30))
            corpus = [f"d{i:02d}" for i in range(n)]
            qrels = {}
            for q in range(int(rng.integers(1, 4))):
                picks = rng.choice(n + 2, size=int(rng.integers(1, n)), replace=False)
                for i in picks.tolist():  # d{n}, d{n+1} are not in the corpus
                    qrels[(f"q{q}", f"d{i:02d}")] = int(rng.integers(0, 3))
                qrels[(f"q{q}", corpus[(0, -1)[q % 2]])] = 1
            edges += sum(1 for qid, did in qrels if did in (corpus[0], corpus[-1]))
            rng.shuffle(corpus)
            positives = {}
            for (qid, did), grade in qrels.items():
                positives[qid] = positives.get(qid, 0) + (grade > 0 and did in corpus)
            negatives = int(rng.integers(1, n - max(positives.values()) + 1))
            seed = int(rng.integers(1000))
            assert sample_training_set(qrels, corpus, negatives, seed=seed) == \
                self.list_reference(qrels, corpus, negatives, seed), f"trial {trial}"
        assert edges >= 300


def make_trace(w: Tensor, kl_leaves: list[Tensor]) -> ForwardTrace:
    """A one-pair trace with score logistic(w); differentiable through one leaf."""
    # 1 / (1 + e^-w) is the first entry of softmax([w, 0])
    logits = tz.concat([tz.reshape(w, (1, 1)), Tensor([[0.0]])], axis=1)
    score = tz.reshape(tz.split(tz.softmax(logits), [1, 1], axis=1)[0], (1,))
    return ForwardTrace(score_tensor=score, kl_tensors=[tz.reshape(k * 1.0, (1,))
                                                        for k in kl_leaves])


class TestLoss:
    def test_alpha_zero_is_pure_cross_entropy(self):
        w = Tensor(np.array(0.4))
        trace = make_trace(w, [Tensor(np.array(3.0))])
        loss = loss_from_trace(trace, [True], alpha=0.0, s_layers=1)
        assert loss.item() == pytest.approx(-math.log(trace.score), rel=1e-12)

    def test_half_score_false_label(self):
        """score 0.5, y=false, kl=[0] gives ln 2."""
        w = Tensor(np.array(0.0))
        trace = make_trace(w, [Tensor(np.array(0.0))])
        loss = loss_from_trace(trace, [False], alpha=0.01, s_layers=1)
        assert loss.item() == pytest.approx(math.log(2), rel=1e-12)

    def test_matches_formula_reevaluation(self):
        """Random traces agree with an independent recomputation of
        -ln p(y) + (alpha/S) * sum(kl)."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            w = Tensor(np.array(rng.normal()))
            kls = [Tensor(np.array(rng.uniform(0, 4))) for _ in range(3)]
            label = bool(rng.integers(2))
            alpha = float(rng.uniform(0, 0.2))
            trace = make_trace(w, kls)
            got = loss_from_trace(trace, [label], alpha, 3).item()
            p_y = trace.score if label else 1.0 - trace.score
            expected = -math.log(p_y) + (alpha / 3) * trace.kl_terms.sum()
            assert got == pytest.approx(expected, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            w = Tensor(np.array(rng.normal()))
            trace = make_trace(w, [Tensor(np.array(rng.uniform(0, 2)))])
            label = bool(rng.integers(2))
            assert loss_from_trace(trace, [label], 0.05, 1).item() >= 0.0

    def test_gradient_sign_wrt_score(self):
        """dL/dw and dscore/dw have opposite signs for y=true (pushing the
        score up) and matching signs for y=false."""
        rng = np.random.default_rng(33)
        for _ in range(20):
            w = Tensor(np.array(rng.normal()))
            trace = make_trace(w, [Tensor(np.array(0.5))])
            backward(loss_from_trace(trace, [True], 0.01, 1))
            grad_true = float(w.grad)
            w.zero_grad()
            trace = make_trace(w, [Tensor(np.array(0.5))])
            backward(loss_from_trace(trace, [False], 0.01, 1))
            grad_false = float(w.grad)
            # dscore/dw > 0 for the logistic map
            assert grad_true < 0 < grad_false

    def test_kl_count_checked(self):
        w = Tensor(np.array(0.0))
        trace = make_trace(w, [Tensor(np.array(0.0))])
        with pytest.raises(UsageError):
            loss_from_trace(trace, [True], 0.01, s_layers=2)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]))
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.1)
        p.grad[...] = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_update_approaches_lr_sign(self):
        p = Tensor(np.array([0.0]))
        opt = Adam({"p": p}, lr=1e-3)
        g = np.array([0.37])
        last = p.data.copy()
        for _ in range(300):
            p.grad[...] = g
            opt.step()
            step = last - p.data
            last = p.data.copy()
        assert step[0] == pytest.approx(1e-3, rel=1e-3)

    def test_quadratic_bowl_converges(self):
        """Minimize (p - t)^T diag(1, 10) (p - t); optimum known analytically."""
        target = np.array([0.3, -0.7])
        scales = np.array([1.0, 10.0])
        p = Tensor(np.zeros(2))
        opt = Adam({"p": p}, lr=3e-2)
        for _ in range(500):
            p.grad[...] = 2 * scales * (p.data - target)
            opt.step()
        assert np.abs(p.data - target).max() < 1e-3

    def test_first_steps_match_the_scalar_oracle(self):
        """Five steps with gradients of varied sign and scale, where bias
        correction and eps both matter, against Algorithm 1 of Kingma & Ba
        (2015) run one scalar at a time."""
        rng = np.random.default_rng(17)
        shapes = {"a": (2, 3), "b": (4,)}
        params = {name: Tensor(rng.normal(size=shape))
                  for name, shape in shapes.items()}
        start = {name: p.data.ravel().tolist() for name, p in params.items()}
        grads = {name: [rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 1, size=shape)
                        for _ in range(5)] for name, shape in shapes.items()}
        opt = Adam(params, lr=1e-2)
        got = {name: [] for name in params}
        for step in range(5):
            for name, p in params.items():
                p.grad[...] = grads[name][step]
            opt.step()
            for name, p in params.items():
                got[name].append(p.data.ravel().tolist())
        for name in params:
            want = adam_direct(start[name], [g.ravel().tolist() for g in grads[name]], lr=1e-2)
            np.testing.assert_allclose(got[name], want, rtol=0, atol=1e-12)

    def test_nan_gradient_aborts_with_name(self):
        p = Tensor(np.array([1.0]))
        opt = Adam({"weight.a": Tensor(np.zeros(2)), "weight.q": p})
        p.grad[...] = float("nan")
        with pytest.raises(ComputationError, match="weight.q"):
            opt.step()

    def test_clip_gradients_caps_global_norm(self):
        a = Tensor(np.zeros(3))
        b = Tensor(np.zeros(4))
        opt = Adam({"a": a, "b": b})
        a.grad[...] = 10.0
        b.grad[...] = -10.0
        norm = clip_gradients(opt.grad)
        assert norm == pytest.approx(10 * math.sqrt(7))
        total = float((a.grad ** 2).sum() + (b.grad ** 2).sum())
        assert math.sqrt(total) == pytest.approx(1.0, rel=1e-12)

    def test_clip_leaves_small_gradients_alone(self):
        a = Tensor(np.zeros(2))
        opt = Adam({"a": a})
        a.grad[...] = [0.1, 0.2]
        clip_gradients(opt.grad)
        np.testing.assert_array_equal(a.grad, [0.1, 0.2])


def tiny_task():
    """Four-query task with linkable entities and a bridged pair per query."""
    docs, queries, qrels, triples, lexicon = [], [], {}, [], []
    for i in range(4):
        a, w, b = f"na{i}", f"nw{i}", f"nb{i}"
        lexicon += [(a, f"enta{i}"), (w, f"entw{i}"), (b, f"entb{i}")]
        triples += [(a, "rel_a", w), (w, "rel_b", b)]
        queries.append(Query(f"q{i}", f"find entity enta{i} topic{i}"))
        docs.append(Document(f"d{i}_rel", f"entb{i} topic{i} filler words"))
        docs.append(Document(f"d{i}_noise", f"plain text body {i}"))
        qrels[(f"q{i}", f"d{i}_rel")] = 1
    return docs, queries, qrels, KnowledgeGraph.from_triples(triples, lexicon)


def frozen_step():
    """One three-pair training step of the tiny model with fixed noise: two
    queries, prompts of 9, 6 and 13 tokens, and subgraphs of three, zero and
    two nodes besides the interaction node."""
    model = selftest.tiny_model()
    two_nodes = QuerySubgraph(
        node_ids=[INTERACTION_NODE, "n1", "n2"], provenance=["interaction", "query-seed", "doc-seed"],
        edges=[(1, "rel_b", 2)])
    queries = [Query("q1", "alpha beta"), Query("q2", "delta"), Query("q1", "alpha beta")]
    docs = [Document("d1", "gamma delta alpha"), Document("d2", "beta"),
            Document("d3", "epsilon gamma gamma delta beta alpha zeta")]
    subgraphs = [selftest.tiny_subgraph(), empty_subgraph(), two_nodes]
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(len(docs), model.cfg.S, model.cfg.d_z))
    return model, queries, docs, subgraphs, [True, False, True], noise


# The loss of frozen_step and the L2 norm of each parameter's gradient, in
# sorted parameter order, computed by running each pair through a tape of its
# own and averaging the three losses.
FROZEN_STEP_LOSS = 2.473513231866013
FROZEN_GRAD_NORMS = [
    8.672490221775738e-17, 1.0268907425014917, 0.22244503914773792, 1.1324910737704341,
    0.6396375036503955, 2.39159818066379, 0.8897753465719332, 3.370433469509974,
    0.7419701166340559, 0.9605273204518788, 2.896863585716007, 2.991650427795837,
    1.0089014051176128, 1.025229995763792, 0.2082402358862926, 0.22702882261384408,
    0.4890217022541566, 0.3751535971667133, 0.9105597460640346, 4.452006857651425, 0.0,
    1.0574608666989405, 0.0, 1.2310599091663017, 0.0, 5.48655982654086, 0.0, 4.921873579576347,
    8.948079010107133, 5.250004749894643e-17, 2.4948031915879834, 0.6676776080971953,
    2.2686379194105775, 1.5746048758264104, 2.424711306209286, 1.6915394416267617,
    3.3572472166044767, 1.0947823664996166, 1.7768117548011153, 2.719859482825069,
    3.5590065298271116, 2.9118355947397045, 1.2328069243475934, 0.5662267387148074,
    0.4444578705107708, 2.6216737039410485e-17, 1.05835330978746, 0.16442943117959624,
    0.6115871953064851, 0.6662082160047678, 1.9280061652262823, 0.5802787131522366,
    1.5503592246724758, 0.6941581150093054, 1.047797074851703, 2.1162848212025334,
    2.3623086542705254, 0.7089963749120581, 0.5152261748718133, 0.5064454555173679,
    0.4525640407778687, 1.1709580769821024, 0.6298826331008804, 0.04218984291529214,
    0.0657228497110197, 0.138599852911052, 0.03894110943117502, 0.05677662586877883, 0.0,
    0.012118130373451117, 0.025443566258428755, 0.0022872641267614787, 0.002522780354153172,
    0.017969225626521663, 1.898714029734776e-07, 0.003481143238367962, 1.2023635458813582e-06,
    0.0007173718581441315, 0.022503980435383306, 6.892910603230719, 7.716040333769509,
]


# Two epochs of train_model on tiny_task, batch 3, seed 7: the mean NLL and
# KL of each epoch, and the L2 norm of each parameter, in sorted order, after
# a checkpoint round trip.
FROZEN_EPOCH_NLL = [2.583410537140313, 2.2980765924332442]
FROZEN_EPOCH_KL = [6.524469122625508, 5.771551995551018]
FROZEN_PARAM_NORMS = [
    1.6893130208858501e-13, 0.0026783340558881852, 0.0030986452937142995, 0.0028149036197080654,
    4.179094565829601, 3.5267549176164135, 4.106583889530613, 3.7951851871219526,
    0.005476312854866961, 0.0028119619756552545, 4.941044841340887, 4.987825211332517,
    0.0026648479503930274, 3.9995384751776197, 0.0023034703033678132, 3.999620207789314,
    0.0027839037661090975, 3.999318908453382, 0.000993562350597397, 1.4504891422186204, 0.0,
    0.0026611794026824617, 0.0, 0.002777786037662701, 4.15243804541361, 3.8860160416572684,
    4.222543823077476, 4.093116123732579, 0.4168939630605338, 2.498804143185292e-13,
    0.004498136182140062, 0.004809775796586944, 0.004659306950935022, 3.737710623203693,
    4.234077589387452, 3.5464319566200255, 3.882845635638743, 0.007970633522162412,
    0.004559502316198857, 5.309406346758843, 5.10982825385572, 0.004812974443698379,
    4.000119293212768, 0.005341918715357699, 3.99979163764321, 9.686686787777169e-14,
    0.004574899738222974, 0.004749315445386157, 0.004229421442483423, 4.1623486511670995,
    4.063184186579595, 4.060972029374585, 4.278075191903198, 0.010054281557622769,
    0.005299354550359248, 5.068156006053129, 5.059027285356278, 0.003740874578709797,
    4.000633197236644, 0.005408495112349804, 3.998996384542312, 0.0028998115415522774,
    3.9999649318933623, 0.003317019210912654, 3.997694995311157, 3.451698726060265,
    2.902927346063127, 1.8338299883798772, 1.765394224146517, 0.004345053977471865,
    0.002743099582496018, 3.536274445940441, 3.059967197282727, 0.5259293531085258,
    2.7186205526858687, 2.9523243655689444, 3.130526230532464, 2.4038803062688303,
    0.05004872732843529, 1.5513924734838784, 1.9673834494864302,
]


class TestBatchedStep:
    def step(self, model, queries, docs, subgraphs, labels, noise):
        for param in model.params.values():
            param.zero_grad()
        trace = model.forward_batch(queries, docs, subgraphs, noise=noise)
        loss = loss_from_trace(trace, labels, model.cfg.alpha, model.cfg.S)
        backward(loss)
        return loss.item(), {name: p.grad.copy() for name, p in model.params.items()}

    def test_matches_frozen_values(self):
        model, *step = frozen_step()
        loss, grads = self.step(model, *step)
        assert loss == pytest.approx(FROZEN_STEP_LOSS, rel=1e-10)
        assert len(grads) == len(FROZEN_GRAD_NORMS)
        for name, frozen in zip(sorted(grads), FROZEN_GRAD_NORMS):
            # an attention key bias shifts all logits of a row alike: its
            # exact gradient is 0, and the frozen norm is round-off
            tol = dict(abs=1e-15) if name.endswith(".bk") else dict(rel=1e-10)
            assert np.linalg.norm(grads[name]) == pytest.approx(frozen, **tol), name

    def test_padded_step_gradient_is_mean_of_single_pair_steps(self):
        model, queries, docs, subgraphs, labels, noise = frozen_step()
        _, batched = self.step(model, queries, docs, subgraphs, labels, noise)
        singles = [self.step(model, [query], [doc], [sub], [label], noise[b:b + 1])[1]
                   for b, (query, doc, sub, label)
                   in enumerate(zip(queries, docs, subgraphs, labels))]
        for name, grad in batched.items():
            mean = sum(single[name] for single in singles) / len(singles)
            np.testing.assert_allclose(grad, mean, rtol=1e-10, atol=1e-15, err_msg=name)

    def test_unreached_parameter_stays_bit_identical_through_adam(self):
        """A parameter no gradient reaches keeps a zero gradient and zero
        moments, so Adam leaves it bit for bit; and zero_grad, backward,
        clip_gradients and step all keep every parameter's data and grad
        views of the optimizer's flat vectors."""
        model, queries, docs, subgraphs, labels, noise = frozen_step()
        opt = Adam(model.params, lr=1e-2)
        start = {name: p.data.copy() for name, p in model.params.items()}

        def assert_views():
            for name, p in model.params.items():
                assert np.shares_memory(p.data, opt.theta), name
                assert np.shares_memory(p.grad, opt.grad), name

        for _ in range(3):
            opt.zero_grad()
            assert_views()
            trace = model.forward_batch(queries, docs, subgraphs, noise=noise)
            backward(loss_from_trace(trace, labels, model.cfg.alpha, model.cfg.S))
            assert_views()
            clip_gradients(opt.grad)
            assert_views()
            opt.step()
            assert_views()
        unreached = {name for name, p in model.params.items() if not p.grad.any()}
        assert unreached == {"dec.self.wq", "dec.self.wk", "dec.self.bq", "dec.self.bk",
                             f"fuse{model.cfg.S - 1}.wu"}
        for name, p in model.params.items():
            if name in unreached:
                np.testing.assert_array_equal(p.data, start[name], err_msg=name)
            else:
                assert (p.data != start[name]).any(), name


class TestSubgraphProvider:
    """The provider is the only code that turns a pair into a subgraph."""

    def test_links_each_query_once_and_extracts_from_both_texts(self, monkeypatch):
        docs, queries, _, kg = tiny_task()
        queries_by_id, docs_by_id = {q.id: q for q in queries}, {d.id: d for d in docs}
        link = kgm.link_entities
        sources = []

        def counting_link(text, graph, source="document"):
            sources.append(source)
            return link(text, graph, source)

        monkeypatch.setattr(kgm, "link_entities", counting_link)
        cached = {("q3", d.id): empty_subgraph() for d in docs}  # q3 never misses
        provider = SubgraphProvider(kg, queries_by_id, docs_by_id, cached)
        pairs = [(q.id, d.id) for q in queries for d in docs]
        for qid, did in pairs + pairs:  # the second pass only hits
            provider.get(qid, did)
        assert sources.count("query") == len(queries) - 1
        assert sources.count("document") == len(pairs) - len(cached)
        for qid, did in pairs:
            if (qid, did) in cached:
                assert provider.cache[(qid, did)] is cached[(qid, did)]
                continue
            v_q = {m.node for m in link(queries_by_id[qid].text, kg, "query")}
            v_d = {m.node for m in link(docs_by_id[did].text, kg, "document")}
            assert provider.cache[(qid, did)] == kgm.extract_subgraph(kg, v_q, v_d)
        assert provider.cache[("q0", "d0_rel")].node_ids == [INTERACTION_NODE, "na0", "nb0",
                                                             "nw0"]

    def test_extracts_at_the_fixed_cap(self):
        """Two query seeds share 12 bridges: the subgraph keeps DEFAULT_MAX_NODES."""
        triples = [(s, "rel_a", f"w{i:02d}") for s in ("s0", "s1") for i in range(12)]
        kg = KnowledgeGraph.from_triples(triples)
        provider = SubgraphProvider(kg, {"q": Query("q", "s0 s1")}, {"d": Document("d", "")})
        assert provider.get("q", "d").num_nodes == 1 + kgm.DEFAULT_MAX_NODES

    def test_extraction_is_looked_up_on_the_kg_module(self, monkeypatch):
        docs, queries, _, kg = tiny_task()
        calls = []

        def stub(graph, v_q, v_d, *args, **kwargs):
            calls.append((v_q, v_d))
            return empty_subgraph()

        monkeypatch.setattr(kgm, "extract_subgraph", stub)
        provider = SubgraphProvider(kg, {q.id: q for q in queries}, {d.id: d for d in docs})
        assert provider.get("q1", "d1_rel") == empty_subgraph()
        assert calls == [({"na1"}, {"nb1"})]


class TestTrainModel:
    def _cfg(self, docs, kg, **overrides):
        from kgrank.model import build_vocab
        return tiny_config(vocab=build_vocab(docs), relations=sorted(kg.relations),
                           max_len=16, **overrides)

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        docs, queries, qrels, kg = tiny_task()
        cfg = self._cfg(docs, kg)
        ckpts = []
        for run in range(2):
            model, _ = train_model(cfg, docs, queries, qrels, kg,
                                   epochs=1, batch_size=4, seed=5,
                                   negatives_per_positive=1)
            path = tmp_path / f"ckpt{run}.json"
            save_checkpoint(path, model.params)
            ckpts.append(path.read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_two_epoch_trajectory_matches_frozen_values(self, tmp_path):
        """8 examples in batches of 3 (the last one ragged), noise on: a
        dropped last batch, an unshuffled epoch or eps = 0 moves every value."""
        docs, queries, qrels, kg = tiny_task()
        model, stats = train_model(self._cfg(docs, kg), docs, queries, qrels, kg, epochs=2,
                                   batch_size=3, seed=7, negatives_per_positive=1)
        assert [s.mean_nll for s in stats] == pytest.approx(FROZEN_EPOCH_NLL, rel=1e-10)
        assert [s.mean_kl for s in stats] == pytest.approx(FROZEN_EPOCH_KL, rel=1e-10)
        save_checkpoint(tmp_path / "ckpt.json", model.params)
        params = load_checkpoint(tmp_path / "ckpt.json")
        assert len(params) == len(FROZEN_PARAM_NORMS)
        for name, frozen in zip(sorted(params), FROZEN_PARAM_NORMS):
            # attention key biases get only round-off gradients (see
            # TestBatchedStep), so Adam moves them by round-off alone
            tol = dict(abs=1e-11) if name.endswith(".bk") else dict(rel=1e-10)
            assert np.linalg.norm(params[name].data) == pytest.approx(frozen, **tol), name

    def test_mean_kl_is_the_mean_of_the_kl_terms(self, monkeypatch):
        """At S = 2, an epoch's mean_kl is the mean of trace.kl_terms over its
        pairs and fused layers; with one fused layer a sum would read the same."""
        docs, queries, qrels, kg = tiny_task()
        kl_terms = []
        forward_batch = RankerModel.forward_batch

        def recording(model, *args, **kwargs):
            trace = forward_batch(model, *args, **kwargs)
            kl_terms.append(trace.kl_terms)
            return trace

        monkeypatch.setattr(RankerModel, "forward_batch", recording)
        _, stats = train_model(self._cfg(docs, kg, S=2), docs, queries, qrels, kg, epochs=1,
                               batch_size=3, seed=7, negatives_per_positive=1)
        terms = np.concatenate(kl_terms)
        assert terms.shape == (8, 2)
        assert stats[0].mean_kl == pytest.approx(terms.mean(), rel=1e-12)

    def test_different_seed_differs(self, tmp_path):
        docs, queries, qrels, kg = tiny_task()
        cfg = self._cfg(docs, kg)
        outs = []
        for seed in (1, 2):
            model, _ = train_model(cfg, docs, queries, qrels, kg, epochs=1,
                                   batch_size=4, seed=seed, negatives_per_positive=1)
            path = tmp_path / f"s{seed}.json"
            save_checkpoint(path, model.params)
            outs.append(path.read_bytes())
        assert outs[0] != outs[1]

    def test_text_only_never_touches_the_graph(self):
        """With no KG, any subgraph fetch would raise."""
        docs, queries, qrels, kg = tiny_task()
        cfg = self._cfg(docs, kg, text_only=True)
        model, stats = train_model(cfg, docs, queries, qrels, None, epochs=1,
                                   batch_size=4, seed=3, negatives_per_positive=1)
        assert len(stats) == 1
        # KL floor still reported: the bottleneck runs on the learned vectors
        assert stats[0].mean_kl >= 0.0

    def test_stats_and_metrics_csv(self, tmp_path):
        docs, queries, qrels, kg = tiny_task()
        cfg = self._cfg(docs, kg)
        _, stats = train_model(cfg, docs, queries, qrels, kg, epochs=2,
                               batch_size=4, seed=4, negatives_per_positive=1)
        assert [s.epoch for s in stats] == [1, 2]
        save_metrics(tmp_path / "metrics.csv", stats)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_nll,mean_kl,wall_time_s"
        assert len(lines) == 3

    def test_batch_mean_is_permutation_invariant(self):
        """Shuffling examples inside one batch leaves the batch loss equal up
        to float reassociation."""
        docs, queries, qrels, kg = tiny_task()
        cfg = self._cfg(docs, kg)
        model = RankerModel.build(cfg, seed=6)
        provider = SubgraphProvider(kg, {q.id: q for q in queries},
                                    {d.id: d for d in docs})
        examples = sample_training_set(qrels, [d.id for d in docs], 1, seed=0)[:4]
        queries_by_id, docs_by_id = {q.id: q for q in queries}, {d.id: d for d in docs}
        rng = np.random.default_rng(7)
        noises = rng.normal(size=(len(examples), cfg.S, cfg.d_z))

        def batch_loss(order):
            batch = [examples[idx] for idx in order]
            trace = model.forward_batch([queries_by_id[ex.query_id] for ex in batch],
                                        [docs_by_id[ex.doc_id] for ex in batch],
                                        [provider.get(ex.query_id, ex.doc_id) for ex in batch],
                                        noise=noises[order])
            return loss_from_trace(trace, [ex.label for ex in batch], cfg.alpha, cfg.S).item()

        assert batch_loss([0, 1, 2, 3]) == pytest.approx(batch_loss([2, 0, 3, 1]),
                                                         rel=1e-12)

    def test_diverged_run_is_a_configuration_error(self):
        """At lr 2 the second step saturates a score at exactly 0 or 1; the
        error names the learning rate, the epoch and the step."""
        docs, queries, qrels, kg = tiny_task()
        with pytest.raises(ConfigurationError,
                           match=r"diverged at lr 2.0, epoch 1, step 2: relevance score"):
            train_model(self._cfg(docs, kg), docs, queries, qrels, kg, epochs=1,
                        batch_size=4, seed=5, negatives_per_positive=1, lr=2.0)

    def test_missing_query_text_rejected(self):
        docs, queries, qrels, kg = tiny_task()
        cfg = self._cfg(docs, kg)
        with pytest.raises(ValidationError, match="q0"):
            train_model(cfg, docs, queries[1:], qrels, kg, epochs=1,
                        batch_size=2, seed=1, negatives_per_positive=1)


class TestRerankRun:
    def test_candidate_sets_preserved_and_sorted(self):
        docs, queries, qrels, kg = tiny_task()
        from kgrank.model import build_vocab
        cfg = tiny_config(vocab=build_vocab(docs), relations=sorted(kg.relations),
                          max_len=16)
        model = RankerModel.build(cfg, seed=8)
        run = {"q0": [("d0_rel", 3.0), ("d1_noise", 2.0), ("d2_noise", 1.0)],
               "q1": [("d1_rel", 9.0), ("d0_noise", 5.0)]}
        provider = SubgraphProvider(kg, {q.id: q for q in queries},
                                    {d.id: d for d in docs})
        out = rerank_run(model, run, {q.id: q for q in queries},
                         {d.id: d for d in docs}, provider)
        for qid in run:
            assert {d for d, _ in out[qid]} == {d for d, _ in run[qid]}
            scores = [s for _, s in out[qid]]
            assert scores == sorted(scores, reverse=True)

    def test_tied_scores_come_out_in_ascending_doc_id_order(self):
        """Five copies of one document score bit-equal; their order is doc id
        ascending, whatever the first-stage order."""
        model = selftest.tiny_model()
        query, doc = selftest.tiny_pair()
        dids = ["d5", "d4", "d3", "d2", "d1"]
        docs = {did: Document(did, doc.text) for did in dids}
        provider = SubgraphProvider(None, {query.id: query}, docs,
                                    {(query.id, did): selftest.tiny_subgraph() for did in dids})
        run = {query.id: [(did, 5.0 - rank) for rank, did in enumerate(dids)]}
        out = rerank_run(model, run, {query.id: query}, docs, provider)[query.id]
        assert len({score for _, score in out}) == 1
        assert [did for did, _ in out] == ["d1", "d2", "d3", "d4", "d5"]

    def test_workers_do_not_change_result(self):
        docs, queries, qrels, kg = tiny_task()
        from kgrank.model import build_vocab
        cfg = tiny_config(vocab=build_vocab(docs), relations=sorted(kg.relations),
                          max_len=16)
        model = RankerModel.build(cfg, seed=9)
        run = {"q0": [("d0_rel", 3.0), ("d1_noise", 2.0)],
               "q2": [("d2_rel", 4.0), ("d3_noise", 2.0), ("d0_noise", 1.0)]}
        args = ({q.id: q for q in queries}, {d.id: d for d in docs})
        serial = rerank_run(model, run, *args, SubgraphProvider(kg, *args), workers=1)
        threaded = rerank_run(model, run, *args, SubgraphProvider(kg, *args), workers=4)
        again = rerank_run(model, run, *args, SubgraphProvider(kg, *args), workers=1)
        assert serial == threaded == again
        assert list(serial) == ["q0", "q2"]

    @pytest.mark.parametrize("name", ["tok_emb", "gnn0.wq", "fuse0.w1", "dec.out_w"])
    def test_non_finite_parameter_raises(self, name):
        docs, queries, qrels, kg = tiny_task()
        from kgrank.model import build_vocab
        cfg = tiny_config(vocab=build_vocab(docs), relations=sorted(kg.relations),
                          max_len=16)
        model = RankerModel.build(cfg, seed=10)
        model.params[name].data[...] = np.inf
        args = ({q.id: q for q in queries}, {d.id: d for d in docs})
        with pytest.raises(ComputationError, match="outside"):
            rerank_run(model, {"q1": [("d1_rel", 2.0), ("d1_noise", 1.0)]}, *args,
                       SubgraphProvider(kg, *args))
