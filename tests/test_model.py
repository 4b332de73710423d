"""Ranker network tests.

Layer semantics are pinned by the per-pair, per-head and per-node numpy
references in kgrank.oracles (independent of the autodiff engine), and every
differentiable piece is finite-difference checked.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import kgrank.tensor as tz
from conftest import frozen_noise, tiny_config, tiny_subgraph
from kgrank import model as model_module
from kgrank import oracles
from kgrank.corpus import Document, Query
from kgrank.errors import (ComputationError, ConfigurationError, ParseError, UsageError,
                           ValidationError)
from kgrank.kg import (INTERACTION_NODE, INTERACTION_RELATION, SELF_RELATION,
                       QuerySubgraph, empty_subgraph)
from kgrank.model import (RESERVED_TOKENS, ModelConfig, RankerModel,
                          build_vocab, kl_gaussian_std_normal)
from kgrank.oracles import kl_closed_form_direct
from kgrank.tensor import Tensor, finite_diff_check
from kgrank.training import loss_from_trace


class TestModelConfig:
    def test_defaults_match_documented_values(self):
        cfg = ModelConfig(d_l=200 * 4 // 4)
        assert (cfg.R, cfg.S) == (9, 3)
        assert cfg.d_g == 200
        assert cfg.d_proj == 100
        assert cfg.alpha == 0.01
        assert cfg.max_len == 512

    def test_head_divisibility(self):
        with pytest.raises(ConfigurationError):
            tiny_config(d_l=10, heads=3)

    def test_dz_must_be_even(self):
        with pytest.raises(ConfigurationError):
            tiny_config(d_z=5)

    def test_minimum_max_len(self):
        with pytest.raises(ConfigurationError):
            tiny_config(max_len=4)

    def test_reserved_relation_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(relations=["<int>"])

    def test_parameter_count_bounded(self, monkeypatch):
        """A config too large to allocate is refused before anything is built;
        one at the bound constructs."""
        with pytest.raises(ConfigurationError, match="64000001742222 parameter values"):
            ModelConfig(max_len=10**12)
        size = sum(math.prod(shape) for shape in model_module.param_shapes(tiny_config()).values())
        monkeypatch.setattr(model_module, "MAX_PARAM_VALUES", size)
        tiny_config()
        monkeypatch.setattr(model_module, "MAX_PARAM_VALUES", size - 1)
        with pytest.raises(ConfigurationError, match=f"{size} parameter values"):
            tiny_config()

    def test_roundtrip(self, tmp_path):
        cfg = tiny_config(text_only=True, alpha=0.5)
        cfg.save(tmp_path / "model.json")
        assert ModelConfig.load(tmp_path / "model.json") == cfg

    def test_saved_bytes(self, tmp_path):
        """model.json is sorted-key JSON of every field, byte for byte."""
        tiny_config(text_only=True, alpha=0.5).save(tmp_path / "model.json")
        assert (tmp_path / "model.json").read_text() == (
            '{"R": 1, "S": 1, "alpha": 0.5, "d_g": 8, "d_l": 16, "d_proj": 8, "d_z": 4, '
            '"heads": 2, "max_len": 24, "relations": ["rel_a", "rel_b"], "text_only": true, '
            '"vocab": ["<pad>", "<unk>", "<int>", "<true>", "<false>", "<start>", "query:", '
            '"document:", "relevant:", "alpha", "beta", "gamma", "delta", "epsilon"]}')

    def test_removed_node_init_seed_rejected_by_name(self, tmp_path):
        """node_init_seed is no longer a field; a saved config that holds it
        is refused like any unknown key."""
        payload = {**asdict(tiny_config()), "node_init_seed": 0}
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="model.json: unknown model config key "
                                             "'node_init_seed'"):
            ModelConfig.load(tmp_path / "model.json")


class TestBuildPrompt:
    def test_template_order(self, tiny_model):
        ids = tiny_model.build_prompt("alpha", "beta")
        toks = [tiny_model.cfg.vocab[i] for i in ids]
        assert toks == ["<int>", "query:", "alpha", "document:", "beta", "relevant:"]

    def test_empty_document(self, tiny_model):
        ids = tiny_model.build_prompt("alpha", "")
        toks = [tiny_model.cfg.vocab[i] for i in ids]
        assert toks == ["<int>", "query:", "alpha", "document:", "relevant:"]

    def test_unknown_words_map_to_unk(self, tiny_model):
        ids = tiny_model.build_prompt("zebra", "alpha")
        toks = [tiny_model.cfg.vocab[i] for i in ids]
        assert toks[2] == "<unk>"

    def test_truncation_accounting(self):
        """Document loses exactly the overflow; markers and query survive."""
        model = RankerModel.build(tiny_config(max_len=10), seed=0)
        for q_words, d_words in [(1, 3), (2, 9), (3, 30), (6, 1)]:
            query = " ".join(["alpha"] * q_words)
            doc = " ".join(["beta"] * d_words)
            ids = model.build_prompt(query, doc)
            expected_doc = min(d_words, 10 - 4 - q_words)
            assert len(ids) == 4 + q_words + expected_doc
            assert len(ids) <= 10
            toks = [model.cfg.vocab[i] for i in ids]
            assert toks.count("alpha") == q_words  # query intact
            assert toks[-1] == "relevant:"

    def test_truncation_keeps_the_document_head(self):
        """A document cut to fit keeps its first tokens, in order."""
        model = RankerModel.build(tiny_config(max_len=9), seed=0)
        ids = model.build_prompt("alpha", "beta gamma delta epsilon alpha beta")
        assert [model.cfg.vocab[i] for i in ids] == [
            "<int>", "query:", "alpha", "document:",
            "beta", "gamma", "delta", "epsilon", "relevant:"]

    def test_query_overflow_rejected(self):
        model = RankerModel.build(tiny_config(max_len=8), seed=0)
        with pytest.raises(ConfigurationError):
            model.build_prompt("alpha " * 10, "beta")


def plain(model):
    return {name: t.data for name, t in model.params.items()}


def no_padding(n_batch, length):
    return np.zeros((n_batch, 1, length))


class TestTextLayer:
    def test_single_token_attention_is_identity_mixing(self, tiny_model):
        """With one token, each head attends only to itself, so the block
        output equals the value path pushed through the output projection."""
        p = plain(tiny_model)
        x = np.random.default_rng(0).normal(size=(1, 1, 16))
        got = tiny_model._attention(tiny_model.params, Tensor(x), Tensor(x), "enc0.attn",
                                    no_padding(1, 1)).data[0]
        v = x[0] @ p["enc0.attn.wv"] + p["enc0.attn.bv"]
        expected = v @ p["enc0.attn.wo"] + p["enc0.attn.bo"]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_tape_nodes_per_forward(self, tiny_model, tiny_pair):
        """Each attention is its q, k, v and output linears around one
        attention node, so one forward of the tiny model records 167 nodes;
        a head split back into its own ops would add to the count."""
        query, doc = tiny_pair
        trace = tiny_model.forward(query, doc, tiny_subgraph())
        ops = [row[0] for row in tz.computation_record(trace.score_tensor)]
        assert ops.count("attention") == 3  # R + S encoder layers, decoder cross
        assert len(ops) == 167

    def test_zeroed_output_projections_make_identity(self, tiny_model):
        tiny_model.params["enc0.attn.wo"].data[:] = 0.0
        tiny_model.params["enc0.attn.bo"].data[:] = 0.0
        tiny_model.params["enc0.ff.w2"].data[:] = 0.0
        tiny_model.params["enc0.ff.b2"].data[:] = 0.0
        h = Tensor(np.random.default_rng(1).normal(size=(1, 5, 16)))
        out = tiny_model.encode_text_layer(tiny_model.params, h, no_padding(1, 5), 0)
        np.testing.assert_allclose(out.data, h.data, atol=1e-12)

    def test_matches_dense_reference(self, tiny_model):
        """A padded batch of two prompts against the per-head dense reference
        on each unpadded prompt, on the tape and without it."""
        p = plain(tiny_model)
        h = np.random.default_rng(2).normal(size=(2, 4, 16))
        key_bias = np.array([[[0.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, -np.inf, -np.inf]]])
        for weights, states in [(tiny_model.params, Tensor(h)), (p, h)]:
            got = tiny_model.encode_text_layer(weights, states, key_bias, 0)
            got = got.data if isinstance(got, Tensor) else got
            np.testing.assert_allclose(got[0], oracles.text_layer_direct(p, h[0], 0, 2),
                                       atol=1e-10)
            np.testing.assert_allclose(got[1, :2], oracles.text_layer_direct(p, h[1, :2], 0, 2),
                                       atol=1e-10)


class TestGnnLayer:
    def test_isolated_node_self_loop_only(self):
        """A graph with a single node: attention weight is exactly 1 on the
        self-loop, so the update is the self message through the block."""
        cfg = tiny_config()
        model = RankerModel.build(cfg, seed=5)
        p = plain(model)
        u = np.random.default_rng(3).normal(size=(1, cfg.d_g))
        edges = model._join_graphs([empty_subgraph()])[2]
        got = model.gnn_layer(model.params, Tensor(u), edges, 0).data

        er = p["gnn0.rel_emb"][model.rel2id[SELF_RELATION]]
        message = u @ p["gnn0.wv"] + er
        t = u + message @ p["gnn0.wo"]
        expected = t + oracles.gelu_direct(t @ p["gnn0.ff.w1"] + p["gnn0.ff.b1"]) \
            @ p["gnn0.ff.w2"] + p["gnn0.ff.b2"]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_matches_dense_reference_on_path_graph(self):
        """Two joined graphs (a 3-node path, and parallel edges of two
        relations) against the node-by-node reference on each graph alone,
        given the interaction edges and self-loops the model adds."""
        cfg = tiny_config()
        model = RankerModel.build(cfg, seed=6)
        p = plain(model)
        graphs = [tiny_subgraph(), bridged_parallel_subgraph()]
        offsets, _, edges = model._join_graphs(graphs)
        u = np.random.default_rng(4).normal(size=(sum(g.num_nodes for g in graphs), cfg.d_g))
        got = model.gnn_layer(model.params, Tensor(u), edges, 0).data
        for g, lo in zip(graphs, offsets):
            rows = slice(lo, lo + g.num_nodes)
            wiring = [(a, INTERACTION_RELATION, b) for i in range(1, g.num_nodes)
                      for a, b in ((0, i), (i, 0))]
            wiring += [(i, SELF_RELATION, i) for i in range(g.num_nodes)]
            expected = oracles.gnn_layer_direct(p, u[rows], list(g.edges) + wiring,
                                                model.rel2id, 0)
            np.testing.assert_allclose(got[rows], expected, atol=1e-10)

    def test_join_adds_interaction_edges_and_self_loops(self, tiny_model):
        """Each graph gets its KG edges once, 0 -> i and i -> 0 once for every
        node i >= 1 and one self-loop per node; node t's segment holds its KG
        in-edges in stored order, then its interaction edges, then its
        self-loop."""
        graphs = [tiny_subgraph(), empty_subgraph(), capped_subgraph()]
        offsets, _, (src, dst, rel_ids, starts) = tiny_model._join_graphs(graphs)
        expected = []
        for g, lo in zip(graphs, offsets):
            for t in range(g.num_nodes):
                segment = [(s, r) for s, r, target in g.edges if target == t]
                segment += [(0, INTERACTION_RELATION)] if t else \
                    [(i, INTERACTION_RELATION) for i in range(1, g.num_nodes)]
                segment.append((t, SELF_RELATION))
                expected += [(lo + s, tiny_model.rel2id[r], lo + t) for s, r in segment]
        assert list(zip(src.tolist(), rel_ids.tolist(), dst.tolist())) == expected
        assert starts.tolist() == [k for k, edge in enumerate(expected)
                                   if k == 0 or edge[2] != expected[k - 1][2]]
        assert len(starts) == sum(g.num_nodes for g in graphs)

    def test_unknown_relation_rejected(self, tiny_model):
        sub = tiny_subgraph()
        sub.edges[0] = (1, "mystery_rel", 3)
        with pytest.raises(ValidationError, match="mystery_rel"):
            tiny_model._join_graphs([sub])


class TestKlGaussianStdNormal:
    def test_standard_normal_is_zero(self):
        kl = kl_gaussian_std_normal(Tensor(np.zeros(4)), Tensor(np.ones(4)))
        assert kl.item() == pytest.approx(0.0, abs=1e-15)

    def test_unit_mean_single_dim(self):
        kl = kl_gaussian_std_normal(Tensor([1.0]), Tensor([1.0]))
        assert kl.item() == pytest.approx(0.5, abs=1e-15)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ComputationError, match="sigma"):
            kl_gaussian_std_normal(Tensor([0.0]), Tensor([0.0]))

    def test_nonnegative_and_zero_iff_standard(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            mu = rng.uniform(-2, 2, size=3)
            sigma = rng.uniform(0.1, 3, size=3)
            kl = kl_gaussian_std_normal(Tensor(mu), Tensor(sigma)).item()
            assert kl >= 0.0
            standard = np.allclose(mu, 0, atol=1e-12) and np.allclose(sigma, 1, atol=1e-12)
            assert (kl < 1e-12) == standard

    def test_matches_independent_closed_form(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            mu = rng.uniform(-2, 2, size=5)
            sigma = rng.uniform(0.2, 2.5, size=5)
            got = kl_gaussian_std_normal(Tensor(mu), Tensor(sigma)).item()
            assert got == pytest.approx(kl_closed_form_direct(mu, sigma), rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(24)
        mu = Tensor(rng.uniform(-1, 1, size=(1, 6)))
        s = Tensor(rng.uniform(-1, 1, size=(1, 6)))
        err = finite_diff_check(
            lambda: kl_gaussian_std_normal(mu, tz.softplus(s) + 1e-6),
            {"mu": mu, "s": s}, step=1e-5)
        assert err < 1e-8


class TestFuseInteraction:
    def setup_method(self):
        self.cfg = tiny_config()
        self.model = RankerModel.build(self.cfg, seed=9)
        rng = np.random.default_rng(10)
        self.h_int = rng.normal(size=(1, self.cfg.d_l))
        self.u_int = rng.normal(size=(1, self.cfg.d_g))

    def fuse(self, eps):
        return self.model.fuse_interaction(self.model.params, Tensor(self.h_int),
                                           Tensor(self.u_int), eps, 0)

    def _dense_reference(self, eps):
        return oracles.fuse_direct(plain(self.model), self.h_int, self.u_int, eps, 0)

    def test_zero_noise_uses_the_mean(self):
        eps = np.zeros((1, self.cfg.d_z))
        h_new, u_new, kl = self.fuse(eps)
        eh, eu, ekl = self._dense_reference(eps)
        np.testing.assert_allclose(h_new.data, eh, atol=1e-12)
        np.testing.assert_allclose(u_new.data, eu, atol=1e-12)
        assert kl.item() == pytest.approx(ekl, rel=1e-12)

    def test_matches_dense_reference_with_noise(self):
        eps = np.random.default_rng(11).normal(size=(1, self.cfg.d_z))
        h_new, u_new, kl = self.fuse(eps)
        eh, eu, ekl = self._dense_reference(eps)
        np.testing.assert_allclose(h_new.data, eh, atol=1e-12)
        np.testing.assert_allclose(u_new.data, eu, atol=1e-12)
        assert kl.item() == pytest.approx(ekl, rel=1e-12)

    def test_zeroed_split_projections_pure_residual(self):
        self.model.params["fuse0.wh"].data[:] = 0.0
        self.model.params["fuse0.wu"].data[:] = 0.0
        eps = np.random.default_rng(12).normal(size=(1, self.cfg.d_z))
        h_new, u_new, kl = self.fuse(eps)
        np.testing.assert_array_equal(h_new.data, self.h_int)
        np.testing.assert_array_equal(u_new.data, self.u_int)
        assert kl.item() == pytest.approx(self._dense_reference(eps)[2], rel=1e-12)

    def test_kl_gradient_wrt_fusion_parameters(self):
        eps = np.random.default_rng(13).normal(size=(1, self.cfg.d_z))
        fusion_params = {k: v for k, v in self.model.params.items()
                         if k.startswith("fuse0.")}
        err = finite_diff_check(lambda: self.fuse(eps)[2], fusion_params, step=1e-5)
        assert err < 1e-5


class TestEncodeFused:
    def test_composition_oracle_single_token_single_node(self):
        """R=0, S=1: encode_fused equals manually chaining text layer, GNN
        layer, and fusion."""
        cfg = tiny_config(R=0, S=1)
        model = RankerModel.build(cfg, seed=14)
        p = model.params
        ids = np.array([[model.tok2id["<int>"]]])
        noise = frozen_noise(cfg, seed=15)[None]

        h, _, kls = model.encode_fused(p, [list(ids[0])], [empty_subgraph()], noise)

        h0 = tz.reshape(tz.gather_rows(p["tok_emb"], ids[0])
                        + tz.gather_rows(p["pos_emb"], np.arange(1)), (1, 1, cfg.d_l))
        h1 = model.encode_text_layer(p, h0, no_padding(1, 1), 0)
        edges = model._join_graphs([empty_subgraph()])[2]
        u1 = model.gnn_layer(p, p["graph_int_emb"], edges, 0)
        h_new, _, kl = model.fuse_interaction(p, tz.reshape(h1, (1, cfg.d_l)), u1, noise[:, 0], 0)
        h_exp = tz.layer_norm(h_new, p["enc_ln.g"], p["enc_ln.b"])

        np.testing.assert_allclose(h.data[0], h_exp.data, atol=1e-12)
        assert len(kls) == 1
        assert kls[0].item() == pytest.approx(kl.item(), rel=1e-12)

    def test_empty_graph_degenerates_to_self_loop(self, tiny_model, tiny_pair):
        query, doc = tiny_pair
        trace = tiny_model.forward(query, doc, empty_subgraph())
        assert 0.0 < trace.score < 1.0

    def test_kl_terms_length_equals_s(self):
        cfg = tiny_config(S=3, R=0)
        model = RankerModel.build(cfg, seed=16)
        trace = model.forward(Query("q", "alpha"), Document("d", "beta"), tiny_subgraph())
        assert trace.kl_terms.shape == (1, 3)

    def test_interaction_replacement_only_touches_position_zero(self):
        cfg = tiny_config(R=0, S=1)
        model = RankerModel.build(cfg, seed=17)
        p = model.params
        ids = np.array([model.build_prompt("alpha", "beta gamma")])
        length = ids.shape[1]
        noise = frozen_noise(cfg, seed=18)[None]
        h_full, _, _ = model.encode_fused(p, [list(ids[0])], [tiny_subgraph()], noise)
        # recompute without the fusion step: positions 1.. must agree pre-norm
        h0 = tz.reshape(tz.gather_rows(p["tok_emb"], ids[0])
                        + tz.gather_rows(p["pos_emb"], np.arange(length)), (1, length, cfg.d_l))
        h1 = model.encode_text_layer(p, h0, no_padding(1, length), 0)
        h1_ln = tz.layer_norm(h1, p["enc_ln.g"], p["enc_ln.b"])
        np.testing.assert_allclose(h_full.data[0, 1:], h1_ln.data[0, 1:], atol=1e-12)


class TestDecodeRelevance:
    def decode(self, model, h):
        return model.decode_relevance(model.params, Tensor(h[None]),
                                      no_padding(1, h.shape[0])).item()

    def test_equal_logits_give_half(self, tiny_model):
        tiny_model.params["dec.out_w"].data[:] = 0.0
        tiny_model.params["dec.out_b"].data[:] = 0.0
        h = np.random.default_rng(19).normal(size=(5, 16))
        assert self.decode(tiny_model, h) == pytest.approx(0.5, abs=1e-15)

    def test_probabilities_sum_to_one(self, tiny_model):
        """Flipping the two output columns must flip the score to 1 - p."""
        h = np.random.default_rng(20).normal(size=(5, 16))
        p = self.decode(tiny_model, h)
        tiny_model.params["dec.out_w"].data[:] = tiny_model.params["dec.out_w"].data[:, ::-1]
        tiny_model.params["dec.out_b"].data[:] = tiny_model.params["dec.out_b"].data[:, ::-1]
        q = self.decode(tiny_model, h)
        assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_score_order_equals_logit_margin_order(self, tiny_model, tiny_pair):
        """p(true) is a strictly increasing function of the logit margin, so
        ranking by probability and by log-odds agree."""
        query, _ = tiny_pair
        docs = [Document(f"d{i}", text) for i, text in
                enumerate(["alpha beta", "gamma", "delta epsilon alpha", "beta beta"])]
        scores = [tiny_model.forward(query, d, tiny_subgraph()).score for d in docs]
        margins = [math.log(s / (1 - s)) for s in scores]
        assert sorted(range(4), key=lambda i: -scores[i]) == \
            sorted(range(4), key=lambda i: -margins[i])


class TestForward:
    def test_bit_identical_repeat(self, tiny_model, tiny_pair):
        query, doc = tiny_pair
        noise = frozen_noise(tiny_model.cfg, seed=21)
        t1 = tiny_model.forward(query, doc, tiny_subgraph(), noise=noise)
        t2 = tiny_model.forward(query, doc, tiny_subgraph(), noise=noise)
        assert t1.score == t2.score
        np.testing.assert_array_equal(t1.kl_terms, t2.kl_terms)

    def test_inference_equals_zero_noise(self, tiny_model, tiny_pair):
        query, doc = tiny_pair
        zeros = np.zeros((tiny_model.cfg.S, tiny_model.cfg.d_z))
        assert tiny_model.forward(query, doc, tiny_subgraph()).score == \
            tiny_model.forward(query, doc, tiny_subgraph(), noise=zeros).score

    def test_noise_array_scores_like_per_pair_forward(self):
        """Row b of a (B, S, d_z) noise array is pair b's noise: each pair
        gets the score and KL terms that forward gives it alone."""
        model = RankerModel.build(tiny_config(S=2), seed=23)
        query = Query("q", "alpha beta")
        docs = [Document(f"d{i}", text) for i, text in enumerate(MIXED_DOCS[:3])]
        subs = [tiny_subgraph(), empty_subgraph(), bridged_parallel_subgraph()]
        noise = np.random.default_rng(24).normal(size=(3, 2, model.cfg.d_z))
        trace = model.forward_batch([query] * 3, docs, subs, noise=noise)
        for b in range(3):
            alone = model.forward(query, docs[b], subs[b], noise=noise[b])
            assert trace.scores[b] == pytest.approx(alone.score, abs=1e-12)
            np.testing.assert_allclose(trace.kl_terms[b], alone.kl_terms[0], rtol=1e-12)
        assert (trace.scores != model.forward_batch([query] * 3, docs, subs).scores).all()

    def test_wrongly_shaped_noise_rejected(self, tiny_pair):
        """Only the (B, S, d_z) array is noise; the nested per-pair lists of
        (1, d_z) draws are not."""
        model = RankerModel.build(tiny_config(S=2), seed=23)
        query, doc = tiny_pair
        d_z = model.cfg.d_z
        for bad in (np.zeros((2, 2, d_z)), np.zeros((3, 1, d_z)), np.zeros((3, 2, d_z + 2)),
                    np.zeros((3, 2 * d_z)), [[np.zeros((1, d_z))] * 2] * 3):
            with pytest.raises(UsageError, match="noise"):
                model.forward_batch([query] * 3, [doc] * 3, [tiny_subgraph()] * 3, noise=bad)
        with pytest.raises(UsageError, match="noise"):
            model.forward(query, doc, tiny_subgraph(), noise=np.zeros((1, d_z)))

    def test_text_only_flag_ignores_subgraph(self, tiny_pair):
        cfg = tiny_config(text_only=True)
        model = RankerModel.build(cfg, seed=22)
        query, doc = tiny_pair
        assert model.forward(query, doc, tiny_subgraph()).score == \
            model.forward(query, doc, None).score

    @pytest.mark.parametrize("S", [1, 2])
    def test_gradient_reaches_every_parameter_read(self, tiny_pair, S):
        """One backward leaves an all-zero gradient only on the decoder's
        self-attention query and key (its lone start token attends to itself
        with weight 1) and the last fused layer's node update (the decoder
        reads only token states). A decoder that ignores the graph, or a GNN
        without its relation term, leaves more. Attention key biases get
        round-off only: softmax ignores a shift that every key shares."""
        model = RankerModel.build(tiny_config(S=S), seed=7)
        query, doc = tiny_pair
        trace = model.forward(query, doc, tiny_subgraph(), noise=frozen_noise(model.cfg))
        tz.backward(loss_from_trace(trace, [True], model.cfg.alpha, S))
        unreached = {name for name, param in model.params.items() if not param.grad.any()}
        assert unreached == {"dec.self.wq", "dec.self.wk", "dec.self.bq", "dec.self.bk",
                             f"fuse{S - 1}.wu"}
        for name, param in model.params.items():
            if name not in unreached:
                peak = np.abs(param.grad).max()
                assert peak < 1e-12 if name.endswith(".bk") else peak > 0.0, name

    def test_random_instances_stay_in_range(self):
        """Scores in (0,1) and KL terms nonnegative across 100 seeded builds."""
        for seed in range(100):
            cfg = tiny_config()
            model = RankerModel.build(cfg, seed=seed)
            noise = frozen_noise(cfg, seed=seed + 1000)
            trace = model.forward(Query("q", "alpha beta"),
                                  Document("d", "gamma delta"),
                                  tiny_subgraph(), noise=noise)
            assert 0.0 < trace.score < 1.0
            assert (trace.kl_terms >= -1e-9).all()

    def test_build_vocab_reserved_prefix(self):
        vocab = build_vocab([Document("d", "Zebra alpha zebra")])
        assert tuple(vocab[:len(RESERVED_TOKENS)]) == RESERVED_TOKENS
        assert vocab[len(RESERVED_TOKENS):] == ["alpha", "zebra"]


def linked_subgraph(provenance: list[str], edges: list[tuple[int, str, int]]) -> QuerySubgraph:
    """The interaction node plus one node per provenance entry, and the KG edges."""
    n = len(provenance)
    return QuerySubgraph(node_ids=[INTERACTION_NODE] + [f"m{i}" for i in range(1, n + 1)],
                         provenance=["interaction"] + provenance, edges=edges)


def bridged_parallel_subgraph() -> QuerySubgraph:
    """Seeds 1 and 2 joined through bridge 3, by parallel edges of two relations."""
    return linked_subgraph(["query-seed", "doc-seed", "bridge"],
                           [(1, "rel_a", 3), (1, "rel_b", 3), (3, "rel_a", 2),
                            (3, "rel_b", 2), (2, "rel_a", 1)])


def capped_subgraph() -> QuerySubgraph:
    """Ten retained nodes, the node cap, plus the interaction node."""
    provenance = ["both", "query-seed", "query-seed", "doc-seed", "doc-seed"] + ["bridge"] * 5
    edges = [(1 + i, "rel_a" if i % 2 else "rel_b", 1 + (i + 1) % 10) for i in range(10)]
    edges += [(1 + i, "rel_a", 1 + (i + 3) % 10) for i in range(0, 10, 2)]
    return linked_subgraph(provenance, edges)


def no_subgraph() -> None:
    """No subgraph given: the model falls back to the interaction node alone."""
    return None


LONG_DOC = " ".join(["gamma delta epsilon alpha beta"] * 8)  # truncated at max_len
MIXED_DOCS = ["alpha", "beta gamma delta", LONG_DOC, "", "zeta eta gamma", "delta alpha beta"]

# (case, config overrides, document texts, subgraph builders, chunk budget)
SCORE_BATCH_CASES = [
    ("mixed lengths", {}, MIXED_DOCS, [tiny_subgraph] * 6, None),
    ("text only", {"text_only": True}, MIXED_DOCS[:4],
     [tiny_subgraph, no_subgraph, bridged_parallel_subgraph, empty_subgraph], None),
    ("empty next to bridged", {}, MIXED_DOCS[:4],
     [empty_subgraph, bridged_parallel_subgraph, no_subgraph, tiny_subgraph], None),
    ("capped", {"R": 0, "S": 2}, MIXED_DOCS[:3],
     [capped_subgraph, bridged_parallel_subgraph, capped_subgraph], None),
    ("one candidate", {}, MIXED_DOCS[2:3], [bridged_parallel_subgraph], None),
    ("several chunks", {"heads": 4}, MIXED_DOCS,
     [tiny_subgraph, capped_subgraph, empty_subgraph, bridged_parallel_subgraph,
      tiny_subgraph, capped_subgraph], 2 * 24 * 24),
]


class TestScoreBatch:
    @pytest.mark.parametrize("case,overrides,texts,builders,budget", SCORE_BATCH_CASES,
                             ids=[c[0] for c in SCORE_BATCH_CASES])
    def test_matches_per_pair_forward(self, case, overrides, texts, builders, budget,
                                      monkeypatch):
        """score_batch agrees to 1e-12 per pair with the per-pair reference
        scorer, ranks the candidates identically, and gives each candidate the
        score it gets alone (score_batch of one, and forward on the tape)."""
        model = RankerModel.build(tiny_config(**overrides), seed=31)
        query = Query("q", "alpha beta")
        docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
        subs = [build() for build in builders]
        chunks = []
        if budget is not None:
            monkeypatch.setattr(model_module, "ATTENTION_BUDGET", budget)
            run = model._run
            monkeypatch.setattr(model, "_run", lambda *args: chunks.append(1) or run(*args))

        batched = model.score_batch(query, docs, subs)
        if budget is not None:
            assert len(chunks) == 3  # two candidates of 24 tokens per chunk
        direct = [oracles.relevance_direct(model, query, doc, sub)
                  for doc, sub in zip(docs, subs)]
        alone = [model.score_batch(query, [doc], [sub])[0] for doc, sub in zip(docs, subs)]
        taped = [model.forward(query, doc, sub).score for doc, sub in zip(docs, subs)]

        assert batched.shape == (len(docs),)
        assert np.max(np.abs(batched - np.array(direct))) <= 1e-12
        order = lambda scores: sorted(range(len(docs)), key=lambda i: (-scores[i], docs[i].id))
        assert order(list(batched)) == order(direct)
        assert np.max(np.abs(batched - np.array(alone))) <= 1e-12
        assert np.max(np.abs(batched - np.array(taped))) <= 1e-12

    def test_empty_batch(self, tiny_model):
        assert tiny_model.score_batch(Query("q", "alpha"), [], []).shape == (0,)

    def test_length_mismatch_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            tiny_model.score_batch(Query("q", "alpha"), [Document("d", "beta")], [])
