"""Encoder stages, decoder, loss, full-model gradients and checkpoints."""

import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from hinddi import autodiff as ad
from hinddi.autodiff import ContractError, ShapeError, Tensor, backward
from hinddi.gradcheck import finite_diff_check
from hinddi.metapath import NeighborGraph, builtin_spec_names
from hinddi.model import (
    EncoderOutput,
    ModelConfig,
    ModelParams,
    bce_loss,
    decode_pairs,
    encode,
    forward,
    init_params,
    load_checkpoint,
    random_row_stochastic,
    save_checkpoint,
)
from tests.conftest import ring_mask


LEGACY_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1_per_head.bin"


def per_head_layout(params, heads):
    """`params` as `save_checkpoint` saw them before the heads were fused:
    one (d0, F) projection per head and one (2F,) vector per (meta-path,
    head)."""
    f = params.proj.shape[1] // heads
    named = {f"proj.{k}": Tensor(params.proj.data[:, k * f:(k + 1) * f])
             for k in range(heads)}
    for mp in params.metapaths:
        named.update({f"attn.{mp}.{k}": Tensor(params.attn[mp].data[k])
                      for k in range(heads)})
    named.update(w_mp=params.w_mp, b_mp=params.b_mp, q_mp=params.q_mp)
    return SimpleNamespace(metapaths=params.metapaths, dtype=params.dtype,
                           named=lambda: named)


def random_graphs(rng, n, names=None, density=0.3, dtype=bool):
    graphs = {}
    for name in names or builtin_spec_names():
        adj = rng.random((n, n)) < density
        adj |= adj.T
        np.fill_diagonal(adj, True)
        graphs[name] = NeighborGraph(name, sp.csr_array(adj))
    return graphs


def ring_graphs(rng, n=64, names=None):
    """Graphs under `autodiff.SPARSE_DENSITY`: a ring with two random
    chords per meta-path."""
    return {name: NeighborGraph(name, sp.csr_array(
                ring_mask(n, chords=rng.integers(0, n, (2, 2)))))
            for name in names or builtin_spec_names()}


def small_setup(rng, n=6, d0=5, heads=2, hidden=3, attn_dim=4, dtype=np.float64,
                n_mps=4, dropout=0.0):
    config = ModelConfig(input_dim=d0, hidden_dim=hidden, heads=heads,
                         attn_dim=attn_dim, dropout=dropout)
    names = builtin_spec_names()[:n_mps]
    params = init_params(config, names, rng, dtype=dtype)
    graphs = random_graphs(rng, n, names)
    features = rng.random((n, d0))
    return config, params, graphs, features


def attend(h, a, mask, heads=1, **kwargs):
    """Run the fused op on plain arrays; returns (output, alphas) arrays."""
    a = None if a is None else Tensor(np.asarray(a, dtype=np.float64))
    out, alphas = ad.graph_attention(Tensor(np.asarray(h, dtype=np.float64)), a,
                                     mask, heads=heads, slope=0.2, **kwargs)
    return out.data, [alpha.data for alpha in alphas]


class TestNodeLevelAttention:
    def test_zero_vector_gives_uniform_rows(self):
        rng = np.random.default_rng(0)
        adj = np.eye(4, dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        _, (alpha,) = attend(rng.random((4, 3)), np.zeros((1, 6)), adj)
        np.testing.assert_allclose(alpha[adj], np.full(adj.sum(), 0.5), atol=1e-12)

    def test_isolated_drug_attends_to_itself(self):
        rng = np.random.default_rng(1)
        _, (alpha,) = attend(rng.random((3, 2)), rng.random((1, 4)),
                             np.eye(3, dtype=bool))
        np.testing.assert_allclose(alpha, np.eye(3), atol=1e-12)
        # on a mask under SPARSE_DENSITY
        _, (alpha,) = attend(rng.random((64, 2)), rng.random((1, 4)),
                             ring_mask(64, isolated=[9]))
        np.testing.assert_allclose(alpha[9], np.eye(64)[9], atol=1e-12)

    def test_three_node_hand_evaluation(self):
        # Oracle: evaluate leaky_relu(a . [h_i || h_j]) and the row softmax
        # with plain Python floats.
        h = [[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]]
        a = [0.3, -0.2, 0.1, 0.4]
        adj = np.array([[True, True, False],
                        [True, True, True],
                        [False, True, True]])

        def lrelu(v):
            return v if v > 0 else 0.2 * v

        def score(i, j):
            return lrelu(a[0] * h[i][0] + a[1] * h[i][1]
                         + a[2] * h[j][0] + a[3] * h[j][1])

        expect = np.zeros((3, 3))
        for i in range(3):
            cols = [j for j in range(3) if adj[i, j]]
            mx = max(score(i, j) for j in cols)
            exps = {j: math.exp(score(i, j) - mx) for j in cols}
            total = sum(exps.values())
            for j in cols:
                expect[i, j] = exps[j] / total

        _, (alpha,) = attend(h, [a], adj)
        np.testing.assert_allclose(alpha, expect, rtol=1e-12)

    def test_missing_self_loop_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        with pytest.raises(ContractError, match="self-loops"):
            attend(np.ones((2, 2)), np.zeros((1, 4)), adj)
        adj = ring_mask(64)
        adj[9, 9] = False
        with pytest.raises(ContractError, match=r"self-loops \(missing in rows \[9\]\)"):
            attend(np.ones((64, 2)), np.zeros((1, 4)), adj)


class TestAggregate:
    def test_identity_attention_is_self_aggregation(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 6))
        out, _ = attend(h, None, np.eye(4, dtype=bool), heads=2, fixed=np.eye(4))
        np.testing.assert_array_equal(out, h)

    def test_identical_neighbor_features_fixed_point(self):
        # A convex combination of identical rows returns that row.
        row = np.array([0.5, -0.25, 2.0])
        rng = np.random.default_rng(4)
        adj = np.ones((4, 4), dtype=bool)
        out, _ = attend(np.tile(row, (4, 1)), None, adj,
                        fixed=random_row_stochastic(adj, rng, dtype=np.float64))
        np.testing.assert_allclose(out, np.tile(row, (4, 1)), rtol=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(5)
        n, heads, f = 4, 2, 3
        h = rng.standard_normal((n, heads * f))
        adj = rng.random((n, n)) < 0.5
        np.fill_diagonal(adj, True)
        out, alphas = attend(h, rng.standard_normal((heads, 2 * f)), adj, heads=heads)
        expect = np.zeros((n, heads * f))
        for k in range(heads):
            for i in range(n):
                for c in range(k * f, (k + 1) * f):
                    acc = 0.0
                    for j in range(n):
                        acc += alphas[k][i, j] * h[j, c]
                    expect[i, c] = acc
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_heads_concatenate_in_order(self):
        # Head 0 has a zero attention row, so it averages its own columns
        # over all neighbors; head 1 attends unevenly over the next columns.
        h = np.array([[0.0, 1.0, 2.0, 3.0],
                      [4.0, 5.0, 6.0, 7.0],
                      [8.0, 9.0, 1.0, 2.0]])
        a = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        out, alphas = attend(h, a, np.ones((3, 3), dtype=bool), heads=2)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out[:, :2], np.tile(h[:, :2].mean(axis=0), (3, 1)),
                                   rtol=1e-12)
        assert not np.allclose(alphas[1], 1 / 3)
        np.testing.assert_allclose(out[:, 2:], alphas[1] @ h[:, 2:], rtol=1e-12)


def semantic(zs, seed, q=None):
    """beta of `semantic_attention` over plain (n, 4) arrays, with random
    (3, 4) W, (3,) b and, unless given, (3,) q."""
    rng = np.random.default_rng(seed)
    w, b = Tensor(rng.random((3, 4))), Tensor(rng.random(3))
    q = Tensor(rng.random(3) if q is None else q)
    _, beta = ad.semantic_attention([Tensor(z) for z in zs], w, b, q)
    return beta.data


def fuse(zs, beta):
    """`semantic_attention` with a fixed beta, on plain arrays."""
    out, _ = ad.semantic_attention([Tensor(z) for z in zs], None, None, None,
                                   fixed=np.asarray(beta))
    return out.data


class TestMetapathAttention:
    def test_single_metapath_gets_weight_one(self):
        rng = np.random.default_rng(6)
        np.testing.assert_allclose(semantic([rng.random((5, 4))], 6), [1.0])

    def test_identical_embeddings_split_evenly(self):
        rng = np.random.default_rng(7)
        z = rng.random((5, 4))
        np.testing.assert_allclose(semantic([z, z.copy()], 7), [0.5, 0.5], atol=1e-12)

    def test_zero_query_gives_uniform_weights(self):
        rng = np.random.default_rng(8)
        zs = [rng.random((5, 4)) for _ in range(3)]
        np.testing.assert_allclose(semantic(zs, 8, q=np.zeros(3)), np.full(3, 1 / 3),
                                   atol=1e-12)


class TestFuse:
    def test_one_hot_selects_single_embedding(self):
        rng = np.random.default_rng(10)
        zs = [rng.random((4, 3)) for _ in range(3)]
        np.testing.assert_allclose(fuse(zs, [0.0, 1.0, 0.0]), zs[1], atol=1e-12)

    def test_equal_embeddings_unchanged(self):
        rng = np.random.default_rng(11)
        z = rng.random((4, 3))
        np.testing.assert_allclose(fuse([z.copy() for _ in range(4)], np.full(4, 0.25)),
                                   z, rtol=1e-12)

    def test_hand_computed_blend(self):
        fused = fuse([np.array([[4.0, 8.0]]), np.array([[8.0, 0.0]])], [0.25, 0.75])
        np.testing.assert_allclose(fused, [[7.0, 2.0]], rtol=1e-12)


def decode_pair(z, i, j):
    """Score of one pair through `decode_pairs` on a one-row pair array."""
    return float(decode_pairs(Tensor(z), np.array([[i, j]])).data[0])


class TestDecoder:
    def test_unit_basis_pair(self):
        z = np.zeros((2, 4))
        z[0, 1] = z[1, 1] = 1.0
        score = decode_pair(z, 0, 1)
        assert abs(score - 1 / (1 + math.exp(-1.0))) < 1e-12

    def test_orthogonal_embeddings_score_half(self):
        z = np.eye(3)
        assert decode_pair(z, 0, 1) == 0.5

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((8, 5)).astype(np.float32)
        for _ in range(20):
            i, j = rng.integers(8, size=2)
            a = decode_pair(z, int(i), int(j))
            b = decode_pair(z, int(j), int(i))
            assert a == b

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            decode_pair(np.zeros((2, 2)), 0, 5)

    def test_labelled_partition_rejected(self):
        # four (i, j, label) rows are not six pairs
        labelled = np.array([[0, 1, 1], [1, 2, 0], [2, 3, 1], [0, 3, 0]])
        with pytest.raises(ShapeError, match=r"\(m, 2\) pairs"):
            decode_pairs(Tensor(np.eye(4)), labelled)


class TestBceLoss:
    def test_half_confidence_is_ln2(self):
        loss = bce_loss(Tensor(np.array([0.5])), np.array([1]))
        assert abs(loss.item() - math.log(2)) < 1e-7

    def test_confident_correct_approaches_zero(self):
        loss = bce_loss(Tensor(np.array([1.0 - 1e-9])), np.array([1]))
        assert loss.item() < 1e-6

    def test_additivity(self):
        loss = bce_loss(Tensor(np.array([0.5, 0.5])), np.array([1, 0]))
        assert abs(loss.item() - 2 * math.log(2)) < 1e-6

    @pytest.mark.parametrize("label", [2, 0.5, np.nan, -1])
    def test_bad_label_rejected(self, label):
        with pytest.raises(ContractError, match="labels must be 0 or 1"):
            bce_loss(Tensor(np.array([0.5, 0.5])), np.array([1, label]))

    @pytest.mark.parametrize("labels", [[0, 1], [0.0, 1.0], [False, True], [-0.0, 1.0]])
    def test_zero_one_labels_of_any_type_accepted(self, labels):
        loss = bce_loss(Tensor(np.array([0.5, 0.5])), np.array(labels))
        assert abs(loss.item() - 2 * math.log(2)) < 1e-6


class TestForward:
    def test_scores_in_open_unit_interval(self):
        rng = np.random.default_rng(13)
        config, params, graphs, features = small_setup(rng)
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        scores, _ = forward(params, features, graphs, pairs, config)
        assert np.all(scores.data > 0) and np.all(scores.data < 1)

    def test_pair_batch_permutation_permutes_scores(self):
        rng = np.random.default_rng(14)
        config, params, graphs, features = small_setup(rng)
        pairs = np.array([[0, 1], [2, 3], [4, 5], [1, 2]])
        scores, _ = forward(params, features, graphs, pairs, config)
        perm = np.array([2, 0, 3, 1])
        scores_p, _ = forward(params, features, graphs, pairs[perm], config)
        np.testing.assert_array_equal(scores_p.data, scores.data[perm])

    def test_alpha_rows_sum_to_one_over_mask(self):
        rng = np.random.default_rng(15)
        config, params, graphs, features = small_setup(rng)
        # the second graph set is under SPARSE_DENSITY
        for graphs, features in ((graphs, features),
                                 (ring_graphs(rng), rng.random((64, config.input_dim)))):
            out = encode(params, features, graphs, config)
            for mp, alphas in out.alphas.items():
                mask = graphs[mp].adjacency
                for alpha in alphas:
                    np.testing.assert_allclose(alpha.data.sum(axis=1),
                                               np.ones(mask.shape[0]), atol=1e-6)
                    assert np.all(alpha.data[~mask] == 0)

    def test_beta_is_a_distribution(self):
        rng = np.random.default_rng(16)
        config, params, graphs, features = small_setup(rng)
        out = encode(params, features, graphs, config)
        assert np.all(out.beta.data >= 0)
        assert abs(out.beta.data.sum() - 1.0) < 1e-6

    def test_fused_is_beta_weighted_sum(self):
        rng = np.random.default_rng(17)
        config, params, graphs, features = small_setup(rng)
        out = encode(params, features, graphs, config)
        manual = sum(out.beta.data[t] * out.z_mp[mp].data
                     for t, mp in enumerate(params.metapaths))
        np.testing.assert_array_equal(out.fused.data, manual)

    def test_drug_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        config, params, graphs, features = small_setup(rng, n=7)
        pairs = np.array([[0, 3], [2, 6], [1, 5]])
        scores, out = forward(params, features, graphs, pairs, config)

        perm = rng.permutation(7)
        inv = np.argsort(perm)
        graphs_p = {mp: NeighborGraph(mp, sp.csr_array(g.adjacency[perm][:, perm]))
                    for mp, g in graphs.items()}
        pairs_p = inv[pairs]
        scores_p, out_p = forward(params, features[perm], graphs_p, pairs_p, config)
        np.testing.assert_allclose(out_p.fused.data, out.fused.data[perm],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(scores_p.data, scores.data, rtol=1e-10)

    def test_forced_alpha_and_beta_reproduce_ablation_path(self):
        rng = np.random.default_rng(19)
        config, params, graphs, features = small_setup(rng, n=5)
        fixed = {mp: random_row_stochastic(g.adjacency, rng, dtype=np.float64)
                 for mp, g in graphs.items()}
        out = encode(params, features, graphs, config,
                     fixed_alpha=fixed, uniform_beta=True)
        # manual replay of the same computation
        x = features.astype(np.float64)
        manual_z = {}
        for mp in params.metapaths:
            heads = []
            f = config.hidden_dim
            for k in range(config.heads):
                hk = x @ params.proj.data[:, k * f:(k + 1) * f]
                heads.append(np.maximum(fixed[mp] @ hk, 0))
            manual_z[mp] = np.concatenate(heads, axis=1)
        np.testing.assert_array_equal(out.beta.data,
                                      np.full(4, 0.25))
        for mp in params.metapaths:
            np.testing.assert_allclose(out.z_mp[mp].data, manual_z[mp], rtol=1e-12)

    def test_full_model_gradients_match_finite_differences(self):
        rng = np.random.default_rng(20)
        config, params, graphs, features = small_setup(
            rng, n=12, d0=6, heads=2, hidden=3, attn_dim=5, dtype=np.float64)
        pairs = np.array([[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11],
                          [0, 11], [3, 8]])
        labels = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        # every graph of the second set is under SPARSE_DENSITY
        for graphs, features in ((graphs, features),
                                 (ring_graphs(rng), rng.random((64, 6)))):
            def loss_fn():
                scores, _ = forward(params, features, graphs, pairs, config)
                return bce_loss(scores, labels)

            report = finite_diff_check(loss_fn, params.named(), probes=4,
                                       rng=np.random.default_rng(21))
            assert report.max_rel_error < 1e-7, report.worst_by_param

    def test_training_mode_with_seeded_dropout_is_deterministic(self):
        rng = np.random.default_rng(22)
        config, params, graphs, features = small_setup(rng, dropout=0.4)
        pairs = np.array([[0, 1], [2, 3]])

        def run(graphs, features):
            scores, _ = forward(params, features, graphs, pairs, config,
                                training=True, rng=np.random.default_rng(77))
            return scores.data

        for graphs, features in ((graphs, features),
                                 (ring_graphs(rng), rng.random((64, config.input_dim)))):
            assert run(graphs, features).tobytes() == run(graphs, features).tobytes()

    def test_each_metapath_is_one_fused_node_and_one_activation(self):
        rng = np.random.default_rng(27)
        config, params, graphs, features = small_setup(rng)
        out = encode(params, features, graphs, config)
        projections = set()
        for mp in params.metapaths:
            z = out.z_mp[mp]
            assert z._op == "relu"
            (fused,) = z._parents
            assert fused._op == "graph_attention"
            h, attn = fused._parents
            assert attn is params.attn[mp]
            assert h._op == "matmul" and h._parents[1] is params.proj
            projections.add(id(h))
        assert len(projections) == 1

    def test_training_step_tape_is_21_nodes(self):
        rng = np.random.default_rng(29)
        config, params, graphs, features = small_setup(rng, dropout=0.5)
        pairs = np.array([[0, 1], [2, 3], [4, 5], [1, 1]])
        scores, _ = forward(params, features, graphs, pairs, config,
                            training=True, rng=np.random.default_rng(3))
        loss = bce_loss(scores, np.array([1, 0, 1, 0]))
        seen, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        ops = Counter(node._op for node in seen.values())
        assert ops == {"binary_cross_entropy": 1, "pair_scores": 1,
                       "semantic_attention": 1, "relu": 4,
                       "graph_attention": 4, "matmul": 1, "dropout": 1, "leaf": 8}
        leaves = {id(node) for node in seen.values() if node._op == "leaf"}
        assert leaves == {id(t) for t in params.trainable()}

    def test_graph_name_mismatch_rejected(self):
        rng = np.random.default_rng(23)
        config, params, graphs, features = small_setup(rng)
        del graphs["DID-4"]
        with pytest.raises(ShapeError):
            encode(params, features, graphs, config)


class TestModelConfig:
    def test_echo_strings(self):
        config = ModelConfig(input_dim=7, hidden_dim=3, heads=2, attn_dim=5,
                             leaky_slope=0.1, dropout=0.25, seed=3)
        assert config.echo() == {
            "input_dim": "7", "hidden_dim": "3", "heads": "2", "attn_dim": "5",
            "leaky_slope": "0.1", "dropout": "0.25", "seed": "3"}
        # older echoes also name the activation and the pooling, now fixed
        old = {**config.echo(), "metapaths": "DID-1", "activation": "relu", "pool": "mean"}
        assert ModelConfig.from_echo(old) == config


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(24)
        config, params, _, _ = small_setup(rng, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config.echo())
        loaded, echo = load_checkpoint(path)
        assert echo["metapaths"] == ",".join(params.metapaths)
        for name, tensor in params.named().items():
            other = loaded.named()[name]
            assert tensor.data.dtype == other.data.dtype
            assert tensor.data.tobytes() == other.data.tobytes()
        restored = ModelConfig.from_echo(echo)
        assert restored == config

    def test_scores_reproduce_after_reload(self, tmp_path):
        rng = np.random.default_rng(25)
        config, params, graphs, features = small_setup(rng, dtype=np.float32)
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        before, _ = forward(params, features, graphs, pairs, config)
        save_checkpoint(tmp_path / "m.ckpt", params, config.echo())
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        after, _ = forward(loaded, features, graphs, pairs, config)
        assert before.data.tobytes() == after.data.tobytes()

    def test_float64_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        config, params, _, _ = small_setup(rng, dtype=np.float64)
        save_checkpoint(tmp_path / "m.ckpt", params, config.echo())
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.dtype == np.float64

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ContractError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_per_head_checkpoint_from_older_version_loads(self, tmp_path):
        # Written by save_checkpoint before the heads were fused, from the
        # init_params call below.
        config = ModelConfig(input_dim=4, hidden_dim=3, heads=2, attn_dim=3)
        expect = init_params(config, ("DID-1", "DID-3"), np.random.default_rng(0))
        loaded, echo = load_checkpoint(LEGACY_CHECKPOINT)
        assert ModelConfig.from_echo(echo) == config
        assert list(loaded.named()) == list(expect.named())
        for name, tensor in expect.named().items():
            other = loaded.named()[name]
            assert other.dtype == tensor.dtype and other.shape == tensor.shape
            assert other.data.tobytes() == tensor.data.tobytes(), name
        # its echo also names the activation and the pooling, since fixed
        assert (echo["activation"], echo["pool"]) == ("relu", "mean")
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, per_head_layout(loaded, config.heads), echo)
        assert again.read_bytes() == LEGACY_CHECKPOINT.read_bytes()

    def test_every_truncation_is_a_contract_error(self, tmp_path):
        rng = np.random.default_rng(28)
        config, params, _, _ = small_setup(rng, n_mps=2, dtype=np.float32)
        save_checkpoint(tmp_path / "m.ckpt", params, config.echo())
        cut = tmp_path / "cut.ckpt"
        for source in (tmp_path / "m.ckpt", LEGACY_CHECKPOINT):
            raw = source.read_bytes()
            for size in range(len(raw)):
                cut.write_bytes(raw[:size])
                with pytest.raises(ContractError, match=r"cut\.ckpt: (not a checkpoint "
                                   r"file|truncated or corrupt checkpoint)$"):
                    load_checkpoint(cut)

    def test_trailing_bytes_are_a_contract_error(self, tmp_path):
        rng = np.random.default_rng(30)
        config, params, _, _ = small_setup(rng, n_mps=2, dtype=np.float32)
        save_checkpoint(tmp_path / "m.ckpt", params, config.echo())
        longer = tmp_path / "longer.ckpt"
        for source in (tmp_path / "m.ckpt", LEGACY_CHECKPOINT):
            for extra in (b"\x00", bytes(16)):
                longer.write_bytes(source.read_bytes() + extra)
                with pytest.raises(ContractError,
                                   match=r"longer\.ckpt: truncated or corrupt checkpoint$"):
                    load_checkpoint(longer)
