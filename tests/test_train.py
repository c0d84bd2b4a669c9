"""Training loop behavior and learning on the planted instance."""

import numpy as np
import pytest

from hinddi.data import purpose_rng, split_cold_start, split_edges
from hinddi.model import ModelConfig, encode, init_params
from hinddi.pipeline import InputPaths, load_hin_inputs, make_espf_features, make_graphs
from hinddi.synth import generate_planted, write_planted
from hinddi.train import TrainConfig, TrainingError, ablate, evaluate_pairs, train


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    write_planted(generate_planted(seed=0), out)
    hin = load_hin_inputs(InputPaths.in_dir(out))
    graphs = make_graphs(hin, ["DID-1", "DID-2", "DID-3", "DID-4"])
    features, _ = make_espf_features(out / "smiles.tsv", hin, threshold=2)
    return hin, graphs, features.values.astype(np.float32)


def fresh_params(config, graphs, seed):
    return init_params(config, sorted(graphs), purpose_rng(seed, "init"))


class TestPlantedLearning:
    def test_edge_split_recovers_signal(self, planted):
        hin, graphs, feats = planted
        config = ModelConfig(input_dim=feats.shape[1], seed=0)
        bundle = split_edges(hin.ddi, hin.n_drugs, seed=0)
        params = fresh_params(config, graphs, 0)
        history = train(params, config, TrainConfig(seed=0), bundle, graphs, feats)
        assert history.stopped_epoch <= 200
        _, train_metrics = evaluate_pairs(params, config, bundle.train, graphs, feats)
        _, test_metrics = evaluate_pairs(params, config, bundle.test, graphs, feats)
        assert train_metrics.auroc >= 0.95
        assert test_metrics.auroc >= 0.90

    def test_cold_start_scores_unseen_drugs(self, planted):
        hin, graphs, feats = planted
        config = ModelConfig(input_dim=feats.shape[1], seed=0)
        bundle = split_cold_start(hin.ddi, hin.n_drugs, 0.2, seed=0)
        params = fresh_params(config, graphs, 0)
        train(params, config, TrainConfig(seed=0), bundle, graphs, feats)
        _, metrics = evaluate_pairs(params, config, bundle.test, graphs, feats)
        assert metrics.auroc >= 0.80


class TestLoopMechanics:
    def small_world(self, seed=0, n=10):
        rng = np.random.default_rng(seed)
        from tests.test_model import random_graphs
        graphs = random_graphs(rng, n)
        feats = rng.random((n, 4)).astype(np.float32)
        ddis = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (2, 7), (1, 8)]
        bundle = split_edges(ddis, n, ratios=(0.6, 0.2, 0.2), seed=seed)
        config = ModelConfig(input_dim=4, hidden_dim=3, heads=2, attn_dim=4,
                             dropout=0.2, seed=seed)
        return config, graphs, feats, bundle

    def test_patience_zero_stops_at_first_non_improving_epoch(self):
        config, graphs, feats, bundle = self.small_world()
        params = fresh_params(config, graphs, 0)
        tc = TrainConfig(seed=0, epochs=50, patience=0)
        history = train(params, config, tc, bundle, graphs, feats)
        # the run ends exactly one epoch after its best epoch
        assert history.stopped_epoch == history.best_epoch + 1

    def test_epochs_after_best_never_exceed_patience(self):
        config, graphs, feats, bundle = self.small_world(seed=1)
        params = fresh_params(config, graphs, 1)
        tc = TrainConfig(seed=1, epochs=60, patience=5)
        history = train(params, config, tc, bundle, graphs, feats)
        if history.stopped_epoch < tc.epochs:  # early stop fired
            assert history.stopped_epoch - history.best_epoch == tc.patience

    def test_identical_seeds_identical_histories(self):
        config, graphs, feats, bundle = self.small_world(seed=2)
        runs = []
        for _ in range(2):
            params = fresh_params(config, graphs, 2)
            history = train(params, config, TrainConfig(seed=2, epochs=20),
                            bundle, graphs, feats)
            runs.append((history.to_tsv(), params.snapshot()))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert runs[0][1][name].tobytes() == runs[1][1][name].tobytes()

    def test_best_checkpoint_is_min_val_loss_epoch(self):
        config, graphs, feats, bundle = self.small_world(seed=3)
        params = fresh_params(config, graphs, 3)
        history = train(params, config, TrainConfig(seed=3, epochs=30),
                        bundle, graphs, feats)
        losses = [r.val_loss for r in history.records]
        assert history.best_epoch == int(np.argmin(losses)) + 1
        # restored parameters reproduce the recorded best validation loss
        from hinddi.data import pairs_to_arrays
        from hinddi.model import bce_loss, forward
        pairs, labels = pairs_to_arrays(bundle.validation)
        scores, _ = forward(params, feats, graphs, pairs, config)
        val_loss = bce_loss(scores, labels).item() / len(labels)
        assert val_loss == pytest.approx(min(losses), rel=1e-6)

    def test_empty_train_set_rejected(self):
        config, graphs, feats, bundle = self.small_world(seed=4)
        bundle.train = bundle.train[:0]
        with pytest.raises(TrainingError, match="empty"):
            train(fresh_params(config, graphs, 4), config, TrainConfig(seed=4),
                  bundle, graphs, feats)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_forward_aborts_with_epoch(self):
        config, graphs, feats, bundle = self.small_world(seed=5)
        feats = feats.copy() * 1e38  # overflows the first projection
        with pytest.raises(TrainingError, match="epoch 1"):
            train(fresh_params(config, graphs, 5), config, TrainConfig(seed=5),
                  bundle, graphs, feats)


class TestAblate:
    def test_variant_n_pins_uniform_beta(self):
        config, graphs, feats, bundle = TestLoopMechanics().small_world(seed=6)
        tc = TrainConfig(seed=6, epochs=10)
        params, _, metrics, detail = ablate("N", config, tc, bundle, graphs, feats)
        assert detail["uniform_beta"] is True
        out = encode(params, feats, graphs, config, uniform_beta=True)
        np.testing.assert_array_equal(out.beta.data,
                                      np.full(4, 0.25, dtype=np.float32))
        assert metrics.auroc is not None

    def test_variant_mp_alpha_rows_stochastic(self):
        from hinddi.model import random_row_stochastic
        config, graphs, feats, bundle = TestLoopMechanics().small_world(seed=7)
        rng = purpose_rng(7, "ablation")
        for mp, g in sorted(graphs.items()):
            alpha = random_row_stochastic(g.adjacency, rng)
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(alpha[~g.adjacency] == 0)

    def test_unknown_variant_rejected(self):
        config, graphs, feats, bundle = TestLoopMechanics().small_world(seed=8)
        with pytest.raises(ValueError, match="variant"):
            ablate("X", config, TrainConfig(seed=8), bundle, graphs, feats)

    def test_full_model_not_worse_than_random_attention(self, planted):
        # single-seed sanity; the seed-averaged ordering over both variants
        # is asserted in the acceptance suite
        hin, graphs, feats = planted
        config = ModelConfig(input_dim=feats.shape[1], seed=0)
        bundle = split_edges(hin.ddi, hin.n_drugs, seed=0)
        params = fresh_params(config, graphs, 0)
        train(params, config, TrainConfig(seed=0), bundle, graphs, feats)
        _, full = evaluate_pairs(params, config, bundle.test, graphs, feats)
        _, _, mp_metrics, _ = ablate("MP", config, TrainConfig(seed=0), bundle,
                                     graphs, feats)
        assert full.auroc >= mp_metrics.auroc
