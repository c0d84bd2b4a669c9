"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -rA` to see the lines for passing tests too).

The three experiment criteria share one planted 50-drug dataset in which
drugs interact exactly when they share a target protein, so the label
signal is fully recoverable from the drug-protein-drug meta-path.
"""

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from hinddi.cli import main as cli_main
from hinddi.data import purpose_rng, split_cold_start, split_edges
from hinddi.espf import build_vocab, save_vocab, tokenize_smiles
from hinddi.gradcheck import finite_diff_check
from hinddi.metapath import builtin_specs, commuting_matrix
from hinddi.metrics import auroc
from hinddi.model import (
    ModelConfig,
    bce_loss,
    decode_pairs,
    encode,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hinddi.pipeline import InputPaths, load_hin_inputs, make_espf_features, make_graphs
from hinddi.synth import desk_instance, generate_planted, write_planted
from hinddi.train import TrainConfig, ablate, evaluate_pairs, train
from tests.conftest import brute_force_path_counts, random_hin
from tests.test_metrics import auroc_oracle
from tests.test_model import random_graphs

SEEDS = (0, 1, 2)


def criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# shared planted experiment (criteria 5, 6, 7, 10)


@dataclass
class PlantedRuns:
    graphs: dict
    features: np.ndarray
    n_drugs: int
    edge_train_auroc: list[float] = field(default_factory=list)
    edge_test_auroc: list[float] = field(default_factory=list)
    edge_epochs: list[int] = field(default_factory=list)
    cold_test_auroc: list[float] = field(default_factory=list)
    mp_test_auroc: list[float] = field(default_factory=list)
    n_test_auroc: list[float] = field(default_factory=list)
    edge_seconds: float = 0.0
    first_params: object = None
    first_config: object = None


@pytest.fixture(scope="module")
def planted(tmp_path_factory) -> PlantedRuns:
    root = tmp_path_factory.mktemp("acceptance_planted")
    write_planted(generate_planted(seed=0), root)
    hin = load_hin_inputs(InputPaths.in_dir(root))
    graphs = make_graphs(hin, [s.name for s in builtin_specs()])
    feature_matrix, _ = make_espf_features(root / "smiles.tsv", hin, threshold=2)
    features = feature_matrix.values.astype(np.float32)
    runs = PlantedRuns(graphs=graphs, features=features, n_drugs=hin.n_drugs)

    started = time.time()
    for seed in SEEDS:
        config = ModelConfig(input_dim=feature_matrix.d0, seed=seed)
        bundle = split_edges(hin.ddi, hin.n_drugs, seed=seed)
        params = init_params(config, sorted(graphs), purpose_rng(seed, "init"))
        history = train(params, config, TrainConfig(seed=seed), bundle,
                        graphs, features)
        _, train_metrics = evaluate_pairs(params, config, bundle.train,
                                          graphs, features)
        _, test_metrics = evaluate_pairs(params, config, bundle.test,
                                         graphs, features)
        runs.edge_train_auroc.append(train_metrics.auroc)
        runs.edge_test_auroc.append(test_metrics.auroc)
        runs.edge_epochs.append(history.stopped_epoch)
        if seed == SEEDS[0]:
            runs.first_params = params
            runs.first_config = config
    runs.edge_seconds = time.time() - started

    for seed in SEEDS:
        config = ModelConfig(input_dim=feature_matrix.d0, seed=seed)
        bundle = split_edges(hin.ddi, hin.n_drugs, seed=seed)
        _, _, mp_metrics, _ = ablate("MP", config, TrainConfig(seed=seed),
                                     bundle, graphs, features)
        _, _, n_metrics, _ = ablate("N", config, TrainConfig(seed=seed),
                                    bundle, graphs, features)
        runs.mp_test_auroc.append(mp_metrics.auroc)
        runs.n_test_auroc.append(n_metrics.auroc)

    for seed in SEEDS:
        config = ModelConfig(input_dim=feature_matrix.d0, seed=seed)
        bundle = split_cold_start(hin.ddi, hin.n_drugs, 0.2, seed=seed)
        params = init_params(config, sorted(graphs), purpose_rng(seed, "init"))
        train(params, config, TrainConfig(seed=seed), bundle, graphs, features)
        _, metrics = evaluate_pairs(params, config, bundle.test, graphs, features)
        runs.cold_test_auroc.append(metrics.auroc)
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_correctness(capsys):
    started = time.time()
    graphs, features, pairs, labels = desk_instance(seed=0, n_drugs=12)
    config = ModelConfig(input_dim=features.shape[1], hidden_dim=3, heads=2,
                         attn_dim=5, dropout=0.0, seed=0)
    params = init_params(config, sorted(graphs), purpose_rng(0, "init"),
                         dtype=np.float64)

    def loss_fn():
        scores, _ = forward(params, features, graphs, pairs, config)
        return bce_loss(scores, labels)

    report = finite_diff_check(loss_fn, params.named(), probes=5,
                               rng=np.random.default_rng(0))
    groups = {name.split(".")[0] for name in report.worst_by_param}
    elapsed = time.time() - started
    with capsys.disabled():
        criterion(1, report.max_rel_error < 1e-5
                  and groups == {"proj", "attn", "w_mp", "b_mp", "q_mp"}
                  and elapsed < 30.0
                  and cli_main(["gradcheck"]) == 0,
                  f"gradcheck max rel error {report.max_rel_error:.2e} < 1e-5 "
                  f"over groups {sorted(groups)} in {elapsed:.1f}s")


def test_criterion_2_commuting_matrix_oracle(capsys):
    started = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    checked = 0
    for _ in range(100):
        hin = random_hin(rng, max_per_kind=20)
        for spec in builtin_specs():
            counts = commuting_matrix(hin, spec).counts
            oracle = brute_force_path_counts(hin, spec)
            for i in range(hin.n_drugs):
                for j in range(hin.n_drugs):
                    checked += 1
                    if counts[i, j] != oracle[i, j]:
                        mismatches += 1
    elapsed = time.time() - started
    with capsys.disabled():
        criterion(2, mismatches == 0 and elapsed < 10.0,
                  f"{checked} commuting entries equal the path-enumeration "
                  f"oracle on 100 random networks in {elapsed:.1f}s")


def test_criterion_3_attention_normalization(capsys):
    rng = np.random.default_rng(7)
    cases = 0
    worst_alpha = 0.0
    worst_beta = 0.0
    while cases < 1000:
        n = int(rng.integers(2, 9))
        heads = int(rng.integers(1, 4))
        hidden = int(rng.integers(2, 6))
        n_mps = int(rng.integers(1, 5))
        names = [s.name for s in builtin_specs()][:n_mps]
        config = ModelConfig(input_dim=4, hidden_dim=hidden, heads=heads,
                             attn_dim=3, dropout=0.0, seed=0)
        params = init_params(config, names, rng)
        graphs = random_graphs(rng, n, names,
                               density=float(rng.uniform(0.1, 0.9)))
        out = encode(params, rng.random((n, 4)), graphs, config)
        for mp, alphas in out.alphas.items():
            mask = graphs[mp].adjacency
            for alpha in alphas:
                worst_alpha = max(worst_alpha,
                                  float(np.abs(alpha.data.sum(axis=1) - 1).max()))
                assert np.all(alpha.data[~mask] == 0)
        beta = out.beta.data
        assert np.all(beta >= 0)
        worst_beta = max(worst_beta, abs(float(beta.sum()) - 1.0))
        cases += 1
    with capsys.disabled():
        criterion(3, worst_alpha < 1e-6 and worst_beta < 1e-6,
                  f"{cases} random models: max |alpha row sum - 1| = "
                  f"{worst_alpha:.2e}, max |beta sum - 1| = {worst_beta:.2e}")


def test_criterion_4_auroc_oracle(capsys):
    rng = np.random.default_rng(11)
    exact = 0
    for case in range(500):
        n = int(rng.integers(4, 60))
        if case % 2:
            scores = rng.integers(0, 4, size=n) / 3.0  # heavy ties
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if auroc(scores, labels) == auroc_oracle(scores, labels):
            exact += 1
    with capsys.disabled():
        criterion(4, exact == 500,
                  f"rank-based AUROC exactly equals pair counting on "
                  f"{exact}/500 vectors including heavy ties")


def test_criterion_5_planted_signal_learning(planted, capsys):
    train_mean = float(np.mean(planted.edge_train_auroc))
    test_mean = float(np.mean(planted.edge_test_auroc))
    ok = (train_mean >= 0.95 and test_mean >= 0.90
          and max(planted.edge_epochs) <= 200 and planted.edge_seconds < 120.0)
    with capsys.disabled():
        criterion(5, ok,
                  f"edge split over seeds {SEEDS}: train AUROC {train_mean:.4f} "
                  f">= 0.95, test AUROC {test_mean:.4f} >= 0.90, "
                  f"<= {max(planted.edge_epochs)} epochs, "
                  f"{planted.edge_seconds:.1f}s < 120s")


def test_criterion_6_cold_start_inductivity(planted, capsys):
    mean = float(np.mean(planted.cold_test_auroc))
    with capsys.disabled():
        criterion(6, mean >= 0.80,
                  f"cold-start (20% drugs hidden) test AUROC over seeds "
                  f"{SEEDS}: {mean:.4f} >= 0.80 "
                  f"(per seed: {[round(v, 3) for v in planted.cold_test_auroc]})")


def test_criterion_7_ablation_ordering(planted, capsys):
    full = float(np.mean(planted.edge_test_auroc))
    mp = float(np.mean(planted.mp_test_auroc))
    uniform = float(np.mean(planted.n_test_auroc))
    with capsys.disabled():
        criterion(7, full >= mp and full >= uniform,
                  f"seed-averaged test AUROC: full {full:.4f} >= "
                  f"random-node-attention {mp:.4f} and >= uniform-weights "
                  f"{uniform:.4f}")


def test_criterion_8_espf_determinism(tmp_path, capsys):
    corpus = [tokenize_smiles("CCO"), tokenize_smiles("CCN")]
    vocab_a = build_vocab(corpus, threshold=2, max_size=16)
    hand_traced = vocab_a.units == ("C", "N", "O", "CC") and \
        vocab_a.merges == (("C", "C"),)
    save_vocab(vocab_a, tmp_path / "a.tsv")
    save_vocab(build_vocab(corpus, threshold=2, max_size=16), tmp_path / "b.tsv")
    two_drug_identical = ((tmp_path / "a.tsv").read_bytes()
                          == (tmp_path / "b.tsv").read_bytes())

    rng = np.random.default_rng(3)
    alphabet = list("CNOS(=)1")
    big = [[alphabet[k] for k in rng.integers(0, len(alphabet), size=20)]
           for _ in range(30)]
    save_vocab(build_vocab(big, threshold=2, max_size=64), tmp_path / "c.tsv")
    save_vocab(build_vocab([list(s) for s in big], threshold=2, max_size=64),
               tmp_path / "d.tsv")
    rerun_identical = ((tmp_path / "c.tsv").read_bytes()
                       == (tmp_path / "d.tsv").read_bytes())
    with capsys.disabled():
        criterion(8, hand_traced and two_drug_identical and rerun_identical,
                  "two-drug corpus merges (C,C) first into 'CC' at threshold 2; "
                  "vocabulary re-runs are byte-identical")


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        assert cli_main(["synth", "--out", str(root), "--seed", "0"]) == 0
        cfg = str(root / "run.cfg")
        assert cli_main(["build-graph", "--config", cfg]) == 0
        assert cli_main(["featurize", "--config", cfg]) == 0
        assert cli_main(["train", "--config", cfg]) == 0
        out = root / "out"
        digests.append(tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("history.tsv", "checkpoint.bin", "metrics_test.tsv",
                         "metrics_validation.tsv", "summary.json")))
    with capsys.disabled():
        criterion(9, digests[0] == digests[1],
                  "two cmd_train runs with identical config and seed produce "
                  "byte-identical history, checkpoint and metrics files")


def test_criterion_10_decoder_symmetry_and_checkpoint(planted, tmp_path, capsys):
    params, config = planted.first_params, planted.first_config
    out = encode(params, planted.features, planted.graphs, config)
    n = planted.n_drugs
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                     dtype=np.int64)
    forward_scores = decode_pairs(out.fused, pairs).data
    reversed_scores = decode_pairs(out.fused, pairs[:, ::-1]).data
    symmetric = forward_scores.tobytes() == reversed_scores.tobytes()

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config.echo())
    reloaded, echo = load_checkpoint(path)
    out2 = encode(reloaded, planted.features, planted.graphs,
                  ModelConfig.from_echo(echo))
    reload_scores = decode_pairs(out2.fused, pairs).data
    round_trip = forward_scores.tobytes() == reload_scores.tobytes()
    with capsys.disabled():
        criterion(10, symmetric and round_trip,
                  f"all {len(pairs)} pair scores are bit-exactly symmetric and "
                  "reproduce bit-exactly after checkpoint save/load")
