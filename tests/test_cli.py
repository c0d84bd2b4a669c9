"""Command-line surface: pipeline wiring, error paths, manifests."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hinddi import autodiff as ad
from hinddi import cli
from hinddi.cli import main
from hinddi.config import ConfigError, RunConfig
from hinddi.metapath import TOP_K
from hinddi.model import ModelConfig, encode, load_checkpoint, save_checkpoint
from hinddi.synth import desk_instance
from tests.test_model import LEGACY_CHECKPOINT, per_head_layout


def run_cli(*argv):
    return main([str(a) for a in argv])


def quick_synth(root, seed=0, drugs=20, epochs=40):
    """Generate a small dataset plus a config tuned for fast test runs."""
    assert run_cli("synth", "--out", root, "--seed", seed,
                   "--drugs", drugs) == 0
    cfg = root / "run.cfg"
    cfg.write_text(cfg.read_text(encoding="utf-8")
                   + f"\n[training]\nepochs = {epochs}\n", encoding="utf-8")
    return cfg


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth + build-graph + featurize + train, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = quick_synth(root)
    assert run_cli("build-graph", "--config", cfg) == 0
    assert run_cli("featurize", "--config", cfg) == 0
    assert run_cli("train", "--config", cfg) == 0
    return root, cfg


class TestBuildGraph:
    def test_outputs_and_stats(self, pipeline):
        root, _ = pipeline
        out = root / "out"
        stats = dict(line.split("\t") for line in
                     (out / "stats.tsv").read_text().splitlines())
        assert stats["Drug"] == "20"
        assert stats["Substructure"] == "167"
        assert (out / "graph" / "registry.tsv").exists()
        report = (out / "validation.txt").read_text().splitlines()
        assert report[0] == "validation: pass"
        assert sum("orphan substructure" in line for line in report) == 1
        manifest = json.loads((out / "build_graph.manifest.json").read_text())
        assert manifest["validation_passed"] is True
        assert manifest["config"]["run.seed"] == "0"
        assert len(manifest["inputs"]) == 5

    def test_corrupt_ppi_fails_strict_and_names_pair(self, tmp_path):
        cfg = quick_synth(tmp_path, seed=1)
        ppi = tmp_path / "ppi.tsv"
        ppi.write_text(ppi.read_text(encoding="utf-8") + "P03\tP03\n",
                       encoding="utf-8")
        assert run_cli("build-graph", "--config", cfg, "--strict") == 1
        report = (tmp_path / "out" / "validation.txt").read_text()
        assert "P03" in report and "diagonal" in report

    def test_missing_input_file_reports_path(self, tmp_path, capsys):
        cfg = quick_synth(tmp_path, seed=2)
        (tmp_path / "ddi.tsv").unlink()
        assert run_cli("build-graph", "--config", cfg) == 1
        assert "ddi.tsv" in capsys.readouterr().err

    def test_repeated_fingerprint_drug_gives_one_error_line(self, tmp_path, capsys):
        cfg = quick_synth(tmp_path, seed=5)
        fingerprints = tmp_path / "fingerprints.tsv"
        lines = fingerprints.read_text(encoding="utf-8").splitlines()
        drug = lines[0].split("\t")[0]
        fingerprints.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
        assert run_cli("build-graph", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {fingerprints}:{len(lines) + 1}: drug {drug!r} "
                       f"repeats line 1\n")

    def test_write_metapaths_emits_count_tsv(self, tmp_path):
        cfg = quick_synth(tmp_path, seed=3)
        assert run_cli("build-graph", "--config", cfg, "--write-metapaths") == 0
        path = tmp_path / "out" / "metapaths" / "DID-1.tsv"
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert rows and all(len(r) == 3 and int(r[2]) >= 1 for r in rows)


class TestFeaturize:
    def test_rerun_byte_identical(self, pipeline):
        root, cfg = pipeline
        features = (root / "out" / "features.tsv").read_bytes()
        vocab = (root / "out" / "vocab.tsv").read_bytes()
        assert run_cli("featurize", "--config", cfg) == 0
        assert (root / "out" / "features.tsv").read_bytes() == features
        assert (root / "out" / "vocab.tsv").read_bytes() == vocab

    def test_fingerprint_mode_gives_167_features(self, tmp_path):
        cfg = quick_synth(tmp_path, seed=4)
        assert run_cli("build-graph", "--config", cfg) == 0
        assert run_cli("featurize", "--config", cfg,
                       "--features", "fingerprint") == 0
        manifest = json.loads(
            (tmp_path / "out" / "featurize.manifest.json").read_text())
        assert manifest["d0"] == 167
        header = (tmp_path / "out" / "features.tsv").read_text().splitlines()[0]
        assert "mode=fingerprint" in header and "d0=167" in header


    def test_repeated_smiles_drug_gives_one_error_line(self, tmp_path, capsys):
        cfg = quick_synth(tmp_path, seed=6)
        assert run_cli("build-graph", "--config", cfg) == 0
        smiles = tmp_path / "smiles.tsv"
        lines = smiles.read_text(encoding="utf-8").splitlines()
        drug = lines[1].split("\t")[0]
        smiles.write_text("\n".join(lines + [f"{drug}\tCC"]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("featurize", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err == f"error: {smiles}:{len(lines) + 1}: drug {drug!r} repeats line 2\n"


class TestTrain:
    def test_artifacts_written(self, pipeline):
        root, _ = pipeline
        out = root / "out"
        for name in ("checkpoint.bin", "history.tsv", "metrics_test.tsv",
                     "metrics_validation.tsv", "summary.json",
                     "train.manifest.json"):
            assert (out / name).exists(), name
        history = (out / "history.tsv").read_text().splitlines()
        assert history[0] == "epoch\ttrain_loss\tval_loss\tval_auroc"
        assert len(history) >= 3

    def test_checkpoint_and_summary_hold_no_absolute_path(self, pipeline):
        root, _ = pipeline
        out = root / "out"
        _, echo = load_checkpoint(out / "checkpoint.bin")
        summary = json.loads((out / "summary.json").read_text())
        for config in (echo, summary["config"]):
            assert config["data.ddi"] == "ddi.tsv"
            assert config["output.out_dir"] == "out"
        for name in ("checkpoint.bin", "summary.json"):
            assert str(root).encode() not in (out / name).read_bytes(), name
        manifest = json.loads((out / "build_graph.manifest.json").read_text())
        assert str((root / "ddi.tsv").absolute()) in manifest["inputs"]

    def test_checkpoint_echoes_each_model_setting_once(self, pipeline):
        # by the names ModelConfig.from_echo reads; the manifest keeps the
        # section names of the config file
        root, _ = pipeline
        out = root / "out"
        _, echo = load_checkpoint(out / "checkpoint.bin")
        assert not [key for key in echo if key.startswith("model.")]
        assert ModelConfig.from_echo(echo).echo().items() <= echo.items()
        summary = json.loads((out / "summary.json").read_text())
        assert "model.hidden" in summary["config"]

    def test_checkpoint_with_absolute_echo_still_loads(self, pipeline, tmp_path):
        # Earlier checkpoints echoed absolute data and output paths.
        root, cfg = pipeline
        out = root / "out"
        params, echo = load_checkpoint(out / "checkpoint.bin")
        echo["data.ddi"] = str((root / "ddi.tsv").absolute())
        echo["output.out_dir"] = str(out.absolute())
        legacy = tmp_path / "legacy.bin"
        save_checkpoint(legacy, params, echo)
        assert run_cli("evaluate", "--config", cfg, "--checkpoint", legacy,
                       "--split", "test") == 0
        assert ((out / "eval_test.tsv").read_text()
                == (out / "metrics_test.tsv").read_text())
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("D000\tD001\n", encoding="utf-8")
        assert run_cli("predict", "--config", cfg, "--checkpoint", legacy,
                       "--pairs", pairs, "--scores-out", tmp_path / "s.tsv") == 0
        assert len((tmp_path / "s.tsv").read_text().splitlines()) == 1

    def test_per_head_checkpoint_still_loads(self, pipeline, tmp_path):
        # Checkpoints written before the heads were fused name one tensor
        # per head.
        root, cfg = pipeline
        out = root / "out"
        params, echo = load_checkpoint(out / "checkpoint.bin")
        legacy = tmp_path / "per_head.bin"
        save_checkpoint(legacy, per_head_layout(params, int(echo["heads"])), echo)
        assert run_cli("evaluate", "--config", cfg, "--checkpoint", legacy,
                       "--split", "test") == 0
        assert ((out / "eval_test.tsv").read_text()
                == (out / "metrics_test.tsv").read_text())
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("D000\tD001\nD004\tD012\n", encoding="utf-8")
        for name, checkpoint in (("new", out / "checkpoint.bin"), ("old", legacy)):
            assert run_cli("predict", "--config", cfg, "--checkpoint", checkpoint,
                           "--pairs", pairs, "--scores-out",
                           tmp_path / f"{name}.tsv") == 0
        assert (tmp_path / "old.tsv").read_text() == (tmp_path / "new.tsv").read_text()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_bad_checkpoint_gives_one_error_line(self, pipeline, tmp_path,
                                                 capsys, command):
        root, cfg = pipeline
        good = root / "out" / "checkpoint.bin"
        raw = good.read_bytes()
        bad = []
        for size in (14, len(raw) // 2):
            bad.append(tmp_path / f"cut_{size}.bin")
            bad[-1].write_bytes(raw[:size])
        bad.append(tmp_path / "longer.bin")
        bad[-1].write_bytes(raw + bytes(16))
        params, echo = load_checkpoint(good)
        del echo["heads"]
        bad.append(tmp_path / "no_heads.bin")
        save_checkpoint(bad[-1], params, echo)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("D000\tD001\n", encoding="utf-8")
        extra = ["--pairs", pairs] if command == "predict" else []
        for path in bad:
            assert run_cli(command, "--config", cfg, "--checkpoint", path,
                           *extra) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(path) in err

    def test_summary_records_the_final_beta(self, pipeline):
        root, cfg = pipeline
        out = root / "out"
        beta = json.loads((out / "summary.json").read_text())["beta"]
        params, echo = load_checkpoint(out / "checkpoint.bin")
        assert list(beta) == list(params.metapaths)
        assert min(beta.values()) > 0 and abs(sum(beta.values()) - 1) < 1e-6
        # the eval-mode weights of the checkpointed model
        _, graphs, _, values = cli._load_pipeline(RunConfig.from_file(cfg))
        encoded = encode(params, values, graphs, ModelConfig.from_echo(echo))
        assert list(beta.values()) == encoded.beta.data.tolist()

    def test_summary_beta_without_held_out_pairs(self, tmp_path):
        # every edge trains, so no validation or test encode yields beta
        cfg = quick_synth(tmp_path, epochs=3)
        cfg.write_text(cfg.read_text(encoding="utf-8") + "\n[split]\nratios = 1, 0, 0\n",
                       encoding="utf-8")
        for command in ("build-graph", "featurize"):
            assert run_cli(command, "--config", cfg) == 0
        with pytest.warns(UserWarning, match="split_edges: empty"):
            assert run_cli("train", "--config", cfg) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"] == {}
        params, echo = load_checkpoint(out / "checkpoint.bin")
        _, graphs, _, values = cli._load_pipeline(RunConfig.from_file(cfg))
        encoded = encode(params, values, graphs, ModelConfig.from_echo(echo))
        assert list(summary["beta"]) == list(params.metapaths)
        assert list(summary["beta"].values()) == encoded.beta.data.tolist()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_graph_settings_checked_against_checkpoint(self, pipeline, tmp_path,
                                                       capsys, command):
        root = tmp_path / "run"
        shutil.copytree(pipeline[0], root)
        good = root / "out" / "checkpoint.bin"
        params, echo = load_checkpoint(good)
        assert echo["metapaths.top_k"] == str(TOP_K)
        # trained on binarized graphs: no top_k in the echo, or 0
        legacy = root / "legacy.bin"
        save_checkpoint(legacy, params, {k: v for k, v in echo.items()
                                         if k != "metapaths.top_k"})
        binarized = root / "binarized.bin"
        save_checkpoint(binarized, params, {**echo, "metapaths.top_k": "0"})
        pairs = root / "pairs.tsv"
        pairs.write_text("D000\tD001\n", encoding="utf-8")
        extra = ["--pairs", pairs] if command == "predict" else []

        def run(checkpoint):
            return run_cli(command, "--config", root / "run.cfg", "--checkpoint",
                           checkpoint, *extra)

        retrain = f"trained on binarized meta-path graphs, not top-{TOP_K} ones; retrain"
        for checkpoint in (legacy, binarized):
            assert run(checkpoint) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert retrain in err, err
        assert run(good) == 0

    @pytest.mark.parametrize("key, value, fixed", [
        ("activation", "tanh", "relu"), ("model.activation", "tanh", "relu"),
        ("pool", "sum", "mean"), ("model.pool", "sum", "mean"),
        ("metapaths.binarize_threshold", "2", "1")])
    def test_checkpoint_with_a_removed_setting_is_refused(self, pipeline, tmp_path,
                                                          capsys, key, value, fixed):
        # older checkpoints echo settings that are now fixed
        root, cfg = pipeline
        params, echo = load_checkpoint(root / "out" / "checkpoint.bin")
        assert key not in echo
        old = tmp_path / "old.bin"
        save_checkpoint(old, params, {**echo, key: value})
        assert run_cli("evaluate", "--config", cfg, "--checkpoint", old) == 1
        assert capsys.readouterr().err == (
            f"error: {old}: checkpoint was trained with {key} = {value}, "
            f"but only {fixed} is supported; retrain\n")

    def test_checkpoint_echoing_the_fixed_values_loads(self, pipeline, tmp_path):
        root, cfg = pipeline
        out = root / "out"
        params, echo = load_checkpoint(out / "checkpoint.bin")
        old = tmp_path / "old.bin"
        save_checkpoint(old, params, {**echo, "activation": "relu", "model.activation": "relu",
                                      "pool": "mean", "model.pool": "mean",
                                      "metapaths.binarize_threshold": "1"})
        assert run_cli("evaluate", "--config", cfg, "--checkpoint", old) == 0
        assert ((out / "eval_test.tsv").read_text()
                == (out / "metrics_test.tsv").read_text())

    def test_per_head_fixture_passes_the_fixed_settings(self, tmp_path):
        # its echo says relu and mean; it predates top-k graphs, so the graph
        # check alone refuses it, and with a top-k echo it loads
        cfg = RunConfig(metapaths=("DID-1", "DID-3"))
        with pytest.raises(ConfigError, match=f"not top-{TOP_K} ones; retrain$"):
            cli._load_model(cfg, LEGACY_CHECKPOINT, 4)
        params, echo = load_checkpoint(LEGACY_CHECKPOINT)
        assert (echo["activation"], echo["pool"]) == ("relu", "mean")
        topk = tmp_path / "topk.bin"
        save_checkpoint(topk, per_head_layout(params, 2),
                        {**echo, "metapaths.top_k": str(TOP_K)})
        loaded, config = cli._load_model(cfg, topk, 4)
        assert config == ModelConfig.from_echo(echo)
        assert loaded.named().keys() == params.named().keys()
        for name, tensor in params.named().items():
            assert loaded.named()[name].data.tobytes() == tensor.data.tobytes(), name

    def test_evaluate_reproduces_train_test_metrics(self, pipeline):
        root, cfg = pipeline
        out = root / "out"
        assert run_cli("evaluate", "--config", cfg, "--checkpoint",
                       out / "checkpoint.bin", "--split", "test") == 0
        assert ((out / "eval_test.tsv").read_text()
                == (out / "metrics_test.tsv").read_text())

    def test_metapath_subset_override(self, tmp_path):
        cfg = quick_synth(tmp_path, seed=5, epochs=10)
        assert run_cli("build-graph", "--config", cfg) == 0
        assert run_cli("featurize", "--config", cfg) == 0
        assert run_cli("train", "--config", cfg,
                       "--metapaths", "DID-1,DID-3") == 0
        manifest = json.loads(
            (tmp_path / "out" / "train.manifest.json").read_text())
        assert manifest["config"]["metapaths.metapaths"] == "DID-1,DID-3"

    def test_coldstart_protocol_flag(self, tmp_path):
        cfg = quick_synth(tmp_path, seed=6, epochs=10)
        assert run_cli("build-graph", "--config", cfg) == 0
        assert run_cli("featurize", "--config", cfg) == 0
        assert run_cli("train", "--config", cfg, "--protocol", "coldstart") == 0
        manifest = json.loads(
            (tmp_path / "out" / "train.manifest.json").read_text())
        assert manifest["held_out_drugs"] is not None
        assert len(manifest["held_out_drugs"]) == 4  # ceil(0.2 * 20)


class TestConfigEcho:
    def test_echo_is_independent_of_run_directory(self, tmp_path):
        # Directory names of different lengths: a leaked absolute path would
        # change the echo and the length of the checkpoint's echo blob.
        echoes = []
        for name in ("a", "a_much_longer_directory_name"):
            cfg = quick_synth(tmp_path / name)
            echo = RunConfig.from_file(cfg).echo()
            assert all(str(tmp_path) not in v for v in echo.values())
            assert not any(Path(echo[k]).is_absolute()
                           for k in echo if k.startswith(("data.", "output.")))
            echoes.append(echo)
        assert echoes[0] == echoes[1]
        assert echoes[0]["data.drug_protein"] == "drug_protein.tsv"
        assert echoes[0]["output.out_dir"] == "out"

    def test_out_override_is_echoed_relative_to_config_dir(self, tmp_path,
                                                           monkeypatch):
        cfg_path = quick_synth(tmp_path / "run")
        monkeypatch.chdir(tmp_path)
        for out in ("elsewhere", tmp_path / "elsewhere"):
            cfg = RunConfig.from_file(Path("run") / cfg_path.name)
            cfg.apply_overrides(out_dir=str(out))
            assert cfg.out_dir.absolute() == tmp_path / "elsewhere"
            assert cfg.echo()["output.out_dir"] == "../elsewhere"

    def test_config_not_from_file_echoes_paths_unchanged(self):
        cfg = RunConfig(ddi=Path("/data/ddi.tsv"), out_dir=Path("runs/out"))
        echo = cfg.echo()
        assert echo["data.ddi"] == "/data/ddi.tsv"
        assert echo["output.out_dir"] == "runs/out"


class TestAblate:
    def test_variant_n_manifest_records_uniform_beta(self, pipeline):
        root, cfg = pipeline
        assert run_cli("ablate", "--config", cfg, "--variant", "N") == 0
        manifest = json.loads(
            (root / "out" / "ablate_N.manifest.json").read_text())
        assert manifest["ablation"]["variant"] == "N"
        assert manifest["ablation"]["beta"] == [0.25, 0.25, 0.25, 0.25]
        assert (root / "out" / "ablate_N" / "metrics_test.tsv").exists()

    def test_variant_mp_runs(self, pipeline):
        root, cfg = pipeline
        assert run_cli("ablate", "--config", cfg, "--variant", "MP") == 0
        manifest = json.loads(
            (root / "out" / "ablate_MP.manifest.json").read_text())
        assert manifest["ablation"]["fixed_alpha_metapaths"] == [
            "DID-1", "DID-2", "DID-3", "DID-4"]


class TestPredict:
    def test_scores_sorted_and_symmetric(self, pipeline, tmp_path):
        root, cfg = pipeline
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("D000\tD001\nD001\tD000\nD004\tD012\n",
                         encoding="utf-8")
        out_file = tmp_path / "scores.tsv"
        assert run_cli("predict", "--config", cfg, "--checkpoint",
                       root / "out" / "checkpoint.bin", "--pairs", pairs,
                       "--scores-out", out_file) == 0
        rows = [line.split("\t") for line in out_file.read_text().splitlines()]
        scores = [float(r[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        by_pair = {(r[0], r[1]): r[2] for r in rows}
        assert by_pair[("D000", "D001")] == by_pair[("D001", "D000")]

    def test_no_pairs_give_an_empty_file(self, pipeline, tmp_path):
        root, cfg = pipeline
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# no pairs\n", encoding="utf-8")
        out_file = tmp_path / "scores.tsv"
        assert run_cli("predict", "--config", cfg, "--checkpoint",
                       root / "out" / "checkpoint.bin", "--pairs", pairs,
                       "--scores-out", out_file) == 0
        assert out_file.read_text() == ""

    def test_self_pair_rejected(self, pipeline, tmp_path, capsys):
        root, cfg = pipeline
        pairs = tmp_path / "self.tsv"
        pairs.write_text("D000\tD000\n", encoding="utf-8")
        assert run_cli("predict", "--config", cfg, "--checkpoint",
                       root / "out" / "checkpoint.bin", "--pairs", pairs) == 1
        assert "self-pair" in capsys.readouterr().err

    def test_metapaths_checked_against_checkpoint(self, pipeline, tmp_path,
                                                  capsys):
        root, cfg = pipeline
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("D000\tD001\n", encoding="utf-8")
        assert run_cli("predict", "--config", cfg, "--metapaths", "DID-1,DID-3",
                       "--checkpoint", root / "out" / "checkpoint.bin",
                       "--pairs", pairs) == 1
        assert "checkpoint meta-paths" in capsys.readouterr().err

    def test_unknown_drug_named(self, pipeline, tmp_path, capsys):
        root, cfg = pipeline
        pairs = tmp_path / "unknown.tsv"
        pairs.write_text("D000\tDXXX\n", encoding="utf-8")
        assert run_cli("predict", "--config", cfg, "--checkpoint",
                       root / "out" / "checkpoint.bin", "--pairs", pairs) == 1
        assert "DXXX" in capsys.readouterr().err

    def test_one_column_line_named(self, pipeline, tmp_path, capsys):
        root, cfg = pipeline
        pairs = tmp_path / "short.tsv"
        pairs.write_text("# header\nD000\tD001\nD002\n", encoding="utf-8")
        assert run_cli("predict", "--config", cfg, "--checkpoint",
                       root / "out" / "checkpoint.bin", "--pairs", pairs,
                       "--scores-out", tmp_path / "scores.tsv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{pairs}:3:" in err
        assert not (tmp_path / "scores.tsv").exists()


class TestGradcheck:
    def test_passes_by_default(self, capsys):
        assert run_cli("gradcheck", "--probes", "3") == 0
        out = capsys.readouterr().out
        assert "gradcheck: pass" in out
        for group in ("proj", "attn", "w_mp", "b_mp", "q_mp"):
            assert out.count(f"  {group} ") == 2
        # both instances: a small one and one as sparse as paper-scale graphs
        assert "dense instance, 12 drugs" in out and "sparse instance, 64 drugs" in out
        assert "branch" not in out

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_instances_lie_on_either_side_of_sparse_density(self, seed):
        # Both run the same attention code: SPARSE_DENSITY picks only the
        # dropout draw order, and gradcheck runs at dropout 0. The bound
        # keeps the sparse instance as sparse as paper-scale top-16 graphs.
        ((_, dense), (_, sparse)) = cli.GRADCHECK_INSTANCES
        for sizes, under in ((dense, False), (sparse, True)):
            graphs, features, _, _ = desk_instance(seed=seed, **sizes)
            n = len(features)
            assert all((g.mask.nnz < ad.SPARSE_DENSITY * n * n) == under
                       for g in graphs.values())

    def test_seed_defaults_to_zero(self):
        # `cmd_gradcheck` passes the seed on unchecked, so it is never None
        assert cli.build_parser().parse_args(["gradcheck"]).seed == 0

    def test_corrupt_adjoint_fails(self, monkeypatch, capsys):
        right = cli.bce_loss

        def wrong(scores, labels):  # the loss, with an adjoint 5% too large
            loss = right(scores, labels)
            return ad._node(loss.data * 1.0, "corrupt", (loss,), lambda g: [g * 1.05])

        monkeypatch.setattr(cli, "bce_loss", wrong)
        assert run_cli("gradcheck", "--probes", "2") == 1
        assert "FAIL" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports hinddi from where this process did, whether or
        # not PYTHONPATH names it
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "hinddi", "synth", "--out",
             str(tmp_path / "d"), "--drugs", "10", "--proteins", "20",
             "--group-size", "5"],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "d" / "ddi.tsv").exists()

    def test_planted_run_starts_no_thread(self, tmp_path):
        # every autodiff op runs on the calling thread; a pair_scores call
        # above 8,192 pairs is checked in tests/test_autodiff.py
        cfg = quick_synth(tmp_path, drugs=50, epochs=10)
        script = ("import sys, threading\n"
                  "before = threading.active_count()\n"
                  "from hinddi.cli import main\n"
                  "cfg = sys.argv[1]\n"
                  "for cmd in ('build-graph', 'featurize', 'train'):\n"
                  "    assert main([cmd, '--config', cfg]) == 0, cmd\n"
                  "assert main(['evaluate', '--config', cfg, '--checkpoint',\n"
                  "             sys.argv[2]]) == 0\n"
                  "print(before, threading.active_count())\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(tmp_path / "out" / "checkpoint.bin")],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1].split() == ["1", "1"]

    def test_unknown_metapath_rejected(self, tmp_path, capsys):
        cfg = quick_synth(tmp_path, seed=7)
        assert run_cli("build-graph", "--config", cfg,
                       "--metapaths", "DID-9") == 1
        assert "DID-9" in capsys.readouterr().err
