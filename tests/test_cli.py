"""Command-line surface: pipeline wiring, error paths, manifests."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hinddi.cli import main
from hinddi.config import RunConfig
from hinddi.model import load_checkpoint, save_checkpoint
from tests.test_model import per_head_layout


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


class TestGradcheck:
    def test_passes_by_default(self, capsys):
        assert run_cli("gradcheck", "--probes", "3") == 0
        out = capsys.readouterr().out
        assert "gradcheck: pass" in out
        for group in ("proj", "attn", "w_mp", "b_mp", "q_mp"):
            assert group in out

    def test_corrupt_adjoint_fails(self, capsys):
        assert run_cli("gradcheck", "--probes", "2", "--corrupt-adjoint") == 1
        assert "FAIL" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "hinddi", "synth", "--out",
             str(tmp_path / "d"), "--drugs", "10", "--proteins", "20",
             "--group-size", "5"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "d" / "ddi.tsv").exists()

    def test_unknown_metapath_rejected(self, tmp_path, capsys):
        cfg = quick_synth(tmp_path, seed=7)
        assert run_cli("build-graph", "--config", cfg,
                       "--metapaths", "DID-9") == 1
        assert "DID-9" in capsys.readouterr().err
