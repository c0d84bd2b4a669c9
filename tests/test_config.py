"""Run configuration: one schema from the owning dataclasses, echo round
trips, and one `error:` line for every bad config or input."""

import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinddi.cli import main
from hinddi.config import RunConfig
from hinddi.metapath import builtin_spec_names
from hinddi.model import ModelConfig
from hinddi.train import TrainConfig

EVERY_KEY = """\
[data]
drug_protein = inputs/drug_protein.tsv
drug_side_effect = inputs/drug_side_effect.tsv
ppi = ../shared/ppi.tsv
fingerprints = inputs/fingerprints.tsv
smiles = inputs/smiles.tsv
ddi = inputs/ddi.tsv

[output]
out_dir = runs/out

[features]
feature_mode = fingerprint
espf_threshold = 3
espf_max_size = 100

[metapaths]
metapaths = DID-3, DID-1

[model]
hidden = 4
heads = 2
attn_dim = 16
leaky_slope = 0.1
dropout = 0.25

[training]
lr = 1e-2
weight_decay = 0
epochs = 7
patience = 3

[split]
protocol = coldstart
ratios = 0.7, 0.2, 0.1
drug_fraction = 0.3

[run]
seed = 11
precision = 64
"""


def load(root: Path, text: str) -> RunConfig:
    path = root / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return RunConfig.from_file(path)


def as_ini(echo: dict[str, str]) -> str:
    sections: dict[str, list[str]] = {}
    for name, value in echo.items():
        section, key = name.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n"
                   for s, lines in sections.items())


class TestSchema:
    def test_echo_of_every_key(self, tmp_path):
        echo = load(tmp_path, EVERY_KEY).echo()
        assert list(echo.items()) == [
            ("data.drug_protein", "inputs/drug_protein.tsv"),
            ("data.drug_side_effect", "inputs/drug_side_effect.tsv"),
            ("data.ppi", "../shared/ppi.tsv"),
            ("data.fingerprints", "inputs/fingerprints.tsv"),
            ("data.smiles", "inputs/smiles.tsv"),
            ("data.ddi", "inputs/ddi.tsv"),
            ("output.out_dir", "runs/out"),
            ("features.feature_mode", "fingerprint"),
            ("features.espf_threshold", "3"),
            ("features.espf_max_size", "100"),
            ("metapaths.metapaths", "DID-3,DID-1"),
            ("model.hidden", "4"),
            ("model.heads", "2"),
            ("model.attn_dim", "16"),
            ("model.leaky_slope", "0.1"),
            ("model.dropout", "0.25"),
            ("training.lr", "0.01"),
            ("training.weight_decay", "0.0"),
            ("training.epochs", "7"),
            ("training.patience", "3"),
            ("split.protocol", "coldstart"),
            ("split.ratios", "0.7,0.2,0.1"),
            ("split.drug_fraction", "0.3"),
            ("run.seed", "11"),
            ("run.precision", "64"),
        ]

    def test_model_and_train_configs_carry_file_values(self, tmp_path):
        cfg = load(tmp_path, EVERY_KEY)
        assert cfg.model_config(input_dim=5) == ModelConfig(
            input_dim=5, hidden_dim=4, heads=2, attn_dim=16, leaky_slope=0.1,
            dropout=0.25, seed=11)
        assert cfg.train_config() == TrainConfig(
            lr=0.01, weight_decay=0.0, epochs=7, patience=3, seed=11)
        assert RunConfig().train_config() == TrainConfig()

    def test_model_and_training_keys_are_the_dataclass_fields(self):
        echo = RunConfig().echo()
        model = {k.split(".")[1] for k in echo if k.startswith("model.")}
        training = {k.split(".")[1] for k in echo if k.startswith("training.")}
        assert model == {f.metadata.get("key", f.name) for f in fields(ModelConfig)
                         if f.name not in ("input_dim", "seed")}
        assert model == {"hidden", "heads", "attn_dim", "leaky_slope", "dropout"}
        assert training == {f.name for f in fields(TrainConfig)} - {"seed"}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_echo_round_trips_through_a_file(self, data):
        name = st.text("abcxyz_019", min_size=1, max_size=6)
        path = st.builds(lambda d, f: f"{d}/{f}.tsv" if d else f"{f}.tsv",
                         st.sampled_from(["", "in", "../up"]), name)
        unit = st.floats(0, 1, exclude_max=True)
        first_ratio = data.draw(unit)
        second_ratio = data.draw(st.floats(0, 1 - first_ratio))
        values = {
            "data": {k: data.draw(st.none() | path) for k in (
                "drug_protein", "drug_side_effect", "ppi", "fingerprints",
                "smiles", "ddi")},
            "output": {"out_dir": data.draw(path)},
            "features": {
                "feature_mode": data.draw(st.sampled_from(["espf", "fingerprint"])),
                "espf_threshold": data.draw(st.integers(1, 50)),
                "espf_max_size": data.draw(st.integers(1, 5000))},
            "metapaths": {
                "metapaths": ",".join(data.draw(st.lists(
                    st.sampled_from(builtin_spec_names()), min_size=1, unique=True)))},
            "model": {
                "hidden": data.draw(st.integers(1, 64)),
                "heads": data.draw(st.integers(1, 16)),
                "attn_dim": data.draw(st.integers(1, 256)),
                "leaky_slope": data.draw(unit),
                "dropout": data.draw(unit)},
            "training": {
                "lr": data.draw(st.floats(1e-6, 1)),
                "weight_decay": data.draw(unit),
                "epochs": data.draw(st.integers(1, 1000)),
                "patience": data.draw(st.integers(0, 1000))},
            "split": {
                "protocol": data.draw(st.sampled_from(["edges", "coldstart"])),
                "ratios": ",".join(str(r) for r in (
                    first_ratio, second_ratio, (1 - first_ratio) - second_ratio)),
                "drug_fraction": data.draw(st.floats(0, 1, exclude_min=True,
                                                     exclude_max=True))},
            "run": {"seed": data.draw(st.integers(0, 2**32 - 1)),
                    "precision": data.draw(st.sampled_from(["32", "64"]))},
        }
        written = {f"{s}.{k}": str(v) for s, keys in values.items()
                   for k, v in keys.items() if v is not None}
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            first.mkdir()
            second.mkdir()
            echo = load(first, as_ini(written)).echo()
            assert echo == written
            assert load(second, as_ini(echo)).echo() == echo


# ---------------------------------------------------------------------------
# bad config files and inputs: exit 1, one `error:` line


def append(text):
    def edit(run):
        cfg = run / "run.cfg"
        cfg.write_text(cfg.read_text(encoding="utf-8") + text, encoding="utf-8",
                       errors="surrogateescape")
    return edit


def prepend(text):
    def edit(run):
        cfg = run / "run.cfg"
        cfg.write_text(text + cfg.read_text(encoding="utf-8"), encoding="utf-8")
    return edit


def corrupt_smiles(run):
    smiles = run / "smiles.tsv"
    lines = smiles.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = lines[0].split("\t")[0] + "\tC[C\n"
    smiles.write_text("".join(lines), encoding="utf-8")


def drop_first_smiles(run):
    smiles = run / "smiles.tsv"
    lines = smiles.read_text(encoding="utf-8").splitlines(keepends=True)
    smiles.write_text("".join(lines[1:]), encoding="utf-8")


def corrupt_feature_bit(run):
    features = run / "out" / "features.tsv"
    lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1][:-2] + "2\n"
    features.write_text("".join(lines), encoding="utf-8")


# name -> (command, edit, text the error line must hold). build-graph cases
# must fail at config load: they name the config file and write nothing.
BAD_INPUTS = {
    "unknown section": (
        "build-graph", append("[trainig]\nepochs = 1\n"), "unknown section [trainig]"),
    "unknown key": (
        "build-graph", append("[model]\nheadz = 2\n"), "unknown key [model] headz"),
    "unparsable value": (
        "build-graph", append("[model]\nheads = eight\n"), "[model] heads: "),
    "duplicate section": (
        "build-graph", append("[run]\nseed = 1\n"), "section 'run' already exists"),
    "duplicate key": (
        "build-graph", append("[model]\nheads = 2\nheads = 3\n"),
        "option 'heads' in section 'model' already exists"),
    "no section header": (
        "build-graph", prepend("heads = 2\n"), "no section headers"),
    "default section": (
        "build-graph", prepend("[DEFAULT]\nseed = 3\n"), "unknown section [DEFAULT]"),
    "not UTF-8": (
        "build-graph", append("[split]\nprotocol = e\udcffdges\n"),
        "'utf-8' codec can't decode"),
    "bad interpolation": (
        "build-graph", append("[split]\nprotocol = ed%ges\n"),
        "[split] protocol: '%' must be followed"),
    # settings that are now fixed, even at their one value
    "removed activation key": (
        "build-graph", append("[model]\nactivation = relu\n"), "unknown key [model] activation"),
    "removed pool key": (
        "build-graph", append("[model]\npool = mean\n"), "unknown key [model] pool"),
    "removed binarize_threshold key": (
        "build-graph", append("[metapaths]\nbinarize_threshold = 1\n"),
        "unknown key [metapaths] binarize_threshold"),
    "repeated meta-path": (
        "build-graph", append("[metapaths]\nmetapaths = DID-1,DID-1,DID-3\n"),
        "[metapaths] metapaths names 'DID-1' twice"),
    "zero epochs": (
        "build-graph", append("[training]\nepochs = 0\n"),
        "[training] epochs must be >= 1, got 0"),
    "negative patience": (
        "build-graph", append("[training]\npatience = -1\n"),
        "[training] patience must be >= 0"),
    "zero lr": (
        "build-graph", append("[training]\nlr = 0\n"), "[training] lr must be > 0"),
    "negative weight decay": (
        "build-graph", append("[training]\nweight_decay = -0.1\n"),
        "[training] weight_decay must be >= 0"),
    "infinite lr": (
        "build-graph", append("[training]\nlr = inf\n"),
        "[training] lr must be > 0 and finite, got inf"),
    "infinite weight decay": (
        "build-graph", append("[training]\nweight_decay = inf\n"),
        "[training] weight_decay must be >= 0 and finite, got inf"),
    "NaN weight decay": (
        "build-graph", append("[training]\nweight_decay = nan\n"),
        "[training] weight_decay must be >= 0 and finite, got nan"),
    "NaN split ratio": (
        "build-graph", append("[split]\nratios = nan, 0.5, 0.5\n"),
        "[split] ratios must be three nonnegative values summing to 1, got (nan, 0.5, 0.5)"),
    "unknown protocol": (
        "build-graph", append("[split]\nprotocol = random\n"),
        "[split] protocol must be one of edges, coldstart"),
    "ratios not summing to 1": (
        "build-graph", append("[split]\nratios = 0.5,0.3,0.1\n"),
        "[split] ratios must be three nonnegative values summing to 1"),
    "two ratios at load": (
        "build-graph", append("[split]\nratios = 0.5,0.5\n"), "[split] ratios must be three"),
    "drug fraction above 1 at load": (
        "build-graph", append("[split]\ndrug_fraction = 1.5\n"),
        "[split] drug_fraction must be in (0, 1), got 1.5"),
    "infinite leaky slope": (
        "build-graph", append("[model]\nleaky_slope = inf\n"),
        "[model] leaky_slope must be finite, got inf"),
    "NaN leaky slope": (
        "build-graph", append("[model]\nleaky_slope = nan\n"),
        "[model] leaky_slope must be finite, got nan"),
    "zero hidden": (
        "build-graph", append("[model]\nhidden = 0\n"), "[model] hidden must be >= 1"),
    "two split ratios": (
        "train", append("[split]\nratios = 0.5,0.5\n"), "ratios must be three"),
    "drug fraction above 1": (
        "train", append("[split]\nprotocol = coldstart\ndrug_fraction = 1.5\n"),
        "drug_fraction must be in (0, 1)"),
    "unbalanced bracket in smiles": (
        "featurize", corrupt_smiles, "unbalanced '['"),
    "drug without smiles": (
        "featurize", drop_first_smiles, "no SMILES for drugs: ['D000']"),
    "feature other than 0/1": (
        "train", corrupt_feature_bit,
        "features.tsv:2: drug 'D000' has a feature other than 0/1"),
}


@pytest.fixture(scope="module")
def featurized(tmp_path_factory):
    """A 20-drug synth set after build-graph and featurize."""
    root = tmp_path_factory.mktemp("featurized")
    assert main(["synth", "--out", str(root), "--drugs", "20"]) == 0
    for command in ("build-graph", "featurize"):
        assert main([command, "--config", str(root / "run.cfg")]) == 0
    return root


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_gives_one_error_line(featurized, tmp_path, capsys, case):
    command, edit, fragment = BAD_INPUTS[case]
    at_load = command == "build-graph"
    run = tmp_path / "run"
    shutil.copytree(featurized, run,
                    ignore=shutil.ignore_patterns("out") if at_load else None)
    edit(run)
    assert main([command, "--config", str(run / "run.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err, err
    if at_load:
        assert str(run / "run.cfg") in err
        assert not (run / "out").exists()


def test_repeated_metapath_override_gives_one_error_line(featurized, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(featurized, run)
    before = sorted(p.name for p in (run / "out").iterdir())
    assert main(["train", "--config", str(run / "run.cfg"),
                 "--metapaths", "DID-1,DID-1,DID-3"]) == 1
    err = capsys.readouterr().err
    assert err == "error: [metapaths] metapaths names 'DID-1' twice\n", err
    assert sorted(p.name for p in (run / "out").iterdir()) == before
