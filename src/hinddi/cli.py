"""Command-line surface: synth, build-graph, featurize, train, evaluate,
ablate, predict, gradcheck.

Every command echoes its effective configuration into a JSON run manifest
(with input digests and wall-clock duration) so runs are reproducible;
output files are written atomically.

Checkpoints and ``summary.json`` hold no absolute path: the configuration
they echo names files relative to the config file's directory, so the same
config and seed give byte-identical model artifacts in any directory. Only
the manifests, which are never byte-compared, keep absolute input paths,
each with its sha256 digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ConfigError, RunConfig
from .data import purpose_rng, split_cold_start, split_edges
from .espf import load_features, save_features, save_vocab
from .gradcheck import finite_diff_check
from .hin import EntityKind, HinError, load_hin, load_pairs, save_hin, stats, validate
from .metapath import TOP_K, commuting_matrix, spec_by_name
from .metrics import Metrics
from .model import (
    ModelConfig,
    bce_loss,
    decode_pairs,
    encode,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .pipeline import (
    INPUT_FILES,
    load_hin_inputs,
    make_espf_features,
    make_fingerprint_features,
    make_graphs,
)
from .synth import desk_instance, generate_planted, write_planted
from .train import ABLATION_VARIANTS, TrainingError, ablate, evaluate_pairs, train

GRADCHECK_TOLERANCE = 1e-5
# `gradcheck` instances, as (label, `desk_instance` sizes); both run the
# same attention code. The 12-drug default is small, and at least 8.3%
# dense from its self-loops alone. The sparse one, 64 drugs over 128
# proteins, side effects and substructures each, has graphs about 2.5%
# dense (at most 3.7% over seeds 0-299): about as sparse as the
# paper-scale top-16 graphs, 1-4% dense at 513 drugs.
GRADCHECK_INSTANCES = (
    ("dense", {}),
    ("sparse", {"n_drugs": 64, "n_proteins": 128, "n_side_effects": 128,
                "n_substructures": 128, "density": 0.005}),
)

# Settings that older checkpoints echo and that are no longer settable, with
# the one value the code runs. Older checkpoints echo the model's both bare
# (`pool`) and with their section (`model.pool`).
FIXED_SETTINGS = {"activation": "relu", "model.activation": "relu",
                  "pool": "mean", "model.pool": "mean",
                  "metapaths.binarize_threshold": "1"}

_KNOWN_ERRORS = (ConfigError, HinError, TrainingError, ad.AutodiffError,
                 ValueError, OSError)


# ---------------------------------------------------------------------------
# small IO helpers


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _write_manifest(cfg: RunConfig, command: str, inputs: list[Path],
                    artifacts: list[Path], started: float,
                    extra: dict | None = None) -> Path:
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "inputs": {str(Path(p).absolute()): _sha256(Path(p))
                   for p in inputs if Path(p).exists()},
        "artifacts": [str(p) for p in artifacts],
        "duration_s": round(time.time() - started, 3),
    }
    if extra:
        manifest.update(extra)
    path = cfg.out_dir / f"{command.replace('-', '_')}.manifest.json"
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_metrics(path: Path, metrics: Metrics) -> None:
    _write_atomic(path, "\n".join(metrics.to_lines()) + "\n")


# ---------------------------------------------------------------------------
# pipeline state shared by train/evaluate/ablate/predict


def _load_pipeline(cfg: RunConfig):
    if not cfg.graph_dir.exists():
        raise ConfigError(f"graph directory {cfg.graph_dir} missing; "
                          "run build-graph first")
    if not cfg.features_file.exists():
        raise ConfigError(f"features file {cfg.features_file} missing; "
                          "run featurize first")
    hin = load_hin(cfg.graph_dir)
    features = load_features(cfg.features_file, hin.registry)
    graphs = make_graphs(hin, cfg.metapaths)
    values = features.values.astype(cfg.dtype)
    return hin, graphs, features, values


def _make_split(cfg: RunConfig, hin):
    if cfg.protocol == "edges":
        return split_edges(hin.ddi, hin.n_drugs, ratios=cfg.ratios, seed=cfg.seed)
    return split_cold_start(hin.ddi, hin.n_drugs, cfg.drug_fraction, seed=cfg.seed)


def _load_model(cfg: RunConfig, checkpoint, d0: int):
    """Load a checkpoint and check it against the features and meta-paths."""
    params, echo = load_checkpoint(checkpoint)
    try:
        model_config = ModelConfig.from_echo(echo)
    except KeyError as err:
        raise ConfigError(f"{checkpoint}: checkpoint echo lacks {err}") from None
    if model_config.input_dim != d0:
        raise ConfigError(f"checkpoint expects d0={model_config.input_dim}, "
                          f"features have d0={d0}")
    if set(params.metapaths) != set(cfg.metapaths):
        raise ConfigError(f"checkpoint meta-paths {sorted(params.metapaths)} "
                          f"differ from configured {sorted(cfg.metapaths)}")
    for key, fixed in FIXED_SETTINGS.items():
        value = echo.get(key, fixed)
        if value != fixed:
            raise ConfigError(f"{checkpoint}: checkpoint was trained with {key} = {value}, "
                              f"but only {fixed} is supported; retrain")
    # the graphs must be the ones trained on
    if echo.get("metapaths.top_k") != str(TOP_K):
        raise ConfigError(f"{checkpoint}: checkpoint was trained on binarized meta-path "
                          f"graphs, not top-{TOP_K} ones; retrain")
    return params, model_config


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    started = time.time()
    out = Path(args.out)
    dataset = generate_planted(n_drugs=args.drugs, n_proteins=args.proteins,
                               group_size=args.group_size,
                               ppi_prob=args.ppi_prob, seed=args.seed)
    paths = write_planted(dataset, out)
    config_text = "\n".join([
        "[data]",
        *(f"{key} = {name}" for key, name in INPUT_FILES.items()),
        "",
        "[output]",
        "out_dir = out",
        "",
        "[features]",
        "espf_threshold = 2",
        "",
        "[run]",
        f"seed = {args.seed}",
        "",
    ])
    _write_atomic(out / "run.cfg", config_text)
    manifest = {
        "command": "synth",
        "seed": args.seed,
        "parameters": {"drugs": args.drugs, "proteins": args.proteins,
                       "group_size": args.group_size, "ppi_prob": args.ppi_prob},
        "artifacts": {name: _sha256(p) for name, p in paths.items()},
        "interactions": len(dataset.ddi),
        "duration_s": round(time.time() - started, 3),
    }
    _write_atomic(out / "synth.manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"synth: {len(dataset.drug_ids)} drugs, {len(dataset.ddi)} interactions "
          f"-> {out}")
    print(f"config: {out / 'run.cfg'}")
    return 0


def cmd_build_graph(args, cfg: RunConfig) -> int:
    started = time.time()
    paths = cfg.input_paths()
    hin = load_hin_inputs(paths)
    report = validate(hin)
    counts = stats(hin)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_hin(hin, cfg.graph_dir)
    stats_path = cfg.out_dir / "stats.tsv"
    _write_atomic(stats_path, "".join(f"{k}\t{v}\n" for k, v in counts.items()))
    report_path = cfg.out_dir / "validation.txt"
    _write_atomic(report_path, report.format() + "\n")

    artifacts = [cfg.graph_dir, stats_path, report_path]
    if args.write_metapaths:
        for name in cfg.metapaths:
            m = commuting_matrix(hin, spec_by_name(name))
            rows, cols = np.nonzero(m.counts)
            lines = [f"{i}\t{j}\t{m.counts[i, j]}" for i, j in zip(rows, cols)]
            path = cfg.out_dir / "metapaths" / f"{name}.tsv"
            _write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
            artifacts.append(path)

    inputs = [paths.drug_protein, paths.drug_side_effect, paths.ppi,
              paths.fingerprints, paths.ddi]
    _write_manifest(cfg, "build-graph", inputs, artifacts, started,
                    extra={"stats": counts, "validation_passed": report.passed})
    print(report.format())
    for key, value in counts.items():
        print(f"{key}\t{value}")
    if not report.passed and args.strict:
        return 1
    return 0


def cmd_featurize(args, cfg: RunConfig) -> int:
    started = time.time()
    if not cfg.graph_dir.exists():
        raise ConfigError(f"graph directory {cfg.graph_dir} missing; "
                          "run build-graph first")
    hin = load_hin(cfg.graph_dir)
    artifacts = []
    inputs = []
    if cfg.feature_mode == "espf":
        if cfg.smiles is None:
            raise ConfigError("espf features need a [data] smiles path")
        features, vocab = make_espf_features(cfg.smiles, hin,
                                             threshold=cfg.espf_threshold,
                                             max_size=cfg.espf_max_size)
        save_vocab(vocab, cfg.vocab_file)
        artifacts.append(cfg.vocab_file)
        inputs.append(cfg.smiles)
    else:
        if cfg.fingerprints is None:
            raise ConfigError("fingerprint features need a [data] fingerprints path")
        features = make_fingerprint_features(cfg.fingerprints, hin)
        inputs.append(cfg.fingerprints)
    save_features(features, cfg.features_file)
    artifacts.append(cfg.features_file)
    _write_manifest(cfg, "featurize", inputs, artifacts, started,
                    extra={"feature_mode": cfg.feature_mode, "d0": features.d0})
    print(f"featurize: mode={cfg.feature_mode} d0={features.d0} "
          f"-> {cfg.features_file}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    started = time.time()
    hin, graphs, feature_matrix, values = _load_pipeline(cfg)
    bundle = _make_split(cfg, hin)
    model_config = cfg.model_config(feature_matrix.d0)
    params = init_params(model_config, cfg.metapaths,
                         purpose_rng(cfg.seed, "init"), dtype=cfg.dtype)
    history = train(params, model_config, cfg.train_config(), bundle, graphs,
                    values)

    checkpoint_path = cfg.out_dir / "checkpoint.bin"
    # the model's settings once, by the names `ModelConfig.from_echo` reads
    echo = {key: value for key, value in cfg.echo().items()
            if not key.startswith("model.")}
    echo["metapaths.top_k"] = str(TOP_K)  # the graphs trained on
    echo.update(model_config.echo())
    save_checkpoint(checkpoint_path, params, echo)
    history_path = cfg.out_dir / "history.tsv"
    _write_atomic(history_path, history.to_tsv())

    results = {}
    artifacts = [checkpoint_path, history_path]
    out = None
    for split_name, pairs in (("validation", bundle.validation),
                              ("test", bundle.test)):
        if not len(pairs):
            continue
        out, metrics = evaluate_pairs(params, model_config, pairs, graphs, values)
        path = cfg.out_dir / f"metrics_{split_name}.tsv"
        _write_metrics(path, metrics)
        artifacts.append(path)
        results[split_name] = asdict(metrics)
    if out is None:  # no held-out pairs were scored
        out = encode(params, values, graphs, model_config)
    summary = {"seed": cfg.seed, "protocol": bundle.protocol,
               "best_epoch": history.best_epoch,
               "stopped_epoch": history.stopped_epoch,
               "beta": dict(zip(params.metapaths, out.beta.data.tolist())),
               "metrics": results, "config": cfg.echo()}
    summary_path = cfg.out_dir / "summary.json"
    _write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    artifacts.append(summary_path)
    _write_manifest(cfg, "train", [cfg.features_file], artifacts, started,
                    extra={"best_epoch": history.best_epoch,
                           "stopped_epoch": history.stopped_epoch,
                           "held_out_drugs": sorted(bundle.held_out)
                           if bundle.held_out else None})
    for split_name, vals in results.items():
        auroc = vals["auroc"]
        print(f"{split_name}: auroc={auroc if auroc is None else round(auroc, 4)} "
              f"f1={round(vals['f1'], 4)}")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    started = time.time()
    hin, graphs, feature_matrix, values = _load_pipeline(cfg)
    params, model_config = _load_model(cfg, args.checkpoint, feature_matrix.d0)
    bundle = _make_split(cfg, hin)
    pairs = {"train": bundle.train, "validation": bundle.validation,
             "test": bundle.test}[args.split]
    if not len(pairs):
        raise ConfigError(f"{args.split} split is empty")
    _, metrics = evaluate_pairs(params, model_config, pairs, graphs, values)
    path = cfg.out_dir / f"eval_{args.split}.tsv"
    _write_metrics(path, metrics)
    _write_manifest(cfg, "evaluate", [Path(args.checkpoint)], [path], started,
                    extra={"split": args.split,
                           "metrics": asdict(metrics)})
    for line in metrics.to_lines():
        print(line)
    return 0


def cmd_ablate(args, cfg: RunConfig) -> int:
    started = time.time()
    hin, graphs, feature_matrix, values = _load_pipeline(cfg)
    bundle = _make_split(cfg, hin)
    params, history, metrics, detail = ablate(
        args.variant, cfg.model_config(feature_matrix.d0), cfg.train_config(),
        bundle, graphs, values, dtype=cfg.dtype)
    out = cfg.out_dir / f"ablate_{args.variant}"
    history_path = out / "history.tsv"
    _write_atomic(history_path, history.to_tsv())
    metrics_path = out / "metrics_test.tsv"
    _write_metrics(metrics_path, metrics)
    extra = {"ablation": dict(detail)}
    if args.variant == "N":
        extra["ablation"]["beta"] = [1.0 / len(cfg.metapaths)] * len(cfg.metapaths)
    _write_manifest(cfg, f"ablate-{args.variant}", [cfg.features_file],
                    [history_path, metrics_path], started, extra=extra)
    print(f"ablate {args.variant}: test auroc="
          f"{metrics.auroc if metrics.auroc is None else round(metrics.auroc, 4)}")
    return 0


def cmd_predict(args, cfg: RunConfig) -> int:
    started = time.time()
    hin, graphs, feature_matrix, values = _load_pipeline(cfg)
    params, model_config = _load_model(cfg, args.checkpoint, feature_matrix.d0)

    registry = hin.registry
    requested = []
    for lineno, a, b in zip(*load_pairs(args.pairs)):
        i = registry.index_of(EntityKind.DRUG, a)
        j = registry.index_of(EntityKind.DRUG, b)
        if i == j:
            raise ConfigError(f"{args.pairs}:{lineno}: self-pair {a!r}")
        requested.append((a, b, i, j))

    out = encode(params, values, graphs, model_config)
    pair_idx = np.array([(i, j) for _, _, i, j in requested],
                        dtype=np.int64).reshape(len(requested), 2)
    scores = decode_pairs(out.fused, pair_idx).data
    order = np.argsort(-scores, kind="stable")
    lines = [f"{requested[k][0]}\t{requested[k][1]}\t{format(scores[k], '.10g')}"
             for k in order]
    out_path = Path(args.scores_out) if args.scores_out else cfg.out_dir / "predictions.tsv"
    _write_atomic(out_path, "\n".join(lines) + ("\n" if lines else ""))
    _write_manifest(cfg, "predict", [Path(args.checkpoint), Path(args.pairs)],
                    [out_path], started, extra={"pairs_scored": len(requested)})
    print(f"predict: {len(requested)} pairs -> {out_path}")
    return 0


def cmd_gradcheck(args) -> int:
    started = time.time()
    worst = 0.0
    for label, sizes in GRADCHECK_INSTANCES:
        graphs, features, pairs, labels = desk_instance(seed=args.seed, **sizes)
        n = len(features)
        density = [g.mask.nnz / (n * n) for g in graphs.values()]
        config = ModelConfig(input_dim=features.shape[1], hidden_dim=3, heads=2,
                             attn_dim=5, dropout=0.0, seed=args.seed)
        params = init_params(config, sorted(graphs), purpose_rng(args.seed, "init"),
                             dtype=np.float64)

        def loss_fn():
            scores, _ = forward(params, features, graphs, pairs, config)
            return bce_loss(scores, labels)

        report = finite_diff_check(loss_fn, params.named(), probes=args.probes,
                                   epsilon=args.epsilon,
                                   rng=np.random.default_rng(args.seed))
        worst = max(worst, report.max_rel_error)
        groups = {}
        for name, record in report.worst_by_param.items():
            group = name.split(".")[0]
            if group not in groups or record.rel_error > groups[group].rel_error:
                groups[group] = record
        print(f"gradcheck: {label} instance, {n} drugs, graphs {min(density):.1%}-"
              f"{max(density):.1%} dense: "
              f"{len(report.records)} probes over {len(report.worst_by_param)} tensors "
              f"(64-bit, eps={args.epsilon})")
        for group, record in sorted(groups.items()):
            print(f"  {group:8s} worst {record.name}{list(record.index)}: "
                  f"analytic {record.analytic:+.6e} numeric {record.numeric:+.6e} "
                  f"rel {record.rel_error:.3e}")
    print(f"max relative error: {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:g})")
    print(f"elapsed: {time.time() - started:.2f}s")
    if worst > GRADCHECK_TOLERANCE:
        print("gradcheck: FAIL", file=sys.stderr)
        return 1
    print("gradcheck: pass")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override [run] seed")
    parser.add_argument("--precision", choices=("32", "64"), default=None,
                        help="override [run] precision")
    parser.add_argument("--protocol", choices=("edges", "coldstart"),
                        default=None, help="override [split] protocol")
    parser.add_argument("--features", dest="feature_mode",
                        choices=("espf", "fingerprint"), default=None,
                        help="override [features] mode")
    parser.add_argument("--metapaths", default=None,
                        help="comma list of meta-path names (e.g. DID-1,DID-3)")
    parser.add_argument("--out", dest="out_dir", default=None,
                        help="override [output] dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hinddi",
        description="Drug-drug interaction prediction over a heterogeneous "
                    "information network with two-level graph attention.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the planted synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--drugs", type=int, default=50)
    p.add_argument("--proteins", type=int, default=20)
    p.add_argument("--group-size", type=int, default=5)
    p.add_argument("--ppi-prob", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("build-graph", help="load relations, validate, persist")
    _add_common(p)
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 1) on validation errors")
    p.add_argument("--write-metapaths", action="store_true",
                   help="emit commuting matrices as TSV for inspection")

    p = sub.add_parser("featurize", help="build the initial drug features")
    _add_common(p)

    p = sub.add_parser("train", help="split, train, checkpoint, report")
    _add_common(p)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "validation", "test"),
                   default="test")

    p = sub.add_parser("ablate", help="train an attention-ablation variant")
    _add_common(p)
    p.add_argument("--variant", choices=ABLATION_VARIANTS, required=True)

    p = sub.add_parser("predict", help="score a drug-pair list")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True, help="TSV drug_id<TAB>drug_id")
    p.add_argument("--scores-out", default=None)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check "
                                         "on two internal synthetic instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=1e-5)
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config)
    cfg.apply_overrides(seed=args.seed, precision=args.precision,
                        protocol=args.protocol, feature_mode=args.feature_mode,
                        metapaths=args.metapaths, out_dir=args.out_dir)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        cfg = _load_config(args)
        handler = {
            "build-graph": cmd_build_graph,
            "featurize": cmd_featurize,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "ablate": cmd_ablate,
            "predict": cmd_predict,
        }[args.command]
        return handler(args, cfg)
    except _KNOWN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
