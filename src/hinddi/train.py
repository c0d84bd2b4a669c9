"""Full-batch training loop with patience-based early stopping,
evaluation helpers, and the two attention-ablation variants."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, ParameterError, backward, zero_grad
from .data import SplitBundle, pairs_to_arrays, purpose_rng
from .metapath import NeighborGraph
from .metrics import Metrics, evaluate
from .model import (
    EncoderOutput,
    ModelConfig,
    ModelParams,
    bce_loss,
    forward,
    init_params,
    random_row_stochastic,
)
from .optim import Adam

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingError",
    "EpochRecord",
    "train",
    "evaluate_pairs",
    "ablate",
    "ABLATION_VARIANTS",
]

ABLATION_VARIANTS = ("MP", "N")


class TrainingError(Exception):
    """Training aborted (non-finite loss or gradients)."""


@dataclass
class TrainConfig:
    """Optimization knobs; defaults follow the published settings
    (lr 0.005, weight decay 0.001, 200 epochs, patience 100)."""

    lr: float = 0.005
    weight_decay: float = 0.001
    epochs: int = 200
    patience: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 0:
            raise ParameterError(f"patience must be >= 0, got {self.patience}")
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be > 0 and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ParameterError(f"weight_decay must be >= 0 and finite, "
                                 f"got {self.weight_decay}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None
    val_auroc: float | None


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def to_tsv(self) -> str:
        def fmt(v):
            return "NA" if v is None else format(v, ".10g")
        lines = ["epoch\ttrain_loss\tval_loss\tval_auroc"]
        lines += [f"{r.epoch}\t{fmt(r.train_loss)}\t{fmt(r.val_loss)}\t{fmt(r.val_auroc)}"
                  for r in self.records]
        lines.append(f"#best_epoch={self.best_epoch}\tstopped_epoch={self.stopped_epoch}")
        return "\n".join(lines) + "\n"


def _mean_loss_and_scores(params, config, pairs, labels, graphs, features,
                          fixed_alpha, uniform_beta):
    scores, _ = forward(params, features, graphs, pairs, config,
                        training=False, fixed_alpha=fixed_alpha,
                        uniform_beta=uniform_beta)
    loss = bce_loss(scores, labels).item() / max(len(labels), 1)
    return loss, scores.data.copy()


def evaluate_pairs(params: ModelParams, config: ModelConfig, labeled: np.ndarray,
                   graphs: dict[str, NeighborGraph], features: np.ndarray,
                   fixed_alpha=None, uniform_beta: bool = False,
                   threshold: float = 0.5) -> tuple[EncoderOutput, Metrics]:
    """The eval-mode encoder output (embeddings and beta) and the threshold
    metrics of its scores for an (m, 3) `[i, j, label]` pair array, such as
    a `SplitBundle` partition."""
    pairs, labels = pairs_to_arrays(labeled)
    scores, out = forward(params, features, graphs, pairs, config,
                          training=False, fixed_alpha=fixed_alpha,
                          uniform_beta=uniform_beta)
    return out, evaluate(scores.data, labels, threshold)


def train(params: ModelParams, model_config: ModelConfig,
          train_config: TrainConfig, bundle: SplitBundle,
          graphs: dict[str, NeighborGraph], features: np.ndarray,
          fixed_alpha=None, uniform_beta: bool = False) -> TrainHistory:
    """Full-batch epochs over the train pairs with Adam.

    After each epoch the validation loss is evaluated in eval mode; training
    stops when it has not improved for `patience` consecutive epochs (or at
    the epoch cap) and the parameters of the best validation epoch are
    restored. Identical seeds and inputs give identical histories.
    """
    if not len(bundle.train):
        raise TrainingError("empty training set")
    trainable = params.trainable()
    opt = Adam(trainable, lr=train_config.lr,
               weight_decay=train_config.weight_decay)
    dropout_rng = purpose_rng(train_config.seed, "dropout")
    train_pairs, train_labels = pairs_to_arrays(bundle.train)
    val_pairs, val_labels = pairs_to_arrays(bundle.validation)

    history = TrainHistory()
    best_val = np.inf
    best_state = params.snapshot()
    bad = 0
    for epoch in range(1, train_config.epochs + 1):
        try:
            scores, _ = forward(params, features, graphs, train_pairs,
                                model_config, training=True, rng=dropout_rng,
                                fixed_alpha=fixed_alpha,
                                uniform_beta=uniform_beta)
            loss = bce_loss(scores, train_labels)
            zero_grad(trainable)
            backward(loss, trainable)
        except NonFiniteError as err:
            raise TrainingError(f"epoch {epoch}: {err}") from err
        for p in trainable:
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"epoch {epoch}: non-finite gradient")
        opt.step()
        train_loss = loss.item() / len(train_labels)

        if len(val_labels):
            val_loss, val_scores = _mean_loss_and_scores(
                params, model_config, val_pairs, val_labels, graphs, features,
                fixed_alpha, uniform_beta)
            val_metrics = evaluate(val_scores, val_labels)
            val_auroc = val_metrics.auroc
        else:
            val_loss = val_auroc = None
        history.records.append(EpochRecord(epoch, train_loss, val_loss, val_auroc))

        improved = val_loss is None or val_loss < best_val
        if improved:
            if val_loss is not None:
                best_val = val_loss
            best_state = params.snapshot()
            history.best_epoch = epoch
            bad = 0
        else:
            bad += 1
            if bad >= max(train_config.patience, 1):
                history.stopped_epoch = epoch
                break
    if history.stopped_epoch == 0:
        history.stopped_epoch = history.records[-1].epoch
    params.restore(best_state)
    return history


def ablate(variant: str, model_config: ModelConfig, train_config: TrainConfig,
           bundle: SplitBundle, graphs: dict[str, NeighborGraph],
           features: np.ndarray, params: ModelParams | None = None,
           dtype=np.float32) -> tuple[ModelParams, TrainHistory, Metrics, dict]:
    """Train one attention-ablation variant and report its test metrics.

    MP: node attention is replaced per meta-path by a fixed seeded random
    row-stochastic matrix (never trained). N: meta-path weights are pinned
    at 1/T. Everything else matches `train`.
    """
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}; "
                         f"choose from {ABLATION_VARIANTS}")
    if params is None:
        params = init_params(model_config, sorted(graphs),
                             purpose_rng(train_config.seed, "init"), dtype=dtype)
    fixed_alpha = None
    uniform_beta = False
    if variant == "MP":
        ablation_rng = purpose_rng(train_config.seed, "ablation")
        fixed_alpha = {mp: random_row_stochastic(graphs[mp].adjacency,
                                                 ablation_rng, dtype=dtype)
                       for mp in params.metapaths}
    else:
        uniform_beta = True
    history = train(params, model_config, train_config, bundle, graphs,
                    features, fixed_alpha=fixed_alpha, uniform_beta=uniform_beta)
    _, metrics = evaluate_pairs(params, model_config, bundle.test, graphs,
                                features, fixed_alpha=fixed_alpha,
                                uniform_beta=uniform_beta)
    detail = {"variant": variant, "uniform_beta": uniform_beta,
              "fixed_alpha_metapaths": sorted(fixed_alpha) if fixed_alpha else []}
    return params, history, metrics, detail
