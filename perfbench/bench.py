"""One workload run: generate inputs, set up, train, checkpoint, screen.

The run drives the public functions the CLI commands call, in the same
order, without writing manifests:

1. pipeline.load_hin_inputs
2. pipeline.make_graphs
3. espf.load_smiles / tokenize_smiles / build_vocab / build_feature_matrix
4. data.split_edges
5. model.init_params, then train.train with a fixed epoch budget
6. model.save_checkpoint and model.load_checkpoint
7. a screen: model.encode in eval mode, then model.decode_pairs over every
   unordered drug pair

Every output check counts as one attempted operation; a failed check is a
failed operation.

A run trains one quality cycle per model seed (test_auroc is their mean),
then repeats short timed cycles of the first model seed until the run has
measured for the requested seconds, and at least MIN_TIMED_CYCLES times.
It sets up a fixed number of times, spread over the run; setup_s is their
median. Every timed cycle is checked byte-identical to the first.
train_s and predict_pairs_per_s come from the median timed cycle and
screen. On a 2-vCPU KVM guest whose speed drifts by up to 1.5x for
minutes at a time, the median of a 60-s run's samples repeated from run
to run better than the fastest: in slow phases a fast sample is rare.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from hinddi import data, espf, metrics, model, optim, pipeline, train
from hinddi.hin import EntityKind, Hin, stats
from hinddi.metapath import builtin_spec_names

from .spans import Instrument, Tracer, per_layer_metrics
from .workloads import Workload

METAPATHS = tuple(builtin_spec_names())

SYMMETRY_SAMPLE = 1000
MIN_TIMED_CYCLES = 3      # timed cycles per run, however short it is
PREDICT_REPS = 3          # checkpoint loads and screens per cycle
TRACED_SETUPS = 5         # set-ups in a traced run, for the set-up medians
TRACED_PAIRS = 3          # traced and untraced cycles in a traced run
BETA_TOLERANCE = 1e-5


class Checks:
    """Output checks, each counted as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


@dataclass
class Setup:
    hin: Hin
    graphs: dict
    vocab: espf.Vocabulary
    features: espf.FeatureMatrix
    values: np.ndarray
    bundle: data.SplitBundle


@dataclass
class Cycle:
    history: train.TrainHistory
    scores: np.ndarray
    train_s: float
    screen_s: list[float]      # load plus screen, PREDICT_REPS times
    test_auroc: float


def set_up(w: Workload, paths: pipeline.InputPaths, seed: int,
           tracer: Tracer) -> Setup:
    """TSV files on disk to everything the first epoch needs."""
    with tracer.span("setup"):
        with tracer.span("hin.load"):
            hin = pipeline.load_hin_inputs(paths)
        with tracer.span("metapath.graphs"):
            graphs = pipeline.make_graphs(hin, METAPATHS)
        with tracer.span("espf.tokenize"):
            smiles = espf.load_smiles(paths.smiles)
            corpus = [espf.tokenize_smiles(smiles[d])
                      for d in hin.registry.ids(EntityKind.DRUG)]
        with tracer.span("espf.vocab"):
            vocab = espf.build_vocab(corpus, threshold=w.espf_threshold)
        with tracer.span("espf.encode"):
            features = espf.build_feature_matrix(smiles, vocab, hin.registry)
            values = features.values.astype(np.float32)
        with tracer.span("data.split"):
            bundle = data.split_edges(hin.ddi, hin.n_drugs, seed=seed)
    return Setup(hin, graphs, vocab, features, values, bundle)


def _pair_index(pairs: np.ndarray, n: int) -> np.ndarray:
    """Position of canonical pairs (i < j) in np.triu_indices(n, 1) order."""
    i = pairs.min(axis=1)
    j = pairs.max(axis=1)
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _same_params(a: model.ModelParams, b: model.ModelParams) -> bool:
    na, nb = a.named(), b.named()
    return (a.metapaths == b.metapaths and list(na) == list(nb)
            and all(na[k].data.dtype == nb[k].data.dtype
                    and na[k].data.shape == nb[k].data.shape
                    and na[k].data.tobytes() == nb[k].data.tobytes()
                    for k in na))


def _screen(s: Setup, checkpoint: Path, all_pairs: np.ndarray, tracer: Tracer):
    """Load the checkpoint, encode in eval mode and score every pair."""
    with tracer.span("predict") as span:
        with tracer.span("model.checkpoint_load"):
            loaded, echo = model.load_checkpoint(checkpoint)
        with tracer.span("screen"):
            out = model.encode(loaded, s.values, s.graphs,
                               model.ModelConfig.from_echo(echo))
            scores = model.decode_pairs(out.fused, all_pairs).data
    return span.seconds, loaded, echo, out, scores


def run_cycle(s: Setup, seed: int, epochs: int, tracer: Tracer,
              checkpoint: Path, all_pairs: np.ndarray, checks: Checks) -> Cycle:
    """Train from fresh parameters for a fixed number of epochs, round-trip
    the checkpoint, then screen PREDICT_REPS times; the first screen is
    checked."""
    config = model.ModelConfig(input_dim=s.features.d0, seed=seed)
    budget = train.TrainConfig(epochs=epochs, patience=epochs, seed=seed)
    params = model.init_params(config, METAPATHS, data.purpose_rng(seed, "init"))
    gc.collect()  # garbage of earlier cycles is not collected while timed
    with tracer.span("train") as train_span:
        history = train.train(params, config, budget, s.bundle, s.graphs, s.values)
    with tracer.span("model.checkpoint_save"):
        model.save_checkpoint(checkpoint, params, config.echo())
    predict_s, loaded, echo, out, scores = _screen(s, checkpoint, all_pairs, tracer)

    checks("checkpoint round trip is bit-exact",
           _same_params(params, loaded)
           and all(echo.get(k) == v for k, v in config.echo().items()))
    beta = out.beta.data
    checks("beta is non-negative and sums to 1",
           bool((beta >= 0).all()) and abs(float(beta.sum()) - 1.0) <= BETA_TOLERANCE,
           f"beta={beta.tolist()}")
    checks("screen scores are finite and in [0, 1]",
           bool(np.isfinite(scores).all() and (scores >= 0).all()
                and (scores <= 1).all()))
    sample = np.random.default_rng(seed).choice(
        len(all_pairs), size=min(SYMMETRY_SAMPLE, len(all_pairs)), replace=False)
    flipped = model.decode_pairs(out.fused, all_pairs[sample][:, ::-1]).data
    checks("score(i, j) == score(j, i)", np.array_equal(flipped, scores[sample]))
    del out  # the encoder graph; later screens must not add to peak memory

    times = [predict_s] + [_screen(s, checkpoint, all_pairs, tracer)[0]
                           for _ in range(PREDICT_REPS - 1)]
    test_pairs, test_labels = data.pairs_to_arrays(s.bundle.test)
    test_scores = scores[_pair_index(test_pairs, s.hin.n_drugs)]
    return Cycle(history, scores, train_span.seconds, times,
                 metrics.auroc(test_scores, test_labels))


def _same_run(a: Cycle, b: Cycle) -> bool:
    return (a.history.records == b.history.records
            and a.history.best_epoch == b.history.best_epoch
            and np.array_equal(a.scores, b.scores))


def _densities(s: Setup) -> dict[str, float]:
    return {f"metapath.density.{name}":
            float(g.adjacency.sum()) / g.adjacency.size
            for name, g in s.graphs.items()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run(w: Workload, seed: int, trace: bool, work_dir: Path,
        seconds: float = 0.0) -> tuple[dict[str, float], Checks, dict]:
    """Run one workload; returns its metrics, the checks made and how many
    samples each timing is taken over. An untraced run measures for at
    least `seconds`."""
    checks = Checks()
    run_id = f"{w.name}-seed{seed}-pid{os.getpid()}"
    scratch = work_dir / run_id
    try:
        w.write_inputs(scratch / "inputs", seed)
        paths = pipeline.InputPaths.in_dir(scratch / "inputs")
        if trace:
            values, samples, tracers = _traced(w, paths, seed, scratch, checks)
        else:
            values, samples, tracers = _plain(w, paths, seed, scratch, checks,
                                              seconds)
        out = work_dir / "traces" / f"{w.name}-seed{seed}-trace{int(trace)}.jsonl"
        out.unlink(missing_ok=True)
        for tracer in tracers:
            tracer.write(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return values, checks, samples


def _all_pairs(n: int) -> np.ndarray:
    return np.stack(np.triu_indices(n, k=1), axis=1).astype(np.int64)


def _check_counts(w: Workload, s: Setup, checks: Checks) -> None:
    expected = w.expected_counts()
    if expected is not None:
        got = stats(s.hin)
        checks("hin.stats equals the generated counts", got == expected,
               f"got {got}")


def _plain(w, paths, seed, scratch, checks, seconds):
    """One quality cycle per model seed, each on its own set-up, then timed
    cycles of the first model seed until `seconds` have passed since the
    first set-up, each checked to repeat the first. The remaining set-ups
    are spread evenly over the run, so that their median, like that of the
    timed cycles, does not hang on a single phase of the host's speed."""
    tracer = Tracer(f"{w.name}-seed{seed}")
    model_seeds = w.model_seeds(seed)
    checkpoint = scratch / "checkpoint.bin"
    started = time.perf_counter()
    setups = {ms: set_up(w, paths, ms, tracer) for ms in model_seeds}
    s = setups[seed]
    all_pairs = _all_pairs(s.hin.n_drugs)
    quality = [run_cycle(setups[ms], ms, w.quality_epochs, tracer, checkpoint,
                         all_pairs, checks) for ms in model_seeds]
    del setups
    n_setups = len(model_seeds)
    timed: list[Cycle] = []
    while (len(timed) < MIN_TIMED_CYCLES or n_setups < w.setups
           or time.perf_counter() - started < seconds):
        if (n_setups < w.setups and
                time.perf_counter() - started >= n_setups * seconds / w.setups):
            s = set_up(w, paths, seed, tracer)
            n_setups += 1
        c = run_cycle(s, seed, w.epochs, tracer, checkpoint, all_pairs, checks)
        if timed:
            checks("repeated cycle gives the same history and scores",
                   _same_run(timed[0], c))
            c.scores = None  # keep one screen
        timed.append(c)
    _check_counts(w, s, checks)
    test_auroc = statistics.fmean(c.test_auroc for c in quality)
    if w.min_test_auroc is not None:
        checks(f"mean test AUROC over model seeds {model_seeds} "
               f">= {w.min_test_auroc}", test_auroc >= w.min_test_auroc,
               f"got {test_auroc:.4f}")
    screens = [t for c in timed for t in c.screen_s]
    values = {
        "setup_s": statistics.median(sp.seconds for sp in tracer.named("setup")),
        "train_s": statistics.median(c.train_s for c in timed),
        "predict_pairs_per_s": len(all_pairs) / statistics.median(screens),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_auroc": test_auroc,
    }
    samples = {"setup": n_setups, "train": len(timed), "screen": len(screens)}
    return values, samples, [tracer]


def _traced(w, paths, seed, scratch, checks):
    """Cycles of the first model seed: one untraced (it also warms the
    process up), then TRACED_PAIRS pairs of a traced and an untraced cycle,
    then one traced with the memory and tape probes. Times come from the
    traced cycles without probes. The tracing overhead is the fastest
    traced train_s minus the fastest untraced one of the pairs: the cost of
    the span wrappers, a difference small enough that host noise can make
    it negative. The test AUROC floor, which needs every model seed, is
    checked by the untraced run only."""
    checkpoint = scratch / "checkpoint.bin"
    plain = Tracer(f"{w.name}-seed{seed}-untraced")
    s = set_up(w, paths, seed, plain)
    all_pairs = _all_pairs(s.hin.n_drugs)
    reference = run_cycle(s, seed, w.epochs, plain, checkpoint, all_pairs, checks)

    tracer = Tracer(f"{w.name}-seed{seed}-traced")
    traced, untraced = [], []
    for k in range(TRACED_PAIRS):
        inst = Instrument(tracer, train, model, optim)
        try:
            if k == 0:
                for _ in range(TRACED_SETUPS):
                    s = set_up(w, paths, seed, tracer)
            traced.append(run_cycle(s, seed, w.epochs, tracer, checkpoint,
                                    all_pairs, checks))
        finally:
            inst.restore()
        untraced.append(run_cycle(s, seed, w.epochs, plain, checkpoint,
                                  all_pairs, checks))

    probe_tracer = Tracer(f"{w.name}-seed{seed}-probed")
    probed = Instrument(probe_tracer, train, model, optim, probe=True)
    try:
        probe = run_cycle(s, seed, w.epochs, probe_tracer, checkpoint, all_pairs,
                          checks)
    finally:
        probed.restore()

    _check_counts(w, s, checks)
    for name, c in [("traced", c) for c in traced] + [("probed", probe)]:
        checks(f"{name} history equals the untraced history",
               c.history.records == reference.history.records)
        checks(f"{name} screen scores equal the untraced scores",
               np.array_equal(c.scores, reference.scores))
    for c in untraced:
        checks("repeated cycle gives the same history and scores",
               _same_run(reference, c))

    values = per_layer_metrics(tracer, probed)
    values.update(_densities(s))
    values["espf.merges"] = len(s.vocab.merges)
    values["espf.d0"] = s.features.d0
    values["data.train_pairs"] = len(s.bundle.train)
    values["model.checkpoint_bytes"] = checkpoint.stat().st_size
    values["trace.overhead_s"] = (min(c.train_s for c in traced)
                                  - min(c.train_s for c in untraced))
    samples = {"setup": TRACED_SETUPS, "train": TRACED_PAIRS,
               "screen": TRACED_PAIRS * PREDICT_REPS}
    return values, samples, [plain, tracer, probe_tracer]
