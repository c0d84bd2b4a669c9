"""In-memory spans, wrappers around the program's public functions, and the
per-layer metrics computed from them.

Spans are recorded from the benchmark's own code: bench.py opens spans
around the calls it makes, and a traced pass additionally replaces a few
module attributes with timing wrappers for the duration of that pass.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

MB = float(1 << 20)

# Per-layer metric -> the end-to-end metric and workload it should move.
# Units and directions are in BENCHMARK.json.
PER_LAYER = {
    "hin.load_s": "setup_s, most on paper-513",
    "metapath.graphs_s": "setup_s, most on paper-513",
    **{f"metapath.density.DID-{k}":
       "useful share of dense attention work; a sparse path should move "
       "train_s and peak_rss_mb where it is low (planted-50, DID-1 and DID-2 "
       "on paper-513) and must not lose on paper-513, where DID-3 is dense"
       for k in range(1, 5)},
    "espf.vocab_s": "setup_s on paper-513",
    "espf.encode_s": "setup_s on paper-513",
    "espf.merges": "must stay identical under a vocabulary rewrite",
    "espf.d0": "must stay identical under a vocabulary rewrite",
    "data.split_s": "setup_s on paper-513",
    "data.train_pairs": "work per epoch on every workload",
    "model.encode_train_s": "train_s on paper-513",
    "model.decode_train_s": "train_s on paper-513",
    "model.loss_s": "train_s on planted-50",
    "model.encode_eval_s": "predict_pairs_per_s and the validation share of train_s",
    "model.decode_screen_s": "predict_pairs_per_s on paper-513",
    "model.checkpoint_load_s": "predict_pairs_per_s, most on planted-50",
    "model.checkpoint_bytes": "predict_pairs_per_s, most on planted-50",
    "model.encode_train_peak_mb": "peak_rss_mb on paper-513",
    "autodiff.backward_peak_mb": "peak_rss_mb on paper-513",
    "autodiff.backward_s": "train_s on every workload",
    "autodiff.tape_nodes": "train_s on planted-50, peak_rss_mb on paper-513",
    "autodiff.tape_mb": "train_s on planted-50, peak_rss_mb on paper-513",
    "optim.step_s": "train_s on planted-50",
    "metrics.evaluate_s": "train_s on paper-513",
    "train.validate_s": "train_s",
    "train.self_s": "train_s on planted-50",
    "trace.overhead_s": "none: cost of the span wrappers, traced minus untraced train_s",
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `write` saves them when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, parent, self.run_id,
                   time.perf_counter(), attrs=attrs)
        self.spans.append(rec)
        self._open.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered, reach = 0.0, span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.seconds - covered

    def write(self, path: Path) -> None:
        """Append the spans to a JSON-lines file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps(asdict(rec)) + "\n")


def _tape(loss) -> tuple[int, int]:
    """Nodes reachable from the loss and the bytes their values hold."""
    seen, stack, nbytes = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node._parents)
    return len(seen), nbytes


class Instrument:
    """Replaces module attributes with span-recording wrappers; `restore`
    puts the originals back.

    With `probe`, the first training-mode encode and the first backward
    also run under tracemalloc (their peak working memory), and the first
    backward counts the tape. Probing slows those calls down, so a probed
    pass gives only the peaks and the tape, and times come from a pass
    without probes.
    """

    def __init__(self, tracer: Tracer, train, model, optim, probe: bool = False):
        self.tracer = tracer
        self.peaks: dict[str, float] = {}
        self.tape: tuple[int, int] | None = None
        self._saved = []
        self._wrap(train, "forward", "model.forward", mode=True)
        self._wrap(model, "encode", "model.encode", mode=True,
                   peak="model.encode_train_peak_mb" if probe else None,
                   when=lambda args, kwargs: kwargs.get("training", False))
        self._wrap(model, "decode_pairs", "model.decode")
        self._wrap(train, "bce_loss", "model.loss")
        self._wrap(train, "backward", "autodiff.backward",
                   peak="autodiff.backward_peak_mb" if probe else None,
                   on_probe=self._count_tape)
        self._wrap(optim.Adam, "step", "optim.step")
        self._wrap(train, "evaluate", "metrics.evaluate")

    def _count_tape(self, args):
        self.tape = _tape(args[0])

    def _wrap(self, owner, attr, name, mode=False, peak=None, when=None,
              on_probe=None):
        """Record a span per call; `mode` stores the `training` flag. With
        `peak`, the first call that `when` accepts is probed."""
        original = getattr(owner, attr)
        tracer, peaks = self.tracer, self.peaks

        def wrapper(*args, **kwargs):
            extra = {"training": bool(kwargs.get("training", False))} if mode else {}
            with tracer.span(name, **extra):
                if (peak is None or peak in peaks
                        or (when is not None and not when(args, kwargs))):
                    return original(*args, **kwargs)
                if on_probe is not None:
                    on_probe(args)
                tracemalloc.start()
                try:
                    return original(*args, **kwargs)
                finally:
                    peaks[peak] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _times(spans: list[Span]) -> float:
    return _median(s.seconds for s in spans)


def _validation_seconds(tracer: Tracer, train_span: Span) -> list[float]:
    """Per epoch: the eval-mode forward, the loss after it and the AUROC
    evaluation, in the order `train` calls them."""
    per_epoch: list[float] = []
    evaluating = False
    for child in tracer.children(train_span):
        if child.name == "model.forward":
            evaluating = not child.attrs["training"]
            if evaluating:
                per_epoch.append(child.seconds)
        elif evaluating and child.name in ("model.loss", "metrics.evaluate"):
            per_epoch[-1] += child.seconds
    return per_epoch


def per_layer_metrics(tracer: Tracer, probed: Instrument) -> dict[str, float]:
    """Every PER_LAYER metric except the counts bench.py adds itself: times
    from `tracer`, a pass without probes, and peaks and tape from `probed`."""
    by_id = {s.sid: s for s in tracer.spans}

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    encodes = tracer.named("model.encode")
    decodes = tracer.named("model.decode")
    trains = tracer.named("train")
    out = {
        "hin.load_s": _times(tracer.named("hin.load")),
        "metapath.graphs_s": _times(tracer.named("metapath.graphs")),
        "espf.vocab_s": _times(tracer.named("espf.vocab")),
        "espf.encode_s": _times(tracer.named("espf.encode")),
        "data.split_s": _times(tracer.named("data.split")),
        "model.encode_train_s": _times(
            [s for s in encodes if s.attrs["training"]]),
        "model.encode_eval_s": _times(
            [s for s in encodes if not s.attrs["training"]]),
        "model.decode_train_s": _times(
            [s for s in decodes if parent_name(s) == "model.forward"
             and by_id[s.parent].attrs["training"]]),
        "model.decode_screen_s": _times(
            [s for s in decodes if parent_name(s) == "screen"]),
        "model.loss_s": _times(_train_losses(tracer, trains)),
        "model.checkpoint_load_s": _times(tracer.named("model.checkpoint_load")),
        "autodiff.backward_s": _times(tracer.named("autodiff.backward")),
        "optim.step_s": _times(tracer.named("optim.step")),
        "metrics.evaluate_s": _times(tracer.named("metrics.evaluate")),
        "train.validate_s": _median(
            v for t in trains for v in _validation_seconds(tracer, t)),
        "train.self_s": _median(tracer.self_seconds(t) for t in trains),
    }
    out.update(probed.peaks)
    if probed.tape is not None:
        out["autodiff.tape_nodes"] = probed.tape[0]
        out["autodiff.tape_mb"] = probed.tape[1] / MB
    return out


def _train_losses(tracer: Tracer, trains: list[Span]) -> list[Span]:
    """Loss spans that follow a training-mode forward."""
    out = []
    for t in trains:
        training = False
        for child in tracer.children(t):
            if child.name == "model.forward":
                training = child.attrs["training"]
            elif child.name == "model.loss" and training:
                out.append(child)
    return out
