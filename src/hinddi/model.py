"""Two-level attention encoder and dot-product decoder for drug pairs.

One matmul projects drug features for all K heads at once into an
(n, K*F) matrix; head k owns columns [k*F, (k+1)*F). Per meta-path, one
fused `graph_attention` node scores each head's neighbors (leaky-relu of
that head's row of a (K, 2F) attention matrix applied to the concatenated
pair projection), normalizes the scores by a masked softmax over the
neighbor mask and aggregates; one activation node follows. One
`semantic_attention` node scores each meta-path embedding through a small
tanh layer and fuses them with softmax weights beta. One `pair_scores` node
gives pair probabilities, the sigmoid of the dot product of the fused
embeddings, and one `binary_cross_entropy` node gives the training loss.
Whatever the number of drugs, heads or pairs, a training step records
dropout, the projection, two nodes per meta-path and these three.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import UNARY_KINDS, ContractError, ParameterError, ShapeError, Tensor
from .metapath import NeighborGraph

__all__ = [
    "ModelConfig",
    "ModelParams",
    "EncoderOutput",
    "init_params",
    "encode",
    "decode_pairs",
    "bce_loss",
    "forward",
    "random_row_stochastic",
    "save_checkpoint",
    "load_checkpoint",
]

PROB_CLAMP = 1e-7


@dataclass
class ModelConfig:
    """Architecture knobs; defaults follow the published hyperparameters
    (8 heads of 8 hidden units, dropout 0.6, leaky slope 0.2)."""

    input_dim: int
    hidden_dim: int = 8
    heads: int = 8
    attn_dim: int = 128
    leaky_slope: float = 0.2
    dropout: float = 0.6
    activation: str = "relu"
    pool: str = "mean"  # node pooling in meta-path scoring: mean or sum
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "heads", "attn_dim"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if not (0 <= self.dropout < 1):
            raise ParameterError(f"dropout {self.dropout} outside [0, 1)")
        if self.pool not in ("mean", "sum"):
            raise ParameterError(f"pool must be 'mean' or 'sum', got {self.pool!r}")
        if self.activation not in UNARY_KINDS:
            raise ParameterError(f"activation must be one of {', '.join(UNARY_KINDS)}; "
                                 f"got {self.activation!r}")

    def echo(self) -> dict[str, str]:
        """Every field as a string: repr for floats, so they read back exactly."""
        return {f.name: repr(getattr(self, f.name)) if f.type == "float"
                else str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_echo(cls, echo: dict[str, str]) -> "ModelConfig":
        """Inverse of `echo`; other keys are ignored, a missing one raises KeyError."""
        parse = {"int": int, "float": float, "str": str}
        return cls(**{f.name: parse[f.type](echo[f.name]) for f in fields(cls)})


@dataclass
class ModelParams:
    """All trainable tensors.

    `proj` is the (d0, K*F) projection of all K heads, shared across
    meta-paths, with head k in columns [k*F, (k+1)*F). `attn[mp]` is the
    (K, 2F) node-level attention matrix of a meta-path, one row per head:
    the first F entries score the attending drug, the last F its neighbor.
    (W, b, q) is the meta-path-level attention triple. Checkpoints name
    the tensors `proj`, `attn.<mp>`, `w_mp`, `b_mp` and `q_mp`.
    """

    metapaths: tuple[str, ...]
    proj: Tensor                        # (d0, K*F)
    attn: dict[str, Tensor]             # metapath -> (K, 2F)
    w_mp: Tensor                        # (d_q, K*F)
    b_mp: Tensor                        # (d_q,)
    q_mp: Tensor                        # (d_q,)

    def named(self) -> dict[str, Tensor]:
        out = {"proj": self.proj}
        for mp in self.metapaths:
            out[f"attn.{mp}"] = self.attn[mp]
        out["w_mp"] = self.w_mp
        out["b_mp"] = self.b_mp
        out["q_mp"] = self.q_mp
        return out

    def trainable(self) -> list[Tensor]:
        return list(self.named().values())

    @property
    def dtype(self) -> np.dtype:
        return self.proj.dtype

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named().items()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.named().items():
            t.data[...] = state[name]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape,
            dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_params(config: ModelConfig, metapaths, rng: np.random.Generator,
                dtype=np.float32) -> ModelParams:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) init, zero bias; heads are
    drawn one after another, as (d0, F) and (2F,) blocks."""
    d0, f, k, dq = (config.input_dim, config.hidden_dim, config.heads,
                    config.attn_dim)
    metapaths = tuple(metapaths)
    proj_heads = _glorot(rng, d0, f, (k, d0, f), dtype)
    proj = Tensor(proj_heads.transpose(1, 0, 2).reshape(d0, k * f),
                  requires_grad=True)
    attn = {mp: Tensor(_glorot(rng, 2 * f, 1, (k, 2 * f), dtype), requires_grad=True)
            for mp in metapaths}
    w_mp = Tensor(_glorot(rng, k * f, dq, (dq, k * f), dtype), requires_grad=True)
    b_mp = Tensor(np.zeros(dq, dtype=dtype), requires_grad=True)
    q_mp = Tensor(_glorot(rng, dq, 1, (dq,), dtype), requires_grad=True)
    return ModelParams(metapaths, proj, attn, w_mp, b_mp, q_mp)


@dataclass
class EncoderOutput:
    """Per-meta-path embeddings, their softmax weights, and the fusion."""
    z_mp: dict[str, Tensor]             # metapath -> (n, K*F)
    beta: Tensor                        # (T,) nonnegative, sums to 1
    fused: Tensor                       # (n, K*F)
    alphas: dict[str, list[Tensor]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# encoder stages


def random_row_stochastic(adjacency: np.ndarray, rng: np.random.Generator,
                          dtype=np.float32) -> np.ndarray:
    """A fixed random attention surrogate: uniform draws on the mask,
    normalized so every row sums to 1 over its neighbors."""
    weights = rng.random(adjacency.shape) * adjacency
    return (weights / weights.sum(axis=1, keepdims=True)).astype(dtype)


def encode(params: ModelParams, features: np.ndarray,
           graphs: dict[str, NeighborGraph], config: ModelConfig,
           training: bool = False, rng: np.random.Generator | None = None,
           fixed_alpha: dict[str, np.ndarray] | None = None,
           uniform_beta: bool = False) -> EncoderOutput:
    """Run the full encoder; meta-paths are consumed in params order.

    `fixed_alpha` substitutes a constant row-stochastic matrix for the
    learned attention of each meta-path; `uniform_beta` bypasses the
    meta-path attention stage with equal weights.
    """
    if set(graphs) != set(params.metapaths):
        raise ShapeError(f"graphs {sorted(graphs)} vs params meta-paths "
                         f"{sorted(params.metapaths)}")
    dtype = params.dtype
    n = next(iter(graphs.values())).n_nodes
    if features.shape != (n, config.input_dim):
        raise ShapeError(f"features shape {features.shape}, expected "
                         f"({n}, {config.input_dim})")
    x = Tensor(np.asarray(features, dtype=dtype))
    rate = config.dropout if training else 0.0
    if rate:
        x = ad.dropout(x, rate, rng, training)
    h = ad.matmul(x, params.proj)
    act_slope = 0.2 if config.activation == "leaky_relu" else None

    z_mp: dict[str, Tensor] = {}
    alphas_out: dict[str, list[Tensor]] = {}
    for mp in params.metapaths:
        fixed = None if fixed_alpha is None else fixed_alpha.get(mp)
        z, alphas_out[mp] = ad.graph_attention(
            h, params.attn[mp] if fixed is None else None, graphs[mp].adjacency,
            heads=config.heads, slope=config.leaky_slope, dropout=rate, rng=rng,
            fixed=fixed)
        z_mp[mp] = ad.apply_unary(config.activation, z, act_slope)

    z_list = [z_mp[mp] for mp in params.metapaths]
    t = len(z_list)
    if uniform_beta:
        fused, beta = ad.semantic_attention(z_list, None, None, None,
                                            fixed=np.full(t, 1.0 / t, dtype=dtype))
    else:
        fused, beta = ad.semantic_attention(z_list, params.w_mp, params.b_mp,
                                            params.q_mp, pool=config.pool)
    return EncoderOutput(z_mp=z_mp, beta=beta, fused=fused, alphas=alphas_out)


# ---------------------------------------------------------------------------
# decoder and loss


def decode_pairs(fused: Tensor, pairs: np.ndarray) -> Tensor:
    """Sigmoid of the row dot products fused[i] . fused[j] per pair;
    symmetric in (i, j)."""
    return ad.pair_scores(fused, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def bce_loss(scores: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross-entropy, summed over examples.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs.
    """
    return ad.binary_cross_entropy(scores, labels, PROB_CLAMP)


def forward(params: ModelParams, features: np.ndarray,
            graphs: dict[str, NeighborGraph], pairs: np.ndarray,
            config: ModelConfig, training: bool = False,
            rng: np.random.Generator | None = None,
            fixed_alpha: dict[str, np.ndarray] | None = None,
            uniform_beta: bool = False) -> tuple[Tensor, EncoderOutput]:
    """Encoder plus pairwise decoding; returns (scores, encoder output)."""
    out = encode(params, features, graphs, config, training=training, rng=rng,
                 fixed_alpha=fixed_alpha, uniform_beta=uniform_beta)
    return decode_pairs(out.fused, pairs), out


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = b"HINDDI\x01\x00"
_VERSION = 1


def save_checkpoint(path, params: ModelParams, config_echo: dict[str, str]) -> None:
    """Versioned binary checkpoint: magic, version, precision flag, config
    echo, then named tensors (name, rank, extents, little-endian payload).
    Round-trips bit-exactly."""
    named = params.named()
    itemsize = params.dtype.itemsize
    echo = dict(config_echo)
    echo["metapaths"] = ",".join(params.metapaths)
    echo_blob = "\n".join(f"{k}={v}" for k, v in sorted(echo.items())).encode("utf-8")

    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<IB", _VERSION, itemsize))
    buf.write(struct.pack("<I", len(echo_blob)))
    buf.write(echo_blob)
    buf.write(struct.pack("<I", len(named)))
    le_dtype = "<f4" if itemsize == 4 else "<f8"
    for name, tensor in named.items():
        name_b = name.encode("utf-8")
        buf.write(struct.pack("<H", len(name_b)))
        buf.write(name_b)
        buf.write(struct.pack("<B", tensor.data.ndim))
        for extent in tensor.data.shape:
            buf.write(struct.pack("<Q", extent))
        buf.write(np.ascontiguousarray(tensor.data, dtype=le_dtype).tobytes())
    data = buf.getvalue()

    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(target)


def load_checkpoint(path) -> tuple[ModelParams, dict[str, str]]:
    """Read a checkpoint; a truncated or corrupt file raises ContractError.

    Files written before the heads were fused hold per-head `proj.<k>` and
    `attn.<mp>.<k>`; they are joined by column and stacked by row."""
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    if bytes(view[:len(_MAGIC)]) != _MAGIC:
        raise ContractError(f"{path}: not a checkpoint file")
    try:
        offset = len(_MAGIC)
        version, itemsize = struct.unpack_from("<IB", view, offset)
        offset += 5
        if version != _VERSION:
            raise ContractError(f"{path}: unsupported checkpoint version {version}")
        (echo_len,) = struct.unpack_from("<I", view, offset)
        offset += 4
        echo_blob = bytes(view[offset:offset + echo_len]).decode("utf-8")
        offset += echo_len
        echo = dict(line.split("=", 1) for line in echo_blob.splitlines() if line)
        (count,) = struct.unpack_from("<I", view, offset)
        offset += 4
        le_dtype = np.dtype("<f4" if itemsize == 4 else "<f8")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", view, offset)
            offset += 1
            shape = struct.unpack_from(f"<{rank}Q", view, offset)
            offset += 8 * rank
            size = math.prod(shape)
            arr = np.frombuffer(view, dtype=le_dtype, count=size, offset=offset)
            offset += size * itemsize
            arrays[name] = arr.reshape(shape).astype(le_dtype.newbyteorder("="), copy=True)
        if offset != len(raw):
            raise ValueError("bytes after the last tensor")

        metapaths = tuple(echo["metapaths"].split(",")) if echo.get("metapaths") else ()
        if "proj" not in arrays:
            heads = sum(1 for name in arrays if name.startswith("proj."))
            arrays["proj"] = np.concatenate(
                [arrays.pop(f"proj.{k}") for k in range(heads)], axis=1)
            for mp in metapaths:
                arrays[f"attn.{mp}"] = np.stack(
                    [arrays.pop(f"attn.{mp}.{k}") for k in range(heads)])
        params = ModelParams(
            metapaths, Tensor(arrays["proj"], requires_grad=True),
            {mp: Tensor(arrays[f"attn.{mp}"], requires_grad=True) for mp in metapaths},
            Tensor(arrays["w_mp"], requires_grad=True),
            Tensor(arrays["b_mp"], requires_grad=True),
            Tensor(arrays["q_mp"], requires_grad=True))
    except (struct.error, ValueError, KeyError) as err:  # incl. UnicodeDecodeError
        raise ContractError(f"{path}: truncated or corrupt checkpoint") from err
    return params, echo
