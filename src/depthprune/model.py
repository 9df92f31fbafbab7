"""Seeded deterministic decoder-only transformer with capture hooks.

Pre-norm residual blocks: x += attn(norm(x)); x += mlp(norm(x)).  Zeroing
a block's attention output projection and MLP down-projection makes it an
exact identity on the residual stream, which is the planted-redundancy
test construction used throughout the test suite.

Weights come from the counter-based stream in :mod:`depthprune.rng`, drawn
in a fixed order (token embedding, positional embedding, per-block
projections, unembedding), so equal configs give bit-identical models.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig, PlanModelMismatch, SequenceTooLong
from .rng import SeededStream


@dataclass(frozen=True)
class ToyModelConfig:
    num_layers: int = 12
    hidden_dim: int = 64
    num_heads: int = 4
    vocab_size: int = 64
    max_seq_len: int = 64
    seed: int = 0

    def validate(self):
        if self.num_layers < 3:
            raise InvalidConfig(f"num_layers must be >= 3 (got {self.num_layers}); "
                                "otherwise no layer is pruneable after endpoint protection")
        if self.hidden_dim <= 0:
            raise InvalidConfig(f"hidden_dim must be positive (got {self.hidden_dim})")
        if self.num_heads <= 0:
            raise InvalidConfig(f"num_heads must be positive (got {self.num_heads})")
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidConfig(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")
        if self.vocab_size <= 0:
            raise InvalidConfig(f"vocab_size must be positive (got {self.vocab_size})")
        if self.max_seq_len <= 0:
            raise InvalidConfig(f"max_seq_len must be positive (got {self.max_seq_len})")


@dataclass(frozen=True)
class BlockWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


@dataclass(frozen=True)
class CaptureTrace:
    layer_ids: tuple          # original layer indices, one per retained block
    h_in: tuple               # (T, d) per retained block
    h_out: tuple              # (T, d) per retained block, post-residual
    logits: np.ndarray        # (T, vocab_size)


def _layernorm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-6)


def _gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))), evaluated in
    # place on one temporary: batched MLP activations are a forward's largest
    # arrays.
    g = x * x
    g *= x
    g *= 0.044715
    g += x
    g *= np.sqrt(2.0 / np.pi)
    np.tanh(g, out=g)
    g += 1.0
    g *= x
    g *= 0.5
    return g


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


class Model:
    """Immutable decoder stack; safe to share across threads."""

    def __init__(self, config: ToyModelConfig, embedding, positional, blocks,
                 unembed, layer_ids=None):
        self.config = config
        self.embedding = embedding
        self.positional = positional
        self.blocks = tuple(blocks)
        self.unembed = unembed
        self.layer_ids = tuple(layer_ids) if layer_ids is not None else tuple(range(len(blocks)))

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def protected_layers(self) -> frozenset:
        return frozenset({0, self.config.num_layers - 1})

    @property
    def pruneable_layers(self) -> tuple:
        protected = self.protected_layers
        return tuple(l for l in range(self.config.num_layers) if l not in protected)

    def residual_states(self, tokens, start: int = 0, x0=None):
        """Batched forward over ``tokens`` of shape (B, T); returns (states, logits).

        ``states`` has shape (depth - start + 1, B, T, d): the residual stream
        entering ``blocks[start]``, then the stream after each later block.
        ``logits`` has shape (B, T, vocab_size).  With ``start > 0`` the
        stream entering ``blocks[start]`` must be given as ``x0`` (B, T, d),
        which resumes a forward from a prefix computed elsewhere.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        cfg = self.config
        if tokens.ndim != 2 or tokens.shape[0] < 1 or tokens.shape[1] < 1:
            raise ValueError("tokens must be a non-empty (batch, seq) array")
        b, t = tokens.shape
        if t > cfg.max_seq_len:
            raise SequenceTooLong(f"sequence length {t} > max_seq_len {cfg.max_seq_len}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id outside vocabulary")
        if not 0 <= start <= self.depth:
            raise ValueError(f"start {start} outside [0, {self.depth}]")
        d = cfg.hidden_dim
        if x0 is None:
            if start != 0:
                raise ValueError("x0 is required to resume at start > 0")
            x = self.embedding[tokens] + self.positional[:t]
        else:
            x = np.asarray(x0, dtype=np.float64)
            if x.shape != (b, t, d):
                raise ValueError(f"x0 shape {x.shape} != {(b, t, d)}")
        heads, head_dim = cfg.num_heads, d // cfg.num_heads
        mask = np.triu(np.full((t, t), -np.inf), k=1)
        scale = 1.0 / np.sqrt(head_dim)
        states = np.empty((self.depth - start + 1, b, t, d))
        states[0] = x
        for i, blk in enumerate(self.blocks[start:], 1):
            a = _layernorm(x)
            q, k, v = ((a @ w).reshape(b, t, heads, head_dim).transpose(0, 2, 1, 3)
                       for w in (blk.wq, blk.wk, blk.wv))
            att = _softmax((q @ k.transpose(0, 1, 3, 2)) * scale + mask)
            ctx = (att @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
            x = x + ctx @ blk.wo
            x = x + _gelu(_layernorm(x) @ blk.w_up) @ blk.w_down
            states[i] = x
        return states, _layernorm(x) @ self.unembed

    def forward_with_hooks(self, tokens) -> CaptureTrace:
        """One sequence through :meth:`residual_states`, split into per-block in/out."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.shape[0] < 1:
            raise ValueError("tokens must be a non-empty 1-D sequence")
        states, logits = self.residual_states(tokens[None])
        return CaptureTrace(layer_ids=self.layer_ids, h_in=tuple(states[:-1, 0]),
                            h_out=tuple(states[1:, 0]), logits=logits[0])

    def logits(self, tokens) -> np.ndarray:
        return self.forward_with_hooks(tokens).logits


def build_model(config: ToyModelConfig) -> Model:
    """Build a model with weights fully determined by config (incl. seed)."""
    config.validate()
    stream = SeededStream(config.seed)
    d = config.hidden_dim

    def draw(rows, cols, std):
        return stream.gaussians(rows * cols).reshape(rows, cols) * std

    proj_std = 1.0 / np.sqrt(d)
    embedding = draw(config.vocab_size, d, 1.0)
    positional = draw(config.max_seq_len, d, 1.0)
    blocks = []
    for _ in range(config.num_layers):
        blocks.append(BlockWeights(
            wq=draw(d, d, proj_std),
            wk=draw(d, d, proj_std),
            wv=draw(d, d, proj_std),
            wo=draw(d, d, proj_std),
            w_up=draw(d, 4 * d, proj_std),
            w_down=draw(4 * d, d, 1.0 / np.sqrt(4 * d)),
        ))
    unembed = draw(d, config.vocab_size, proj_std)
    return Model(config, embedding, positional, blocks, unembed)


def neutralize_block(model: Model, layer_id: int) -> Model:
    """Zero a block's output projections, making it an exact identity."""
    if layer_id not in model.layer_ids:
        raise PlanModelMismatch(f"layer {layer_id} not present in model")
    blocks = []
    for lid, blk in zip(model.layer_ids, model.blocks):
        if lid == layer_id:
            blk = replace(blk, wo=np.zeros_like(blk.wo), w_down=np.zeros_like(blk.w_down))
        blocks.append(blk)
    return Model(model.config, model.embedding, model.positional, blocks,
                 model.unembed, model.layer_ids)


def apply_prune_plan(model: Model, plan) -> Model:
    """Drop the plan's pruned blocks, splicing the residual stream across gaps."""
    cfg = model.config
    if plan.num_layers != cfg.num_layers:
        raise PlanModelMismatch(
            f"plan num_layers {plan.num_layers} != model num_layers {cfg.num_layers}")
    protected = frozenset(plan.protected) | model.protected_layers
    for layer in plan.pruned:
        if not (0 <= layer < cfg.num_layers):
            raise PlanModelMismatch(f"pruned layer {layer} outside [0, {cfg.num_layers})")
        if layer in protected:
            raise PlanModelMismatch(f"pruned layer {layer} is protected")
        if layer not in model.layer_ids:
            raise PlanModelMismatch(f"pruned layer {layer} not present in model")
    pruned = set(plan.pruned)
    keep = [(lid, blk) for lid, blk in zip(model.layer_ids, model.blocks) if lid not in pruned]
    return Model(cfg, model.embedding, model.positional, [b for _, b in keep],
                 model.unembed, [lid for lid, _ in keep])
