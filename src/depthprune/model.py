"""Seeded deterministic decoder-only transformer, streamed one block at a time.

Pre-norm residual blocks: x += attn(norm(x)); x += mlp(norm(x)).  Zeroing
a block's attention output projection and MLP down-projection makes it an
exact identity on the residual stream, which is the planted-redundancy
test construction used throughout the test suite.

Weights come from the counter-based stream in :mod:`depthprune.rng`, laid
out in a fixed order (token embedding, positional embedding, per-block
projections, unembedding), so equal configs give bit-identical models.
:func:`threaded` runs that draw, and the sweep's work per domain, one
thread per item.
"""

import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig, PlanModelMismatch, SequenceTooLong, check_int, show
from .rng import SeededStream


# Samples per block evaluation: a block's scratch buffers (the (B, heads, T, T)
# attention scores and the (B, T, 4d) MLP activations) are bounded by this
# many samples at any batch size, which keeps them in cache.  The CLI capture
# streams each domain in pieces of this many samples, so the states it holds
# are bounded by it too.  16 raised the CLI capture's peak RSS past the
# benchmark's bound.
CHUNK = 8


def default_protected(num_layers: int) -> frozenset:
    """The endpoint layers {0, L - 1}, which are never scored or pruned: the one such rule."""
    return frozenset({0, num_layers - 1})


@dataclass(frozen=True)
class ToyModelConfig:
    num_layers: int = 12
    hidden_dim: int = 64
    num_heads: int = 4
    vocab_size: int = 64
    max_seq_len: int = 64
    seed: int = 0

    def __post_init__(self):
        # 3 layers leave one pruneable after endpoint protection, and several probe
        # generators draw from vocab_size - 1 tokens
        check_int(InvalidConfig, "num_layers", self.num_layers, 3)
        check_int(InvalidConfig, "hidden_dim", self.hidden_dim, 1)
        check_int(InvalidConfig, "num_heads", self.num_heads, 1)
        check_int(InvalidConfig, "vocab_size", self.vocab_size, 2)
        check_int(InvalidConfig, "max_seq_len", self.max_seq_len, 1)
        check_int(InvalidConfig, "seed", self.seed, written=True)  # a log's model_id holds it
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidConfig(f"hidden_dim {show(self.hidden_dim)} not divisible "
                                f"by num_heads {show(self.num_heads)}")
        # numpy counts bytes in an intp: the float64 bytes of all 6 * num_layers + 3 weight
        # tensors, and so of each one, must fit in it (a short RAM is found when they are drawn)
        d = self.hidden_dim
        size = 8 * ((2 * self.vocab_size + self.max_seq_len) * d + 12 * self.num_layers * d * d)
        if size > np.iinfo(np.intp).max:
            raise InvalidConfig(f"weights of {show(size)} bytes exceed numpy's "
                                f"{np.iinfo(np.intp).max}: {show(self)}")


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


def _layernorm(x: np.ndarray, out: np.ndarray = None, tmp: np.ndarray = None) -> np.ndarray:
    """Layer norm over the last axis, into ``out``; ``tmp`` (x's shape) is scratch.

    Either buffer may be None, and is then allocated.
    """
    # the steps of x.var(axis=-1), sharing its centred copy of x
    y = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)
    var = np.square(y, out=tmp).mean(axis=-1, keepdims=True)
    var += 1e-6
    y /= np.sqrt(var, out=var)
    return y


def _gelu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))), into ``out``."""
    g = np.multiply(x, x, out=out)
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
    """Softmax over the last axis, computed in ``x``'s own buffer."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _buffers(n: int, t: int, d: int, heads: int) -> tuple:
    """Scratch arrays for :func:`_block` on up to ``n`` samples of length ``t``.

    Four (n, t, d) arrays, the (n, heads, t, t) attention scores and two
    (n, t, 4d) MLP arrays.
    """
    return tuple(np.empty(shape) for shape in [(n, t, d)] * 4 + [(n, heads, t, t)]
                 + [(n, t, 4 * d)] * 2)


def _block(blk: BlockWeights, x: np.ndarray, mask: np.ndarray, heads: int, buf: tuple,
           out: np.ndarray) -> np.ndarray:
    """Write the residual stream after one pre-norm block on ``x`` (n, T, d) into ``out``.

    ``buf`` is :func:`_buffers` for at least n samples; only its first n rows
    are used, and they are overwritten.
    """
    n, t, d = x.shape
    head_dim = d // heads
    a, q, k, v, att, up, g = (b[:n] for b in buf)

    def by_head(y):  # (n, t, d) -> a (n, heads, t, head_dim) view
        return y.reshape(n, t, heads, head_dim).transpose(0, 2, 1, 3)

    _layernorm(x, a, q)  # q and later k are free while a layer norm runs
    for w, y in ((blk.wq, q), (blk.wk, k), (blk.wv, v)):
        np.matmul(a, w, out=y)
    np.matmul(by_head(q), by_head(k).transpose(0, 1, 3, 2), out=att)
    att *= 1.0 / np.sqrt(head_dim)
    att += mask
    np.matmul(_softmax(att), by_head(v), out=by_head(a))  # the context, back in (n, t, d)
    np.add(x, np.matmul(a, blk.wo, out=q), out=out)
    np.matmul(_layernorm(out, a, k), blk.w_up, out=up)
    out += np.matmul(_gelu(up, g), blk.w_down, out=q)
    return out


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

    def stream(self, tokens, start: int = 0, x0=None):
        """Forward ``tokens`` of shape (B, T) one block at a time.

        A generator: it yields the residual stream (B, T, d) entering
        ``blocks[start]``, then the stream after each later block, computing
        each block only when the next state is asked for.  With ``start > 0``
        the stream entering ``blocks[start]`` must be given as ``x0``
        (B, T, d), which resumes a forward from a prefix computed elsewhere.
        Each block is evaluated ``CHUNK`` samples at a time, written straight
        into the state it yields, through scratch buffers that are allocated
        once per stream and reused by every chunk of every block.  So a
        block's temporaries are bounded at any batch size; rows are
        independent, so the bits do not depend on B.  Inputs are checked
        before the first state is yielded; tokens must be an integer array.
        Every yielded state is a new array that is not written to after it
        is yielded, so callers may keep any of them; the first one is ``x0``
        itself when given.
        """
        tokens = np.asarray(tokens)
        cfg = self.config
        if tokens.ndim != 2 or tokens.shape[0] < 1 or tokens.shape[1] < 1:
            raise ValueError("tokens must be a non-empty (batch, seq) array")
        if tokens.dtype.kind not in "iu":
            raise ValueError(f"tokens must be integers (got dtype {tokens.dtype})")
        tokens = tokens.astype(np.int64, copy=False)
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
        mask = np.triu(np.full((t, t), -np.inf), k=1)
        yield x
        buf = _buffers(min(b, CHUNK), t, d, cfg.num_heads)
        for blk in self.blocks[start:]:
            y = np.empty((b, t, d))
            for lo in range(0, b, CHUNK):
                _block(blk, x[lo:lo + CHUNK], mask, cfg.num_heads, buf, y[lo:lo + CHUNK])
            x = y
            yield x

    def head(self, x) -> np.ndarray:
        """Logits (..., vocab_size) of final residual states (..., d)."""
        return _layernorm(x) @ self.unembed

    def forward_with_hooks(self, tokens) -> CaptureTrace:
        """One sequence through :meth:`stream`, split into per-block in/out."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 1 or tokens.shape[0] < 1:
            raise ValueError("tokens must be a non-empty 1-D sequence")
        states = list(self.stream(tokens[None]))
        return CaptureTrace(layer_ids=self.layer_ids, h_in=tuple(x[0] for x in states[:-1]),
                            h_out=tuple(x[0] for x in states[1:]), logits=self.head(states[-1])[0])

    def logits(self, tokens) -> np.ndarray:
        return self.forward_with_hooks(tokens).logits


def threaded(fn, items):
    """``[fn(item) for item in items]``, each item after the first on its own thread.

    The first item runs on the calling thread.  numpy's kernels release the
    GIL, so the calls share the machine's cores.  An exception raised on
    another thread is re-raised here with its own type.  ``fn`` must call
    nothing that the benchmark tracer wraps: its span stack belongs to the
    calling thread.
    """
    results, errors = [None] * len(items), []

    def run(i):
        try:
            results[i] = fn(items[i])
        except BaseException as exc:  # handed to the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(items))]
    for thread in threads:
        thread.start()
    try:
        results[0] = fn(items[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def build_model(config: ToyModelConfig) -> Model:
    """Build a model with weights fully determined by config (incl. seed).

    The weights are one Gaussian stream read in a fixed order: token
    embedding, positional embedding, each block's wq, wk, wv, wo, w_up and
    w_down, unembedding.  The draw plan gives each tensor its start
    position in that stream first, so the tensors are drawn independently
    and straight into their final arrays, on two threads: every other
    tensor of the plan on one ``threading.Thread``, which splits each block
    evenly (wq, wv, w_up against wk, wo, w_down).  The bits do not depend on
    the split.
    """
    d = config.hidden_dim
    proj_std = 1.0 / np.sqrt(d)
    block = [(d, d, proj_std)] * 4 + [(d, 4 * d, proj_std), (4 * d, d, 1.0 / np.sqrt(4 * d))]
    plan, start = [], 0   # (array, std, start position in the stream)
    for rows, cols, std in ([(config.vocab_size, d, 1.0), (config.max_seq_len, d, 1.0)]
                            + block * config.num_layers + [(d, config.vocab_size, proj_std)]):
        plan.append((np.empty((rows, cols)), std, start))
        start += SeededStream.raw_count(rows * cols)

    def draw(part):
        for w, std, start in part:
            SeededStream(config.seed, start).gaussians(w.reshape(-1))
            w *= std

    threaded(draw, [plan[0::2], plan[1::2]])
    w = [w for w, _, _ in plan]
    blocks = [BlockWeights(*w[i:i + 6]) for i in range(2, len(w) - 1, 6)]
    return Model(config, w[0], w[1], blocks, w[-1])


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
    protected = default_protected(cfg.num_layers)  # a valid plan need not protect the endpoints
    for layer in plan.pruned:
        if layer in protected:
            raise PlanModelMismatch(f"pruned layer {layer} is protected")
        if layer not in model.layer_ids:
            raise PlanModelMismatch(f"pruned layer {layer} not present in model")
    pruned = set(plan.pruned)
    keep = [(lid, blk) for lid, blk in zip(model.layer_ids, model.blocks) if lid not in pruned]
    return Model(cfg, model.embedding, model.positional, [b for _, b in keep],
                 model.unembed, [lid for lid, _ in keep])
