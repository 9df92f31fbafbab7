"""Synthetic domain probe suites.

Math probes carry algorithmic next-token structure (modular recurrences,
progressions); non-math probes are surface-pattern tasks (copying, listing,
runs, echoes).  The two families drive visibly different per-layer
activation profiles, which is what makes domain-aware rankings diverge.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, UnknownDomain, check_int
from .model import ToyModelConfig
from .rng import SeededStream, mix_seed

PROBE_LEN = 32


@dataclass(frozen=True)
class ProbeSet:
    domain: str
    subtasks: tuple  # of (subtask_tag, tuple of token tuples)

    @property
    def num_samples(self) -> int:
        return sum(len(samples) for _, samples in self.subtasks)

    def all_samples(self):
        for tag, samples in self.subtasks:
            for tokens in samples:
                yield tag, tokens

    def token_matrix(self) -> np.ndarray:
        """All samples in ``all_samples`` order as one (num_samples, seq_len) array."""
        rows = [tokens for _, tokens in self.all_samples()]
        lengths = {len(tokens) for tokens in rows}
        if len(lengths) > 1:
            raise ValueError(f"probe set {self.domain!r} mixes sequence lengths {sorted(lengths)}")
        return np.array(rows, dtype=np.int64)


def _math_cot(stream, length, vocab):
    # additive recurrence: x_t = x_{t-1} + x_{t-2} (mod vocab)
    seq = [stream.randint_below(vocab), stream.randint_below(vocab)]
    while len(seq) < length:
        seq.append((seq[-1] + seq[-2]) % vocab)
    return seq[:length]


def _math_direct(stream, length, vocab):
    # flat triples a, b, a+b (mod vocab)
    seq = []
    while len(seq) < length:
        a = stream.randint_below(vocab)
        b = stream.randint_below(vocab)
        seq.extend([a, b, (a + b) % vocab])
    return seq[:length]


def _math_rephrase(stream, length, vocab):
    # arithmetic progression with random start and step
    a = stream.randint_below(vocab)
    s = 1 + stream.randint_below(vocab - 1)
    return [(a + t * s) % vocab for t in range(length)]


def _math_formalize(stream, length, vocab):
    # multiplicative chain with an odd factor (invertible mod a power of two)
    x = 1 + stream.randint_below(vocab - 1)
    k = 3 + 2 * stream.randint_below(max(1, (vocab - 3) // 2))
    seq = [x]
    while len(seq) < length:
        x = (x * k) % vocab
        seq.append(x)
    return seq[:length]


def _math_verify(stream, length, vocab):
    # triangular increments: x_t = x_{t-1} + t (mod vocab)
    x = stream.randint_below(vocab)
    seq = [x]
    for t in range(1, length):
        x = (x + t) % vocab
        seq.append(x)
    return seq


def _captioning(stream, length, vocab):
    # iid draws from a small "common word" window
    window = min(8, vocab)
    return [stream.randint_below(window) for _ in range(length)]


def _entity_listing(stream, length, vocab):
    # a short entity block repeated behind a separator token
    sep = vocab - 1
    block = [stream.randint_below(vocab - 1) for _ in range(4)]
    seq = []
    while len(seq) < length:
        seq.append(sep)
        seq.extend(block)
    return seq[:length]


def _counting_vqa(stream, length, vocab):
    # runs of a repeated token followed by the run length as a token
    seq = []
    while len(seq) < length:
        c = stream.randint_below(vocab)
        r = 1 + stream.randint_below(min(6, vocab - 1))
        seq.extend([c] * r)
        seq.append(r % vocab)
    return seq[:length]


def _grounding(stream, length, vocab):
    # marker + target, filler, then the target echoed at a fixed stride
    target = stream.randint_below(vocab)
    seq = [vocab - 2, target]
    while len(seq) < length:
        if len(seq) % 5 == 0:
            seq.append(target)
        else:
            seq.append(stream.randint_below(min(8, vocab)))
    return seq[:length]


# The suite's one declaration, {domain: {subtask tag: generator}} in generation order
SUITE = {
    "math": {"Math-CoT": _math_cot, "Math-Direct": _math_direct, "Math-Rephrase": _math_rephrase,
             "Math-Formalize": _math_formalize, "Math-Verify": _math_verify},
    "nonmath": {"Captioning": _captioning, "EntityListing": _entity_listing,
                "CountingVQA": _counting_vqa, "Grounding": _grounding},
}
DOMAINS = tuple(SUITE)
MATH_SUBTASKS = tuple(SUITE["math"])
NONMATH_SUBTASKS = tuple(SUITE["nonmath"])
# desk-scale defaults preserving the 5:4 math/nonmath sample ratio
DEFAULT_COUNTS = dict.fromkeys(SUITE, 50)


def subtask_counts(domain: str, count) -> dict:
    """{subtask: count} of one domain's positive count per subtask or complete {tag: count}."""
    if domain not in SUITE:
        raise UnknownDomain(f"unknown domain {domain!r} (expected one of {DOMAINS})")
    tags = SUITE[domain]
    per_subtask = count if isinstance(count, dict) else dict.fromkeys(tags, count)
    for tag, n in per_subtask.items():
        if tag not in tags:
            raise InvalidConfig(f"probe_counts {domain}: unknown subtask {tag!r}")
        check_int(InvalidConfig, f"probe_counts {domain}", n, 1)
    for tag in tags:
        if tag not in per_subtask:
            raise InvalidConfig(f"probe_counts {domain}: missing subtask {tag!r}")
    return per_subtask


def check_counts(counts):
    """Raise InvalidConfig unless each domain has a positive count or a complete {tag: count}."""
    if not (isinstance(counts, dict) and set(counts) == set(DOMAINS)):
        raise InvalidConfig(f"probe_counts: expected one entry for each of {DOMAINS}")
    for d in DOMAINS:
        subtask_counts(d, counts[d])


def generate_probes(domain: str, counts, seed: int, config: ToyModelConfig) -> ProbeSet:
    """Generate a deterministic probe suite for one domain.

    counts may be a single per-subtask count or a {subtask: count} map of every subtask.
    """
    counts = subtask_counts(domain, counts)
    length = min(PROBE_LEN, config.max_seq_len)
    vocab = config.vocab_size
    subtasks = []
    for si, (tag, generate) in enumerate(SUITE[domain].items()):
        samples = []
        for i in range(counts[tag]):
            stream = SeededStream(mix_seed(seed, si, i))
            samples.append(tuple(generate(stream, length, vocab)))
        subtasks.append((tag, tuple(samples)))
    return ProbeSet(domain=domain, subtasks=tuple(subtasks))


def default_probe_sets(config: ToyModelConfig, seed: int, counts=None) -> list:
    counts = DEFAULT_COUNTS if counts is None else counts
    return [generate_probes(d, counts[d], mix_seed(seed, di), config)
            for di, d in enumerate(DOMAINS)]
