import hashlib

import pytest

from depthprune.errors import InvalidConfig, UnknownDomain
from depthprune.model import ToyModelConfig
from depthprune.probes import (DEFAULT_COUNTS, MATH_SUBTASKS, NONMATH_SUBTASKS,
                               default_probe_sets, generate_probes)

CFG = ToyModelConfig()


def test_math_subtask_tags():
    ps = generate_probes("math", 2, seed=0, config=CFG)
    assert tuple(tag for tag, _ in ps.subtasks) == MATH_SUBTASKS
    assert len(MATH_SUBTASKS) == 5


def test_nonmath_subtask_tags():
    ps = generate_probes("nonmath", 2, seed=0, config=CFG)
    assert tuple(tag for tag, _ in ps.subtasks) == NONMATH_SUBTASKS
    assert len(NONMATH_SUBTASKS) == 4


def test_unknown_domain():
    with pytest.raises(UnknownDomain):
        generate_probes("code", 2, seed=0, config=CFG)


def test_deterministic_under_seed():
    a = generate_probes("math", 3, seed=42, config=CFG)
    b = generate_probes("math", 3, seed=42, config=CFG)
    assert a == b
    c = generate_probes("math", 3, seed=43, config=CFG)
    assert a != c


def test_tokens_in_vocab_and_length():
    for domain in ("math", "nonmath"):
        ps = generate_probes(domain, 5, seed=1, config=CFG)
        for _, tokens in ps.all_samples():
            assert 1 <= len(tokens) <= CFG.max_seq_len
            assert all(0 <= t < CFG.vocab_size for t in tokens)


def test_default_ratio_five_to_four():
    sets = default_probe_sets(CFG, seed=0)
    counts = {ps.domain: ps.num_samples for ps in sets}
    # equal per-subtask counts give the 5:4 domain ratio
    assert counts["math"] * 4 == counts["nonmath"] * 5
    assert counts["math"] == 5 * DEFAULT_COUNTS["math"]


def test_per_subtask_count_map():
    counts = {"Math-CoT": 3, "Math-Direct": 1, "Math-Rephrase": 2, "Math-Formalize": 1,
              "Math-Verify": 4}
    ps = generate_probes("math", counts, seed=0, config=CFG)
    assert {tag: len(samples) for tag, samples in ps.subtasks} == counts


def test_subtask_count_rejects_foreign_tag():
    with pytest.raises(InvalidConfig, match="unknown subtask 'Captioning'"):
        generate_probes("math", {"Captioning": 2}, seed=0, config=CFG)


@pytest.mark.parametrize("kwargs,message", [
    (dict(vocab_size=1), "^vocab_size: must be >= 2, got 1$"),
    (dict(max_seq_len=0), "^max_seq_len: must be >= 1, got 0$"),
    (dict(hidden_dim=0), "^hidden_dim: must be >= 1, got 0$"),
], ids=["vocab_size-1", "max_seq_len-0", "hidden_dim-0"])
def test_library_probe_generation_refuses_an_invalid_config(kwargs, message):
    # the config checks itself when it is built, so no probe generator sees it
    with pytest.raises(InvalidConfig, match=message):
        default_probe_sets(ToyModelConfig(**kwargs), 0, {"math": 1, "nonmath": 1})


def test_respects_small_max_seq_len():
    cfg = ToyModelConfig(max_seq_len=8)
    ps = generate_probes("nonmath", 2, seed=0, config=cfg)
    assert all(len(tokens) <= 8 for _, tokens in ps.all_samples())


# SHA-256 over, for probe seeds 0 and 1, each default probe set's domain name then its
# token matrix as little-endian int64: pins every generator, its tag, its stream and the
# domain and subtask order, as test_model.py pins the weights
PINNED_PROBE_TOKENS = "2ed49c6ee66ade89ce84a6d819c1d7e17562f420563a879403cf05eafd9b735c"


def test_default_probe_tokens_are_pinned():
    digest = hashlib.sha256()
    for seed in (0, 1):
        for ps in default_probe_sets(CFG, seed):
            digest.update(ps.domain.encode())
            digest.update(ps.token_matrix().astype("<i8").tobytes())
    assert digest.hexdigest() == PINNED_PROBE_TOKENS
