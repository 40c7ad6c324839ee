"""Autoregressive sampling back into token sequences.

Each sequence starts at BOS and draws the next id from
softmax(logits / temperature) until EOS or the length cap; temperature
zero means greedy argmax. Every sequence owns an rng seeded by
[seed, index], so results are independent of how sequences are grouped
into forward-pass chunks. Each step feeds one token per sequence and
reuses the earlier positions' keys and values from forward's `kv` cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArtifactError, ConfigError
from .model import Checkpoint, ModelConfig, forward
from .tokenize import TokenSequence, Vocabulary

CHUNK = 64


@dataclass(frozen=True)
class SampleConfig:
    n_samples: int
    max_len: int
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.max_len < 2:
            raise ConfigError("max_len must be >= 2")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")


def _draw(logits: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(np.argmax(logits))
    z = logits / temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, len(p) - 1)


def sample(
    params: dict,
    model_cfg: ModelConfig,
    vocab: Vocabulary,
    cfg: SampleConfig,
) -> list:
    """All requested sequences, including ones that will fail decode."""
    if model_cfg.vocab_size != len(vocab.tokens):
        raise ValueError(
            f"model vocab_size {model_cfg.vocab_size} != vocabulary size {len(vocab.tokens)}"
        )
    if cfg.max_len > model_cfg.max_seq_len:
        raise ConfigError(
            f"max_len {cfg.max_len} exceeds model max_seq_len {model_cfg.max_seq_len}"
        )
    out = [None] * cfg.n_samples
    for start in range(0, cfg.n_samples, CHUNK):
        indices = range(start, min(start + CHUNK, cfg.n_samples))
        rngs = {i: np.random.default_rng([cfg.seed, i]) for i in indices}
        seqs = {i: [vocab.bos_id] for i in indices}
        active = list(indices)
        kv = {}
        while active:
            newest = np.array([seqs[i][-1:] for i in active], dtype=np.int64)
            logits, _ = forward(params, model_cfg, newest, train_mode=False, kv=kv)
            keep = []
            for row, i in enumerate(active):
                nxt = _draw(logits[row, -1], cfg.temperature, rngs[i])
                seqs[i].append(nxt)
                if nxt == vocab.eos_id:
                    out[i] = TokenSequence(ids=seqs[i], truncated=False)
                elif len(seqs[i]) >= cfg.max_len:
                    out[i] = TokenSequence(ids=seqs[i], truncated=True)
                else:
                    keep.append(row)
            if len(keep) < len(active):
                kv = {name: (k[keep], v[keep]) for name, (k, v) in kv.items()}
                active = [active[row] for row in keep]
    return out


def sample_from_checkpoint(ck: Checkpoint, vocab: Vocabulary, cfg: SampleConfig) -> list:
    """Hash-checked sampling: the vocabulary must be the one the model
    was trained against."""
    if ck.vocab_hash != vocab.content_hash():
        raise ArtifactError(
            "vocabulary hash mismatch: checkpoint was trained with a different vocabulary"
        )
    return sample(ck.params, ck.config, vocab, cfg)


def truncation_rate(sequences) -> float:
    if not sequences:
        return 0.0
    return sum(1 for s in sequences if s.truncated) / len(sequences)
