"""Autoregressive sampling back into token sequences.

Each sequence starts at BOS and draws the next id from
softmax(logits / temperature) until EOS or the length cap; temperature
zero means greedy argmax. Every sequence owns an rng seeded by
[seed, index], so results are independent of how sequences are grouped
into forward-pass chunks. Each step feeds one token per sequence,
reuses the earlier positions' keys and values from forward's `kv` cache,
and draws the next ids of all active sequences in one array op.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")


def _draw(logits: np.ndarray, temperature: float, rngs) -> np.ndarray:
    """Next id of each row of `logits` [n, vocab]; row i draws u from rngs[i].

    The inverse-CDF draw: the first id whose cumulative probability
    exceeds u, which counts the ids whose cumulative probability is <= u.
    Subtracting the row max before dividing by the temperature keeps a
    tiny positive temperature finite: it draws among the maxima.
    """
    if temperature == 0.0:
        return logits.argmax(axis=-1)
    p = logits - logits.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        p /= temperature
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(p, axis=-1)
    u = np.array([rng.random() for rng in rngs])
    idx = (cdf <= u[:, None]).sum(axis=-1)
    return np.minimum(idx, logits.shape[-1] - 1)


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
            drawn = _draw(logits[:, -1], cfg.temperature, [rngs[i] for i in active]).tolist()
            keep = []
            for row, (i, nxt) in enumerate(zip(active, drawn)):
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
