"""Autoregressive sampling back into token sequences.

Each sequence starts at BOS and draws the next id from
softmax(logits / temperature) until EOS or the length cap; temperature
zero means greedy argmax. Every sequence owns an rng seeded by
[seed, index], so results are independent of how sequences are grouped
into forward-pass chunks: its n-th token draws that rng's n-th uniform,
and a chunk draws all its rows' uniforms when it starts. A chunk's
sequences grow in step, one token each per forward call, into one
[chunk, max_len] id array. Each step reuses the earlier positions' keys
and values from forward's `kv` cache and draws the next ids of all
active sequences in one array op. When sequences finish, the kept rows'
filled prefix moves up inside the cache's own buffers, which then keep
their first rows.
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


def _draw(logits: np.ndarray, temperature: float, u: np.ndarray) -> np.ndarray:
    """Next id of each row of `logits` [n, vocab]; row i draws with the uniform u[i].

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
        stop = min(start + CHUNK, cfg.n_samples)
        uniforms = np.array([
            np.random.default_rng([cfg.seed, i]).random(cfg.max_len - 1) for i in range(start, stop)
        ])
        tokens = np.full((stop - start, cfg.max_len), vocab.bos_id, dtype=np.int64)
        rows = np.arange(stop - start)  # the chunk's rows still drawing, as the cache holds them
        kv = {}
        for n in range(1, cfg.max_len):
            logits, _ = forward(params, model_cfg, tokens[rows, n - 1:n], train_mode=False, kv=kv)
            drawn = _draw(logits[:, -1], cfg.temperature, uniforms[rows, n - 1])
            tokens[rows, n] = drawn
            eos = drawn == vocab.eos_id
            done = eos | (n + 1 == cfg.max_len)
            for j in np.flatnonzero(done).tolist():
                ids = tokens[rows[j], :n + 1].tolist()
                out[start + rows[j]] = TokenSequence(ids=ids, truncated=not eos[j])
            keep = np.flatnonzero(~done)
            if not len(keep):
                break
            if len(keep) < len(rows):
                m = len(keep)
                for name, (k, v, _) in kv.items():
                    k[:m, :, :n] = k[keep, :, :n]
                    v[:m, :, :n] = v[keep, :, :n]
                    kv[name] = (k[:m], v[:m], n)
                rows = rows[keep]
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
