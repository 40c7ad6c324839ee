"""Transformer architecture description."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and switches for the decoder-only transformer.

    Reference-scale runs use 12 layers, d_model 128-1024 and 4-12 heads;
    desk-scale configs (2 layers, d_model 64) are first-class and used
    throughout the tests.
    """

    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    max_seq_len: int
    vocab_size: int
    dropout_rate: float = 0.1
    tie_embeddings: bool = True

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if self.d_model < 1:
            raise ConfigError("d_model must be >= 1")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.d_ff < 1:
            raise ConfigError("d_ff must be >= 1")
        if self.max_seq_len < 2:
            raise ConfigError("max_seq_len must be >= 2")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must cover the specials and content")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)
