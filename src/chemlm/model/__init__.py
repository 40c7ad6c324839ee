from .checkpoint import FORMAT_VERSION, MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from .config import ModelConfig
from .network import (
    LN_EPS,
    backward,
    cross_entropy,
    forward,
    init_params,
    loss_and_grads,
)

__all__ = [
    "Checkpoint",
    "FORMAT_VERSION",
    "LN_EPS",
    "MAGIC",
    "ModelConfig",
    "backward",
    "cross_entropy",
    "forward",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "save_checkpoint",
]
