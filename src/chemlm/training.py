"""Training loop over token sequences: Adam on next-token cross-entropy
with a linear learning-rate decay, length-bucketed batches, optional
per-epoch rotation augmentation, and periodic checkpoints.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .augment import augment_structure
from .errors import ArtifactError, ConfigError, EncodeError, TrainingDiverged
from .model import ModelConfig, init_params, loss_and_grads, save_checkpoint
from .tokenize import Vocabulary, decode, encode

LR_END_DEFAULT = 9e-6

#: Training's dtype for parameters, gradients and Adam's moments.
TRAIN_DTYPE = np.float32

#: Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: The glibc mallopt (option, value) pairs `keep_freed_pages` sets:
#: M_MMAP_THRESHOLD (-3) to 32 MiB, then M_TRIM_THRESHOLD (-1) to 1 GiB.
ALLOCATOR_OPTIONS = ((-3, 32 << 20), (-1, 1 << 30))

#: Bound on `augment_attempts`, the draws per batch item: all run when none fits.
MAX_AUGMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int
    lr_start: float
    total_steps: int
    seed: int
    lr_end: float = LR_END_DEFAULT
    augment: bool = False
    augment_attempts: int = 8
    crystal_shift: bool = False
    grad_clip: float = 1.0
    checkpoint_interval: int = 0

    def __post_init__(self):
        for name in ("lr_start", "lr_end", "grad_clip"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (self.lr_start >= self.lr_end > 0):
            raise ConfigError("need lr_start >= lr_end > 0")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if not 1 <= self.augment_attempts <= MAX_AUGMENT_ATTEMPTS:
            raise ConfigError(f"augment_attempts must be in [1, {MAX_AUGMENT_ATTEMPTS}]")
        if self.grad_clip < 0:
            raise ConfigError("grad_clip must be >= 0")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be >= 0")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear from lr_start at step 0 to lr_end at total_steps, then flat."""
    if step >= cfg.total_steps:
        return cfg.lr_end
    frac = step / cfg.total_steps
    return cfg.lr_start + (cfg.lr_end - cfg.lr_start) * frac


class Adam:
    def __init__(self, params: dict):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, in place
            m, v = self.m[k], self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            gg = (1.0 - ADAM_BETA2) * g
            gg *= g
            v *= ADAM_BETA2
            v += gg
            update = m / c1
            update *= lr
            den = np.divide(v, c2, out=gg)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            update /= den
            params[k] -= update


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scales all gradients in place so the global 2-norm is <= max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def _libc():
    """The running program's C symbols, or None where they cannot be opened."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def keep_freed_pages() -> bool:
    """Has glibc's malloc keep the memory a train step frees for the next step.

    Every step allocates and frees the same multi-MB temporaries. By
    default glibc maps such blocks with mmap and unmaps them when they are
    freed, and it trims the top of its heap, so the next step faults the
    same pages in again, zeroed. Serving blocks up to 32 MiB from the heap
    and trimming it only past 1 GiB keeps the pages. Both options are
    needed: setting either one turns off glibc's dynamic mmap threshold,
    and the trim threshold alone faults more than neither. The setting is
    process-wide. Returns whether both calls took. Where there is no
    mallopt (no glibc) nothing changes, and a call that returns 0 changed
    nothing.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(option, value) != 0 for option, value in ALLOCATOR_OPTIONS)


@dataclass
class TrainResult:
    params: dict
    losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    checkpoint_path: Optional[str] = None


def pad_batch(sequences, pad_id: int):
    """Input/target/mask arrays for a batch of encoded id lists.

    Targets are inputs shifted left by one; mask is 0 wherever the
    target is padding, so padded tails never contribute to the loss.
    """
    width = max(len(s) for s in sequences)
    ids = np.full((len(sequences), width), pad_id, dtype=np.int64)
    for i, s in enumerate(sequences):
        ids[i, : len(s)] = s
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    mask = (targets != pad_id).astype(TRAIN_DTYPE)
    return inputs, targets, mask


def _epoch_batches(n: int, lengths, batch_size: int, rng: np.random.Generator):
    """Shuffle, stable-sort by length, chunk, then shuffle chunk order."""
    order = rng.permutation(n)
    order = order[np.argsort([lengths[i] for i in order], kind="stable")]
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    rng.shuffle(batches)
    return batches


def augmented_ids(structure, corpus_ids, vocab: Vocabulary, max_seq_len: int,
                  train_cfg: TrainConfig, rng: np.random.Generator):
    """Ids of the first of up to `augment_attempts` augmentations of
    `structure` that encodes inside the vocabulary and the model context,
    or `corpus_ids` when none does. Each candidate is encoded once."""
    for _ in range(train_cfg.augment_attempts):
        candidate = augment_structure(structure, rng, train_cfg.crystal_shift)
        try:
            ids = encode(candidate, vocab).ids
        except EncodeError:
            continue
        if len(ids) - 1 <= max_seq_len:
            return ids
    return corpus_ids


def train(
    sequences,
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    out_dir: Optional[str] = None,
    log: Optional[Callable[[int, float, float, float], None]] = None,
) -> TrainResult:
    """Runs the full optimization on `sequences`, the TokenSequences that
    `encode` returns and `corpus.txt` holds (augmentation decodes each
    once), and returns final params plus the per-step loss trajectory.
    Writes checkpoints under `out_dir` every `checkpoint_interval` steps
    and always at the end; a non-finite loss or gradient aborts with the
    last good checkpoint, and so do non-finite parameters where a
    checkpoint is due. After each step, `log` gets (step, loss, lr,
    gradient norm before clipping). Sets the process's malloc options
    through `keep_freed_pages`.
    """
    if not sequences:
        raise ValueError("empty training corpus")
    if model_cfg.vocab_size != len(vocab.tokens):
        raise ValueError(
            f"model vocab_size {model_cfg.vocab_size} != vocabulary size {len(vocab.tokens)}"
        )

    root = np.random.SeedSequence(train_cfg.seed)
    init_seed, shuffle_seed, augment_seed, dropout_seed = root.spawn(4)
    init = init_params(model_cfg, seed=init_seed.generate_state(1)[0])
    params = {k: v.astype(TRAIN_DTYPE) for k, v in init.items()}
    shuffle_rng = np.random.default_rng(shuffle_seed)
    augment_rng = np.random.default_rng(augment_seed)
    dropout_rng = np.random.default_rng(dropout_seed)

    base_sequences = [s.ids for s in sequences]
    for n, ids in enumerate(base_sequences, start=1):
        if len(ids) < 2:
            raise ArtifactError(f"sequence {n} is {len(ids)} ids long; training needs at least 2")
        if not 0 <= min(ids) <= max(ids) < len(vocab):
            raise ArtifactError(f"sequence {n} has an id outside the vocabulary [0, {len(vocab)})")
    lengths = [len(s) for s in base_sequences]
    longest = max(lengths)
    if longest - 1 > model_cfg.max_seq_len:
        raise ConfigError(
            f"longest encoded sequence ({longest} tokens) exceeds model context "
            f"({model_cfg.max_seq_len} + 1)"
        )
    # augmentation leaves a crystal as it is unless its origin may shift
    augmenting = train_cfg.augment and (train_cfg.crystal_shift
                                        or vocab.structure_kind != "crystal")
    structures = [decode(s, vocab) for s in sequences] if augmenting else None
    keep_freed_pages()

    optimizer = Adam(params)
    result = TrainResult(params=params)
    vocab_hash = vocab.content_hash()

    def rng_snapshot():
        return {
            "shuffle": shuffle_rng.bit_generator.state,
            "augment": augment_rng.bit_generator.state,
            "dropout": dropout_rng.bit_generator.state,
        }

    def write_checkpoint(step):
        if not all(np.isfinite(v).all() for v in params.values()):
            # the update of 0-based step `step - 1` overflowed
            raise TrainingDiverged(step - 1, result.checkpoint_path)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"checkpoint_{step:07d}.bin")
            save_checkpoint(path, params, model_cfg, vocab_hash, rng_snapshot(), step)
            result.checkpoint_path = path

    step = 0
    while step < train_cfg.total_steps:
        batches = _epoch_batches(len(lengths), lengths, train_cfg.batch_size, shuffle_rng)
        for batch_idx in batches:
            if step >= train_cfg.total_steps:
                break
            seqs = [base_sequences[i] for i in batch_idx]
            if augmenting:
                seqs = [augmented_ids(structures[i], ids, vocab, model_cfg.max_seq_len,
                                      train_cfg, augment_rng) for i, ids in zip(batch_idx, seqs)]
            inputs, targets, mask = pad_batch(seqs, vocab.pad_id)
            lr = lr_schedule(step, train_cfg)
            # an overflow here is caught as a non-finite loss, gradient or
            # parameter, by the checks below and in write_checkpoint, so
            # numpy need not warn about it too
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    loss, grads = loss_and_grads(
                        params, model_cfg, inputs, targets, mask,
                        train_mode=True, rng=dropout_rng,
                    )
                except FloatingPointError as exc:
                    raise TrainingDiverged(step, result.checkpoint_path) from exc
                if not math.isfinite(loss):
                    raise TrainingDiverged(step, result.checkpoint_path)
                grad_norm = clip_global_norm(grads, train_cfg.grad_clip)
                optimizer.step(params, grads, lr)
            result.losses.append(float(loss))
            result.lrs.append(lr)
            step += 1
            if log is not None:
                log(step, float(loss), lr, grad_norm)
            if train_cfg.checkpoint_interval > 0 and step % train_cfg.checkpoint_interval == 0:
                write_checkpoint(step)

    write_checkpoint(step)
    return result
