"""Sample-set evaluation: bucket every sequence, aggregate the numbers.

Every sampled sequence lands in exactly one bucket: decode_failed,
invalid (with a reason), or valid. Percentages use all samples as the
denominator (a sequence that cannot decode counts against validity);
uniqueness and novelty are computed over the valid subset only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ..errors import DecodeError
from ..geometry import crystal_density, molecular_weight
from ..tokenize import Vocabulary, decode
from .bonds import molecule_validity, perceive_bonds_batch
from .crystals import (
    charge_neutrality,
    crystal_composition,
    crystal_structural_validity,
    n_unique_elements,
)
from .emd import emd_1d
from .keys import canonical_key, unique_novel
from .pockets import DEFAULT_OVERLAP_THRESHOLD, pocket_overlap_check, pocket_residue_check

SCHEMA_VERSION = 2

DECODE_FAILED = "decode_failed"
INVALID = "invalid"
VALID = "valid"


@dataclass(frozen=True)
class StructureRow:
    """One evaluated sequence: its bucket and, when failed, the reason."""

    index: int
    bucket: str
    reason: str = ""


@dataclass
class MetricsReport:
    structure_kind: str
    n_samples: int
    n_decode_failed: int
    n_invalid: int
    n_valid: int
    valid_pct: float
    unique_pct: Optional[float]
    novel_pct: Optional[float]
    extra_validity_pct: dict = field(default_factory=dict)
    emd: dict = field(default_factory=dict)
    emd_oracle: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        payload = json.loads(text)
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"report schema version {version!r} unsupported (want {SCHEMA_VERSION})"
            )
        return cls(**payload)


@dataclass
class EvalResult:
    report: MetricsReport
    rows: list
    structures: list
    sample_values: dict
    train_values: dict


def property_functions(kind: str) -> dict:
    if kind == "molecule":
        return {"mw": molecular_weight}
    if kind == "crystal":
        return {"density": crystal_density, "n_elem": lambda c: float(n_unique_elements(c))}
    return {"n_residues": lambda p: float(p.n_residues())}


def validity(structure, overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD, perceived=None):
    """(valid, reason, per-check flags) for one structure of any kind.

    Molecules are judged by bond perception alone and carry no flags;
    `perceived` is a molecule's (bonds, clashes) when already known.
    Crystals must pass the structural and the composition check, pockets
    the residue and the overlap check; the reason is the first failure's.
    """
    if structure.kind == "molecule":
        v = molecule_validity(structure, perceived)
        return v.valid, v.reason or "", {}
    if structure.kind == "crystal":
        struct_v = crystal_structural_validity(structure)
        comp_v = charge_neutrality(crystal_composition(structure))
        flags = {"structural": struct_v.valid, "composition": comp_v.valid}
        ok = struct_v.valid and comp_v.valid
        reason = "" if ok else (struct_v.reason or comp_v.reason or "")
        return ok, reason, flags
    residue_ok, reasons = pocket_residue_check(structure)
    overlap_v = pocket_overlap_check(structure, overlap_threshold)
    flags = {"residue": residue_ok, "overlap": overlap_v.valid}
    ok = residue_ok and overlap_v.valid
    reason = "" if ok else ("; ".join(reasons) or overlap_v.reason or "")
    return ok, reason, flags


def evaluate_sequences(
    sequences,
    vocab: Vocabulary,
    train_structures,
    *,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    eval_seed: int = 0,
) -> EvalResult:
    """Decode every sequence, then aggregate (see evaluate_structures)."""
    structures = []
    failures = {}
    for index, seq in enumerate(sequences):
        try:
            structures.append(decode(seq, vocab))
        except DecodeError as exc:
            structures.append(None)
            failures[index] = f"{exc.kind}: {exc}"
    return evaluate_structures(
        structures,
        train_structures,
        decode_failures=failures,
        overlap_threshold=overlap_threshold,
        eval_seed=eval_seed,
    )


def evaluate_structures(
    structures,
    train_structures,
    *,
    decode_failures: dict = None,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    eval_seed: int = 0,
) -> EvalResult:
    """Aggregate metrics for decoded samples against a training corpus.

    `structures` may contain None at positions whose sequences failed to
    decode; `decode_failures` maps those positions to reasons.
    """
    structures = list(structures)
    train_structures = list(train_structures)
    if not structures:
        raise ValueError("empty sample set")
    if not train_structures:
        raise ValueError("empty training set")
    decode_failures = decode_failures or {}

    kind = train_structures[0].kind
    props = property_functions(kind)

    # a molecule's bonds serve both its validity and its key, so every
    # sample and training molecule is perceived once, in one batch
    decoded = [s for s in structures if s is not None and s.kind == kind]
    if kind == "molecule":
        perceived = perceive_bonds_batch(decoded + train_structures)
    else:
        perceived = [None] * (len(decoded) + len(train_structures))
    sample_perceived = iter(perceived[: len(decoded)])
    train_perceived = perceived[len(decoded) :]

    rows = []
    valid_structures = []
    valid_perceived = []
    flag_totals: dict[str, int] = {}
    for index, structure in enumerate(structures):
        if structure is None:
            reason = decode_failures.get(index, "decode failed")
            rows.append(StructureRow(index, DECODE_FAILED, reason))
            continue
        if structure.kind != kind:
            rows.append(StructureRow(index, INVALID, "wrong structure kind"))
            continue
        bonds = next(sample_perceived)
        ok, reason, flags = validity(structure, overlap_threshold, bonds)
        for name, passed in flags.items():
            flag_totals[name] = flag_totals.get(name, 0) + (1 if passed else 0)
        if ok:
            rows.append(StructureRow(index, VALID))
            valid_structures.append(structure)
            valid_perceived.append(bonds)
        else:
            rows.append(StructureRow(index, INVALID, reason))

    n = len(structures)
    n_failed = sum(1 for r in rows if r.bucket == DECODE_FAILED)
    n_valid = len(valid_structures)
    n_invalid = n - n_failed - n_valid

    unique_pct = novel_pct = None
    if n_valid:
        train_keys = [canonical_key(s, b) for s, b in zip(train_structures, train_perceived)]
        sample_keys = [canonical_key(s, b) for s, b in zip(valid_structures, valid_perceived)]
        unique_pct, novel_pct = unique_novel(sample_keys, train_keys)

    sample_values = {
        name: [fn(s) for s in valid_structures] for name, fn in props.items()
    }
    train_values = {
        name: [fn(s) for s in train_structures] for name, fn in props.items()
    }
    emd = {}
    for name in props:
        if sample_values[name] and train_values[name]:
            emd[name] = emd_1d(sample_values[name], train_values[name])

    emd_oracle = {}
    if len(train_structures) >= 2:
        order = np.random.default_rng(eval_seed).permutation(len(train_structures))
        half = len(order) // 2
        for name in props:
            values = train_values[name]
            first = [values[i] for i in order[:half]]
            second = [values[i] for i in order[half:]]
            emd_oracle[name] = emd_1d(first, second)

    extra = {
        name: count / len(decoded) * 100.0 for name, count in sorted(flag_totals.items())
    } if decoded else {}

    report = MetricsReport(
        structure_kind=kind,
        n_samples=n,
        n_decode_failed=n_failed,
        n_invalid=n_invalid,
        n_valid=n_valid,
        valid_pct=n_valid / n * 100.0,
        unique_pct=unique_pct,
        novel_pct=novel_pct,
        extra_validity_pct=extra,
        emd=emd,
        emd_oracle=emd_oracle,
    )
    return EvalResult(report, rows, structures, sample_values, train_values)
