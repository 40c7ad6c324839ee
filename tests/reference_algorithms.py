"""The algorithms that plainer or faster ones in `src/` replaced.

Each gives the same answer as its replacement on every input, by a
longer route; the property tests hold the replacements to them:

* `reference_charge_neutrality`: a recursive search over one oxidation
  state per element, pruned by the smallest and largest charge the
  remaining elements can add (`metrics.crystals.charge_neutrality` builds
  the set of reachable totals instead);
* `reference_emd_1d`: unequal sizes integrate over `Fraction`
  breakpoints i/na and j/nb (`metrics.emd.emd_1d` scales them to
  integers);
* `reference_segment_chars`: a greedy character loop
  (`tokenize.codec.segment_chars` takes one regular-expression pass);
* `reference_residue_indices`: pocket renumbering with a second dict of
  new indices (`structures.Pocket` renumbers the index array in bulk);
* `reference_wrap_frac`: one fractional coordinate wrapped into [0, 1)
  (`structures.wrap_frac` wraps a whole array);
* `reference_prune_pocket`: recomputes every remaining residue's
  centroid distance on each removal (`formats.prune_pocket` computes
  each once);
* `reference_pairwise_distances`: the dense [n, n] distance matrix
  (`geometry.pair_distances` measures the i < j pairs only);
* `reference_validity`: hand-written crystal and pocket branches over a
  residue check that returns (ok, reasons) and a dense-matrix overlap
  check (`metrics.report.validity` reads one dict of check name ->
  `Verdict` per kind).
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from chemlm.elements import MULTI_LETTER_SYMBOLS
from chemlm.formats import PruneResult
from chemlm.structures import RESIDUE_ATOMS, Pocket
from chemlm.metrics.bonds import molecule_validity
from chemlm.metrics.crystals import (
    OXIDATION_STATES,
    charge_neutrality,
    crystal_composition,
    crystal_structural_validity,
)
from chemlm.metrics.verdict import Verdict


def reference_charge_neutrality(composition: dict) -> Verdict:
    items = tuple(sorted(composition.items()))
    for symbol, count in items:
        if symbol not in OXIDATION_STATES:
            return Verdict.fail(f"no oxidation states for element {symbol}")
        if count < 1:
            raise ValueError(f"non-positive count for {symbol}")

    choices = [[state * count for state in OXIDATION_STATES[symbol]] for symbol, count in items]
    min_tail = [0] * (len(choices) + 1)
    max_tail = [0] * (len(choices) + 1)
    for k in range(len(choices) - 1, -1, -1):
        min_tail[k] = min_tail[k + 1] + min(choices[k])
        max_tail[k] = max_tail[k + 1] + max(choices[k])

    def search(k: int, total: int) -> bool:
        if k == len(choices):
            return total == 0
        if total + min_tail[k] > 0 or total + max_tail[k] < 0:
            return False
        return any(search(k + 1, total + c) for c in choices[k])

    if search(0, 0):
        return Verdict.ok()
    counts = ", ".join(f"{s}:{c}" for s, c in items)
    return Verdict.fail(f"no neutral oxidation-state assignment for {counts}")


def reference_emd_1d(a, b) -> float:
    a = sorted(float(v) for v in a)
    b = sorted(float(v) for v in b)
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    if len(a) == len(b):
        return sum(abs(x - y) for x, y in zip(a, b)) / len(a)

    na, nb = len(a), len(b)
    cuts = sorted({Fraction(i, na) for i in range(na + 1)} | {Fraction(j, nb) for j in range(nb + 1)})
    total = Fraction(0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ia = int(lo * na)  # index of the quantile segment containing (lo, hi)
        ib = int(lo * nb)
        total += (hi - lo) * Fraction(abs(a[ia] - b[ib]))
    return float(total)


def reference_segment_chars(text: str) -> list[str]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        pair = text[i : i + 2]
        if len(pair) == 2 and pair in MULTI_LETTER_SYMBOLS:
            tokens.append(pair)
            i += 2
        else:
            tokens.append(text[i])
            i += 1
    return tokens


def reference_residue_indices(residues) -> list[int]:
    """The 1..k index of each (code, original index) pair in order of
    appearance, with `Pocket`'s ValueError for an interleaved index or
    one index spanning two codes."""
    seen: dict[int, int] = {}
    codes: dict[int, str] = {}
    renumbered = []
    last_orig = None
    for code, orig in residues:
        if orig in seen:
            if orig != last_orig:
                raise ValueError(
                    f"residue index {orig} is not contiguous in the atom list"
                )
            if codes[orig] != code:
                raise ValueError(
                    f"residue index {orig} mixes codes "
                    f"{codes[orig]} and {code}"
                )
            new_index = seen[orig]
        else:
            new_index = len(seen) + 1
            seen[orig] = new_index
            codes[orig] = code
        last_orig = orig
        renumbered.append(new_index)
    return renumbered


def reference_wrap_frac(f: float) -> float:
    w = f - math.floor(f)
    return 0.0 if w >= 1.0 else w  # floor rounding can land exactly on 1.0


def reference_prune_pocket(pocket, center, target_atoms) -> PruneResult:
    """`prune_pocket` for a pocket at or above the range minimum."""
    lo, hi = target_atoms
    cx, cy, cz = (float(v) for v in center)
    groups = {}
    for k, index in enumerate(pocket.residue_index.tolist()):
        groups.setdefault(index, []).append(k)
    xyz = pocket.coords.tolist()

    def distance(index: int) -> float:
        members = groups[index]
        mx = sum(xyz[k][0] for k in members) / len(members)
        my = sum(xyz[k][1] for k in members) / len(members)
        mz = sum(xyz[k][2] for k in members) / len(members)
        return math.sqrt((mx - cx) ** 2 + (my - cy) ** 2 + (mz - cz) ** 2)

    removed = 0
    count = len(pocket)
    while count > hi and len(groups) > 1:
        index = max(groups, key=lambda i: (distance(i), i))
        count -= len(groups.pop(index))
        removed += 1
        if count < lo:
            break
    kept = [k for members in groups.values() for k in members]
    kept_pocket = Pocket([pocket.symbols[k] for k in kept], [pocket.residues[k] for k in kept],
                         pocket.residue_index[kept], pocket.coords[kept])
    return PruneResult(kept_pocket, removed, False)


def reference_pairwise_distances(positions) -> np.ndarray:
    """Dense Euclidean distance matrix, shape (n, n)."""
    x = np.asarray(positions, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def reference_pocket_residue_check(pocket: Pocket) -> tuple[bool, list[str]]:
    """The overall verdict plus one reason per failing residue, like
    "GLY@3: missing O"."""
    reasons = []
    for start, stop in pocket.residue_spans():
        code = pocket.residues[start]
        index = pocket.residue_index[start]
        expected = RESIDUE_ATOMS[code]
        have = Counter(pocket.symbols[start:stop])
        problems = []
        for element in sorted(set(expected) | set(have)):
            want = expected.get(element, 0)
            got = have.get(element, 0)
            if got < want:
                problems.append(f"missing {element}" if want - got == 1 else f"missing {want - got} {element}")
            elif got > want:
                problems.append(f"extra {element}" if got - want == 1 else f"extra {got - want} {element}")
        if problems:
            reasons.append(f"{code}@{index}: " + ", ".join(problems))
    return (not reasons), reasons


def reference_pocket_overlap_check(pocket: Pocket, threshold: float) -> Verdict:
    first, second = np.triu_indices(len(pocket), k=1)
    d = reference_pairwise_distances(pocket.coords)[first, second]
    residue = pocket.residue_index
    flagged = np.flatnonzero((residue[first] != residue[second]) & (d < threshold))
    if flagged.size:
        k = flagged[0]
        i, j = first[k], second[k]
        labels = pocket.labels
        return Verdict.fail(
            f"atoms {i} ({labels[i]}@{residue[i]}) and "
            f"{j} ({labels[j]}@{residue[j]}) "
            f"at {d[k]:.3f} A, below {threshold} A"
        )
    return Verdict.ok()


def reference_validity(structure, overlap_threshold: float = 1.1, perceived=None):
    """(valid, reason, per-check flags) for one structure of any kind."""
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
    residue_ok, reasons = reference_pocket_residue_check(structure)
    overlap_v = reference_pocket_overlap_check(structure, overlap_threshold)
    flags = {"residue": residue_ok, "overlap": overlap_v.valid}
    ok = residue_ok and overlap_v.valid
    reason = "" if ok else ("; ".join(reasons) or overlap_v.reason or "")
    return ok, reason, flags
