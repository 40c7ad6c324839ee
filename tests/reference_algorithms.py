"""The algorithms that four plainer ones in `src/` replaced.

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
  new indices (`structures.Pocket` keeps one dict of codes).
"""

from fractions import Fraction

from chemlm.elements import MULTI_LETTER_SYMBOLS
from chemlm.metrics.crystals import OXIDATION_STATES
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
