"""1-Wasserstein distance between empirical 1D distributions."""

from __future__ import annotations

from fractions import Fraction


def emd_1d(a, b) -> float:
    """Earth mover's distance between two samples of real values.

    Equal-size samples reduce to the mean absolute difference of the
    sorted values. Unequal sizes integrate |Q_a(u) - Q_b(u)| du over the
    piecewise-constant quantile functions. Scaled by na * nb, the
    breakpoints i/na and j/nb are the integer multiples of nb and na, so
    no interval is lost to floating-point ties; the sum of the float
    differences stays exact, so the result is correctly rounded.
    """
    a = sorted(float(v) for v in a)
    b = sorted(float(v) for v in b)
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    if len(a) == len(b):
        return sum(abs(x - y) for x, y in zip(a, b)) / len(a)

    na, nb = len(a), len(b)
    n = na * nb
    cuts = sorted(set(range(0, n + 1, nb)) | set(range(0, n + 1, na)))
    total = Fraction(0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += (hi - lo) * Fraction(abs(a[lo // nb] - b[lo // na]))
    return float(total / n)
