"""Evaluation metrics: validity, uniqueness, novelty, distribution distances.

The checks live in `bonds`, `crystals` and `pockets`, the keys in `keys`,
the distances in `emd`; `report.validity` combines the checks per kind.
"""

from .report import (MetricsReport, decode_sequences, evaluate_sequences, evaluate_structures,
                     property_functions)

__all__ = ["MetricsReport", "decode_sequences", "evaluate_sequences", "evaluate_structures",
           "property_functions"]
