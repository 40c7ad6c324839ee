"""Pipeline benchmark entry point.

    python3 benchmarks/run.py --workload molecule --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The BLAS thread count is fixed here,
before numpy is first imported, so every run and every `synth` child
process computes with the same number of threads.
"""

import os
import sys

BLAS_THREADS = 1

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isdir(os.path.join(_SRC, "chemlm")):
    sys.exit(f"benchmarks/run.py: no chemlm sources under {_SRC}")
sys.path.insert(0, _SRC)

from pipeline import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
