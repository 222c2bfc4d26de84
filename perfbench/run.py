"""Run one benchmark workload against the drdp source of this checkout.

    python3 perfbench/run.py --workload bill-run --seed 1 --seconds 20 --trace 0

Prints the metrics by name, unit and sample count, then one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits 2 without a result when the checkout holds no drdp source.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "drdp" / "__init__.py").is_file():
        print(f"perfbench: no drdp source under {src}", file=sys.stderr)
        return 2
    # One process, one caller: keep native thread pools at one thread each.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
