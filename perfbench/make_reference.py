"""Write the seed-0 reference outputs that checks.py compares against.

Run from the root of a checkout whose outputs define correctness:

    python3 perfbench/make_reference.py

It runs each workload once at seed 0 and copies report.json (and, for
propagate, error_series.csv) into perfbench/reference/<workload>/.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from efgeo import cli  # noqa: E402

KEPT = ("report.json", "error_series.csv")


def main() -> int:
    for workload in workloads.WORKLOADS:
        target = HERE / "reference" / workload
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            code = cli.main(workloads.cli_args(workload, 0) + ["--out", tmp])
            if code != 0:
                print(f"{workload}: exit code {code}, reference not written", file=sys.stderr)
                return 1
            for name in KEPT:
                if (Path(tmp) / name).exists():
                    shutil.copyfile(Path(tmp) / name, target / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
