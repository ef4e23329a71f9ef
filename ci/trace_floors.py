"""Fail when a potsmine module's line coverage falls below its floor.

Reads the summary that the standard library's trace module prints after
running the tier-1 suite, from the repository root:

    PYTHONPATH=src python -m trace --count --missing --summary -C .trace \
        --module pytest -q > trace-summary.txt
    python ci/trace_floors.py trace-summary.txt

A floor is the percentage of a module's lines the tier-1 suite ran on
Python 3.11 when it was set; trace counts lines a little differently on
other versions, so the check runs on 3.11 only. A module with no floor,
or missing from the summary, also fails the check.
"""

from __future__ import annotations

import re
import sys

FLOORS = {
    "potsmine.__init__": 100,
    "potsmine.cli": 99,
    "potsmine.core": 100,
    "potsmine.errors": 100,
    "potsmine.metrics": 96,
    "potsmine.models.__init__": 100,
    "potsmine.models.artifact": 100,
    "potsmine.models.base": 99,
    "potsmine.models.classification": 100,
    "potsmine.models.clustering": 100,
    "potsmine.models.forecasting": 95,
    "potsmine.models.imputation": 100,
    "potsmine.store": 100,
    "potsmine.tensor": 90,
}

# "  395    93%   potsmine.cli   (/path/to/cli.py)"
_ROW = re.compile(r"^\s*\d+\s+(\d+)%\s+(potsmine(?:\.\w+)*)\s")


def read_summary(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        return {m.group(2): int(m.group(1))
                for m in map(_ROW.match, fh) if m is not None}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: trace_floors.py SUMMARY_FILE", file=sys.stderr)
        return 1
    measured = read_summary(argv[0])
    faults = []
    for module in sorted(set(FLOORS) | set(measured)):
        floor, got = FLOORS.get(module), measured.get(module)
        if floor is None:
            faults.append(f"{module}: {got}% covered but has no floor")
        elif got is None:
            faults.append(f"{module}: not in the trace summary (floor {floor}%)")
        elif got < floor:
            faults.append(f"{module}: {got}% covered, below its floor of {floor}%")
        else:
            print(f"{module}: {got}% (floor {floor}%)")
    for fault in faults:
        print(f"FAIL {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
