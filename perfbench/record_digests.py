#!/usr/bin/env python3
"""Record the sim workloads' canonical-stats digests under the reference
kernel, for the seeds given, into perfbench/digests.json.

Usage (from the repository root):

    python3 perfbench/record_digests.py 0
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import simload  # noqa: E402


def main(seeds: list[int]) -> int:
    path = simload.DIGESTS
    table = (json.loads(path.read_text()) if path.is_file()
             else {"scale": simload.SCALE, "seeds": {}})
    for seed in seeds:
        row = table["seeds"].setdefault(str(seed), {})
        for cells in simload.WORKLOADS.values():
            for wl, pol in cells:
                row[f"{wl}/{pol}"] = simload.reference_digest(wl, pol, seed)
                print(seed, wl, pol, row[f"{wl}/{pol}"], flush=True)
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0]))
