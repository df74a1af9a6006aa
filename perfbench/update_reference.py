#!/usr/bin/env python3
"""Record output digests from finished runs in perfbench/reference.json.

Reads the result records that `run.py` left in `.perfbench_out/` and adds
the digest of every run whose checks passed under its reference key.  A key
that is already recorded with another digest is reported and left alone:
the outputs changed, and that is for a person to judge.  Run from the root
of a checkout after running the benchmark:

    python3 perfbench/update_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"


def main() -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    conflicts = 0
    for path in sorted((ROOT / ".perfbench_out").glob("result-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["failed"] or record["problems"]:
            continue
        key, digest = record["reference_key"], record["digest"]
        if reference.setdefault(key, digest) != digest:
            print(f"conflict: {key}: recorded {reference[key]}, {path.name} has {digest}")
            conflicts += 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"{len(reference)} reference digests in {REFERENCE.relative_to(ROOT)}")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
