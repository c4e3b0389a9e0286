"""Record the canonical-JSON digest of every ``build`` op for the default seed.

The ``build`` workload checks its outputs for the default seed against
``build_digests.json``.  Run this from the repository root only after a
deliberate change to the invariant systems conitop builds:

    python3 bench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    wl = workloads.build_workload(workloads.load_program(), workloads.DEFAULT_SEED)
    digests = [wl.digest(op.run(run.spans.NullTracer())) for op in wl.ops]
    doc = {"seed": workloads.DEFAULT_SEED, "digests": digests}
    with open(run.BUILD_DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {run.BUILD_DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
