"""Re-check the distinctness certificate of a compare report from the report alone.

Usage: PYTHONPATH=src python tests/recheck_certificate.py REPORT [PRIME [RANK]]

REPORT is the JSON output of ``conitop compare --format json`` (``/dev/stdin``
reads a pipe).  The embedded systems and certificate are decoded, and the
exit status is 0 only when ``certificate_is_valid`` accepts them and, if
given, the certificate's prime is PRIME and the left system's rank is RANK.
"""

from __future__ import annotations

import json
import sys

from conitop.equiv import certificate_is_valid
from conitop.serialize import certificate_from_obj, system_from_obj


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        report = json.load(f)
    left, right = (system_from_obj(report["inputs"][side]) for side in ("left", "right"))
    obj = report["result"].get("certificate")
    if obj is None:
        return 1
    checks = [certificate_is_valid(certificate_from_obj(obj), left, right) is True]
    if len(argv) > 1:
        checks.append(obj["prime"] == int(argv[1]))
    if len(argv) > 2:
        checks.append(left.rank == int(argv[2]))
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
