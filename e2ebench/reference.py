"""Reference outputs the benchmark checks every operation against.

For the default seed at full scale the reference is ``digests.json``,
committed with the benchmark: digests of the rendered rankings produced
by the Definition 3.4 per-pair path (verdict matrix disabled) over the
first requests of each workload's stream.  Requests beyond the committed
prefix, and every request under another seed or scale, are checked
against fresh cold services, which share no cache with the served one.

Regenerate the committed digests after a change that legitimately
changes rankings::

    python3 e2ebench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

DEFAULT_SEED = 1
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
# Stream prefix covered by the committed digests (steps per workload).
COVERED_STEPS = {"loans-cold": 120, "loans-serve": 400, "university-search": 40}


def short_key(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]


def committed(workload) -> Dict[str, str]:
    """Committed digests applicable to this workload instance (maybe none)."""
    if workload.seed != DEFAULT_SEED or workload.scale != "full" or not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as handle:
        entry = json.load(handle).get(workload.name, {})
    if entry.get("params") != workload.params:
        return {}
    return entry.get("digests", {})


def attach_expected(workload, ops) -> None:
    """Fill ``op.expected`` for every op: committed digests, else fresh references."""
    digests = committed(workload)
    missing: List = []
    for op in ops:
        op.expected = digests.get(short_key(op.request.key()))
        if op.expected is None:
            missing.append(op)
    if missing:
        fresh = workload.references([op.request for op in missing])
        for op in missing:
            op.expected = fresh.get(op.request.key())


def generate() -> Dict[str, dict]:
    """Per-pair digests of the default-seed streams (slow; run offline)."""
    from e2ebench.workloads import WORKLOADS

    result = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        workload.setup()
        steps = workload.steps()
        requests = [request for _ in range(COVERED_STEPS[name]) for request in next(steps)]
        expected = workload.references(requests, per_pair=True)
        result[name] = {
            "params": workload.params,
            "digests": {short_key(key): value for key, value in sorted(expected.items())},
        }
        print(f"{name}: {len(expected)} digests", file=sys.stderr)
    return result


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    digests = generate()
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, **digests}, handle, indent=0, sort_keys=True)
        handle.write("\n")
