"""Answer checks, run after timing ends.

A ``path`` answer must join u to v in at most k hops, report the weight
recomputed here from the generated coordinates, and keep that weight
within the contract stretch α the checkpoint declares.  A ``distance``
answer must lie in [d(u, v), α · d(u, v)].

Two kinds of wrong answer are told apart.  A *structural* error (wrong
endpoints, too many hops, a weight that does not match the path, a
distance below the true one) means the answer is not a valid spanner
answer at all, and marks the run incorrect.  A *contract* violation (a
valid answer whose stretch exceeds the declared α) is counted as a
failed request but leaves the run correct: the declared α is 1.1 × the
stretch measured on 300 sampled pairs, which some pairs exceed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

DELIVERED = ("ok", "degraded")

#: Relative slack for floating-point weight and distance comparisons.
REL_TOL = 1e-9


@dataclass
class Verdict:
    attempted: int = 0
    not_delivered: Dict[str, int] = field(default_factory=dict)
    structural: List[str] = field(default_factory=list)
    contract: int = 0

    @property
    def failed(self) -> int:
        return (sum(self.not_delivered.values()) + len(self.structural)
                + self.contract)

    @property
    def correct(self) -> bool:
        return not self.structural

    def note_status(self, status: str) -> bool:
        """Count a non-delivered status; True if the answer can be checked."""
        self.attempted += 1
        if status in DELIVERED:
            return True
        self.not_delivered[status] = self.not_delivered.get(status, 0) + 1
        return False


def _dist(coords: Dict[int, Sequence[float]], a: int, b: int) -> float:
    return math.dist(coords[a], coords[b])


def check_queries(samples: Iterable, coords: Dict[int, Sequence[float]],
                  k: int, alpha: float, verdict: Verdict) -> Verdict:
    """Check ``path`` / ``distance`` samples (see the module docstring)."""
    for sample in samples:
        response = sample.response
        status = "no_response" if response is None else response["status"]
        if not verdict.note_status(status):
            continue
        u, v = sample.body["u"], sample.body["v"]
        result = response["result"]
        true = _dist(coords, u, v)
        if sample.op == "distance":
            got = result["distance"]
            if got < true * (1 - REL_TOL):
                verdict.structural.append(
                    f"distance({u},{v})={got} below true {true}")
            elif got > alpha * true * (1 + REL_TOL):
                verdict.contract += 1
            continue
        path = result["path"]
        if not path or path[0] != u or path[-1] != v:
            verdict.structural.append(f"path({u},{v}) has endpoints {path}")
            continue
        if len(path) - 1 > k:
            verdict.structural.append(
                f"path({u},{v}) has {len(path) - 1} hops > k={k}")
            continue
        if any(p not in coords for p in path):
            verdict.structural.append(f"path({u},{v}) names unknown points")
            continue
        weight = sum(_dist(coords, a, b) for a, b in zip(path, path[1:]))
        if not math.isclose(weight, result["weight"], rel_tol=1e-6):
            verdict.structural.append(
                f"path({u},{v}) reports weight {result['weight']}, "
                f"recomputed {weight}")
        elif weight > alpha * true * (1 + REL_TOL):
            verdict.contract += 1
    return verdict


def check_mutations(samples: Iterable, verdict: Verdict) -> Verdict:
    """Every insert/delete must be acknowledged with ``ok``."""
    for sample in samples:
        response = sample.response
        status = "no_response" if response is None else response["status"]
        if verdict.note_status(status) and response["result"]["op"] != sample.op:
            verdict.structural.append(
                f"{sample.op} acknowledged as {response['result']['op']}")
    return verdict
