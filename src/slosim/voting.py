"""Result evaluation: majority voting over replicated answers, and the
closed-form accuracy of a strict majority (a binomial tail).

The default rule is a strict majority: a label wins only if it holds more
than half of all returned votes.  A plurality rule (unique top count wins)
is available behind a flag for scenarios that want it.  `majority_vote`
decides one microtask from the engine's list of its votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


class ConsensusStatus(Enum):
    CONSENSUS = "consensus"
    NO_CONSENSUS = "no_consensus"
    EMPTY = "empty"


@dataclass(frozen=True)
class ConsensusResult:
    microtask_id: str
    decision: str | None
    support: float
    status: ConsensusStatus


def majority_vote(
    microtask_id: str, votes: Sequence[str], domain: Sequence[str], rule: str = "majority"
) -> ConsensusResult:
    """Decide one microtask from its votes; deterministic and order-independent.

    majority: decision requires strictly more than half of the votes.
    plurality: a unique top count wins even without a majority; tied top
    counts yield no consensus.  Every vote must come from `domain`.  No
    votes are EMPTY, and one vote is a consensus of support 1.0 under either
    rule (it is more than half of one, and a unique top count), so only two
    or more are counted.
    """
    if rule not in ("majority", "plurality"):
        raise ValueError(f"unknown vote rule: {rule!r}")
    for vote in votes:
        if vote not in domain:
            raise ValueError(f"vote {vote!r} outside answer domain {list(domain)}")
    total = len(votes)
    if total == 0:
        return ConsensusResult(microtask_id, None, 0.0, ConsensusStatus.EMPTY)
    if total == 1:
        return ConsensusResult(microtask_id, votes[0], 1.0, ConsensusStatus.CONSENSUS)

    counts: dict[str, int] = {}
    for vote in votes:
        counts[vote] = counts.get(vote, 0) + 1
    top_label, top_count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    support = top_count / total

    if rule == "majority":
        won = top_count * 2 > total
    else:
        won = sum(1 for c in counts.values() if c == top_count) == 1
    if won:
        return ConsensusResult(microtask_id, top_label, support, ConsensusStatus.CONSENSUS)
    return ConsensusResult(microtask_id, None, support, ConsensusStatus.NO_CONSENSUS)


def node_consensus_rate(results: Iterable[ConsensusResult]) -> float:
    """Fraction of results that reached consensus; 0.0 for no results."""
    total = 0
    agreed = 0
    for result in results:
        total += 1
        if result.status is ConsensusStatus.CONSENSUS:
            agreed += 1
    return agreed / total if total else 0.0


def majority_accuracy_analytic(p: float, w: int, num_labels: int) -> float:
    """Exact probability that a strict majority of w independent answers
    equals the true label, when each answer is correct with probability p
    and otherwise uniform over the remaining num_labels - 1 labels.

    Only one label can hold more than w/2 votes, so the decision is right
    exactly when the truth's own count k ~ Binomial(w, p) exceeds w/2; how
    the wrong votes split over the other labels, and so num_labels, does not
    matter (Sheng, Provost & Ipeirotis, "Get another label?", KDD 2008).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1]: {p}")
    if w < 1 or w % 2 == 0:
        raise ValueError(f"replication must be an odd positive integer: {w}")
    if num_labels < 2:
        raise ValueError(f"need at least two labels: {num_labels}")
    return sum(math.comb(w, k) * p**k * (1.0 - p) ** (w - k) for k in range(w // 2 + 1, w + 1))
