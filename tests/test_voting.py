import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slosim.agents import invert_majority_accuracy
from slosim.voting import (
    ConsensusResult,
    ConsensusStatus,
    majority_accuracy_analytic,
    majority_vote,
    node_consensus_rate,
)

DOMAIN6 = ("l1", "l2", "l3", "l4", "l5", "l6")


def vote_on(*labels, domain=DOMAIN6, rule="majority"):
    return majority_vote("mt", list(labels), domain, rule)


def test_strict_majority_two_of_three():
    result = vote_on("a", "a", "b", domain=("a", "b"))
    assert result.status is ConsensusStatus.CONSENSUS
    assert result.decision == "a"
    assert result.support == pytest.approx(2 / 3)


def test_strict_majority_three_of_five():
    result = vote_on("a", "b", "a", "c", "a", domain=("a", "b", "c"))
    assert result.decision == "a"
    assert result.support == pytest.approx(3 / 5)


def test_tie_is_no_consensus():
    result = vote_on("a", "b", domain=("a", "b"))
    assert result.status is ConsensusStatus.NO_CONSENSUS
    assert result.decision is None


def test_empty_votes():
    result = vote_on(domain=("a", "b"))
    assert result.status is ConsensusStatus.EMPTY
    assert result.support == 0.0


def test_vote_outside_domain_rejected():
    # the first vote outside the domain is named, however many votes there are
    for labels in (("zz",), ("a", "zz", "yy"), ("a", "a", "a", "zz")):
        with pytest.raises(ValueError, match=r"^vote 'zz' outside answer domain \['a', 'b'\]$"):
            vote_on(*labels, domain=("a", "b"))


def test_plurality_mode():
    # 2-2-1 split: no majority, but ties block plurality too
    assert vote_on("a", "a", "b", "b", "c", domain=("a", "b", "c"), rule="plurality").decision is None
    # unique top short of a majority wins under plurality only
    split = ("a", "a", "b", "c")
    assert vote_on(*split, domain=("a", "b", "c")).status is ConsensusStatus.NO_CONSENSUS
    assert vote_on(*split, domain=("a", "b", "c"), rule="plurality").decision == "a"


def test_unknown_rule():
    # refused even with no votes, and ahead of a vote outside the domain
    for labels in ((), ("a",), ("zz",), ("a", "b")):
        with pytest.raises(ValueError, match="^unknown vote rule: 'borda'$"):
            vote_on(*labels, domain=("a", "b"), rule="borda")


def _counted(labels, rule):
    """Brute-force oracle for either rule: count every label, support as a
    float share of the votes."""
    if not labels:
        return ConsensusResult("mt", None, 0.0, ConsensusStatus.EMPTY)
    counts = Counter(labels)
    top_count = max(counts.values())
    leaders = sorted(label for label, count in counts.items() if count == top_count)
    support = top_count / len(labels)
    won = top_count * 2 > len(labels) if rule == "majority" else len(leaders) == 1
    if won:
        return ConsensusResult("mt", leaders[0], support, ConsensusStatus.CONSENSUS)
    return ConsensusResult("mt", None, support, ConsensusStatus.NO_CONSENSUS)


def test_matches_brute_force_on_all_small_vote_sequences():
    # unit-sized sweep; the acceptance suite runs the full size<=5 enumeration
    for rule in ("majority", "plurality"):
        for size in range(0, 5):
            for combo in itertools.product(DOMAIN6[:4], repeat=size):
                assert vote_on(*combo, domain=DOMAIN6[:4], rule=rule) == _counted(combo, rule)


@settings(max_examples=200)
@given(st.lists(st.sampled_from(DOMAIN6), max_size=9), st.randoms())
def test_permutation_invariance(labels, rnd):
    shuffled = list(labels)
    rnd.shuffle(shuffled)
    a = vote_on(*labels)
    b = vote_on(*shuffled)
    assert (a.decision, a.support, a.status) == (b.decision, b.support, b.status)


@settings(max_examples=200)
@given(st.lists(st.sampled_from(DOMAIN6), min_size=1, max_size=9))
def test_adding_vote_for_decision_keeps_decision(labels):
    before = vote_on(*labels)
    if before.status is not ConsensusStatus.CONSENSUS:
        return
    after = vote_on(*labels, before.decision)
    assert after.decision == before.decision


@st.composite
def _short_vote_lists(draw):
    """A domain of 2-6 labels and a list of at most one vote, which may lie
    outside the domain."""
    domain = tuple(draw(st.lists(st.sampled_from(DOMAIN6), min_size=2, max_size=6, unique=True)))
    label = st.sampled_from(domain) | st.sampled_from(("zz", "l7", ""))
    return domain, draw(st.lists(label, max_size=1))


@settings(max_examples=300)
@given(_short_vote_lists(), st.sampled_from(["majority", "plurality"]))
def test_closed_form_decisions_match_the_counted_vote(case, rule):
    domain, labels = case
    outside = [label for label in labels if label not in domain]
    if outside:
        with pytest.raises(ValueError) as excinfo:
            majority_vote("mt", labels, domain, rule)
        assert str(excinfo.value) == f"vote {outside[0]!r} outside answer domain {list(domain)}"
        return
    got = majority_vote("mt", labels, domain, rule)
    expected = _counted(labels, rule)
    assert got == expected
    assert repr(got) == repr(expected)  # a support of 1 would write as 1, not 1.0


def test_consensus_rate_examples():
    cons = vote_on("a", "a", domain=("a", "b"))
    none = vote_on("a", "b", domain=("a", "b"))
    assert node_consensus_rate([cons] * 918 + [none] * 82) == pytest.approx(0.918)
    assert node_consensus_rate([cons, cons]) == 1.0
    assert node_consensus_rate([none, none]) == 0.0
    assert node_consensus_rate([]) == 0.0


# -- analytic majority accuracy -------------------------------------------------


def test_analytic_known_point():
    assert majority_accuracy_analytic(0.55, 3, 2) == pytest.approx(0.57475, abs=1e-12)


def test_analytic_perfect_and_single_voter():
    assert majority_accuracy_analytic(1.0, 5, 4) == pytest.approx(1.0)
    for p in (0.1, 0.5, 0.97):
        assert majority_accuracy_analytic(p, 1, 3) == pytest.approx(p)


def enumerated_majority_accuracy(p, w, num_labels):
    """Reference: sum over every vote-count composition (truth first) whose
    truth count is a strict majority, each weighted by its multinomial
    probability with wrong answers uniform over the other labels."""
    wrong_each = (1.0 - p) / (num_labels - 1)
    total = 0.0
    for cuts in itertools.combinations(range(w + num_labels - 1), num_labels - 1):
        bounds = (-1, *cuts, w + num_labels - 1)
        composition = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        truth_count = composition[0]
        if truth_count * 2 <= w:
            continue
        coef = math.factorial(w)
        for count in composition:
            coef //= math.factorial(count)
        total += coef * p**truth_count * wrong_each ** (w - truth_count)
    return total


@pytest.mark.parametrize("w, num_labels", [(1, 2), (3, 3), (5, 4), (3, 6)])
def test_enumeration_reference_matches_every_vote_sequence(w, num_labels):
    # the reference against the voting rule itself, over all num_labels**w sequences
    domain = DOMAIN6[:num_labels]
    truth = domain[0]
    for p in (0.3, 0.7):
        wrong_each = (1.0 - p) / (num_labels - 1)
        brute = 0.0
        for sequence in itertools.product(domain, repeat=w):
            if vote_on(*sequence, domain=domain).decision == truth:
                right = sequence.count(truth)
                brute += p**right * wrong_each ** (w - right)
        assert enumerated_majority_accuracy(p, w, num_labels) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("num_labels", [2, 3, 4, 5, 6])
def test_analytic_matches_binomial_closed_form(num_labels):
    # under a strict-majority rule only the truth's own count matters
    p, w = 0.63, 5
    oracle = enumerated_majority_accuracy(p, w, num_labels)
    assert majority_accuracy_analytic(p, w, num_labels) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize(
    "w, num_labels",
    [(w, labels) for w in (1, 3, 5, 7, 9) for labels in (2, 3, 4, 5, 6)] + [(11, 7)],
)
def test_closed_form_matches_enumeration(w, num_labels):
    for p in (0.0, 0.2, 0.5, 0.55, 0.804, 1.0):
        oracle = enumerated_majority_accuracy(p, w, num_labels)
        assert majority_accuracy_analytic(p, w, num_labels) == pytest.approx(oracle, abs=1e-12)


def test_invert_round_trip_past_old_caps():
    # w=11 with 7 labels was refused while the accuracy was enumerated
    p = invert_majority_accuracy(0.9, 11, 7)
    assert 0.5 < p < 0.9
    assert majority_accuracy_analytic(p, 11, 7) == pytest.approx(0.9, abs=1e-6)
    assert enumerated_majority_accuracy(p, 11, 7) == pytest.approx(0.9, abs=1e-6)


def test_analytic_amplifies_above_half():
    for p in [0.5, 0.55, 0.6, 0.7, 0.8, 0.9]:
        assert majority_accuracy_analytic(p, 3, 2) >= p - 1e-12
    for p in [0.1, 0.2, 0.3, 0.4, 0.5]:
        assert majority_accuracy_analytic(p, 3, 2) <= p + 1e-12


def test_analytic_bounds_enforced():
    with pytest.raises(ValueError):
        majority_accuracy_analytic(0.5, 4, 2)
