import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slosim.controller import (
    BudgetLedger,
    ControllerConfig,
    PollObservation,
    RiskFlag,
    assess_risk,
    partition,
    plan_corrective_actions,
    poll_instants,
    update_rho,
)
from slosim.slo import SloSpec


# -- partition -----------------------------------------------------------------


def test_partition_defining_ratio():
    assert partition(300, 2.0) == (200, 100)


def test_partition_all_machine_at_zero():
    assert partition(10, 0.0) == (0, 10)


def test_partition_half_rounds_toward_human():
    assert partition(7, 1.0) == (4, 3)


def test_partition_huge_ratio_starves_machine():
    assert partition(100, 1e6) == (100, 0)


def test_partition_rejects_negatives():
    with pytest.raises(ValueError):
        partition(-1, 1.0)
    with pytest.raises(ValueError):
        partition(10, -0.5)


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=100_000),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_partition_identity(n, ratio):
    n_human, n_machine = partition(n, ratio)
    assert n_human + n_machine == n
    assert n_human >= 0 and n_machine >= 0
    if ratio == 0.0:
        assert n_human == 0


# -- completion-rate probe ----------------------------------------------------------


def test_rho_initialises_to_first_rate():
    assert update_rho(None, 50, 100.0, 0.5) == pytest.approx(0.5)


def test_rho_ewma_step():
    assert update_rho(0.5, 30, 100.0, 0.5) == pytest.approx(0.4)


def test_rho_decays_on_zero_completions():
    rate = 0.8
    for _ in range(10):
        rate = update_rho(rate, 0, 100.0, 0.5)
    assert rate < 0.001


def test_rho_rejects_zero_interval():
    with pytest.raises(ValueError):
        update_rho(None, 5, 0.0, 0.5)


# -- risk ---------------------------------------------------------------------------


SLO = SloSpec(accuracy_target=0.8, budget=10.0, deadline=1000.0)


def observe(**fields) -> PollObservation:
    """A poll at t=400 of an undecided 100-microtask node; `fields` override
    any value."""
    values = dict(
        now=400.0,
        total=100,
        evaluated=0,
        consensus_rate=1.0,
        completion_rate=0.0,
        hm_ratio=2.0,
        incentive_multiplier=1.0,
        headroom_micros=1_000_000,
        reward_micros=20_000,
        timed_out_slots=0,
        unresolved_human=60,
        unpicked_human=40,
        no_consensus_ids=(),
        reroutable=True,
    )
    return PollObservation(**{**values, **fields})


def risk(rate, now=400.0, evaluated=100, total=500, consensus=1.0, headroom=10_000_000, reward=20_000):
    obs = observe(
        now=now,
        total=total,
        evaluated=evaluated,
        consensus_rate=consensus,
        completion_rate=rate,
        headroom_micros=headroom,
        reward_micros=reward,
    )
    return assess_risk(obs, SLO)


def test_time_risk_projection_shortfall():
    # 100 + 0.5 * 600 = 400 < 500
    assert RiskFlag.TIME_RISK in risk(0.5)


def test_no_time_risk_when_projection_clears():
    # 100 + 1.0 * 600 = 700 >= 500
    assert RiskFlag.TIME_RISK not in risk(1.0)


def test_no_time_risk_when_done():
    assert RiskFlag.TIME_RISK not in risk(0.0, evaluated=500)


def test_accuracy_risk_needs_warmup():
    flags = risk(1.0, evaluated=5, consensus=0.1)
    assert RiskFlag.ACCURACY_RISK not in flags  # below max(10, 5%) warm-up
    flags = risk(1.0, evaluated=100, consensus=0.1)
    assert RiskFlag.ACCURACY_RISK in flags


def test_budget_flag_when_one_reward_does_not_fit():
    assert RiskFlag.BUDGET_EXHAUSTED in risk(1.0, evaluated=500, headroom=19_999)
    assert RiskFlag.BUDGET_EXHAUSTED not in risk(1.0, evaluated=500, headroom=20_000)


# -- ledger --------------------------------------------------------------------------


def test_ledger_boundary_inclusive():
    ledger = BudgetLedger(60_000_000)
    ledger.spent_micros = 59_980_000
    assert ledger.commit(20_000)  # lands exactly on 60.00
    assert ledger.spent_micros + ledger.committed_micros == 60_000_000


def test_ledger_refuses_past_boundary():
    ledger = BudgetLedger(60_000_000)
    ledger.spent_micros = 59_990_000
    assert not ledger.commit(20_000)
    assert ledger.committed_micros == 0


def test_ledger_three_thousand_rewards_exact():
    ledger = BudgetLedger(60_000_000)
    for _ in range(3000):
        assert ledger.commit(20_000)
        ledger.settle_return(20_000)
    assert ledger.spent_micros == 60_000_000
    assert ledger.committed_micros == 0
    assert not ledger.commit(20_000)


def test_ledger_timeout_releases():
    ledger = BudgetLedger(1_000_000)
    assert ledger.commit(400_000)
    ledger.settle_timeout(400_000)
    assert ledger.spent_micros == 0
    assert ledger.headroom_micros == 1_000_000


def test_ledger_rejects_negative_reward():
    with pytest.raises(ValueError):
        BudgetLedger(1_000_000).commit(-1)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(["commit", "ret", "to"]), st.integers(0, 50_000)), max_size=60))
def test_ledger_invariant_under_op_sequences(ops):
    ledger = BudgetLedger(500_000)
    open_commits: list[int] = []
    spent_before = 0
    for op, amount in ops:
        if op == "commit":
            if ledger.commit(amount):
                open_commits.append(amount)
        elif op == "ret" and open_commits:
            ledger.settle_return(open_commits.pop())
        elif op == "to" and open_commits:
            ledger.settle_timeout(open_commits.pop())
        assert ledger.spent_micros + ledger.committed_micros <= ledger.budget_micros
        assert ledger.spent_micros >= spent_before
        spent_before = ledger.spent_micros


# -- corrective planning -----------------------------------------------------------


def plan(risks, headroom=1_000_000, timed_out=0, no_consensus=(), config=None, hm_ratio=2.0):
    obs = observe(
        headroom_micros=headroom,
        timed_out_slots=timed_out,
        no_consensus_ids=tuple(no_consensus),
        hm_ratio=hm_ratio,
    )
    return plan_corrective_actions(obs, risks, config or ControllerConfig())


def test_no_risks_no_actions():
    assert plan(set()) == []


def test_time_risk_with_zero_headroom_skips_incentive_but_cuts_ratio():
    actions = plan({RiskFlag.TIME_RISK}, headroom=0, timed_out=3)
    kinds = [a.kind for a in actions]
    assert kinds == ["reassign", "reduce_ratio"]
    cut = actions[-1]
    assert cut.params["hm_ratio"] == pytest.approx(1.0)  # 2.0 * default decay 0.5
    assert cut.params["reroute"] > 0


def test_time_risk_with_headroom_raises_incentive_first():
    actions = plan({RiskFlag.TIME_RISK})
    assert [a.kind for a in actions] == ["raise_incentive", "reduce_ratio"]
    assert actions[0].params["multiplier"] == pytest.approx(1.25)


def test_accuracy_escalations_bounded_by_headroom():
    # default reward 0.02 -> 20_000 micros; headroom covers exactly two
    actions = plan({RiskFlag.ACCURACY_RISK}, headroom=40_000, no_consensus=("m1", "m2", "m3"))
    assert len(actions) == 1
    assert actions[0].kind == "escalate"
    assert actions[0].params["microtasks"] == ["m1", "m2"]


def test_escalations_are_priced_at_the_current_reward():
    # a raised reward of 25_000 micros: 60_000 of headroom covers two, not three
    obs = observe(headroom_micros=60_000, reward_micros=25_000, no_consensus_ids=("m1", "m2", "m3"))
    (action,) = plan_corrective_actions(obs, {RiskFlag.ACCURACY_RISK}, ControllerConfig())
    assert action.params["microtasks"] == ["m1", "m2"]


def test_corrections_disabled_plans_nothing():
    config = ControllerConfig(corrections_enabled=False)
    assert plan({RiskFlag.TIME_RISK, RiskFlag.ACCURACY_RISK}, config=config, timed_out=5) == []


def test_pinned_nodes_never_reroute():
    actions = plan({RiskFlag.TIME_RISK}, headroom=0)
    assert any(a.kind == "reduce_ratio" for a in actions)
    obs = observe(headroom_micros=0, unresolved_human=100, unpicked_human=100, reroutable=False)
    pinned = plan_corrective_actions(obs, {RiskFlag.TIME_RISK}, ControllerConfig())
    assert all(a.kind != "reduce_ratio" for a in pinned)


def test_ratio_monotone_under_sustained_time_risk_with_no_headroom():
    ratio = 4.0
    for _ in range(8):
        actions = plan({RiskFlag.TIME_RISK}, headroom=0, hm_ratio=ratio)
        cut = next(a for a in actions if a.kind == "reduce_ratio")
        assert cut.params["hm_ratio"] < ratio
        ratio = cut.params["hm_ratio"]


# -- polling schedule -----------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 5, 20])
def test_poll_instants_equally_spaced_last_at_deadline(k):
    deadline = 100_000_000
    instants = poll_instants(0, deadline, k)
    assert len(instants) == k
    assert instants[-1] == deadline
    gaps = {b - a for a, b in zip([0] + instants[:-1], instants)}
    assert gaps == {deadline // k}


def test_poll_instants_offset_window():
    instants = poll_instants(50, 150, 4)
    assert instants == [75, 100, 125, 150]


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(replication_w=2)
    with pytest.raises(ValueError):
        ControllerConfig(polling_intervals=0)
    with pytest.raises(ValueError):
        ControllerConfig(hm_ratio_decay=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(ewma_alpha=0.0)
