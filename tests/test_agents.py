import pytest

from slosim.agents import (
    AgentPool,
    MachineAgentProfile,
    ServiceTime,
    WorkerClass,
    answer_microtask,
    invert_majority_accuracy,
    sample_interarrival,
    scaled_arrival_rate,
)
from slosim.sim import seeded_rng
from slosim.voting import majority_accuracy_analytic


def crowd(name="crowd", rate=0.5, retention=0.6, min_reward=0.0):
    return WorkerClass(
        name=name,
        accuracy=0.8,
        arrival_rate=rate,
        service_time=ServiceTime(family="exponential", mean=3.0),
        min_reward=min_reward,
        retention=retention,
    )


MACHINE = MachineAgentProfile(name="m", accuracy=0.7, service_time_per_item=1.0)


# -- inter-arrival sampling ------------------------------------------------------


@pytest.mark.parametrize("rate", [0.01, 0.039084, 1.0])
def test_interarrival_mean_converges(rate):
    rng = seeded_rng(123, f"arrivals/{rate}")
    n = 100_000
    mean = sum(sample_interarrival(rate, rng) for _ in range(n)) / n
    assert mean == pytest.approx(1.0 / rate, rel=0.01)


def test_interarrival_deterministic_per_seed():
    a = [sample_interarrival(1.0, seeded_rng(42, "arrivals")) for _ in range(5)]
    b = [sample_interarrival(1.0, seeded_rng(42, "arrivals")) for _ in range(5)]
    assert a == b


def test_interarrival_rejects_bad_rate():
    with pytest.raises(ValueError):
        sample_interarrival(0.0, seeded_rng(1, "x"))


# -- answers -------------------------------------------------------------------


def test_perfect_accuracy_always_truth():
    rng = seeded_rng(1, "answers")
    assert all(answer_microtask(1.0, ("a", "b", "c"), "b", rng) == "b" for _ in range(200))


def test_zero_accuracy_binary_always_wrong():
    rng = seeded_rng(1, "answers")
    assert all(answer_microtask(0.0, ("a", "b"), "a", rng) == "b" for _ in range(200))


def test_answer_marginals_machine_like():
    rng = seeded_rng(99, "answers/machine-check")
    domain = ("c1", "c2", "c3", "c4", "c5", "c6")
    n = 100_000
    counts: dict[str, int] = {}
    for _ in range(n):
        label = answer_microtask(0.672, domain, "c4", rng)
        counts[label] = counts.get(label, 0) + 1
    assert counts["c4"] / n == pytest.approx(0.672, abs=0.005)
    # chi-square sanity over the five wrong labels (df=5 crit far above this)
    expected = n * (1 - 0.672) / 5
    chi2 = sum((counts[l] - expected) ** 2 / expected for l in domain if l != "c4")
    assert chi2 < 25.0


def test_answer_rejects_bad_inputs():
    rng = seeded_rng(1, "answers")
    with pytest.raises(ValueError):
        answer_microtask(0.5, ("a", "b"), "zz", rng)
    with pytest.raises(ValueError):
        answer_microtask(0.5, ("a",), "a", rng)


# -- calibration ------------------------------------------------------------------


def test_invert_known_targets():
    assert invert_majority_accuracy(0.574, 3, 2) == pytest.approx(0.550, abs=1e-3)
    assert invert_majority_accuracy(0.572, 3, 2) == pytest.approx(0.549, abs=1e-3)


def test_invert_single_voter_identity():
    for target in (0.6, 0.77, 0.91):
        assert invert_majority_accuracy(target, 1, 4) == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("target,w,labels", [(0.7, 3, 2), (0.804, 3, 6), (0.9, 5, 3)])
def test_invert_forward_round_trip(target, w, labels):
    p = invert_majority_accuracy(target, w, labels)
    assert majority_accuracy_analytic(p, w, labels) == pytest.approx(target, abs=1e-6)


def test_invert_rejects_out_of_range_targets():
    with pytest.raises(ValueError):
        invert_majority_accuracy(0.4, 3, 2)  # below 1/num_labels
    with pytest.raises(ValueError):
        invert_majority_accuracy(1.0, 3, 2)
    with pytest.raises(ValueError):
        invert_majority_accuracy(0.7, 2, 2)  # even replication


# -- incentives --------------------------------------------------------------------


def test_incentive_scaling_examples():
    assert scaled_arrival_rate(0.039084, 1.0, 1.0) == pytest.approx(0.039084)
    assert scaled_arrival_rate(0.04, 1.25, 1.0) == pytest.approx(0.05)
    assert scaled_arrival_rate(0.04, 2.0, 0.0) == pytest.approx(0.04)
    with pytest.raises(ValueError):
        scaled_arrival_rate(0.04, 0.9, 1.0)


def test_pool_incentive_composes_with_script():
    pool = AgentPool(workers=(crowd(rate=0.4),), machines=(MACHINE,))
    pool.apply_incentive(1.5)
    assert pool.effective_rate("crowd") == pytest.approx(0.6)
    pool.set_base_rate("crowd", 0.0)  # scripted starvation survives incentives
    pool.apply_incentive(2.0)
    assert pool.effective_rate("crowd") == 0.0


# -- pool lifecycle ------------------------------------------------------------------


def test_pool_never_double_books():
    pool = AgentPool(workers=(crowd(),), machines=())
    agent = pool.admit("crowd")
    assert pool.idle_workers() == [agent]
    pool.mark_busy(agent)
    assert pool.idle_workers() == []
    with pytest.raises(ValueError):
        pool.mark_busy(agent)
    pool.release(agent, stays=True)
    assert pool.idle_workers() == [agent]


def test_pool_departure_removes_worker():
    pool = AgentPool(workers=(crowd(),), machines=())
    agent = pool.admit("crowd")
    pool.mark_busy(agent)
    pool.release(agent, stays=False)
    assert pool.idle_workers() == []
    with pytest.raises(ValueError):
        pool.mark_busy(agent)


def test_pool_idle_queue_is_first_in_first_out():
    pool = AgentPool(workers=(crowd(),), machines=())
    a, b, c = (pool.admit("crowd") for _ in range(3))
    pool.mark_busy(b)
    assert pool.idle_workers() == [a, c]
    pool.release(b, stays=True)
    assert pool.idle_workers() == [a, c, b]
    pool.mark_busy(a)
    pool.release(a, stays=True)
    assert pool.idle_workers() == [c, b, a]
    assert pool.has_idle_workers()


def test_pool_errors_name_the_agents_state():
    pool = AgentPool(workers=(crowd(),), machines=())
    busy, gone, idle = (pool.admit("crowd") for _ in range(3))
    pool.mark_busy(busy)
    pool.mark_busy(gone)
    pool.release(gone, stays=False)
    with pytest.raises(ValueError, match=f"agent {busy} is busy, not available"):
        pool.mark_busy(busy)
    with pytest.raises(ValueError, match=f"agent {gone} is departed, not available"):
        pool.mark_busy(gone)
    with pytest.raises(ValueError, match=f"agent {idle} is available, not busy"):
        pool.release(idle, stays=True)
    with pytest.raises(ValueError, match=f"agent {gone} is departed, not busy"):
        pool.release(gone, stays=True)
    assert pool.idle_workers() == [idle]


def test_pool_unknown_agent_or_class_is_a_key_error():
    pool = AgentPool(workers=(crowd(),), machines=())
    for call in (
        lambda: pool.admit("nobody"),
        lambda: pool.set_base_rate("nobody", 1.0),
        lambda: pool.class_of("crowd-00001"),
        lambda: pool.mark_busy("crowd-00001"),
        lambda: pool.release("crowd-00001", stays=True),
    ):
        with pytest.raises(KeyError):
            call()


def test_pool_numbers_agents_across_classes():
    pool = AgentPool(workers=(crowd("a"), crowd("b")), machines=())
    first = pool.admit("a")
    pool.mark_busy(first)
    pool.release(first, stays=False)  # a departed worker keeps its number
    ids = [pool.admit(name) for name in ("b", "a", "b")]
    assert [first] + ids == ["a-00001", "b-00002", "a-00003", "b-00004"]
    assert [pool.class_of(agent).name for agent in ids] == ["b", "a", "b"]


def test_pool_rejects_duplicate_class_names():
    with pytest.raises(ValueError):
        AgentPool(workers=(crowd(), crowd()), machines=())


# -- service time -----------------------------------------------------------------


@pytest.mark.parametrize(
    "service",
    [
        ServiceTime(family="lognormal", median=5.0, sigma=0.5),
        ServiceTime(family="exponential", mean=2.0),
        ServiceTime(family="fixed", value=3.0),
    ],
)
def test_service_samples_positive(service):
    rng = seeded_rng(4, "service")
    assert all(service.sample(rng) > 0 for _ in range(500))


def test_service_lognormal_median_roughly_right():
    service = ServiceTime(family="lognormal", median=5.0, sigma=0.5)
    rng = seeded_rng(4, "service")
    samples = sorted(service.sample(rng) for _ in range(20_000))
    assert samples[10_000] == pytest.approx(5.0, rel=0.05)


def test_service_unknown_family():
    with pytest.raises(ValueError):
        ServiceTime(family="weibull", mean=1.0)


def test_worker_class_validation():
    with pytest.raises(ValueError):
        crowd(rate=0.0)
    with pytest.raises(ValueError):
        WorkerClass(
            name="x", accuracy=1.5, arrival_rate=1.0,
            service_time=ServiceTime(family="fixed", value=1.0),
        )
    with pytest.raises(ValueError):
        MachineAgentProfile(name="m", accuracy=0.5, service_time_per_item=0.0)
