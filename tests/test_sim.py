import numpy as np
import pytest

from slosim.sim import EmptyQueue, HorizonExceeded, Simulation, seeded_rng


def sim(horizon=1_000):
    return Simulation(seed=42, horizon=horizon)


def handler(owner, *args):
    owner.append(args)


def test_step_advances_to_next_event():
    s = sim()
    s.schedule(4, handler)
    s.schedule(1, handler)
    event = s.step()
    assert event.fire_at == 1
    assert s.now == 1


def test_event_carries_its_handler_and_args():
    s = sim()
    scheduled = s.schedule(3, handler, "node", 7)
    event = s.step()
    assert event is scheduled
    assert (event.fire_at, event.sequence, event.args) == (3, 0, ("node", 7))
    seen = []
    event.handler(seen, *event.args)
    assert seen == [("node", 7)]


def test_clock_starts_at_zero_with_the_given_horizon():
    s = sim(horizon=10)
    assert (s.now, s.horizon) == (0, 10)


def test_simultaneous_events_fire_fifo():
    s = sim()
    first = s.schedule(5, handler, "first")
    second = s.schedule(5, handler, "second")
    assert s.step() is first
    assert s.step() is second


def test_scheduling_in_the_past_rejected():
    s = sim()
    s.schedule(3, handler)
    s.step()
    with pytest.raises(ValueError):
        s.schedule(2, handler)


def test_empty_queue_raises():
    with pytest.raises(EmptyQueue):
        sim().step()


def test_event_past_horizon_ends_run():
    s = sim(horizon=10)
    s.schedule(11, handler)
    with pytest.raises(HorizonExceeded):
        s.step()
    assert s.end_report()["unfired"] == 1


def test_event_scheduled_at_now_fires_before_later_events():
    s = sim()
    s.schedule(5, handler, "outer")
    s.schedule(9, handler, "later")
    s.step()
    inner = s.schedule(s.now, handler, "inner")
    assert s.step() is inner


def test_cancelled_events_are_skipped_and_counted():
    s = sim()
    doomed = s.schedule(2, handler)
    keeper = s.schedule(3, handler)
    s.cancel(doomed)
    assert s.step() is keeper
    report = s.end_report()
    assert report == {"scheduled": 2, "fired": 1, "cancelled": 1, "unfired": 0}


def test_clock_monotone_over_trace():
    s = sim()
    rng = np.random.default_rng(0)
    for t in rng.integers(0, 1000, size=50):
        s.schedule(int(t), handler)
    last = -1
    for _ in range(50):
        event = s.step()
        assert event.fire_at >= last
        last = event.fire_at


# -- labelled random streams -------------------------------------------------------


def test_same_seed_and_label_identical():
    a = seeded_rng(42, "arrivals")
    b = seeded_rng(42, "arrivals")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_labels_are_independent_streams():
    a = seeded_rng(42, "arrivals")
    b = seeded_rng(42, "answers")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = seeded_rng(42, "arrivals")
    b = seeded_rng(43, "arrivals")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_simulation_caches_streams():
    s = sim()
    assert s.rng("arrivals") is s.rng("arrivals")
    assert s.rng("arrivals") is not s.rng("answers")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        seeded_rng(-1, "x")


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_batched_bounded_draw_matches_scalar_draws(k, n):
    # the engine draws a node's n truths in one call; the values and the
    # stream state afterwards must be those of n scalar draws
    for seed in (0, 1, 20260):
        batched = seeded_rng(seed, "truth/node")
        scalar = seeded_rng(seed, "truth/node")
        assert batched.integers(k, size=n).tolist() == [int(scalar.integers(k)) for _ in range(n)]
        assert batched.random() == scalar.random()
