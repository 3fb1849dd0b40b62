import numpy as np
import pytest

from slosim.sim import EmptyQueue, EventKind, HorizonExceeded, Simulation, seeded_rng


def sim(horizon=1_000):
    return Simulation(seed=42, horizon=horizon)


def test_step_advances_to_next_event():
    s = sim()
    s.schedule(EventKind.POLL_TICK, 4)
    s.schedule(EventKind.POLL_TICK, 1)
    event = s.step()
    assert event.fire_at == 1
    assert s.now == 1


def test_simultaneous_events_fire_fifo():
    s = sim()
    first = s.schedule(EventKind.POLL_TICK, 5, tag="first")
    second = s.schedule(EventKind.POLL_TICK, 5, tag="second")
    assert s.step() is first
    assert s.step() is second


def test_scheduling_in_the_past_rejected():
    s = sim()
    s.schedule(EventKind.POLL_TICK, 3)
    s.step()
    with pytest.raises(ValueError):
        s.schedule(EventKind.POLL_TICK, 2)


def test_empty_queue_raises():
    with pytest.raises(EmptyQueue):
        sim().step()


def test_event_past_horizon_ends_run():
    s = sim(horizon=10)
    s.schedule(EventKind.POLL_TICK, 11)
    with pytest.raises(HorizonExceeded):
        s.step()
    assert s.end_report()["unfired"] == 1


def test_event_scheduled_at_now_fires_before_later_events():
    s = sim()
    s.schedule(EventKind.POLL_TICK, 5, tag="outer")
    s.schedule(EventKind.POLL_TICK, 9, tag="later")
    s.step()
    inner = s.schedule(EventKind.POLL_TICK, s.now, tag="inner")
    assert s.step() is inner


def test_cancelled_events_are_skipped_and_counted():
    s = sim()
    doomed = s.schedule(EventKind.POLL_TICK, 2)
    keeper = s.schedule(EventKind.POLL_TICK, 3)
    s.cancel(doomed)
    assert s.step() is keeper
    report = s.end_report()
    assert report == {"scheduled": 2, "fired": 1, "cancelled": 1, "unfired": 0}


def test_clock_monotone_over_trace():
    s = sim()
    rng = np.random.default_rng(0)
    for t in rng.integers(0, 1000, size=50):
        s.schedule(EventKind.POLL_TICK, int(t))
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
