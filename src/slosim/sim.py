"""Deterministic discrete-event simulation kernel.

Events are totally ordered by (fire_at, sequence); sequence is a per-run
insertion counter, so simultaneous events fire FIFO.  The clock is integer
ticks and never moves backwards.  Randomness is split into labelled streams
so that changing one model's draws does not perturb any other's.

An event carries its own handler: `schedule(fire_at, handler, *args)`, and
whoever steps the queue calls `event.handler(owner, *event.args)`.  The
handler is a plain function, never a bound method, and the args are plain
values (ids, names, indices), never the owner or an object that leads back
to it.  The owner holds the simulation and the simulation holds the queued
events, so an event that referred to the owner would close a reference
cycle, and every finished run would stay in memory until the cyclic garbage
collector happened to run.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class EmptyQueue(Exception):
    """step() called with no events left."""


class HorizonExceeded(Exception):
    """The next event lies past the simulation horizon; the run is over."""


@dataclass(slots=True)
class SimEvent:
    fire_at: int
    sequence: int
    handler: Callable[..., None]
    args: tuple[Any, ...]
    cancelled: bool = False


def seeded_rng(seed: int, stream_label: str) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, stream_label).

    The label is hashed into extra entropy words so streams with different
    labels are statistically independent, while identical (seed, label)
    pairs replay the exact same sequence on any platform.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative: {seed}")
    digest = hashlib.sha256(stream_label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    sequence = np.random.SeedSequence([seed, *words])
    return np.random.Generator(np.random.PCG64(sequence))


class Simulation:
    """Event queue plus clock plus labelled random streams for one run.

    `now` is the time of the last event stepped to; `horizon` is the last
    tick an event may fire at."""

    def __init__(self, seed: int, horizon: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative: {seed}")
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative: {horizon}")
        self.seed = seed
        self.now = 0
        self.horizon = horizon
        self._queue: list[tuple[int, int, SimEvent]] = []
        self._sequence = 0
        self._streams: dict[str, np.random.Generator] = {}
        self.fired_count = 0
        self.cancelled_count = 0

    # -- randomness ---------------------------------------------------------

    def rng(self, stream_label: str) -> np.random.Generator:
        stream = self._streams.get(stream_label)
        if stream is None:
            stream = seeded_rng(self.seed, stream_label)
            self._streams[stream_label] = stream
        return stream

    # -- event queue --------------------------------------------------------

    def schedule(self, fire_at: int, handler: Callable[..., None], *args: Any) -> SimEvent:
        """Queue `handler` to be called with `args` at `fire_at`."""
        if fire_at < self.now:
            raise ValueError(f"cannot schedule in the past: {fire_at} < now {self.now}")
        event = SimEvent(fire_at, self._sequence, handler, args)
        self._sequence += 1
        heapq.heappush(self._queue, (fire_at, event.sequence, event))
        return event

    def cancel(self, event: SimEvent) -> None:
        """Mark an event so it will be skipped; it still sits in the heap."""
        if not event.cancelled:
            event.cancelled = True
            self.cancelled_count += 1

    def peek_time(self) -> int | None:
        """fire_at of the next live event, or None if the queue is drained."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> SimEvent:
        """Advance to and return the next event.

        Raises EmptyQueue when nothing is scheduled and HorizonExceeded when
        the next event would fire past the horizon (the run is over; unfired
        events are accounted for in end_report()).
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            event = entry[2]
            if event.cancelled:
                continue
            if event.fire_at > self.horizon:
                heapq.heappush(queue, entry)  # it stays queued and unfired
                raise HorizonExceeded()
            self.now = event.fire_at
            self.fired_count += 1
            return event
        raise EmptyQueue()

    def end_report(self) -> dict[str, int]:
        """Event conservation counters at termination; every scheduled event
        took one sequence number."""
        unfired = self._sequence - self.fired_count - self.cancelled_count
        return {
            "scheduled": self._sequence,
            "fired": self.fired_count,
            "cancelled": self.cancelled_count,
            "unfired": unfired,
        }
