"""Supply and behaviour of computing agents.

Crowd worker classes arrive by a Poisson process (exponential inter-arrival
times) and answer with a fixed per-assignment accuracy; wrong answers are
uniform over the remaining labels.  Machine agents process a bounded number
of items concurrently at a fixed per-item service time and cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .units import check_finite, to_micros
from .voting import majority_accuracy_analytic


@dataclass(frozen=True)
class ServiceTime:
    """Distribution descriptor for one assignment's work duration.

    Families: lognormal (median, sigma), exponential (mean), fixed (value).
    Samples are strictly positive.
    """

    family: str
    median: float | None = None
    sigma: float | None = None
    mean: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        check_finite(self)
        if self.family == "lognormal":
            if self.median is None or self.sigma is None:
                raise ValueError("lognormal service time needs median and sigma")
            if self.median <= 0 or self.sigma <= 0:
                raise ValueError("lognormal median and sigma must be > 0")
        elif self.family == "exponential":
            if self.mean is None or self.mean <= 0:
                raise ValueError("exponential service time needs mean > 0")
        elif self.family == "fixed":
            if self.value is None or self.value <= 0:
                raise ValueError("fixed service time needs value > 0")
        else:
            raise ValueError(f"unknown service time family: {self.family!r}")

    @cached_property
    def _log_median(self) -> float:
        # a cached_property is not a field: equality, asdict and the digest
        # never see it, and it is computed on the first draw, not at load
        return np.log(self.median)

    def sample(self, rng: np.random.Generator) -> float:
        if self.family == "lognormal":
            return float(rng.lognormal(self._log_median, self.sigma))
        if self.family == "exponential":
            return float(rng.exponential(self.mean))
        return float(self.value)


@dataclass(frozen=True)
class WorkerClass:
    """Behavioural profile of one crowd-worker population."""

    name: str
    accuracy: float
    arrival_rate: float
    service_time: ServiceTime
    min_reward: float = 0.0
    retention: float = 0.5

    def __post_init__(self) -> None:
        check_finite(self)
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1]: {self.accuracy}")
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival rate must be > 0: {self.arrival_rate}")
        if self.min_reward < 0:
            raise ValueError(f"min_reward must be >= 0: {self.min_reward}")
        if not 0.0 <= self.retention <= 1.0:
            raise ValueError(f"retention must be in [0, 1]: {self.retention}")

    @property
    def min_reward_micros(self) -> int:
        return to_micros(self.min_reward)


@dataclass(frozen=True)
class MachineAgentProfile:
    """A machine analytics agent with bounded concurrency."""

    name: str
    accuracy: float
    service_time_per_item: float
    cost_per_item: float = 0.0
    capacity: int = 1

    def __post_init__(self) -> None:
        check_finite(self)
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1]: {self.accuracy}")
        if self.service_time_per_item <= 0:
            raise ValueError(f"service time must be > 0: {self.service_time_per_item}")
        if self.cost_per_item < 0:
            raise ValueError(f"cost must be >= 0: {self.cost_per_item}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1: {self.capacity}")

    @property
    def cost_micros(self) -> int:
        return to_micros(self.cost_per_item)


def sample_interarrival(rate: float, rng: np.random.Generator) -> float:
    """One exponential inter-arrival duration with mean 1/rate, time units."""
    if rate <= 0:
        raise ValueError(f"arrival rate must be > 0: {rate}")
    return float(rng.exponential(1.0 / rate))


def answer_microtask(
    accuracy: float,
    answer_domain: tuple[str, ...],
    truth: str,
    rng: np.random.Generator,
) -> str:
    """Draw one answer: the truth with probability `accuracy`, otherwise a
    uniformly chosen wrong label."""
    if truth not in answer_domain:
        raise ValueError(f"truth {truth!r} outside answer domain {list(answer_domain)}")
    if len(answer_domain) < 2:
        raise ValueError("answer domain must have at least two labels")
    if rng.random() < accuracy:
        return truth
    wrong = [label for label in answer_domain if label != truth]
    if len(wrong) == 1:
        return wrong[0]  # integers(1) would draw nothing from the stream
    return wrong[int(rng.integers(len(wrong)))]


def invert_majority_accuracy(
    target_majority_accuracy: float,
    w: int,
    num_labels: int,
    tolerance: float = 1e-9,
) -> float:
    """Per-worker accuracy p whose w-replicated majority accuracy hits the
    target, found by bisection on the closed-form binomial tail
    `majority_accuracy_analytic`, which rises monotonically in p.

    Used to calibrate a worker class from an observed aggregate accuracy.
    """
    if w < 1 or w % 2 == 0:
        raise ValueError(f"replication must be an odd positive integer: {w}")
    if num_labels < 2:
        raise ValueError(f"need at least two labels: {num_labels}")
    if not 1.0 / num_labels < target_majority_accuracy < 1.0:
        raise ValueError(
            f"target must be in (1/{num_labels}, 1): {target_majority_accuracy}"
        )

    lo, hi = 0.0, 1.0
    if not (
        majority_accuracy_analytic(lo, w, num_labels)
        <= target_majority_accuracy
        <= majority_accuracy_analytic(hi, w, num_labels)
    ):
        raise ValueError(f"target {target_majority_accuracy} unattainable for w={w}")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if majority_accuracy_analytic(mid, w, num_labels) < target_majority_accuracy:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def scaled_arrival_rate(base_rate: float, incentive_multiplier: float, elasticity: float) -> float:
    """Arrival rate after an incentive raise: base * (1 + e * (m - 1))."""
    if incentive_multiplier < 1.0:
        raise ValueError(f"incentive multiplier must be >= 1: {incentive_multiplier}")
    return base_rate * (1.0 + elasticity * (incentive_multiplier - 1.0))


class AgentPool:
    """Run-time supply state: idle/busy workers plus effective arrival rates.

    Each admitted worker is in the idle queue (first in, first out), in the
    busy set, or in neither once departed.
    """

    def __init__(
        self,
        workers: tuple[WorkerClass, ...],
        machines: tuple[MachineAgentProfile, ...],
        incentive_elasticity: float = 1.0,
    ):
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate worker class names: {names}")
        machine_names = [m.name for m in machines]
        if len(set(machine_names)) != len(machine_names):
            raise ValueError(f"duplicate machine profile names: {machine_names}")
        self.incentive_elasticity = incentive_elasticity
        self._by_class = {w.name: w for w in workers}
        self._base_rates = {w.name: w.arrival_rate for w in workers}
        self._incentive_scale = 1.0
        self._class_of: dict[str, WorkerClass] = {}  # every admitted worker
        self._idle: dict[str, None] = {}  # insertion order is the queue order
        self._busy: set[str] = set()

    # -- arrival rates ------------------------------------------------------

    def effective_rate(self, class_name: str) -> float:
        """Current base rate (possibly script-perturbed) under the incentive scale."""
        return self._base_rates[class_name] * self._incentive_scale

    def set_base_rate(self, class_name: str, rate: float) -> None:
        """Scripted perturbation: replace a class's base arrival rate."""
        if class_name not in self._base_rates:
            raise KeyError(f"unknown worker class: {class_name}")
        if rate < 0:
            raise ValueError(f"arrival rate must be >= 0: {rate}")
        self._base_rates[class_name] = rate

    def apply_incentive(self, incentive_multiplier: float) -> None:
        """Rescale every class's effective rate; composes with scripted bases."""
        self._incentive_scale = scaled_arrival_rate(
            1.0, incentive_multiplier, self.incentive_elasticity
        )

    def sample_interarrival(self, class_name: str, rng: np.random.Generator) -> float:
        return sample_interarrival(self.effective_rate(class_name), rng)

    # -- worker lifecycle ---------------------------------------------------

    def admit(self, class_name: str) -> str:
        """A new worker of the class arrives and joins the idle queue."""
        worker_class = self._by_class.get(class_name)
        if worker_class is None:
            raise KeyError(f"unknown worker class: {class_name}")
        agent_id = f"{class_name}-{len(self._class_of) + 1:05d}"
        self._class_of[agent_id] = worker_class
        self._idle[agent_id] = None
        return agent_id

    def idle_workers(self) -> list[str]:
        return list(self._idle)

    def has_idle_workers(self) -> bool:
        return bool(self._idle)

    def class_of(self, agent_id: str) -> WorkerClass:
        return self._class_of[agent_id]

    def _state(self, agent_id: str) -> str:
        """The agent's state, as an error names it."""
        if agent_id not in self._class_of:
            raise KeyError(f"unknown agent: {agent_id}")
        if agent_id in self._idle:
            return "available"
        return "busy" if agent_id in self._busy else "departed"

    def mark_busy(self, agent_id: str) -> None:
        if agent_id not in self._idle:
            raise ValueError(f"agent {agent_id} is {self._state(agent_id)}, not available")
        del self._idle[agent_id]
        self._busy.add(agent_id)

    def release(self, agent_id: str, stays: bool) -> None:
        """Return a busy worker to the idle queue, or let them depart."""
        if agent_id not in self._busy:
            raise ValueError(f"agent {agent_id} is {self._state(agent_id)}, not busy")
        self._busy.remove(agent_id)
        if stays:
            self._idle[agent_id] = None
