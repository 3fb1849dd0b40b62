"""Supply and behaviour of computing agents.

Crowd worker classes arrive by a Poisson process (exponential inter-arrival
times) and answer with a fixed per-assignment accuracy; wrong answers are
uniform over the remaining labels.  Machine agents process a bounded number
of items concurrently at a fixed per-item service time and cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .units import to_micros
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

    def sample(self, rng: np.random.Generator) -> float:
        if self.family == "lognormal":
            return float(rng.lognormal(mean=np.log(self.median), sigma=self.sigma))
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


@dataclass
class _WorkerInfo:
    agent_id: str
    class_name: str
    state: str  # "available" | "busy" | "departed"


@dataclass
class AgentPool:
    """Run-time supply state: idle/busy workers plus effective arrival rates."""

    workers: tuple[WorkerClass, ...]
    machines: tuple[MachineAgentProfile, ...]
    incentive_elasticity: float = 1.0
    _by_class: dict[str, WorkerClass] = field(default_factory=dict, repr=False)
    _base_rates: dict[str, float] = field(default_factory=dict, repr=False)
    _incentive_scale: float = 1.0
    _available: deque = field(default_factory=deque, repr=False)
    _registry: dict[str, _WorkerInfo] = field(default_factory=dict, repr=False)
    _counter: int = 0

    def __post_init__(self) -> None:
        names = [w.name for w in self.workers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate worker class names: {names}")
        machine_names = [m.name for m in self.machines]
        if len(set(machine_names)) != len(machine_names):
            raise ValueError(f"duplicate machine profile names: {machine_names}")
        self._by_class = {w.name: w for w in self.workers}
        self._base_rates = {w.name: w.arrival_rate for w in self.workers}

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

    def apply_incentive(self, incentive_multiplier: float) -> dict[str, float]:
        """Rescale every class's effective rate; composes with scripted bases."""
        self._incentive_scale = scaled_arrival_rate(
            1.0, incentive_multiplier, self.incentive_elasticity
        )
        return {name: self.effective_rate(name) for name in self._base_rates}

    def sample_interarrival(self, class_name: str, rng: np.random.Generator) -> float:
        return sample_interarrival(self.effective_rate(class_name), rng)

    # -- worker lifecycle ---------------------------------------------------

    def admit(self, class_name: str) -> str:
        """A new worker of the class arrives and joins the idle queue."""
        if class_name not in self._by_class:
            raise KeyError(f"unknown worker class: {class_name}")
        self._counter += 1
        agent_id = f"{class_name}-{self._counter:05d}"
        self._registry[agent_id] = _WorkerInfo(agent_id, class_name, "available")
        self._available.append(agent_id)
        return agent_id

    def idle_workers(self) -> list[str]:
        return list(self._available)

    def class_of(self, agent_id: str) -> WorkerClass:
        return self._by_class[self._registry[agent_id].class_name]

    def mark_busy(self, agent_id: str) -> None:
        info = self._registry[agent_id]
        if info.state != "available":
            raise ValueError(f"agent {agent_id} is {info.state}, not available")
        info.state = "busy"
        self._available.remove(agent_id)

    def release(self, agent_id: str, stays: bool) -> None:
        """Return a busy worker to the idle queue, or let them depart."""
        info = self._registry[agent_id]
        if info.state != "busy":
            raise ValueError(f"agent {agent_id} is {info.state}, not busy")
        if stays:
            info.state = "available"
            self._available.append(agent_id)
        else:
            info.state = "departed"
