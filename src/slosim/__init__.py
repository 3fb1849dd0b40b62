"""slosim: SLO-managed execution of hybrid human/machine microtask sets.

The engine partitions data-parallel microtasks between simulated crowd
workers and machine agents, replicates human work for majority voting,
probes completion rate at polling intervals, and applies corrective actions
to hold an (accuracy, budget, deadline) service level objective.
"""

from .agents import (
    AgentPool,
    MachineAgentProfile,
    ServiceTime,
    WorkerClass,
    answer_microtask,
    invert_majority_accuracy,
    sample_interarrival,
    scaled_arrival_rate,
)
from .controller import (
    Action,
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
from .runner import ExecutionEngine, NodeOutcome, RunResult, run, run_node
from .scenario import Scenario, ScenarioError, load_scenario, scenario_from_dict, write_scenario
from .sim import SimEvent, Simulation, seeded_rng
from .slo import SloSpec
from .tasks import (
    AssignmentRecord,
    Microtask,
    WTask,
    expire_overdue,
    issue_assignment,
    record_return,
    spawn_wtask,
)
from .trace import RunSummary, TraceWriter, iter_trace, read_trace, summarize
from .voting import (
    ConsensusResult,
    ConsensusStatus,
    VoteSet,
    majority_accuracy_analytic,
    majority_vote,
    node_consensus_rate,
)
from .workflow import (
    AgentTag,
    GraphInvalid,
    ValidationReport,
    WorkflowGraph,
    WorkflowNode,
    derive_node_slos,
    ready_nodes,
    topological_order,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AgentPool",
    "AgentTag",
    "AssignmentRecord",
    "BudgetLedger",
    "ConsensusResult",
    "ConsensusStatus",
    "ControllerConfig",
    "ExecutionEngine",
    "GraphInvalid",
    "MachineAgentProfile",
    "Microtask",
    "NodeOutcome",
    "PollObservation",
    "RiskFlag",
    "RunResult",
    "RunSummary",
    "Scenario",
    "ScenarioError",
    "ServiceTime",
    "SimEvent",
    "Simulation",
    "SloSpec",
    "TraceWriter",
    "ValidationReport",
    "VoteSet",
    "WTask",
    "WorkerClass",
    "WorkflowGraph",
    "WorkflowNode",
    "answer_microtask",
    "assess_risk",
    "derive_node_slos",
    "expire_overdue",
    "invert_majority_accuracy",
    "issue_assignment",
    "iter_trace",
    "load_scenario",
    "majority_accuracy_analytic",
    "majority_vote",
    "node_consensus_rate",
    "partition",
    "plan_corrective_actions",
    "poll_instants",
    "read_trace",
    "ready_nodes",
    "record_return",
    "run",
    "run_node",
    "sample_interarrival",
    "scaled_arrival_rate",
    "scenario_from_dict",
    "seeded_rng",
    "spawn_wtask",
    "summarize",
    "topological_order",
    "update_rho",
    "validate",
    "write_scenario",
]
