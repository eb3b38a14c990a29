"""CloudViews core: the feedback loop, controls, and the workload simulation."""

from repro.core.controls import DeploymentMode, MultiLevelControls
from repro.core.runner import (
    FeedbackLoop,
    SimulationConfig,
    SimulationReport,
    WorkloadSimulation,
    record_job_into,
)

__all__ = [
    "DeploymentMode", "FeedbackLoop", "MultiLevelControls",
    "SimulationConfig", "SimulationReport", "WorkloadSimulation",
    "record_job_into",
]
