"""CloudViews reproduction: automatic computation reuse for a SCOPE-like
big-data engine.

Reproduces *Production Experiences from Computation Reuse at Microsoft*
(EDBT 2021).  The primary entry points:

* :class:`repro.api.Session` -- the unified facade: engine + insights
  client + concurrent scheduler + the feedback loop, every job returning
  a :class:`repro.api.JobResult`;
* :class:`repro.core.WorkloadSimulation` /
  :class:`repro.scheduler.ConcurrentSimulation` -- the cluster-level and
  wave-parallel co-simulations behind the paper's Table 1, Figures 6-7;
  both run the one :class:`repro.core.FeedbackLoop`;
* :mod:`repro.workload` -- the data-cooking workload generator and the
  denormalized subexpression repository;
* :mod:`repro.extensions` -- the Section-5 prototypes (generalized reuse,
  concurrent joins, checkpointing, sampling, bit-vector filters,
  SparkCruise-style integration).

The layered classes (:class:`~repro.engine.engine.ScopeEngine`,
:class:`~repro.engine.engine.JobRun`, ...) are imported from their own
modules; the package top level exports only the facade and its types.
"""

from repro.api import (
    FaultPlan,
    FaultRuntime,
    InsightsClientConfig,
    JobRequest,
    JobResult,
    SchedulerConfig,
    Session,
)
from repro.catalog import Catalog, TableSchema, schema_of
from repro.core import (
    DeploymentMode,
    MultiLevelControls,
    SimulationConfig,
    SimulationReport,
)
from repro.engine import EngineConfig
from repro.selection import SelectionPolicy, SelectionResult
from repro.workload import CookingWorkload, WorkloadRepository, generate_workload

__version__ = "2.0.0"

__all__ = [
    "Session", "JobResult", "JobRequest", "EngineConfig", "SchedulerConfig",
    "InsightsClientConfig", "FaultPlan", "FaultRuntime",
    "Catalog", "TableSchema", "schema_of", "DeploymentMode",
    "MultiLevelControls", "SimulationConfig", "SimulationReport",
    "SelectionPolicy", "SelectionResult", "CookingWorkload",
    "WorkloadRepository", "generate_workload", "__version__",
]
