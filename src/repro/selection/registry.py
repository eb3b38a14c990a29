"""Selector registry: one place mapping algorithm names to entry points.

:class:`~repro.core.runner.FeedbackLoop` takes a ``selection_algorithm``
string; this module owns the mapping so every caller agrees on the
vocabulary and on the error raised for an unknown name.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError
from repro.obs.recorder import NULL_RECORDER
from repro.selection.bigsubs import bigsubs_select
from repro.selection.candidates import ReuseCandidate
from repro.selection.greedy import greedy_select, per_vc_select
from repro.selection.policies import SelectionPolicy, SelectionResult
from repro.workload.repository import WorkloadRepository

_SELECTORS = {
    "greedy": lambda repo, candidates, policy, recorder:
        greedy_select(candidates, policy, recorder=recorder),
    "per_vc": lambda repo, candidates, policy, recorder:
        per_vc_select(candidates, policy, recorder=recorder),
    "bigsubs": lambda repo, candidates, policy, recorder:
        bigsubs_select(repo, candidates, policy, recorder=recorder),
}

SELECTION_ALGORITHMS = tuple(sorted(_SELECTORS))


def validate_selection_algorithm(name: str) -> str:
    """Return ``name`` or raise :class:`ConfigError` for unknown names."""
    if name not in _SELECTORS:
        raise ConfigError(f"unknown selection algorithm {name!r}")
    return name


def run_selection(name: str, repository: WorkloadRepository,
                  candidates: List[ReuseCandidate],
                  policy: SelectionPolicy,
                  recorder=NULL_RECORDER) -> SelectionResult:
    """Run one view-selection pass with the named algorithm."""
    validate_selection_algorithm(name)
    return _SELECTORS[name](repository, candidates, policy, recorder)
