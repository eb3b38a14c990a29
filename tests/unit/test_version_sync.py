"""The package version must be stated once, consistently.

``pyproject.toml`` and ``repro.__version__`` drifted apart once (1.1.0
vs 1.2.0); this pins them together.  The TOML is parsed with a regex
because the floor interpreter is Python 3.10, which predates
``tomllib``.
"""

import re
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def pyproject_version() -> str:
    match = re.search(r'^version\s*=\s*"([^"]+)"',
                      PYPROJECT.read_text(encoding="utf-8"), re.MULTILINE)
    assert match, "pyproject.toml has no version line"
    return match.group(1)


def test_package_version_matches_pyproject():
    assert repro.__version__ == pyproject_version()


def test_version_is_plain_semver():
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_version_is_2_0():
    """2.0 removed the deprecated top-level re-exports."""
    assert repro.__version__.split(".")[0] == "2"


@pytest.mark.parametrize("name", ["CloudViews", "ScopeEngine",
                                  "WorkloadSimulation", "CompiledJob",
                                  "JobRun", "FaultInjector"])
def test_removed_top_level_names_raise_attribute_error(name):
    assert name not in repro.__all__
    with pytest.raises(AttributeError):
        getattr(repro, name)
