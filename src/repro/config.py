"""``ExperimentConfig``: the JSON-config-file name of :class:`Scenario`."""

from .experiments.scenario import Scenario as ExperimentConfig  # noqa: F401
