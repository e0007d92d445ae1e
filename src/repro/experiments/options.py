"""Typed per-backend options registry for :meth:`Scenario.run`.

Before this module every backend rejected (or silently swallowed) its
options differently: ``estimate`` raised :class:`ConfigError`,
``simulate``/``fastpath`` crashed with a bare ``TypeError`` deep inside
the call, and ``fastpath-system`` hand-rolled a set difference. The
registry makes backend dispatch *introspectable* — ``backend_options``
answers "what can I pass to this backend?" — and uniform: every unknown
or invalid option raises the same :class:`ValidationError` shape, on
every backend, naming the option, the backend, and (for misdirected
options) which backends *do* accept it.

The :attr:`BackendOption.from_args` hook is how the CLI assembles
options without per-backend ``if`` chains: each option knows how to
read itself from an ``argparse`` namespace (returning :data:`ABSENT`
when its flag was not given), so ``options_from_args(backend, args)``
is one registry scan regardless of backend.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..errors import ConfigError, ReproError, ValidationError

__all__ = [
    "ABSENT",
    "BackendOption",
    "backend_options",
    "options_from_args",
    "validate_options",
]

#: Sentinel returned by ``from_args`` hooks when a flag was not given.
ABSENT = object()


@dataclasses.dataclass(frozen=True)
class BackendOption:
    """One typed option a backend accepts.

    ``validate`` returns an error message (``str``) for a bad value and
    ``None`` for a good one; ``from_args`` reads the option from an
    argparse namespace, returning :data:`ABSENT` when the corresponding
    flag was not supplied.
    """

    name: str
    description: str
    validate: Optional[Callable[[object], Optional[str]]] = None
    from_args: Optional[Callable[[object], object]] = None

    def check(self, value: object) -> Optional[str]:
        if self.validate is None:
            return None
        return self.validate(value)


# ----------------------------------------------------------------------
# Per-option validators.
# ----------------------------------------------------------------------


def _validate_timeline(value: object) -> Optional[str]:
    from ..observability.timeline import TimelineSpec

    try:
        TimelineSpec.coerce(value)
    except ReproError as exc:
        return f"bad timeline spec: {exc}"
    return None


def _validate_attribution(value: object) -> Optional[str]:
    from ..observability import AttributionSink

    if isinstance(value, (bool, AttributionSink)):
        return None
    if isinstance(value, int):
        if value < 0:
            return f"attribution capacity must be >= 0, got {value}"
        return None
    if value is None:
        return None
    return (
        "attribution must be a bool, a reservoir capacity (int) or an "
        f"AttributionSink, got {type(value).__name__}"
    )


def _validate_pool_size(value: object) -> Optional[str]:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        return f"pool_size must be a positive int, got {value!r}"
    return None


def _validate_observability(value: object) -> Optional[str]:
    from ..observability import Observability

    if value is None or isinstance(value, Observability):
        return None
    return (
        f"observability must be an Observability bundle, got "
        f"{type(value).__name__}"
    )


# ----------------------------------------------------------------------
# CLI assembly hooks (argparse namespaces, duck-typed via getattr).
# ----------------------------------------------------------------------


def _timeline_from_args(args: object) -> object:
    if getattr(args, "timeline", None) is None:
        return ABSENT
    return int(getattr(args, "timeline_windows", 60))


def _observability_from_args(args: object) -> object:
    """Engine instrumentation bundle — only when a flag asks for it."""
    trace = bool(getattr(args, "trace", False))
    profile = bool(getattr(args, "profile", False))
    report = getattr(args, "report", None) is not None
    if not (trace or profile or report):
        return ABSENT
    from ..observability import Observability

    return Observability(
        trace=trace,
        metrics=True,
        profile=profile or report,
        slowest_k=int(getattr(args, "slowest", 10)),
    )


def _pool_size_from_args(args: object) -> object:
    value = getattr(args, "pool_size", None)
    if value is None:
        return ABSENT
    return int(value)


# ----------------------------------------------------------------------
# The registry.
# ----------------------------------------------------------------------

_TIMELINE = BackendOption(
    "timeline",
    "windowed telemetry: True, a window count, or a TimelineSpec",
    validate=_validate_timeline,
    from_args=_timeline_from_args,
)

_ATTRIBUTION = BackendOption(
    "attribution",
    "per-request stage attribution: True, a reservoir capacity, or an "
    "AttributionSink",
    validate=_validate_attribution,
)

BACKEND_OPTIONS: Dict[str, Tuple[BackendOption, ...]] = {
    "estimate": (),
    "simulate": (
        BackendOption(
            "observability",
            "tracing/metrics/profiling bundle (event engine only)",
            validate=_validate_observability,
            from_args=_observability_from_args,
        ),
        _TIMELINE,
        _ATTRIBUTION,
    ),
    "fastpath": (
        BackendOption(
            "pool_size",
            "per-server latency pool size for the Lindley fast path",
            validate=_validate_pool_size,
            from_args=_pool_size_from_args,
        ),
        _TIMELINE,
    ),
    "fastpath-system": (_TIMELINE, _ATTRIBUTION),
}


def backend_options(backend: str) -> Tuple[BackendOption, ...]:
    """The typed options ``backend`` accepts (introspection entry point)."""
    try:
        return BACKEND_OPTIONS[backend]
    except KeyError:
        raise ConfigError(
            f"unknown backend {backend!r} (have {tuple(BACKEND_OPTIONS)})"
        ) from None


def _accepted_by(name: str) -> Tuple[str, ...]:
    return tuple(
        backend
        for backend, options in BACKEND_OPTIONS.items()
        if any(option.name == name for option in options)
    )


def validate_options(backend: str, options: Mapping[str, object]) -> None:
    """Reject unknown or invalid options with one uniform error shape.

    Raises :class:`ConfigError` for an unknown backend and
    :class:`ValidationError` for a bad option — the same exception types
    and message structure regardless of backend.
    """
    registry = {option.name: option for option in backend_options(backend)}
    for name, value in options.items():
        if name not in registry:
            accepted = _accepted_by(name)
            hint = (
                f" ('{name}' is accepted by {list(accepted)})"
                if accepted
                else ""
            )
            valid = sorted(registry) or ["<none>"]
            raise ValidationError(
                f"backend {backend!r} does not accept option {name!r}; "
                f"valid options: {valid}{hint}"
            )
        problem = registry[name].check(value)
        if problem is not None:
            raise ValidationError(
                f"bad value for option {name!r} on backend {backend!r}: "
                f"{problem}"
            )


def options_from_args(backend: str, args: object) -> Dict[str, object]:
    """Assemble a backend's options from CLI flags via registry hooks."""
    assembled: Dict[str, object] = {}
    for option in backend_options(backend):
        if option.from_args is None:
            continue
        value = option.from_args(args)
        if value is not ABSENT:
            assembled[option.name] = value
    return assembled
