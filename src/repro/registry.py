"""Uniform component registries: named factories with typed param schemas.

Scenario construction is assembled from pluggable components, one per
**slot**: ``mac``, ``mobility``, ``placement``, ``traffic``, ``routing``,
``propagation``, ``energy``, ``observability``, ``faults`` and
``reception``.  Each slot owns a :class:`Registry`; each registered
component is a :class:`ComponentEntry` — a named factory plus a declared
:class:`Param` schema, so a scenario can be described entirely as data
(component name + params per slot, see :class:`~repro.scenariospec.ScenarioSpec`)
and validated *before* anything is built.

Registering a new component requires **zero builder changes**::

    from repro.registry import Param, registry

    @registry("placement").register(
        "ring",
        params=(Param("radius_m", float, 300.0),),
        doc="nodes equally spaced on a circle",
    )
    def _ring(ctx, radius_m):
        ...
        return positions

The per-slot factory contracts (what ``ctx`` provides and what the factory
must return) are documented in :mod:`repro.builder`; the built-in components
live in :mod:`repro.components` and are imported lazily on first registry
access, so importing this module alone stays cheap and cycle-free.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

#: Sentinel for parameters without a default (the caller must supply them).
REQUIRED = object()

#: Slot names, in the order scenario construction consumes them.
SLOTS: tuple[str, ...] = (
    "mac",
    "placement",
    "mobility",
    "routing",
    "traffic",
    "propagation",
    "energy",
    "observability",
    "faults",
    "reception",
)


class RegistryError(ValueError):
    """Base class for registry lookup/validation failures."""


class UnknownComponentError(RegistryError, KeyError):
    """A component name that is not registered in the slot's registry."""

    def __init__(self, slot: str, name: str, available: tuple[str, ...]) -> None:
        self.slot = slot
        self.name = name
        self.available = available
        super().__init__(
            f"unknown {slot} component {name!r}; "
            f"available: {', '.join(available) or '(none)'}"
        )


class ParamError(RegistryError):
    """A component param that is unknown, missing or of the wrong type."""

    def __init__(self, slot: str, component: str, key: str, message: str) -> None:
        self.slot = slot
        self.component = component
        self.key = key
        super().__init__(f"{slot}:{component} param {key!r}: {message}")


@dataclass(frozen=True)
class Param:
    """One declared component parameter.

    ``type`` is checked with ``isinstance`` (an ``int`` is accepted where a
    ``float`` is declared, mirroring Python numerics); ``default`` of
    :data:`REQUIRED` makes the parameter mandatory.
    """

    name: str
    type: type | tuple[type, ...] = float
    default: Any = REQUIRED

    @property
    def required(self) -> bool:
        """Whether the caller must supply this parameter."""
        return self.default is REQUIRED

    def describe(self) -> str:
        """Human-readable ``name:type[=default]`` rendering."""
        tname = (
            "|".join(t.__name__ for t in self.type)
            if isinstance(self.type, tuple)
            else self.type.__name__
        )
        if self.required:
            return f"{self.name}:{tname} (required)"
        return f"{self.name}:{tname}={self.default!r}"

    def check(self, value: Any) -> Any:
        """Validate ``value`` against the declared type; returns it unchanged."""
        expected = self.type if isinstance(self.type, tuple) else (self.type,)
        # Accept ints where floats are declared, but never bools-as-ints.
        if float in expected and isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, bool) and bool not in expected:
            raise TypeError
        if not isinstance(value, expected):
            raise TypeError
        return value


@dataclass(frozen=True)
class ComponentEntry:
    """A registered component: named factory + param schema + metadata."""

    slot: str
    name: str
    factory: Callable[..., Any]
    params: tuple[Param, ...] = ()
    doc: str = ""
    #: Structural flags the builder consults (e.g. ``control_channel`` on the
    #: pcmac MAC, ``immobile`` on static mobility).
    meta: Mapping[str, Any] = field(default_factory=dict)

    def validate(self, overrides: Mapping[str, Any] | None) -> dict[str, Any]:
        """Merge ``overrides`` over declared defaults, checking names/types.

        Raises :class:`ParamError` naming the offending key on any unknown
        parameter, missing required parameter, or type mismatch.
        """
        declared = {p.name: p for p in self.params}
        overrides = dict(overrides or {})
        for key in overrides:
            if key not in declared:
                raise ParamError(
                    self.slot,
                    self.name,
                    key,
                    f"unknown parameter; declared: "
                    f"{', '.join(sorted(declared)) or '(none)'}",
                )
        out: dict[str, Any] = {}
        for param in self.params:
            if param.name in overrides:
                try:
                    out[param.name] = param.check(overrides[param.name])
                except TypeError:
                    expected = (
                        "|".join(t.__name__ for t in param.type)
                        if isinstance(param.type, tuple)
                        else param.type.__name__
                    )
                    raise ParamError(
                        self.slot,
                        self.name,
                        param.name,
                        f"expected {expected}, got {overrides[param.name]!r}",
                    ) from None
            elif param.required:
                raise ParamError(
                    self.slot, self.name, param.name, "required parameter missing"
                )
            else:
                out[param.name] = param.default
        return out

    def signature(self) -> str:
        """Param schema rendering for ``repro list`` (empty string if none)."""
        return ", ".join(p.describe() for p in self.params)


class Registry:
    """Named components for one scenario slot."""

    def __init__(self, slot: str) -> None:
        self.slot = slot
        self._entries: dict[str, ComponentEntry] = {}

    def register(
        self,
        name: str,
        *,
        params: tuple[Param, ...] = (),
        doc: str = "",
        meta: Mapping[str, Any] | None = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``factory`` under ``name``.

        Duplicate names are rejected — a silently replaced component would
        change content-hashed scenario semantics out from under stored
        results.
        """

        def _decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._entries:
                raise RegistryError(
                    f"{self.slot} component {name!r} is already registered"
                )
            resolved_doc = doc
            if not resolved_doc and factory.__doc__:
                resolved_doc = factory.__doc__.strip().splitlines()[0]
            self._entries[name] = ComponentEntry(
                slot=self.slot,
                name=name,
                factory=factory,
                params=tuple(params),
                doc=resolved_doc,
                meta=dict(meta or {}),
            )
            return factory

        return _decorate

    def get(self, name: str) -> ComponentEntry:
        """Look up a component; unknown names list what *is* available."""
        _ensure_builtins()
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownComponentError(self.slot, name, self.names())
        return entry

    def names(self) -> tuple[str, ...]:
        """Registered component names, sorted."""
        _ensure_builtins()
        return tuple(sorted(self._entries))

    def entries(self) -> Iterator[ComponentEntry]:
        """Registered entries in name order."""
        _ensure_builtins()
        for name in sorted(self._entries):
            yield self._entries[name]

    def __contains__(self, name: str) -> bool:
        _ensure_builtins()
        return name in self._entries


#: The scenario-slot registries, keyed by slot name.
_REGISTRIES: dict[str, Registry] = {slot: Registry(slot) for slot in SLOTS}

_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import :mod:`repro.components` once, populating the registries.

    A failed import rolls the registries back to their pre-import state
    (preserving components users registered before the failure) and resets
    the flag, so the *real* ``ImportError`` resurfaces on every retry
    instead of later lookups degenerating into misleading "unknown
    component" errors.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    snapshots = {slot: dict(reg._entries) for slot, reg in _REGISTRIES.items()}
    try:
        importlib.import_module("repro.components")
    except BaseException:
        _builtins_loaded = False
        for slot, reg in _REGISTRIES.items():
            reg._entries.clear()
            reg._entries.update(snapshots[slot])
        raise


def registry(slot: str) -> Registry:
    """The :class:`Registry` for ``slot`` (one of :data:`SLOTS`)."""
    try:
        return _REGISTRIES[slot]
    except KeyError:
        raise RegistryError(
            f"unknown slot {slot!r}; slots: {', '.join(SLOTS)}"
        ) from None


def all_registries() -> dict[str, Registry]:
    """Every slot registry, in :data:`SLOTS` order (builtins loaded)."""
    _ensure_builtins()
    return dict(_REGISTRIES)
