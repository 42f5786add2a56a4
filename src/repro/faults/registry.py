"""Named fault kinds: declarative specs for the fault injector.

Scenario descriptions need to name impairments in plain data — a JSON
file cannot hold a live :class:`~repro.faults.injector.FaultInjector`.
This registry maps fault *kind* names to factories producing
:class:`FaultConfig` objects, and :func:`injector_from_spec` turns a full
spec (kind + params + seed) into a ready injector.

A spec is either the bare kind name (all-default parameters)::

    "iid_loss"

or a dict::

    {"kind": "iid_loss", "rate": 0.01, "seed": 7,
     "scope": {"direction": "ul", "src": [33554432]}}

Unknown keys are rejected so typos fail loudly.  Custom kinds register
with :func:`register_fault`::

    @register_fault("my_burst")
    def _my_burst(p: float = 0.2) -> FaultConfig:
        return FaultConfig(burst=GilbertElliottConfig(p_enter_burst=p))
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Union

from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    FaultScope,
    GilbertElliottConfig,
)
from repro.fronthaul.cplane import Direction

#: kind name -> factory(**params) -> FaultConfig
FAULT_REGISTRY: Dict[str, Callable[..., FaultConfig]] = {}

#: Spec keys consumed by :func:`injector_from_spec` itself (everything
#: else is forwarded to the kind's factory).
_INJECTOR_KEYS = frozenset({"kind", "seed", "name", "carrier_num_prb", "scope"})


def register_fault(name: str):
    """Register a named fault kind; returns the decorator target."""

    def decorator(factory: Callable[..., FaultConfig]):
        if name in FAULT_REGISTRY:
            raise ValueError(f"fault kind {name!r} already registered")
        FAULT_REGISTRY[name] = factory
        return factory

    return decorator


def fault_kinds() -> List[str]:
    """All registered kind names, sorted."""
    return sorted(FAULT_REGISTRY)


def _scope_from_spec(spec: Optional[dict]) -> FaultScope:
    if not spec:
        return FaultScope()
    unknown = set(spec) - {"direction", "eaxc", "src"}
    if unknown:
        raise KeyError(f"unknown scope keys: {sorted(unknown)}")
    direction = spec.get("direction")
    if isinstance(direction, str):
        direction = {
            "dl": Direction.DOWNLINK,
            "ul": Direction.UPLINK,
        }[direction.lower()]
    eaxc = spec.get("eaxc")
    src = spec.get("src")
    return FaultScope(
        direction=direction,
        eaxc=tuple(eaxc) if eaxc is not None else None,
        src=tuple(src) if src is not None else None,
    )


def fault_config_from_spec(spec: Union[str, dict]) -> FaultConfig:
    """Resolve a kind name or spec dict into a :class:`FaultConfig`."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind is None:
        raise KeyError("fault spec needs a 'kind'")
    factory = FAULT_REGISTRY.get(kind)
    if factory is None:
        raise KeyError(
            f"unknown fault kind {kind!r}; registered: {fault_kinds()}"
        )
    params = {k: v for k, v in spec.items() if k not in _INJECTOR_KEYS}
    allowed = set(inspect.signature(factory).parameters)
    unknown = set(params) - allowed
    if unknown:
        raise KeyError(
            f"fault kind {kind!r} takes {sorted(allowed)}, "
            f"got unknown {sorted(unknown)}"
        )
    config = factory(**params)
    scope = _scope_from_spec(spec.get("scope"))
    if scope != FaultScope():
        config = FaultConfig(
            **{**_config_fields(config), "scope": scope}
        )
    return config


def _config_fields(config: FaultConfig) -> dict:
    return {
        "loss_rate": config.loss_rate,
        "burst": config.burst,
        "duplicate_rate": config.duplicate_rate,
        "reorder_rate": config.reorder_rate,
        "corrupt_rate": config.corrupt_rate,
        "corrupt_bits": config.corrupt_bits,
        "truncate_rate": config.truncate_rate,
        "jitter_ns": config.jitter_ns,
    }


def injector_from_spec(spec: Union[str, dict]) -> FaultInjector:
    """Build a seeded :class:`FaultInjector` from a declarative spec."""
    config = fault_config_from_spec(spec)
    if isinstance(spec, str):
        spec = {"kind": spec}
    return FaultInjector(
        config=config,
        seed=int(spec.get("seed", 0)),
        name=str(spec.get("name", spec.get("kind", "wire"))),
        carrier_num_prb=spec.get("carrier_num_prb"),
    )


# -- built-in kinds ----------------------------------------------------------


@register_fault("iid_loss")
def _iid_loss(rate: float = 0.01) -> FaultConfig:
    """Independent per-packet loss at ``rate``."""
    return FaultConfig(loss_rate=rate)


@register_fault("gilbert_elliott")
def _gilbert_elliott(
    p_enter_burst: float = 0.05,
    p_exit_burst: float = 0.25,
    loss_good: float = 0.0,
    loss_burst: float = 1.0,
) -> FaultConfig:
    """Two-state Markov bursty loss."""
    return FaultConfig(
        burst=GilbertElliottConfig(
            p_enter_burst=p_enter_burst,
            p_exit_burst=p_exit_burst,
            loss_good=loss_good,
            loss_burst=loss_burst,
        )
    )


@register_fault("duplicate")
def _duplicate(rate: float = 0.01) -> FaultConfig:
    return FaultConfig(duplicate_rate=rate)


@register_fault("reorder")
def _reorder(rate: float = 0.01) -> FaultConfig:
    return FaultConfig(reorder_rate=rate)


@register_fault("corrupt")
def _corrupt(rate: float = 0.001, bits: int = 2) -> FaultConfig:
    return FaultConfig(corrupt_rate=rate, corrupt_bits=bits)


@register_fault("truncate")
def _truncate(rate: float = 0.001) -> FaultConfig:
    return FaultConfig(truncate_rate=rate)


@register_fault("jitter")
def _jitter(ns: float = 1000.0) -> FaultConfig:
    return FaultConfig(jitter_ns=ns)


@register_fault("chaos")
def _chaos(
    loss_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    reorder_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    corrupt_bits: int = 2,
    truncate_rate: float = 0.0,
    jitter_ns: float = 0.0,
) -> FaultConfig:
    """Free-form combination of every independent impairment."""
    return FaultConfig(
        loss_rate=loss_rate,
        duplicate_rate=duplicate_rate,
        reorder_rate=reorder_rate,
        corrupt_rate=corrupt_rate,
        corrupt_bits=corrupt_bits,
        truncate_rate=truncate_rate,
        jitter_ns=jitter_ns,
    )
