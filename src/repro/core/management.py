"""Management interface: on-the-fly middlebox reconfiguration.

Middleboxes "expose monitoring and management interfaces to modify their
behavior on-the-fly" (Section 3.2).  The interface is a typed key/value
store with validation callbacks and change listeners, so experiments can
retarget a running middlebox (e.g. add an RU to a DAS group) without
reconstructing it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class ValidationError(Exception):
    """A management update was rejected by the middlebox's validator."""


class ManagementInterface:
    """Runtime configuration endpoint of one middlebox."""

    def __init__(self, owner: str = ""):
        self.owner = owner
        self._values: Dict[str, Any] = {}
        self._validators: Dict[str, Callable[[Any], bool]] = {}
        self._listeners: List[Callable[[str, Any], None]] = []

    def declare(
        self,
        key: str,
        default: Any,
        validator: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Register a configurable knob with an optional validator."""
        self._values[key] = default
        if validator is not None:
            self._validators[key] = validator

    def get(self, key: str) -> Any:
        if key not in self._values:
            raise KeyError(f"unknown management key {key!r}")
        return self._values[key]

    def set(self, key: str, value: Any) -> None:
        if key not in self._values:
            raise KeyError(f"unknown management key {key!r}")
        validator = self._validators.get(key)
        if validator is not None and not validator(value):
            raise ValidationError(f"value {value!r} rejected for key {key!r}")
        self._values[key] = value
        for listener in self._listeners:
            listener(key, value)

    def on_change(self, listener: Callable[[str, Any], None]) -> None:
        self._listeners.append(listener)

    def keys(self) -> List[str]:
        return sorted(self._values)
