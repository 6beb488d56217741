"""Change notification for model elements.

Transformations, trace recorders and animators need to observe model
mutations.  Every successful high-level mutation of a feature emits a
:class:`Notification` to the process-wide hook, to observers registered on
the touched element, and to model-wide observers when the element belongs
to a model.  When none of those exists the kernel skips building the
notification altogether (see ``repro.mof.kernel._emit``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, List, Optional


class ChangeKind(enum.Enum):
    """What a mutation did to a feature slot."""

    SET = "set"          # single-valued feature assigned
    UNSET = "unset"      # single-valued feature cleared
    ADD = "add"          # value appended to a many-valued feature
    REMOVE = "remove"    # value removed from a many-valued feature
    MOVE = "move"        # value repositioned within an ordered feature


@dataclass(frozen=True)
class Notification:
    """A single observed model change."""

    element: Any                  # the element whose feature changed
    feature: Any                  # the Feature object
    kind: ChangeKind
    old: Any = None
    new: Any = None
    position: Optional[int] = None

    def __str__(self) -> str:
        return (
            f"{self.kind.value} {type(self.element).__name__}."
            f"{self.feature.name}: {self.old!r} -> {self.new!r}"
        )


Observer = Callable[[Notification], None]

_NOTIFY_HOOK: Optional[Observer] = None


def set_notify_hook(hook: Optional[Observer]) -> Optional[Observer]:
    """Install *hook* as the process-wide notification observer; return
    the old one.

    Unlike per-element observers, the hook sees every notification from
    every element, before local observers run.  It is the tap
    :mod:`repro.obs` uses for change-kind counters; with no hook
    installed (``None``) dispatch pays one global load and a falsy test.
    """
    global _NOTIFY_HOOK
    previous = _NOTIFY_HOOK
    _NOTIFY_HOOK = hook
    return previous


class ObserverMixin:
    """Gives an element an observer list.

    Observers are stored lazily: most elements are never observed and should
    not pay for an empty list.  The kernel's ``_emit`` dispatches to them.
    """

    _observers: Optional[List[Observer]]

    def observe(self, observer: Observer) -> None:
        """Register *observer* to be called after each change to ``self``."""
        observers = getattr(self, "_observers", None)
        if observers is None:
            observers = []
            object.__setattr__(self, "_observers", observers)
        observers.append(observer)

    def unobserve(self, observer: Observer) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        observers = getattr(self, "_observers", None)
        if observers and observer in observers:
            observers.remove(observer)


class ChangeRecorder:
    """Collects notifications; convenient for tests and undo-style tooling."""

    def __init__(self) -> None:
        self.notifications: List[Notification] = []

    def __call__(self, notification: Notification) -> None:
        self.notifications.append(notification)

    def clear(self) -> None:
        # Rebind rather than clear in place: callers iterating an earlier
        # snapshot of ``self.notifications`` (e.g. replaying a change log
        # while new changes arrive) keep a consistent list.
        self.notifications = []

    def __len__(self) -> int:
        return len(self.notifications)
