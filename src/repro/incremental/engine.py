"""The incremental change-driven revalidation engine.

The paper's workflow is a cycle: edit the model, re-check the model.
Batch checking pays for the whole model on every edit; this engine pays
only for what the edit touched.  It decomposes validation into *check
units* — one structural check per element, one (invariant, element)
pair, one (well-formedness rule, root) pair, one (lint rule, target)
pair — runs each unit under the kernel's read instrumentation
(:mod:`repro.incremental.tracking`), and memoises both the unit's
diagnostics and its exact read set.  A change notification then
invalidates precisely the units whose last run read the changed slot;
everything else is served from cache.

Containment edits additionally mark the membership index dirty: the next
:meth:`IncrementalEngine.revalidate` re-walks the containment tree (a
cheap traversal compared to checking), creates units for elements that
entered the scope and drops units for elements that left.

The unit decomposition mirrors the batch checkers exactly —
``validate_tree`` (structure + registered invariants), the
``uml.wellformed`` rule set, ``analysis.ModelLinter`` (which takes
metaclass targets per root, so a metaclass-target lint unit is a
(rule, metaclass, root) triple) and ``ConstraintSet.evaluate`` — so
that an engine's merged report is diagnostic-for-diagnostic equal to a
from-scratch run; the property
suite in ``tests/test_incremental_properties.py`` holds that equality
over thousands of random edits.

The engine takes its *families* in ``Session``'s vocabulary, and each
family's units depend only on the model, the registry and the lint
config — never on which other families are selected.  So one engine
over every family answers any selection by slicing
:meth:`IncrementalEngine.check_result`'s ``by_family``; the model
server keeps exactly one engine per repository that way.

Merged results cost O(edit), not O(units).  The engine keeps diagnostics
only for units whose last result was non-empty, per family, and caches
the merged :class:`~repro.session.CheckResult`.  A re-run whose result
is unchanged (in particular a unit that stays clean) leaves the cache
alone; a changed result, a quarantine or a membership change marks just
its family for re-merging.  The merged order is the batch order of
``Session.check``, so the engine's document is byte-identical to
``canonical_check_document`` of a batch check (``tests/test_session.py``
holds that over fuzzed edits).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from .. import faults as _faults
from ..analysis.registry import (DEFAULT_REGISTRY, TARGETS, LintConfig,
                                 LintRule, RuleRegistry)
from ..analysis.runner import LintContext
from ..mof.kernel import Element, MetaClass, Reference
from ..mof.notify import Notification
from ..mof.repository import Model
from ..mof.validate import (
    Diagnostic,
    Severity,
    ValidationReport,
    validate_element,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .tracking import CONTAINER_KEY, DependencyGraph, ReadKey, collect_reads


# ---------------------------------------------------------------------------
# Check units
# ---------------------------------------------------------------------------

class _Unit:
    """One independently re-runnable check with memoised diagnostics."""

    __slots__ = ()
    kind = "?"

    def run(self) -> List[Diagnostic]:
        raise NotImplementedError


class StructuralUnit(_Unit):
    """``validate_element`` (multiplicities, opposites, containment) for
    one element; invariants are carried by :class:`InvariantUnit`."""

    __slots__ = ("element",)
    kind = "structural"

    def __init__(self, element: Element):
        self.element = element

    def run(self) -> List[Diagnostic]:
        return validate_element(self.element,
                                check_invariants=False).diagnostics


class InvariantUnit(_Unit):
    """One (invariant, element) pair, reproducing the diagnostics of
    ``repro.mof.validate._check_invariants`` verbatim."""

    __slots__ = ("invariant", "element")
    kind = "invariant"

    def __init__(self, invariant: Any, element: Element):
        self.invariant = invariant
        self.element = element

    def run(self) -> List[Diagnostic]:
        report = ValidationReport()
        invariant = self.invariant
        try:
            passed = invariant.holds(self.element)
        except Exception as exc:  # invariant itself is broken
            report.add(Severity.ERROR, self.element,
                       f"invariant '{invariant.name}' raised: {exc}",
                       code="invariant-error")
            return report.diagnostics
        if not passed:
            report.add(invariant.severity, self.element,
                       f"invariant '{invariant.name}' violated"
                       + (f": {invariant.message}" if invariant.message
                          else ""),
                       code="invariant")
        return report.diagnostics


class ConstraintUnit(InvariantUnit):
    """One (constraint-set invariant, element) pair — an invariant unit
    whose diagnostics report under the ``constraint`` family, as
    ``ConstraintSet.evaluate`` does in a batch check."""

    __slots__ = ()
    kind = "constraint"


class WellformedUnit(_Unit):
    """One (well-formedness rule, root) pair."""

    __slots__ = ("rule", "root")
    kind = "wellformed"

    def __init__(self, rule: Any, root: Element):
        self.rule = rule
        self.root = root

    def run(self) -> List[Diagnostic]:
        report = ValidationReport()
        self.rule(self.root, report)
        return report.diagnostics


class LintUnit(_Unit):
    """One (lint rule, target) pair, applying the same config filtering
    as ``ModelLinter._emit``.

    Each run gets a fresh :class:`LintContext`; rules only use the
    context cache for per-target memoisation, so isolating them changes
    nothing but the sharing.
    """

    __slots__ = ("rule", "target", "config", "registry", "root")
    kind = "lint"

    def __init__(self, rule: LintRule, target: Any, config: LintConfig,
                 registry: RuleRegistry, root: Optional[Element] = None):
        self.rule = rule
        self.target = target
        self.config = config
        self.registry = registry
        self.root = root          # the walked root of a metaclass target

    def run(self) -> List[Diagnostic]:
        root = self.target.root() if isinstance(self.target, Element) \
            else self.root
        context = LintContext(root, self.config, self.registry)
        context.current_rule = self.rule
        out: List[Diagnostic] = []
        for diagnostic in self.rule.check(self.target, context):
            if not self.config.allows(diagnostic):
                continue
            effective = self.config.effective_severity(diagnostic)
            if effective is not diagnostic.severity:
                diagnostic = replace(diagnostic, severity=effective)
            out.append(diagnostic)
        return out


class ConsistencyUnit(LintUnit):
    """One (cross-diagram ``XD`` rule, target) pair — a lint unit whose
    diagnostics report under the ``consistency`` family."""

    __slots__ = ()
    kind = "consistency"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Counters for observability (CLI ``watch`` prints these)."""

    notifications: int = 0     # change notifications received
    invalidations: int = 0     # units marked dirty by notifications
    unit_runs: int = 0         # units (re-)executed, lifetime
    syncs: int = 0             # membership re-walks
    revalidations: int = 0     # revalidate() calls
    last_rerun: int = 0        # units re-executed by the last revalidate()
    last_skipped: int = 0      # units served from cache by it
    checker_failures: int = 0  # unit runs that raised (quarantine events)

    def summary(self) -> str:
        out = (f"units rerun/cached {self.last_rerun}/{self.last_skipped}, "
               f"lifetime runs {self.unit_runs}, "
               f"notifications {self.notifications}, "
               f"invalidations {self.invalidations}, "
               f"syncs {self.syncs}")
        if self.checker_failures:
            out += f", checker failures {self.checker_failures}"
        return out


@dataclass
class QuarantineEntry:
    """Failure isolation record for one crashing (check, element) unit.

    A unit whose ``run()`` raises does not kill the engine: the exception
    becomes an ERROR diagnostic (code ``checker-crashed``) and the unit is
    quarantined — skipped by subsequent revalidations until ``retry_at``
    (exponential backoff in revalidation passes: 1, 2, 4, ... capped at
    64).  A retry that succeeds lifts the quarantine; one that raises
    doubles the backoff.
    """

    failures: int = 0          # consecutive raising runs
    retry_at: int = 0          # stats.revalidations value when due again
    error: str = ""            # str() of the last exception

    def due(self, revalidations: int) -> bool:
        return revalidations >= self.retry_at


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

Scope = Union[Model, Element, Sequence[Element]]


class IncrementalEngine:
    """Dependency-tracked, notification-driven revalidation of one model.

    ``scope`` may be a :class:`~repro.mof.repository.Model`, a single root
    element, or a sequence of roots (the latter two are wrapped in a
    private model so that element notifications reach the engine).

    *families* is a selection in :class:`~repro.session.Session`'s
    vocabulary — structural validation, registered metaclass invariants,
    UML well-formedness rules (skipped for roots that are not UML
    packages), the lint registry, the cross-diagram ``XD`` rules and the
    *constraint_sets* groups — resolved as ``Session.check`` resolves
    it (``None``: every family but ``constraint``, which joins when
    there are constraint sets).  Each family runs as its own unit kind,
    and :attr:`families` lists the ones :meth:`check_result` reports
    (every one, even when it is empty).
    """

    def __init__(self, scope: Scope, *,
                 families: Optional[Iterable[str]] = None,
                 constraint_sets: Iterable[Any] = (),
                 registry: Optional[RuleRegistry] = None,
                 config: Optional[LintConfig] = None):
        from ..session import FAMILIES, resolve_families
        self.model = self._resolve_scope(scope)
        self._model_scope = isinstance(scope, Model)
        constraint_sets = list(constraint_sets)
        #: the families :meth:`check_result` lists, in report order
        self.families: Tuple[str, ...] = resolve_families(
            families, constraints=bool(constraint_sets))
        self.structural = "structural" in self.families
        self.invariants = "invariant" in self.families
        self.constraint_sets = (constraint_sets
                                if "constraint" in self.families else [])
        self.uml_rules: List[Any] = []
        if "wellformed" in self.families:
            from ..uml.wellformed import ALL_RULES
            self.uml_rules = list(ALL_RULES)
        self.lint = "lint" in self.families
        self.consistency = "consistency" in self.families
        self.registry = registry or DEFAULT_REGISTRY
        self.config = config if config is not None else LintConfig()

        self._units: Dict[tuple, _Unit] = {}
        # family -> {unit key: diagnostics} for non-empty results only
        self._findings: Dict[str, Dict[tuple, Tuple[Diagnostic, ...]]] = {
            family: {} for family in FAMILIES}
        # family -> its findings merged in batch order; families in
        # _stale must be re-merged before the next check_result()
        self._merged: Dict[str, List[Diagnostic]] = {}
        self._stale: Set[str] = set()
        self._result: Optional[Any] = None          # cached CheckResult
        self._report: Optional[List[Diagnostic]] = None
        # walk position per element id and first-walk rank per metaclass
        # id, computed on demand and dropped on every membership sync
        self._positions: Optional[Dict[int, int]] = None
        self._mc_ranks: Optional[Dict[int, Tuple[int, int]]] = None
        self._deps = DependencyGraph()
        self._dirty: Set[tuple] = set()
        self._elements: Dict[int, Element] = {}
        self._element_roots: Dict[int, Element] = {}
        self._element_keys: Dict[int, List[tuple]] = {}
        self._root_keys: Dict[int, List[tuple]] = {}
        # (root, metaclass) -> element count / metaclass-target lint unit
        # keys: the batch linter collects metaclass targets per root
        self._mc_counts: Dict[Tuple[Element, MetaClass], int] = {}
        self._mc_keys: Dict[Tuple[Element, MetaClass], List[tuple]] = {}
        self._external: Dict[int, Element] = {}
        self._roots_snapshot: Tuple[Element, ...] = ()
        self._structure_dirty = True
        self._quarantine: Dict[tuple, QuarantineEntry] = {}
        self._txn_listener = None
        self.stats = EngineStats()
        self.model.observe(self._on_change)
        self._attached = True

    # -- lifecycle ---------------------------------------------------------

    @staticmethod
    def _resolve_scope(scope: Scope) -> Model:
        if isinstance(scope, Model):
            return scope
        if isinstance(scope, Element):
            roots = [scope]
        else:
            roots = list(scope)
            if not roots:
                raise ValueError("incremental scope needs at least one root")
        shared = getattr(roots[0], "_model", None)
        if shared is not None and all(
                getattr(root, "_model", None) is shared for root in roots):
            return shared
        model = Model(f"urn:incremental:{roots[0].eid}")
        for root in roots:
            model.add_root(root)
        return model

    def detach(self) -> None:
        """Stop observing; the caches stay readable but go stale silently."""
        if self._attached:
            self.model.unobserve(self._on_change)
            for element in self._external.values():
                element.unobserve(self._on_external_change)
            self._external.clear()
            self._attached = False
        self.unbind_transactions()

    def bind_transactions(self) -> None:
        """Revalidate once per committed outermost transaction.

        Notifications still mark units dirty as they stream in; binding
        adds a commit listener so a whole edit burst is re-checked in one
        pass when its transaction commits, instead of the caller polling.
        Rollbacks need no special casing — replayed inverses are ordinary
        notifications, so the dirty set unwinds with the model.
        """
        if self._txn_listener is not None:
            return
        from ..mof import txn as _txn

        def on_txn_commit(txn: Any, _engine=self) -> None:
            if _engine._attached and txn.op_count:
                _engine.revalidate()

        self._txn_listener = on_txn_commit
        _txn.on_commit(on_txn_commit)

    def unbind_transactions(self) -> None:
        if self._txn_listener is not None:
            from ..mof import txn as _txn
            _txn.remove_listener(self._txn_listener)
            self._txn_listener = None

    def __enter__(self) -> "IncrementalEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- unit management ---------------------------------------------------

    def _add_unit(self, key: tuple, unit: _Unit,
                  keys: List[tuple]) -> None:
        self._units[key] = unit
        self._dirty.add(key)
        keys.append(key)

    def _drop_unit(self, key: tuple) -> None:
        unit = self._units.pop(key, None)
        if unit is not None:
            self._store(key, unit, ())
        self._deps.drop(key)
        self._dirty.discard(key)
        self._quarantine.pop(key, None)

    def _element_invariants(self, element: Element) -> List[Any]:
        """The registered invariants on *element*'s metaclass chain, in
        ``validate_invariants`` order."""
        seen: Set[int] = set()
        found: List[Any] = []
        for metaclass in [element.meta] + element.meta.all_superclasses():
            for invariant in metaclass.invariants:
                if id(invariant) not in seen:
                    seen.add(id(invariant))
                    found.append(invariant)
        return found

    def _target_rules(self, target_kind: str) -> List[Tuple[LintRule, type]]:
        """(rule, unit class) pairs for the enabled rule families."""
        specs: List[Tuple[LintRule, type]] = []
        if self.lint:
            for rule in self.registry.rules(target_kind, self.config,
                                            families=("lint",)):
                specs.append((rule, LintUnit))
        if self.consistency:
            for rule in self.registry.rules(target_kind, self.config,
                                            families=("consistency",)):
                specs.append((rule, ConsistencyUnit))
        return specs

    def _add_element(self, element: Element, root: Element) -> None:
        keys: List[tuple] = []
        if self.structural:
            self._add_unit(("struct", element), StructuralUnit(element), keys)
        if self.invariants:
            for rank, invariant in enumerate(
                    self._element_invariants(element)):
                self._add_unit(("inv", invariant, rank, element),
                               InvariantUnit(invariant, element), keys)
        for set_index, constraint_set in enumerate(self.constraint_sets):
            for index, invariant in enumerate(constraint_set.invariants):
                if element.meta.conforms_to(invariant.context):
                    self._add_unit(("con", set_index, index, element),
                                   ConstraintUnit(invariant, element), keys)
        if self.lint or self.consistency:
            from ..uml.activities import Activity
            from ..uml.interactions import Interaction
            from ..uml.statemachines import StateMachine
            target_kind = None
            if isinstance(element, StateMachine):
                target_kind = "statemachine"
            elif isinstance(element, Activity):
                target_kind = "activity"
            elif isinstance(element, Interaction):
                target_kind = "interaction"
            if target_kind is not None:
                for rule, unit_cls in self._target_rules(target_kind):
                    self._add_unit(
                        ("lint", rule.name, element),
                        unit_cls(rule, element, self.config, self.registry),
                        keys)
        for metaclass in [element.meta] + element.meta.all_superclasses():
            slot = (root, metaclass)
            count = self._mc_counts.get(slot, 0)
            self._mc_counts[slot] = count + 1
            if count == 0 and (self.lint or self.consistency):
                mc_keys: List[tuple] = []
                for rule, unit_cls in self._target_rules("metaclass"):
                    self._add_unit(
                        ("lint", rule.name, metaclass, root),
                        unit_cls(rule, metaclass, self.config, self.registry,
                                 root),
                        mc_keys)
                if mc_keys:
                    self._mc_keys[slot] = mc_keys
        self._element_keys[id(element)] = keys
        self._element_roots[id(element)] = root

    def _remove_element(self, element_id: int, element: Element) -> None:
        for key in self._element_keys.pop(element_id, ()):
            self._drop_unit(key)
        root = self._element_roots.pop(element_id)
        for metaclass in [element.meta] + element.meta.all_superclasses():
            slot = (root, metaclass)
            count = self._mc_counts.get(slot, 0) - 1
            if count <= 0:
                self._mc_counts.pop(slot, None)
                for key in self._mc_keys.pop(slot, ()):
                    self._drop_unit(key)
            else:
                self._mc_counts[slot] = count

    def _add_root_units(self, root: Element) -> None:
        keys: List[tuple] = []
        if self.uml_rules and self._is_uml_package(root):
            for rank, rule in enumerate(self.uml_rules):
                self._add_unit(("wf", rule, rank, root),
                               WellformedUnit(rule, root), keys)
        for rule, unit_cls in self._target_rules("model"):
            self._add_unit(
                ("lint", rule.name, root),
                unit_cls(rule, root, self.config, self.registry), keys)
        self._root_keys[id(root)] = keys

    @staticmethod
    def _is_uml_package(root: Element) -> bool:
        from ..uml.package import Package
        return isinstance(root, Package)

    # -- membership sync ---------------------------------------------------

    def _sync_structure(self) -> None:
        self.stats.syncs += 1
        current: Dict[int, Element] = {}
        owner: Dict[int, Element] = {}
        for root in self.model.roots:
            current[id(root)] = root
            owner[id(root)] = root
            for element in root.all_contents():
                if id(element) not in current:
                    current[id(element)] = element
                    owner[id(element)] = root
        # an element that moved to another root is dropped and re-added,
        # so its metaclass targets are counted under the new root
        gone = {i for i in self._elements
                if owner.get(i) is not self._element_roots[i]}
        for element_id in gone:
            self._remove_element(element_id, self._elements[element_id])
        for element_id, element in current.items():
            if element_id not in self._elements or element_id in gone:
                self._add_element(element, owner[element_id])
        self._elements = current

        old_root_ids = {id(root) for root in self._roots_snapshot}
        new_root_ids = {id(root) for root in self.model.roots}
        for root in self._roots_snapshot:
            if id(root) not in new_root_ids:
                for key in self._root_keys.pop(id(root), ()):
                    self._drop_unit(key)
        for root in self.model.roots:
            if id(root) not in old_root_ids:
                self._add_root_units(root)
        self._roots_snapshot = tuple(self.model.roots)

        # elements observed individually while outside the scope are now
        # covered by the model-level observer
        for element_id in [i for i in self._external if i in current]:
            self._external.pop(element_id).unobserve(self._on_external_change)
        self._structure_dirty = False
        # the walk order may have changed: re-merge every family that
        # has findings, against fresh positions
        self._positions = self._mc_ranks = None
        for family, findings in self._findings.items():
            if findings:
                self._mark_stale(family)

    def _roots_changed(self) -> bool:
        roots = self.model.roots
        if len(roots) != len(self._roots_snapshot):
            return True
        return any(a is not b
                   for a, b in zip(roots, self._roots_snapshot))

    # -- change intake -----------------------------------------------------

    def _on_change(self, notification: Notification) -> None:
        self.stats.notifications += 1
        feature = notification.feature
        element = notification.element
        self._invalidate((element, feature.name))
        if getattr(feature, "containment", False):
            for value in (notification.old, notification.new):
                if isinstance(value, Element):
                    self._invalidate((value, CONTAINER_KEY))
            self._structure_dirty = True
        opposite = feature.opposite if isinstance(feature, Reference) \
            else None
        if opposite is not None and opposite.containment:
            self._invalidate((element, CONTAINER_KEY))
            self._structure_dirty = True

    def _on_external_change(self, notification: Notification) -> None:
        # same handling; delivered directly by an element outside the
        # containment tree (its notifications never reach our model)
        self._on_change(notification)

    def _invalidate(self, key: ReadKey) -> None:
        for unit_key in self._deps.readers(key):
            if unit_key in self._units and unit_key not in self._dirty:
                self._dirty.add(unit_key)
                self.stats.invalidations += 1

    def _note_external_reads(self, reads: Set[ReadKey]) -> None:
        for obj, _name in reads:
            if isinstance(obj, Element):
                obj_id = id(obj)
                if obj_id not in self._elements \
                        and obj_id not in self._external:
                    obj.observe(self._on_external_change)
                    self._external[obj_id] = obj

    # -- execution ---------------------------------------------------------

    #: consecutive-failure backoff cap: 2**6 = 64 revalidation passes
    _BACKOFF_CAP = 6

    def _run_unit(self, key: tuple, unit: _Unit) -> None:
        reads: Set[ReadKey] = set()
        try:
            with collect_reads(reads):
                if _faults.ACTIVE is not None:
                    _faults.probe("checker.run")
                diagnostics = unit.run()
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            self._quarantine_unit(key, unit, exc, reads)
            return
        self._store(key, unit, tuple(diagnostics))
        self._deps.set_reads(key, reads)
        self._note_external_reads(reads)
        self.stats.unit_runs += 1
        if key in self._quarantine:
            del self._quarantine[key]

    def _quarantine_unit(self, key: tuple, unit: _Unit, exc: Exception,
                         reads: Set[ReadKey]) -> None:
        entry = self._quarantine.get(key)
        if entry is None:
            entry = self._quarantine[key] = QuarantineEntry()
        entry.failures += 1
        entry.error = f"{type(exc).__name__}: {exc}"
        entry.retry_at = self.stats.revalidations + \
            2 ** min(entry.failures - 1, self._BACKOFF_CAP)
        element = getattr(unit, "element", None) \
            or getattr(unit, "target", None) or getattr(unit, "root", None)
        self._store(key, unit, (Diagnostic(
            Severity.ERROR,
            element if isinstance(element, Element) else None,
            f"{unit.kind} checker raised and was quarantined "
            f"(failure {entry.failures}, retrying after revalidation "
            f"{entry.retry_at}): {entry.error}",
            code="checker-crashed"),))
        # keep whatever reads happened before the crash so a relevant edit
        # can re-dirty the unit even before the backoff expires
        self._deps.set_reads(key, reads)
        self._note_external_reads(reads)
        self.stats.unit_runs += 1
        self.stats.checker_failures += 1
        self._dirty.add(key)        # retried once the backoff expires
        if _trace.ON:
            _metrics.REGISTRY.counter(
                "incremental.checker.crashes",
                help="check unit runs that raised (quarantine events)",
                kind=unit.kind).inc()
            _metrics.REGISTRY.gauge(
                "incremental.quarantine.size",
                help="units currently quarantined").set(
                    len(self._quarantine))

    def quarantined(self) -> Dict[tuple, QuarantineEntry]:
        """The currently quarantined units (unit key -> entry), live."""
        return dict(self._quarantine)

    def quarantine_report(self) -> List[str]:
        """Human-readable one-liners for each quarantined unit."""
        out = []
        for key, entry in sorted(self._quarantine.items(),
                                 key=lambda item: -item[1].failures):
            unit = self._units.get(key)
            kind = unit.kind if unit is not None else "?"
            label = getattr(unit, "target", key[-1] if key else "?")
            out.append(f"[{kind}] {label}: "
                       f"{entry.error} (failures {entry.failures}, "
                       f"retry at pass {entry.retry_at})")
        return out

    def revalidate(self) -> ValidationReport:
        """Bring every cached result up to date; return the merged report.

        When the observability layer is on, each pass is wrapped in an
        ``incremental.revalidate`` span and the cache hit/miss balance
        feeds the ``incremental.units.*`` counters.
        """
        if not _trace.ON:
            return self._revalidate_impl()
        with _trace.span("incremental.revalidate") as sp:
            report = self._revalidate_impl()
        sp.tag(rerun=self.stats.last_rerun, cached=self.stats.last_skipped)
        registry = _metrics.REGISTRY
        registry.counter(
            "incremental.revalidations",
            help="revalidation passes").inc()
        registry.counter(
            "incremental.units.rerun",
            help="check units re-run (cache misses)").inc(
                self.stats.last_rerun)
        registry.counter(
            "incremental.units.cached",
            help="check units served from cache (hits)").inc(
                self.stats.last_skipped)
        return report

    def _revalidate_impl(self) -> ValidationReport:
        self.stats.revalidations += 1
        if self._structure_dirty or self._roots_changed():
            self._sync_structure()
        dirty, self._dirty = self._dirty, set()
        rerun = 0
        for key in dirty:
            unit = self._units.get(key)
            if unit is None:
                continue
            entry = self._quarantine.get(key)
            if entry is not None and not entry.due(self.stats.revalidations):
                # backing off: stays pending without re-running
                self._dirty.add(key)
                continue
            self._run_unit(key, unit)
            rerun += 1
        self.stats.last_rerun = rerun
        self.stats.last_skipped = len(self._units) - rerun
        return self.report()

    def recompute_from_scratch(self) -> ValidationReport:
        """Run every unit afresh, ignoring and not touching the caches.

        This is the engine's own from-scratch baseline: identical unit
        decomposition, zero memoisation — what a benchmark should compare
        :meth:`revalidate` against.
        """
        if self._structure_dirty or self._roots_changed():
            self._sync_structure()
        report = ValidationReport()
        for unit in self._units.values():
            report.diagnostics.extend(unit.run())
        return report

    # -- results -----------------------------------------------------------

    def _store(self, key: tuple, unit: _Unit,
               diagnostics: Tuple[Diagnostic, ...]) -> None:
        """Record *unit*'s latest result; only a change re-merges."""
        findings = self._findings[unit.kind]
        if diagnostics:
            if findings.get(key) == diagnostics:
                return
            findings[key] = diagnostics
        elif findings.pop(key, None) is None:
            return
        self._mark_stale(unit.kind)

    def _mark_stale(self, family: str) -> None:
        self._stale.add(family)
        self._result = None
        self._report = None

    def _walk_positions(self) -> Dict[int, Tuple[int, int]]:
        """Element id -> (root index, position) in the batch walk: roots
        in order, each followed by ``all_contents()``, which is the
        order ``_elements`` keeps."""
        if self._positions is None:
            root_ids = {id(root) for root in self._roots_snapshot}
            positions: Dict[int, Tuple[int, int]] = {}
            root = -1
            for position, element_id in enumerate(self._elements):
                if element_id in root_ids:
                    root += 1
                positions[element_id] = (root, position)
            self._positions = positions
        return self._positions

    def _metaclass_ranks(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """(root id, metaclass id) -> (root index, first-seen rank) in the
        walk: the order ``ModelLinter._lint_root`` collects each root's
        metaclass targets in."""
        if self._mc_ranks is None:
            positions = self._walk_positions()
            ranks: Dict[Tuple[int, int], Tuple[int, int]] = {}
            for element_id, element in self._elements.items():
                root_id = id(self._element_roots[element_id])
                for metaclass in ([element.meta]
                                  + element.meta.all_superclasses()):
                    slot = (root_id, id(metaclass))
                    if slot not in ranks:
                        ranks[slot] = (positions[element_id][0], len(ranks))
            self._mc_ranks = ranks
        return self._mc_ranks

    def _batch_order(self, family: str) -> Callable[[tuple], tuple]:
        """A sort key over *family*'s unit keys giving ``Session.check``
        order."""
        position = self._walk_positions()
        if family == "structural":
            return lambda key: position[id(key[1])]
        if family == "invariant":
            # ("inv", invariant, rank, element): walk, then metaclass chain
            return lambda key: (position[id(key[3])], key[2])
        if family == "wellformed":
            # ("wf", rule, rank, root): roots in order, then rule order
            return lambda key: (position[id(key[3])], key[2])
        if family == "constraint":
            return self._constraint_order()
        # lint and consistency: ("lint", rule name, target) or, for a
        # metaclass target, ("lint", rule name, metaclass, root); in
        # ModelLinter._lint_root order — per root, target kind, then
        # registry rule order, then target walk order
        rule_rank = {rule.name: rank for rank, rule
                     in enumerate(self.registry.all_rules())}
        units = self._units

        def order(key: tuple) -> tuple:
            kind = units[key].rule.target
            if kind == "metaclass":
                root, rank = self._metaclass_ranks()[(id(key[3]),
                                                      id(key[2]))]
            else:
                root, rank = position[id(key[2])]
            return (root, TARGETS.index(kind), rule_rank[key[1]], rank)
        return order

    def _constraint_order(self) -> Callable[[tuple], tuple]:
        # ("con", set index, invariant index, element).  Over a Model
        # scope ConstraintSet.evaluate visits model.instances_of(context)
        # per invariant; over roots it walks each root per invariant.
        if not self._model_scope:
            position = self._walk_positions()
            return lambda key: (key[1], position[id(key[3])][0], key[2],
                                position[id(key[3])][1])
        extents: Dict[Tuple[int, int], Dict[int, int]] = {}

        def order(key: tuple) -> tuple:
            group = (key[1], key[2])
            extent = extents.get(group)
            if extent is None:
                context = self.constraint_sets[key[1]].invariants[key[2]] \
                    .context
                extent = extents[group] = {
                    id(element): rank for rank, element
                    in enumerate(self.model.instances_of(context))}
            return (key[1], key[2], extent.get(id(key[3]), len(extent)))
        return order

    def check_result(self):
        """The merged diagnostics as a :class:`repro.session.CheckResult`,
        byte-identical (``canonical_check_document``) to ``Session.check``
        over the same families.

        Served from cache; only families whose findings changed since the
        last call are re-merged, by sorting that family's findings.  The
        result is shared — treat it as read-only.
        """
        if self._result is None:
            from ..session import CheckResult
            for family in self._stale:
                findings = self._findings[family]
                merged: List[Diagnostic] = []
                if findings:
                    for key in sorted(findings,
                                      key=self._batch_order(family)):
                        merged.extend(findings[key])
                self._merged[family] = merged
            self._stale.clear()
            self._result = CheckResult({family: self._merged.get(family, [])
                                        for family in self.families})
        return self._result

    def report(self) -> ValidationReport:
        """The merged cached diagnostics, in family then batch order (no
        recomputation)."""
        if self._report is None:
            self._report = self.check_result().diagnostics
        return ValidationReport(list(self._report))

    def report_by_kind(self) -> Dict[str, ValidationReport]:
        """Cached diagnostics split per checker family (unit ``kind``)."""
        return {family: ValidationReport(list(diagnostics))
                for family, diagnostics
                in self.check_result().by_family.items()}

    def unit_count(self) -> int:
        return len(self._units)

    def __repr__(self) -> str:
        return (f"<IncrementalEngine model={self.model.uri!r} "
                f"units={len(self._units)} dirty={len(self._dirty)}>")


# ---------------------------------------------------------------------------
# Comparison helpers (the property suite's oracle interface)
# ---------------------------------------------------------------------------

def diagnostic_key(diagnostic: Diagnostic) -> tuple:
    """A hashable identity for one diagnostic: everything observable except
    object addresses — plus the element's identity, because two elements
    may legitimately yield identical text."""
    feature = diagnostic.feature
    return (diagnostic.code,
            diagnostic.severity.value,
            id(diagnostic.element),
            diagnostic.message,
            diagnostic.path,
            feature.name if feature is not None else None,
            diagnostic.hint,
            id(diagnostic.related) if diagnostic.related is not None
            else None,
            diagnostic.related_path)


def report_signature(report: ValidationReport) -> Counter:
    """Order-insensitive multiset signature of a report's diagnostics."""
    return Counter(diagnostic_key(d) for d in report.diagnostics)

