"""Columnar (struct-of-arrays) backing store per metaclass extent.

Every :class:`~repro.session.Session` enables it on its model
(``Model.enable_columns``); a bare :class:`~repro.mof.repository.Model`
starts without one.

``Session.check`` over a large model is a per-object pointer chase: every
element is visited through ``eget`` (descriptor dispatch, hook tests,
``FeatureList`` wrappers) once per feature.  A :class:`ColumnStore`
re-materialises each **exact-metaclass extent** as one
:class:`ExtentColumns` block — per-feature columns over the extent's
elements, in extent (insertion) order:

* single-valued attribute → a flat list of *effective* values (the slot
  value, or the feature default), compacted to an ``array('q')`` /
  ``array('d')`` when every value is a plain int/float;
* single-valued reference → a flat list of targets (``None`` when unset);
* many-valued reference  → a list of target tuples;
* many-valued attribute  → an ``array('l')`` of lengths (structural checks
  and ``->size()`` only need the counts).

``allInstances``-heavy invariants and the structural checks then become
tight loops over contiguous columns instead of per-object ``get()`` calls
(see :meth:`ColumnStore.conforming_values`, the bulk fast path the OCL
closure compiler uses, and :meth:`ColumnStore.scan_structural`).

Staleness protocol — the same discipline as :class:`~repro.mof.index.ModelIndex`:

* Blocks are built lazily on first read and **invalidated on write**: the
  store observes the model's notification stream and marks the mutated
  element's exact metaclass stale (plus, for containment changes, every
  metaclass in the attached/detached subtree — those elements enter or
  leave their extents).  Invalidation walks raw ``_slots`` so it never
  feeds the dependency-tracking read hook.
* ``Model.add_root``/``remove_root`` call :meth:`root_added` /
  :meth:`root_removed` directly (root changes emit no notification).
* While a dependency read hook is installed (``kernel._READ_HOOK``), all
  bulk reads answer ``None`` so callers fall back to the per-object path
  the incremental engine can observe.

Columns hold **no authority**: the object slots stay the single source of
truth, a stale block is simply rebuilt from the extent on next read, and
:meth:`ColumnStore.verify` cross-checks every built column against the
per-object reads it replaced (the oracle the property tests use).
"""

from __future__ import annotations

import sys
from array import array
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from . import kernel as _kernel
from .kernel import Attribute, Element, Feature, MetaClass, Reference
from .notify import ChangeKind, Notification

if TYPE_CHECKING:                                   # pragma: no cover
    from .repository import Model

_EMPTY: Tuple[Any, ...] = ()

#: column kinds, per feature shape
ATTR1 = "attr1"     # single-valued attribute: effective values
REF1 = "ref1"       # single-valued reference: target or None
REFN = "refN"       # many-valued reference: tuple of targets
LENN = "lenN"       # many-valued attribute: lengths only


def _raw_single(element: Element, feature: Feature, default: Any) -> Any:
    # the effective value _get_value would return, without firing hooks
    slots = element._slots
    name = feature.name
    if name in slots:
        return slots[name]
    return default


def _raw_items(element: Element, feature: Feature) -> Tuple[Any, ...]:
    slot = element._slots.get(feature.name)
    if slot is None:
        return _EMPTY
    return tuple(slot._items)


class ExtentColumns:
    """The struct-of-arrays image of one exact-metaclass extent."""

    __slots__ = ("meta", "built", "elements", "columns", "kinds")

    def __init__(self, meta: MetaClass):
        self.meta = meta
        self.built = False
        self.elements: List[Element] = []
        self.columns: Dict[str, Any] = {}
        self.kinds: Dict[str, str] = {}

    def build(self, elements: List[Element]) -> None:
        self.elements = elements
        columns: Dict[str, Any] = {}
        kinds: Dict[str, str] = {}
        for feature in self.meta.all_features().values():
            name = feature.name
            if feature.many:
                if isinstance(feature, Reference):
                    columns[name] = [_raw_items(e, feature)
                                     for e in elements]
                    kinds[name] = REFN
                else:
                    columns[name] = array(
                        "l", [len(_raw_items(e, feature))
                              for e in elements])
                    kinds[name] = LENN
            elif isinstance(feature, Reference):
                columns[name] = [_raw_single(e, feature, None)
                                 for e in elements]
                kinds[name] = REF1
            else:
                default = feature.default_value()
                values = [_raw_single(e, feature, default)
                          for e in elements]
                columns[name] = _compact_attribute(feature, values)
                kinds[name] = ATTR1
        self.columns = columns
        self.kinds = kinds
        self.built = True

    def nbytes(self) -> int:
        """Approximate heap footprint of the columns (arrays exactly,
        pointer columns by their list header)."""
        total = 0
        for column in self.columns.values():
            if isinstance(column, array):
                total += column.itemsize * len(column) + 64
            else:
                total += sys.getsizeof(column)
        return total

    def __repr__(self) -> str:
        return (f"<ExtentColumns {self.meta.name} rows={len(self.elements)} "
                f"built={self.built}>")


def _compact_attribute(feature: Attribute, values: List[Any]) -> Any:
    """Pack an all-int/all-float attribute column into a typed array.

    ``bool`` is excluded (``type(v) is int`` test): ``truthy`` must keep
    raising on non-Boolean values, and an ``array('q')`` would launder
    ``True`` into ``1``.
    """
    type_name = getattr(feature.type, "name", "")
    try:
        if type_name == "Integer" \
                and all(type(v) is int for v in values):
            return array("q", values)
        if type_name == "Real" \
                and all(type(v) is float for v in values):
            return array("d", values)
    except OverflowError:       # ints beyond 64 bits stay boxed
        pass
    return values


class ColumnStore:
    """Per-extent columns over one :class:`~repro.mof.repository.Model`,
    invalidated from change notifications and rebuilt lazily on read.

    Created via ``Model.enable_columns()``; read through
    :meth:`conforming_values` (OCL bulk path) and
    :meth:`scan_structural` (structural suspect scan)."""

    def __init__(self, model: "Model"):
        self.model = model
        self._index = model.index()
        self._blocks: Dict[MetaClass, ExtentColumns] = {}
        self._built = 0
        self.rebuilds = 0
        self.invalidations = 0
        self.bulk_reads = 0
        model.observe(self._on_change)

    def detach(self) -> None:
        """Stop observing the model (``Model.disable_columns``)."""
        self.model.unobserve(self._on_change)
        self._blocks.clear()
        self._built = 0

    # -- staleness intake --------------------------------------------------

    def _on_change(self, notification: Notification) -> None:
        if self._built == 0:
            return
        feature = notification.feature
        self._invalidate_meta(notification.element.meta)
        if not getattr(feature, "containment", False):
            return
        kind = notification.kind
        if kind is ChangeKind.MOVE:
            # reorder within one container: membership and values of the
            # moved subtree are untouched, only the container's column
            # (already invalidated above) changed
            return
        moved = (notification.new
                 if kind in (ChangeKind.ADD, ChangeKind.SET)
                 else notification.old)
        if isinstance(moved, Element):
            self._invalidate_tree(moved)

    def root_added(self, root: Element) -> None:
        if self._built:
            self._invalidate_tree(root)

    def root_removed(self, root: Element) -> None:
        if self._built:
            self._invalidate_tree(root)

    def _invalidate_meta(self, meta: MetaClass) -> None:
        block = self._blocks.get(meta)
        if block is not None and block.built:
            block.built = False
            self._built -= 1
            self.invalidations += 1

    def _invalidate_tree(self, element: Element) -> None:
        # raw containment walk: must not fire the read hook (column
        # maintenance is bookkeeping, not a tracked model read)
        stack = [element]
        while stack:
            node = stack.pop()
            self._invalidate_meta(node.meta)
            if self._built == 0:
                return
            for feature in node.meta.all_features().values():
                if not (isinstance(feature, Reference)
                        and feature.containment):
                    continue
                if feature.many:
                    slot = node._slots.get(feature.name)
                    if slot is not None:
                        stack.extend(slot._items)
                else:
                    child = node._slots.get(feature.name)
                    if child is not None:
                        stack.append(child)

    # -- block access ------------------------------------------------------

    def extent_metaclasses(self) -> List[MetaClass]:
        """Every exact metaclass with instances in the model, from the
        extent index."""
        return list(self._index._extent.keys())

    def block(self, meta: MetaClass) -> ExtentColumns:
        """The (freshly built) column block for *meta*'s exact extent."""
        block = self._blocks.get(meta)
        if block is None:
            block = ExtentColumns(meta)
            self._blocks[meta] = block
        if not block.built:
            block.build(self._index.instances_of(meta, exact=True))
            self._built += 1
            self.rebuilds += 1
        return block

    # -- bulk reads --------------------------------------------------------

    def conforming_values(self, metaclass: MetaClass,
                          name: str) -> Optional[List[Any]]:
        """The effective values of single-valued attribute *name* over all
        elements conforming to *metaclass*, in ``instances_of`` order — or
        ``None`` when the column path does not apply (read hook active,
        no such feature, many-valued/reference feature, or a subclass
        redefining the feature with a different shape)."""
        if _kernel._READ_HOOK is not None:
            return None
        feature = metaclass.find_feature(name)
        if not isinstance(feature, Attribute) or feature.many:
            return None
        main = self.block(metaclass)
        if main.kinds.get(name) != ATTR1:
            return None
        self.bulk_reads += 1
        subclasses = metaclass.all_subclasses()
        if not subclasses:
            return main.columns[name]
        out = list(main.columns[name])
        for sub in subclasses:
            block = self.block(sub)
            if block.kinds.get(name) != ATTR1:
                return None
            out.extend(block.columns[name])
        return out

    # -- structural suspect scan ------------------------------------------

    def scan_structural(self) -> Dict[int, Element]:
        """Elements that *may* carry a structural diagnostic (multiplicity,
        opposite, containment), as ``{id(e): e}``.

        This is a sound over-approximation computed from columns alone:
        every element ``validate_element`` would flag is in the result, so
        an empty result proves the model structurally clean without a
        tree walk, and a non-empty one bounds the exact re-validation to
        the suspects."""
        flagged: Dict[int, Element] = {}
        for meta in self.extent_metaclasses():
            block = self.block(meta)
            elements = block.elements
            if not elements:
                continue
            for feature in meta.all_features().values():
                name = feature.name
                kind = block.kinds[name]
                column = block.columns[name]
                self._scan_multiplicity(feature, kind, column, elements,
                                        flagged)
                if isinstance(feature, Reference):
                    if feature.opposite is not None:
                        self._scan_opposites(feature, kind, column,
                                             elements, flagged)
                    if feature.containment:
                        self._scan_containment(kind, column, elements,
                                               flagged)
        return flagged

    @staticmethod
    def _scan_multiplicity(feature: Feature, kind: str, column: Any,
                           elements: List[Element],
                           flagged: Dict[int, Element]) -> None:
        multiplicity = feature.multiplicity
        if kind in (ATTR1, REF1):
            # a single slot holds 0 or 1 values and upper >= 1 always
            # accepts 1, so the only violation is None under lower >= 1
            if multiplicity.lower >= 1 and not isinstance(column, array):
                for row, value in enumerate(column):
                    if value is None:
                        element = elements[row]
                        flagged[id(element)] = element
            return
        lower, upper = multiplicity.lower, multiplicity.upper
        if lower == 0 and upper is None:
            return
        if kind == REFN:
            for row, targets in enumerate(column):
                count = len(targets)
                if count < lower or (upper is not None and count > upper):
                    element = elements[row]
                    flagged[id(element)] = element
        else:
            for row, count in enumerate(column):
                if count < lower or (upper is not None and count > upper):
                    element = elements[row]
                    flagged[id(element)] = element

    @staticmethod
    def _scan_opposites(feature: Reference, kind: str, column: Any,
                        elements: List[Element],
                        flagged: Dict[int, Element]) -> None:
        opposite = feature.opposite
        opp_name = opposite.name
        opp_many = opposite.many
        if kind == REF1:
            rows = ((row, (target,)) for row, target in enumerate(column)
                    if target is not None)
        else:
            rows = enumerate(column)
        for row, targets in rows:
            element = elements[row]
            for target in targets:
                slot = target._slots.get(opp_name)
                if opp_many:
                    ok = slot is not None and element in slot
                else:
                    ok = slot is element
                if not ok:
                    flagged[id(element)] = element
                    break

    @staticmethod
    def _scan_containment(kind: str, column: Any, elements: List[Element],
                          flagged: Dict[int, Element]) -> None:
        if kind == REF1:
            for row, child in enumerate(column):
                if child is not None and child._container is not elements[row]:
                    element = elements[row]
                    flagged[id(element)] = element
        else:
            for row, children in enumerate(column):
                element = elements[row]
                for child in children:
                    if child._container is not element:
                        flagged[id(element)] = element
                        break

    # -- oracle + introspection -------------------------------------------

    def verify(self) -> List[str]:
        """Cross-check every built block against per-object reads; return
        a list of discrepancies (the property-test oracle)."""
        problems: List[str] = []
        for meta, block in self._blocks.items():
            if not block.built:
                continue
            expected = self._index.instances_of(meta, exact=True)
            if [id(e) for e in expected] != [id(e) for e in block.elements]:
                problems.append(
                    f"{meta.name}: row set diverged "
                    f"({len(block.elements)} rows vs {len(expected)} "
                    f"extent elements)")
                continue
            for feature in meta.all_features().values():
                name = feature.name
                kind = block.kinds[name]
                column = block.columns[name]
                for row, element in enumerate(block.elements):
                    value = element.eget(name)
                    if kind == LENN:
                        expected_value: Any = len(value)
                    elif kind == REFN:
                        expected_value = tuple(value)
                    else:
                        expected_value = value
                    got = column[row]
                    if not (got is expected_value or got == expected_value):
                        problems.append(
                            f"{meta.name}.{name}[{row}] ({element!r}): "
                            f"column holds {got!r}, object holds "
                            f"{expected_value!r}")
        return problems

    def stats(self) -> Dict[str, Any]:
        per_extent: Dict[str, Dict[str, Any]] = {}
        total_bytes = 0
        for meta, block in self._blocks.items():
            nbytes = block.nbytes() if block.built else 0
            total_bytes += nbytes
            per_extent[meta.name] = {
                "rows": len(block.elements) if block.built else 0,
                "columns": len(block.columns) if block.built else 0,
                "bytes": nbytes,
                "built": block.built,
            }
        return {
            "enabled": True,
            "extents": len(self._blocks),
            "built": self._built,
            "bytes": total_bytes,
            "rebuilds": self.rebuilds,
            "invalidations": self.invalidations,
            "bulk_reads": self.bulk_reads,
            "per_extent": per_extent,
        }

    def __repr__(self) -> str:
        return (f"<ColumnStore {self.model.uri} blocks={len(self._blocks)} "
                f"built={self._built}>")
