"""XMI-style XML deserialization.

Two-phase: first the containment tree is rebuilt (instantiating metaclasses
resolved through a type registry and coercing primitive attribute values),
then all cross-references are resolved by id.  Opposites and container
back-pointers come back automatically through the kernel's link protocol.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, Optional, Union

from ..mof.errors import RepositoryError
from ..mof.kernel import (
    Attribute,
    DynamicElement,
    Element,
    MetaClass,
    MetaPackage,
    Reference,
    _get_value,
    _set_value,
)
from ..mof.repository import Model, Repository
from ..obs import trace as _trace
from .writer import DOC_TAG, ITEM_TAG, ROOT_TAG, STEREOTYPE_TAG, _observe_io


class TypeRegistry:
    """Resolves ``pkg:Class`` labels to metaclasses."""

    def __init__(self, packages: Iterable[MetaPackage]):
        self._by_label: Dict[str, MetaClass] = {}
        for package in packages:
            self.add_package(package)

    def add_package(self, package: MetaPackage) -> None:
        for pkg in package.all_packages():
            for name, classifier in pkg.classifiers.items():
                if isinstance(classifier, MetaClass):
                    self._by_label[f"{pkg.name}:{name}"] = classifier

    def resolve(self, label: str) -> MetaClass:
        metaclass = self._by_label.get(label)
        if metaclass is None:
            raise RepositoryError(f"unknown metaclass label {label!r}")
        return metaclass


class XmiReader:
    def __init__(self, packages: Iterable[MetaPackage],
                 profiles: Iterable = ()):
        self.registry = TypeRegistry(packages)
        self._stereotypes = _stereotype_registry(profiles)
        self._by_id: Dict[str, Element] = {}
        self._pending_refs: List[tuple] = []

    def read(self, text: str) -> Model:
        doc = ET.fromstring(text)
        if doc.tag != DOC_TAG:
            raise RepositoryError(f"not an xmi document (root tag "
                                  f"{doc.tag!r})")
        model = Model(doc.get("uri", "urn:model"), doc.get("name"))
        self._by_id.clear()
        self._pending_refs.clear()
        for node in doc:
            if node.tag == ROOT_TAG:
                model.add_root(self._build_element(node))
        # split lazily: holding every split id list at once adds several
        # MB of peak memory on a 20k-element document
        resolve_references(((element, name, raw.split())
                            for element, name, raw in self._pending_refs),
                           self._by_id)
        return model

    # -- phase 1: containment tree ---------------------------------------

    def _build_element(self, node: ET.Element) -> Element:
        metaclass = self.registry.resolve(node.get("type", ""))
        element = metaclass.instantiate()
        doc_id = node.get("id")
        if doc_id:
            element.set_eid(doc_id)
            self._by_id[doc_id] = element
        for key, raw in node.attrib.items():
            if key in ("type", "id"):
                continue
            if key.startswith("ref."):
                self._pending_refs.append((element, key[4:], raw))
                continue
            feature = metaclass.find_feature(key)
            if isinstance(feature, Attribute):
                _set_value(element, feature, feature.type.coerce(raw))
        for child in node:
            if child.tag == STEREOTYPE_TAG:
                self._apply_stereotype(element, child)
                continue
            if child.tag == ITEM_TAG:
                feature_name = child.get("feature", "")
                feature = metaclass.find_feature(feature_name)
                if isinstance(feature, Attribute):
                    value = feature.type.coerce(child.text or "")
                    _get_value(element, feature).append(value)
                continue
            feature = metaclass.find_feature(child.tag)
            if not isinstance(feature, Reference) or not feature.containment:
                raise RepositoryError(
                    f"'{metaclass.name}' has no containment feature "
                    f"{child.tag!r}")
            child_element = self._build_element(child)
            if feature.many:
                _get_value(element, feature).append(child_element)
            else:
                _set_value(element, feature, child_element)
        return element

    def _apply_stereotype(self, element: Element,
                          node: ET.Element) -> None:
        label = f"{node.get('profile', '')}:{node.get('name', '')}"
        stereotype = self._stereotypes.get(label)
        if stereotype is None:
            raise RepositoryError(
                f"unknown stereotype {label!r}; pass its profile to the "
                f"reader")
        values = {}
        for key, raw in node.attrib.items():
            if key in ("profile", "name"):
                continue
            definition = stereotype.tags.get(key)
            values[key] = (definition.type.coerce(raw)
                           if definition is not None else raw)
        stereotype.apply(element, **values)


def resolve_references(pending: Iterable[tuple],
                       by_id: Dict[str, Element]) -> None:
    """Phase 2 of both readers: link each ``(element, feature_name,
    target_ids)`` in *pending* to the elements *by_id* names.

    A many-valued feature ends up holding its targets in serialized order
    even when opposites already linked some of them in document order.
    """
    for element, feature_name, target_ids in pending:
        feature = element.meta.find_feature(feature_name)
        if not isinstance(feature, Reference):
            raise RepositoryError(
                f"'{element.meta.name}' has no reference {feature_name!r}")
        targets = []
        for ref_id in target_ids:
            target = by_id.get(ref_id)
            if target is None:
                raise RepositoryError(
                    f"dangling reference {ref_id!r} in feature "
                    f"'{feature_name}'")
            targets.append(target)
        if feature.many:
            collection = _get_value(element, feature)
            for target in targets:
                if target not in collection:
                    collection.append(target)
            for position, target in enumerate(targets):
                if collection[position] is not target:
                    collection.move(position, target)
        elif targets and _get_value(element, feature) is not targets[0]:
            _set_value(element, feature, targets[0])


def _stereotype_registry(profiles: Iterable) -> Dict[str, object]:
    registry: Dict[str, object] = {}
    for profile in profiles:
        for stereotype in profile.stereotypes.values():
            registry[f"{profile.name}:{stereotype.name}"] = stereotype
    return registry


def read_xml(text: str, packages: Iterable[MetaPackage], *,
             profiles: Iterable = (),
             repository: Optional[Repository] = None) -> Model:
    """Parse XML text into a fresh :class:`Model`.

    *packages* supplies the metamodels whose instances the document holds
    (e.g. ``[UML]``); *profiles* the profiles whose stereotype
    applications it may carry (e.g. ``[SPT]``).  If *repository* is
    given, the model is registered.
    """
    if _trace.ON:
        with _trace.span("xmi.read", format="xml") as sp:
            model = XmiReader(packages, profiles).read(text)
        _observe_io(sp, "xmi.read", "xml", model, len(text))
    else:
        model = XmiReader(packages, profiles).read(text)
    if repository is not None:
        repository.add_model(model)
    return model
