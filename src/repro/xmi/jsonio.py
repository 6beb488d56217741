"""JSON serialization of models — same information as the XML dialect, in
a shape convenient for web tooling and diffing."""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Union

from ..mof.errors import RepositoryError
from ..mof.kernel import (
    Attribute,
    Element,
    MetaPackage,
    Reference,
    _get_value,
    _set_value,
)
from ..mof.repository import Model, Repository
from ..obs import trace as _trace
from .ids import assign_ids
from .reader import TypeRegistry, _stereotype_registry, resolve_references
from .writer import _observe_io, _should_serialize, _type_label


def to_dict(element: Element, ids: Dict[int, str]) -> Dict[str, Any]:
    """One element (and its containment subtree) as plain dicts."""
    out: Dict[str, Any] = {
        "type": _type_label(element),
        "id": ids[id(element)],
    }
    attrs: Dict[str, Any] = {}
    children: Dict[str, List[Dict[str, Any]]] = {}
    refs: Dict[str, List[str]] = {}
    for feature in element.meta.all_features().values():
        if not _should_serialize(feature):
            continue
        if isinstance(feature, Attribute):
            if feature.many:
                values = list(element.eget(feature.name))
                if values:
                    attrs[feature.name] = values
            elif element.eis_set(feature.name):
                value = element.eget(feature.name)
                if value is not None:
                    attrs[feature.name] = value
        elif feature.containment:
            value = element.eget(feature.name)
            kids = list(value) if feature.many else (
                [value] if value is not None else [])
            if kids:
                children[feature.name] = [to_dict(kid, ids) for kid in kids]
        else:
            value = element.eget(feature.name)
            targets = list(value) if feature.many else (
                [value] if value is not None else [])
            target_ids = [ids[id(t)] for t in targets if id(t) in ids]
            if target_ids:
                refs[feature.name] = target_ids
    if attrs:
        out["attrs"] = attrs
    if children:
        out["children"] = children
    if refs:
        out["refs"] = refs
    stereotypes = _stereotype_dicts(element)
    if stereotypes:
        out["stereotypes"] = stereotypes
    return out


def _stereotype_dicts(element: Element) -> List[Dict[str, Any]]:
    from ..profiles.base import applications_of
    out: List[Dict[str, Any]] = []
    for application in applications_of(element):
        stereotype = application.stereotype
        out.append({
            "profile": stereotype.profile.name if stereotype.profile
            else "",
            "name": stereotype.name,
            "values": dict(application.values),
        })
    return out


def write_json(source: Union[Model, Element], *, indent: int = 2,
               uri: str = "urn:model", name: str = "model") -> str:
    """Serialize a model or a single root element to JSON text."""
    if isinstance(source, Model):
        roots, uri, name = list(source.roots), source.uri, source.name
    else:
        roots = [source]
    def _build() -> str:
        ids = assign_ids(roots)
        document = {
            "uri": uri,
            "name": name,
            "version": "1.0",
            "roots": [to_dict(root, ids) for root in roots],
        }
        return json.dumps(document, indent=indent)

    if _trace.ON:
        with _trace.span("xmi.write", format="json") as sp:
            text = _build()
        _observe_io(sp, "xmi.write", "json", roots, len(text))
        return text
    return _build()


class JsonReader:
    def __init__(self, packages: Iterable[MetaPackage],
                 profiles: Iterable = ()):
        self.registry = TypeRegistry(packages)
        self._stereotypes = _stereotype_registry(profiles)
        self._by_id: Dict[str, Element] = {}
        self._pending: List[tuple] = []

    def read(self, text: str) -> Model:
        document = json.loads(text)
        model = Model(document.get("uri", "urn:model"),
                      document.get("name"))
        self._by_id.clear()
        self._pending.clear()
        for root_dict in document.get("roots", []):
            model.add_root(self._build(root_dict))
        resolve_references(self._pending, self._by_id)
        return model

    def _build(self, data: Dict[str, Any]) -> Element:
        metaclass = self.registry.resolve(data["type"])
        element = metaclass.instantiate()
        doc_id = data.get("id")
        if doc_id:
            element.set_eid(doc_id)
            self._by_id[doc_id] = element
        for name, value in data.get("attrs", {}).items():
            feature = metaclass.find_feature(name)
            if not isinstance(feature, Attribute):
                raise RepositoryError(f"'{metaclass.name}' has no attribute "
                                      f"{name!r}")
            if feature.many:
                _get_value(element, feature).extend(value)
            else:
                _set_value(element, feature, value)
        for name, child_dicts in data.get("children", {}).items():
            feature = metaclass.find_feature(name)
            if not isinstance(feature, Reference) or not feature.containment:
                raise RepositoryError(f"'{metaclass.name}' has no containment "
                                      f"feature {name!r}")
            for child_dict in child_dicts:
                child = self._build(child_dict)
                if feature.many:
                    _get_value(element, feature).append(child)
                else:
                    _set_value(element, feature, child)
        for name, target_ids in data.get("refs", {}).items():
            self._pending.append((element, name, target_ids))
        for stereotype_dict in data.get("stereotypes", []):
            label = (f"{stereotype_dict.get('profile', '')}:"
                     f"{stereotype_dict.get('name', '')}")
            stereotype = self._stereotypes.get(label)
            if stereotype is None:
                raise RepositoryError(
                    f"unknown stereotype {label!r}; pass its profile to "
                    f"the reader")
            stereotype.apply(element, **stereotype_dict.get("values", {}))
        return element


def read_json(text: str, packages: Iterable[MetaPackage], *,
              profiles: Iterable = (),
              repository: Optional[Repository] = None) -> Model:
    """Parse JSON text into a fresh :class:`Model` (see :func:`read_xml`
    for the *profiles* parameter)."""
    if _trace.ON:
        with _trace.span("xmi.read", format="json") as sp:
            model = JsonReader(packages, profiles).read(text)
        _observe_io(sp, "xmi.read", "json", model, len(text))
    else:
        model = JsonReader(packages, profiles).read(text)
    if repository is not None:
        repository.add_model(model)
    return model
