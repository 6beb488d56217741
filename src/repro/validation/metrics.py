"""OO design metrics over UML models — "testing here can mean metrics".

Implements the classic Chidamber–Kemerer suite plus the specific
diagnostics the paper derives from mis-applied use-case-driven
development (§1):

* *coupling tends to be very high if not total* → CBO per class and a
  whole-model coupling density;
* *most classes contain a single function* → single-operation-class ratio;
* *very deep inheritance hierarchies* (inheritance as a development
  mechanism) → DIT distribution and deep-inheritance ratio.

These numbers are what experiment E1 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..mof import instances_of
from ..uml import (
    Association,
    Behavior,
    Classifier,
    Clazz,
    Interface,
    Package,
    Property,
    StructuredClassifier,
)


@dataclass
class ClassMetrics:
    """Per-class metric record."""

    name: str
    cbo: int = 0                 # coupling between objects
    dit: int = 0                 # depth of inheritance tree
    noc: int = 0                 # number of children
    wmc: int = 0                 # weighted methods per class (unit weights)
    rfc: int = 0                 # response for a class (methods + sends)
    lcom: int = 0                # lack of cohesion in methods (LCOM1)
    nof: int = 0                 # number of fields (own attributes)
    fan_out: int = 0             # types this class depends on
    fan_in: int = 0              # types depending on this class


@dataclass
class ModelMetrics:
    """Whole-model aggregates plus the per-class table."""

    classes: Dict[str, ClassMetrics] = field(default_factory=dict)
    class_count: int = 0
    coupling_density: float = 0.0     # realised / possible coupling edges
    avg_cbo: float = 0.0
    max_dit: int = 0
    avg_dit: float = 0.0
    single_operation_ratio: float = 0.0
    deep_inheritance_ratio: float = 0.0   # DIT >= 4
    avg_lcom: float = 0.0

    def summary(self) -> str:
        return (f"classes={self.class_count} "
                f"coupling_density={self.coupling_density:.3f} "
                f"avg_cbo={self.avg_cbo:.2f} max_dit={self.max_dit} "
                f"single_op_ratio={self.single_operation_ratio:.2f} "
                f"deep_inh_ratio={self.deep_inheritance_ratio:.2f}")


def _classes_of(root: Package) -> List[Clazz]:
    return [c for c in instances_of(root, Clazz)
            if not isinstance(c, Behavior)]


def _coupled_types(cls: Clazz) -> Set[Classifier]:
    """Classifiers *cls* depends on through attributes, operations,
    associations and generalizations (excluding primitives and itself)."""
    out: Set[Classifier] = set()
    for prop in cls.owned_attributes:
        if isinstance(prop.type, Clazz) and prop.type is not cls:
            out.add(prop.type)
    for operation in cls.owned_operations:
        for parameter in operation.parameters:
            if isinstance(parameter.type, Clazz) \
                    and parameter.type is not cls:
                out.add(parameter.type)
    for sup in cls.supers():
        if isinstance(sup, Clazz):
            out.add(sup)
    return out


def _operation_attr_usage(cls: Clazz) -> List[Set[str]]:
    """For LCOM: the set of own-attribute names each operation's body
    mentions (unnamed attributes cannot be mentioned, so they are
    skipped)."""
    attr_names = {p.name for p in cls.owned_attributes if p.name}
    usages: List[Set[str]] = []
    for operation in cls.owned_operations:
        body = operation.body or ""
        usages.append({name for name in attr_names if name in body})
    return usages


def _lcom1(usages: List[Set[str]]) -> int:
    """LCOM1: #method pairs sharing no attribute − #pairs sharing one,
    floored at zero."""
    disjoint = 0
    sharing = 0
    for i in range(len(usages)):
        for j in range(i + 1, len(usages)):
            if usages[i] & usages[j]:
                sharing += 1
            else:
                disjoint += 1
    return max(0, disjoint - sharing)


def _sends_in_behaviour(cls: Clazz) -> int:
    machine = cls.state_machine()
    if machine is None:
        return 0
    sends = 0
    for transition in machine.all_transitions():
        sends += (transition.effect or "").count("send ")
    return sends


def compute_class_metrics(cls: Clazz) -> ClassMetrics:
    """All metrics for one class."""
    coupled = _coupled_types(cls)
    usages = _operation_attr_usage(cls)
    return ClassMetrics(
        name=cls.name,
        cbo=len(coupled),
        dit=cls.inheritance_depth(),
        noc=len(cls.eget("incoming_generalizations")),
        wmc=len(cls.owned_operations),
        rfc=len(cls.owned_operations) + _sends_in_behaviour(cls),
        lcom=_lcom1(usages),
        nof=len(cls.owned_attributes),
        fan_out=len(coupled),
    )


def compute_model_metrics(root: Package, *,
                          deep_dit_threshold: int = 4) -> ModelMetrics:
    """All metrics for every class under *root*, plus aggregates."""
    classes = _classes_of(root)
    metrics = ModelMetrics()
    fan_in: Dict[int, int] = {}
    coupling_edges = 0
    for cls in classes:
        record = compute_class_metrics(cls)
        metrics.classes[cls.name] = record
        coupled = _coupled_types(cls)
        coupling_edges += len(coupled)
        for other in coupled:
            fan_in[id(other)] = fan_in.get(id(other), 0) + 1
    for cls in classes:
        metrics.classes[cls.name].fan_in = fan_in.get(id(cls), 0)

    n = len(classes)
    metrics.class_count = n
    if n > 1:
        metrics.coupling_density = coupling_edges / (n * (n - 1))
    if n:
        records = list(metrics.classes.values())
        metrics.avg_cbo = sum(r.cbo for r in records) / n
        metrics.max_dit = max(r.dit for r in records)
        metrics.avg_dit = sum(r.dit for r in records) / n
        metrics.avg_lcom = sum(r.lcom for r in records) / n
        metrics.single_operation_ratio = sum(
            1 for r in records if r.wmc == 1) / n
        metrics.deep_inheritance_ratio = sum(
            1 for r in records if r.dit >= deep_dit_threshold) / n
    return metrics


def coupling_matrix(root: Package) -> Dict[str, Set[str]]:
    """Adjacency view of class coupling (names only), for reports."""
    return {cls.name: {other.name for other in _coupled_types(cls)}
            for cls in _classes_of(root)}
