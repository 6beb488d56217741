"""The tree-walking OCL interpreter as a test oracle.

Production evaluation runs closure-compiled expressions
(:mod:`repro.ocl.compile`).  The interpreter in
:mod:`repro.ocl.evaluator` is the reference semantics those closures
must reproduce — same values, same undefined propagation, same error
types and messages — so the differential suite
(``tests/test_ocl_compile.py``) and the E16 benchmark drive it through
the helpers below instead of through a production switch.
"""

from repro.ocl import ConstraintSet, Environment, Invariant, parse
from repro.ocl.evaluator import _EVALUATOR, _bind_environment


def interpret(text_or_node, env=None, **bindings):
    """:func:`repro.ocl.evaluate`, but through the tree walker."""
    node = (parse(text_or_node) if isinstance(text_or_node, str)
            else text_or_node)
    return _EVALUATOR.eval(node, _bind_environment(env, bindings))


class InterpretedInvariant(Invariant):
    """An :class:`Invariant` whose ``holds`` walks the AST with a fresh
    environment per call."""

    def _holds_impl(self, element):
        # The type namespace is built from the context metaclass's package
        # (plus the element's own and its root's) rather than by scanning
        # the whole model, so checking n elements stays O(n).
        env = Environment()
        packages = list(self.packages or [])
        for candidate in (self.context.package, element.meta.package,
                          element.root().meta.package):
            if candidate is not None and candidate not in packages:
                packages.append(candidate)
        for package in packages:
            env.register_package(package)
        env.set_instance_scope_from(element.root())
        env.define("self", element)
        return _EVALUATOR.truthy(_EVALUATOR.eval(self.ast, env))


class InterpretedConstraintSet(ConstraintSet):
    """A :class:`ConstraintSet` whose :meth:`add` builds
    :class:`InterpretedInvariant` members."""

    def add(self, context, name, expression, **kwargs):
        inv = InterpretedInvariant(context, name, expression, **kwargs)
        self.invariants.append(inv)
        return inv
