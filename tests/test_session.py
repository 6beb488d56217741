"""The unified Session API: parity with the engine building blocks.

The contract: for every checker family, ``Session.check`` returns a
diagnostic multiset identical to what the family's building block
(``validate_tree``, ``run_wellformed_rules``, ``ModelLinter.lint``,
``ConstraintSet.evaluate``) produces, over the generated model corpus
(:mod:`repro.generate`).  The corpus loops below cover 100+
(model, family) cases.
"""

import pytest

from repro.analysis import ModelLinter
from repro.generate import (EditFuzzer, demo_generator, generate_model,
                            uml_generator)
from repro.incremental import report_signature
from repro.mof import Model
from repro.mof.validate import ValidationReport, validate_tree
from repro.session import (DEFAULT_FAMILIES, FAMILIES, CheckResult, Session,
                           canonical_check_document)
from repro.uml import Clazz
from repro.uml.wellformed import run_wellformed_rules

DEMO_SEEDS = range(20)
UML_SEEDS = range(15)


def _signature(diagnostics):
    return sorted((d.severity.value, d.code, d.path, d.message)
                  for d in diagnostics)


def _as_model(root):
    model = Model("urn:parity")
    model.add_root(root)
    return model


def _validate_roots(model):
    report = ValidationReport()
    for root in model.roots:
        report.extend(validate_tree(root))
    return report


def _constraint_set():
    from repro.ocl import ConstraintSet
    constraints = ConstraintSet("parity")
    constraints.add(Clazz, "has-members",
                    "owned_attributes->notEmpty() or "
                    "owned_operations->notEmpty()")
    return constraints


class TestParity:
    """Session.check vs each family's building block, multiset-equal."""

    @pytest.mark.parametrize("seed", DEMO_SEEDS)
    def test_validate_tree_demo_corpus(self, seed):
        # 20 models x 2 families (structural, invariant) = 40 cases
        model = _as_model(demo_generator(seed).generate(30))
        expected = _validate_roots(model)
        new = Session(model).check(families=("structural", "invariant"))
        assert report_signature(expected) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("seed", UML_SEEDS)
    def test_validate_tree_uml_corpus(self, seed):
        # 15 models x 2 families = 30 cases
        model = _as_model(uml_generator(seed).generate(40))
        expected = _validate_roots(model)
        new = Session(model).check(families=("structural", "invariant"))
        assert report_signature(expected) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("seed", UML_SEEDS)
    def test_run_wellformed_rules_uml_corpus(self, seed):
        # 15 models x 1 family (wellformed) = 15 cases
        root = uml_generator(seed).generate(40)
        expected = run_wellformed_rules(root)
        new = Session(root).check(families=("wellformed",))
        assert report_signature(expected) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("seed", UML_SEEDS)
    def test_model_linter_uml_corpus(self, seed):
        # 15 models x 1 family (lint) = 15 cases
        root = uml_generator(seed).generate(40)
        expected = ModelLinter().lint(root)
        new = Session(root).check(families=("lint",))
        assert _signature(expected.diagnostics) == \
            _signature(new.diagnostics)

    @pytest.mark.parametrize("seed", range(5))
    def test_constraint_set_uml_corpus(self, seed):
        # 5 models x 1 family (constraint) = 5 cases
        constraints = _constraint_set()
        root = uml_generator(seed).generate(40)
        expected = constraints.evaluate(root)
        new = Session(root, constraint_sets=[constraints]) \
            .check(families=("constraint",))
        assert report_signature(expected) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("seed", range(5))
    def test_watch_matches_batch_check(self, seed):
        # the incremental document is the batch document, byte for byte
        root = uml_generator(seed).generate(40)
        session = Session(root)
        engine = session.watch()
        try:
            engine.revalidate()
            _assert_batch_document(engine, session)
        finally:
            engine.detach()


def _assert_batch_document(engine, session, families=None, where=""):
    """Fail unless the engine's document is ``session.check``'s, byte for
    byte; the message names the first differing offset (a plain ``==``
    on two large documents makes pytest diff them for minutes)."""
    got = canonical_check_document(engine.check_result().to_json())
    want = canonical_check_document(session.check(families).to_json())
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        start = max(at - 60, 0)
        pytest.fail(f"{where}: engine document differs from Session.check "
                    f"at offset {at}:\n  engine: {got[start:at + 100]!r}"
                    f"\n  batch:  {want[start:at + 100]!r}")


class TestEngineDocument:
    """The oracle: an engine's check document equals ``Session.check``'s
    byte for byte (``canonical_check_document``) after priming and after
    every step of a fuzzed edit script — every selected family listed,
    each in batch order."""

    @pytest.mark.parametrize("package", ["demo", "uml"])
    @pytest.mark.parametrize("seed", [0, 21])
    def test_generated_corpus_over_fuzzed_edits(self, package, seed):
        generated = generate_model(package, size=2000, seed=seed)
        session = Session(generated.model)
        engine = session.watch()
        fuzzer = EditFuzzer(generated.root, seed=seed,
                            generator=generated.generator)
        try:
            _assert_batch_document(engine, session, where="after priming")
            for step in range(20):
                edit = fuzzer.random_edit()
                engine.revalidate()
                _assert_batch_document(engine, session,
                                       where=f"step {step}: {edit}")
        finally:
            engine.detach()

    @pytest.mark.parametrize("families", [
        None, ("lint",), ("invariant", "constraint"),
        ("wellformed", "consistency"), ("constraint",)])
    @pytest.mark.parametrize("scope", ["model", "root"])
    def test_selections_and_constraint_sets(self, families, scope):
        generator = uml_generator(7)
        root = generator.generate(80)
        session = Session(_as_model(root) if scope == "model" else root,
                          constraint_sets=[_constraint_set()])
        engine = session.watch(families)
        fuzzer = EditFuzzer(root, seed=7, generator=generator)
        try:
            for step in range(12):
                engine.revalidate()
                _assert_batch_document(engine, session, families,
                                       where=f"step {step}")
                fuzzer.random_edit()
        finally:
            engine.detach()

    def test_metaclass_targets_run_per_root(self):
        # ModelLinter._lint_root collects metaclass targets per root, so
        # two roots sharing a metaclass lint it twice (OCL101 from an
        # ill-typed invariant, XD006 from an unsatisfiable one); the
        # engine must too, also after an element moves between roots
        # and after a root leaves
        from repro.mof.dynamic import (add_attribute, add_reference,
                                       define_class, define_package)
        from repro.mof.types import M_0N, MInteger
        from repro.ocl.invariants import invariant
        package = define_package("multiroot", "urn:test:multiroot")
        node = define_class(package, "Node")
        leaf = define_class(package, "Leaf")
        add_attribute(node, "x", MInteger)
        add_attribute(leaf, "y", MInteger)
        add_reference(node, "kids", leaf, containment=True,
                      multiplicity=M_0N)
        invariant(node, "ill-typed", "self.nonexistent > 0")
        invariant(leaf, "never", "self.y > 5 and self.y < 2")
        first = node.instantiate(x=1)
        second = node.instantiate(x=2)
        kid = leaf.instantiate(y=1)
        first.eget("kids").append(kid)
        model = Model("urn:multiroot")
        model.add_root(first)
        model.add_root(second)
        session = Session(model)
        families = list(DEFAULT_FAMILIES) + ["consistency"]
        engine = session.watch(families)
        try:
            engine.revalidate()
            _assert_batch_document(engine, session, families, "primed")
            lint = [d.code for d in engine.check_result().by_family["lint"]]
            assert lint.count("OCL001") == 2
            second.eget("kids").append(kid)      # moves kid across roots
            engine.revalidate()
            _assert_batch_document(engine, session, families, "moved")
            model.remove_root(first)
            engine.revalidate()
            _assert_batch_document(engine, session, families, "dropped")
        finally:
            engine.detach()

    def test_empty_selected_families_are_listed(self):
        root = demo_generator(2).generate(30)
        session = Session(root)
        engine = session.watch(("wellformed", "constraint"))
        try:
            assert engine.check_result().families == \
                ("wellformed", "constraint")
            assert session.check(("wellformed", "constraint")).families == \
                ("wellformed", "constraint")
        finally:
            engine.detach()

    def test_clean_rerun_keeps_the_cached_result(self):
        root = uml_generator(3).generate(60)
        session = Session(root)
        engine = session.watch()
        try:
            first = engine.check_result()
            assert engine.check_result() is first
            # renaming a class no finding mentions re-runs the units that
            # read its name, all of which stay clean: the merged result
            # stays cached
            paths = {d.path for d in first.diagnostics}
            clazz = next(e for e in root.all_contents()
                         if isinstance(e, Clazz) and e.name
                         and not any(e.name in path for path in paths))
            clazz.eset("name", "RenamedWithoutFindings")
            engine.revalidate()
            assert engine.stats.last_rerun > 0
            assert engine.check_result() is first
        finally:
            engine.detach()


class TestSessionSurface:
    def test_scope_forms(self):
        root = uml_generator(1).generate(30)
        for scope in (root, [root], _as_model(root)):
            assert Session(scope).check(
                families=("structural",)).families == ("structural",)

    def test_default_families(self):
        root = uml_generator(1).generate(20)
        assert Session(root).check().families == DEFAULT_FAMILIES
        with_constraints = Session(
            root, constraint_sets=[_constraint_set()])
        assert with_constraints.check().families == FAMILIES

    def test_unknown_family_rejected(self):
        root = uml_generator(1).generate(20)
        with pytest.raises(ValueError, match="unknown checker"):
            Session(root).check(families=("spelling",))

    @pytest.mark.parametrize("seed", (0, 21))
    def test_lint_family_does_not_depend_on_the_selection(self, seed):
        session = Session.generate("uml", size=2000, seed=seed,
                                   repair=False)
        alone = session.check(families=("lint",)).to_json()
        together = session.check().to_json()
        assert alone["families"]["lint"]
        assert alone["families"]["lint"] == together["families"]["lint"]

    def test_family_order_is_canonical(self):
        root = uml_generator(1).generate(20)
        result = Session(root).check(families=("lint", "structural"))
        assert result.families == ("structural", "lint")

    def test_severity_floor(self):
        root = uml_generator(2).generate(40)
        everything = Session(root).check()
        errors_only = Session(root).check(severity="error")
        assert not errors_only.warnings and not errors_only.infos
        assert _signature(errors_only.errors) == \
            _signature(everything.errors)
        with pytest.raises(ValueError, match="unknown severity"):
            everything.filtered("fatal")

    def test_render_and_json(self):
        root = uml_generator(2).generate(40)
        result = Session(root).check()
        text = result.render()
        assert "error(s)" in text and "warning(s)" in text
        doc = result.to_json()
        assert doc["errors"] == len(result.errors)
        assert set(doc["families"]) == set(result.families)
        for family, diagnostics in doc["families"].items():
            for record in diagnostics:
                assert {"severity", "code", "message", "path",
                        "element", "hint"} <= set(record)

    def test_load_from_file(self, tmp_path):
        from repro.uml import ModelFactory
        from repro.xmi import write_xml
        factory = ModelFactory("filed")
        factory.clazz("Thing", attrs={"x": "Integer"})
        model = _as_model(factory.model)
        path = tmp_path / "filed.xmi"
        path.write_text(write_xml(model))
        session = Session.load(str(path))
        assert [r.name for r in session.roots] == ["filed"]
        assert session.check().families == DEFAULT_FAMILIES

    def test_quality_report_delegates(self):
        from repro.uml import ModelFactory
        factory = ModelFactory("qr")
        factory.clazz("Thing", attrs={"x": "Integer"})
        report = Session(factory.model).quality_report()
        assert report.model_name == "qr"
        two_roots = Session([uml_generator(0).generate(10),
                             uml_generator(1).generate(10)])
        with pytest.raises(ValueError, match="roots"):
            two_roots.quality_report()

    def test_stats_document(self):
        root = uml_generator(3).generate(30)
        session = Session(root)
        session.check()
        document = session.stats()
        assert isinstance(document["metrics"], dict)
        assert document["model"]["roots"] == 1
        assert document["model"]["elements"] > 0
        assert document["ocl_cache"]        # compile-cache counters
        # runtime_stats() is the model-free subset the server's global
        # stats verb and `repro stats --format json` also serve
        from repro.session import runtime_stats
        assert "model" not in runtime_stats()
        assert "metrics" in runtime_stats()
