"""Tests for the model quality dashboard."""

import pytest

from repro.generate import demo_generator
from repro.profiles import add_requirement, satisfy, verify
from repro.validation import build_quality_report


class TestQualityReport:
    def test_clean_model_passes(self, cruise_model, posix):
        report = build_quality_report(cruise_model.model, platforms=[posix])
        assert report.passed
        text = report.render()
        assert "overall: PASS" in text
        assert "structural validity [PASS]" in text
        assert "domain purity [PASS]" in text

    def test_wellformedness_failure_shows(self, factory):
        factory.clazz("Dup")
        factory.clazz("Dup")
        report = build_quality_report(factory.model)
        assert not report.passed
        assert not report.section("uml well-formedness").passed
        assert "FAIL" in report.render()

    def test_non_uml_root_skips_wellformedness(self):
        # a generated demo corpus is rooted in a non-UML metaclass: the
        # UML well-formedness rules do not apply, and must not crash
        root = demo_generator(0).generate(60)
        report = build_quality_report(root)
        section = report.section("uml well-formedness")
        assert section.passed
        assert section.lines == ["no findings"]

    def test_metric_threshold_failure(self, factory):
        a = factory.clazz("A")
        b = factory.clazz("B")
        factory.associate(a, b, end_b="b")
        factory.associate(b, a, end_a="x", end_b="a")
        report = build_quality_report(factory.model, max_coupling_density=0.1)
        assert not report.section("design metrics").passed

    def test_pollution_failure(self, factory, posix):
        factory.clazz("Worker_thread")
        report = build_quality_report(factory.model, platforms=[posix])
        assert not report.section("domain purity").passed

    def test_traceability_section(self, factory):
        pkg = factory.package("reqs")
        requirement = add_requirement(pkg, "R", "R1", "do the thing")
        impl = factory.clazz("Impl")
        report = build_quality_report(factory.model,
                                include_traceability=True)
        section = report.section("requirement traceability")
        assert not section.passed              # nothing satisfies R1
        satisfy(pkg, impl, requirement)
        verify(pkg, impl, requirement)
        report2 = build_quality_report(factory.model,
                                 include_traceability=True)
        assert report2.section("requirement traceability").passed

    def test_unknown_section_raises(self, cruise_model):
        report = build_quality_report(cruise_model.model)
        with pytest.raises(KeyError):
            report.section("nonexistent")
