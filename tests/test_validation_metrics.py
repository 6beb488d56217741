"""Tests for the design metrics — including the paper's decomposition
diagnostics (coupling, single-function classes, deep inheritance)."""

import pytest

from repro.validation import (
    compute_class_metrics,
    compute_model_metrics,
    coupling_matrix,
)


@pytest.fixture
def oo_design(factory):
    """A reasonably cohesive OO design."""
    account = factory.clazz("Account", attrs={"balance": "Integer"})
    factory.operation(account, "deposit", params={"amount": "Integer"},
                      body="balance := balance + amount")
    factory.operation(account, "withdraw", params={"amount": "Integer"},
                      body="balance := balance - amount")
    customer = factory.clazz("Customer", attrs={"name": "String"})
    factory.operation(customer, "rename", params={"n": "String"},
                      body="name := n")
    factory.associate(customer, account, end_b="accounts", b_upper=-1)
    return factory


@pytest.fixture
def functional_design():
    """The paper's anti-pattern: one function per class, deep inheritance,
    everything coupled to everything.  Built in its own model so it can be
    compared against the OO design."""
    from repro.uml import ModelFactory
    factory = ModelFactory("functional")
    base = factory.clazz("Step")
    previous = base
    classes = [base]
    for index in range(5):
        cls = factory.clazz(f"Step{index}", supers=[previous])
        factory.operation(cls, "execute")
        classes.append(cls)
        previous = cls
    # total coupling
    for cls in classes:
        for other in classes:
            if cls is not other:
                factory.associate(cls, other,
                                  end_b=f"to_{other.name.lower()}")
    return factory, classes


class TestClassMetrics:
    def test_cbo_counts_distinct_types(self, oo_design):
        customer = oo_design.model.member("Customer")
        metrics = compute_class_metrics(customer)
        assert metrics.cbo == 1          # accounts end only

    def test_wmc_and_nof(self, oo_design):
        account = oo_design.model.member("Account")
        metrics = compute_class_metrics(account)
        assert metrics.wmc == 2
        assert metrics.nof == 1

    def test_dit_and_noc(self, functional_design):
        factory, classes = functional_design
        deepest = compute_class_metrics(classes[-1])
        assert deepest.dit == 5
        root = compute_class_metrics(classes[0])
        assert root.noc == 1

    def test_lcom_cohesive_class(self, oo_design):
        account = oo_design.model.member("Account")
        # both operations touch 'balance': cohesive, LCOM 0
        assert compute_class_metrics(account).lcom == 0

    def test_lcom_uncohesive_class(self, factory):
        cls = factory.clazz("Blob", attrs={"a": "Integer", "b": "Integer"})
        factory.operation(cls, "useA", body="a := 1")
        factory.operation(cls, "useB", body="b := 2")
        assert compute_class_metrics(cls).lcom == 1

    def test_lcom_skips_unnamed_attributes(self, factory):
        cls = factory.clazz("Blob", attrs={"a": "Integer"})
        factory.attribute(cls, "anonymous", "Integer").name = None
        factory.operation(cls, "useA", body="a := 1")
        factory.operation(cls, "noop", body="skip")
        # the unnamed attribute can be mentioned by no body
        assert compute_class_metrics(cls).lcom == 1

    def test_rfc_includes_sends(self, cruise_model):
        controller = cruise_model.model.member("CruiseController")
        metrics = compute_class_metrics(controller)
        assert metrics.rfc >= 3          # sends in the state machine


class TestModelMetrics:
    def test_oo_design_profile(self, oo_design):
        metrics = compute_model_metrics(oo_design.model)
        assert metrics.class_count == 2
        assert metrics.coupling_density <= 0.5
        assert metrics.single_operation_ratio < 1.0
        assert metrics.max_dit == 0

    def test_functional_design_profile(self, functional_design):
        factory, classes = functional_design
        metrics = compute_model_metrics(factory.model)
        assert metrics.class_count == 6
        # the paper: "coupling tends to be very high if not total"
        assert metrics.coupling_density > 0.9
        # "most classes contain a single function"
        assert metrics.single_operation_ratio >= 5 / 6
        # "very deep inheritance hierarchies"
        assert metrics.deep_inheritance_ratio > 0
        assert metrics.max_dit == 5

    def test_oo_beats_functional(self, oo_design, functional_design):
        oo = compute_model_metrics(oo_design.model)
        functional = compute_model_metrics(functional_design[0].model)
        assert oo.coupling_density < functional.coupling_density
        assert oo.avg_cbo < functional.avg_cbo
        assert oo.max_dit < functional.max_dit

    def test_fan_in_fan_out_symmetry(self, functional_design):
        factory, _ = functional_design
        metrics = compute_model_metrics(factory.model)
        total_out = sum(m.fan_out for m in metrics.classes.values())
        total_in = sum(m.fan_in for m in metrics.classes.values())
        # every fan-out edge lands on some class (supers included)
        assert total_in == total_out

    def test_empty_model(self, factory):
        metrics = compute_model_metrics(factory.model)
        assert metrics.class_count == 0
        assert metrics.coupling_density == 0.0

    def test_coupling_matrix(self, oo_design):
        matrix = coupling_matrix(oo_design.model)
        assert matrix["Customer"] == {"Account"}
        assert matrix["Account"] == set()

    def test_summary_renders(self, oo_design):
        metrics = compute_model_metrics(oo_design.model)
        assert "coupling_density" in metrics.summary()

    def test_behaviors_excluded_from_class_count(self, cruise_model):
        metrics = compute_model_metrics(cruise_model.model)
        assert metrics.class_count == 3     # machines don't count
