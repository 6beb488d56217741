"""E13 — model lint must be cheap enough to gate every phase (paper §4).

Claim: the paper's process requires "a well defined set of tests ...
maintained as the 'system models' are developed" at every abstraction
level.  A static lint pass is the cheapest such test — but only earns a
place inside the phase gate if it stays near-linear in model size and
its findings are trustworthy (no false positives to train engineers to
ignore it).

Measured: lint throughput across model sizes spanning ~10^2 to ~10^4
elements, and precision/recall over a population of seeded defects.
"""

import time

import pytest

from repro.analysis import LintConfig, ModelLinter, lint_transformation
from repro.uml import StateMachine
from repro.uml.activities import Activity
from workloads import make_sized_pim

SIZES = [10, 50, 200, 1000]        # n_classes; ~10 elements per class


def test_e13_throughput_report_and_shape():
    print("\nE13: lint throughput across model sizes")
    print(f"{'classes':>8} {'elements':>9} {'ms':>9} {'us/elem':>9} "
          f"{'rules':>6}")
    per_element = []
    for size in SIZES:
        model = make_sized_pim(size).model
        linter = ModelLinter()
        started = time.perf_counter()
        report = linter.lint(model)
        elapsed = time.perf_counter() - started
        assert report.ok, report.render()
        micros = elapsed * 1e6 / report.elements_scanned
        per_element.append(micros)
        print(f"{size:>8} {report.elements_scanned:>9} "
              f"{elapsed * 1e3:>9.2f} {micros:>9.1f} "
              f"{report.rules_run:>6}")
    assert per_element, "no sizes measured"
    # the span covers two orders of magnitude of model size
    smallest = make_sized_pim(SIZES[0]).model
    largest = make_sized_pim(SIZES[-1]).model
    count = lambda m: 1 + sum(1 for _ in m.all_contents())  # noqa: E731
    assert count(smallest) >= 100
    assert count(largest) >= 10_000
    # near-linear: per-element cost must not blow up with model size
    assert max(per_element) < 5 * min(per_element) + 100


# ---------------------------------------------------------------------------
# Precision / recall on seeded defects
# ---------------------------------------------------------------------------


def seed_defects(factory, n_each=5):
    """Plant *n_each* defects of every kind; return the expected codes."""
    expected = []
    for index in range(n_each):
        cls = factory.clazz(f"Defective{index}",
                            attrs={"level": "Integer"})

        machine = StateMachine(name=f"Defective{index}SM")
        cls.owned_behaviors.append(machine)
        region = machine.main_region()
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_transition(initial, alive)
        # SM001: a state no transition reaches
        region.add_state(f"Dead{index}")
        expected.append("SM001")
        # SM002: a contradiction in the guard
        region.add_transition(alive, alive, trigger="tick",
                              guard="level > 5 and level < 2")
        expected.append("SM002")
        # SM003: overlapping guards on one trigger
        region.add_transition(alive, alive, trigger="go",
                              guard="level >= 10")
        region.add_transition(alive, alive, trigger="go",
                              guard="level >= 0")
        expected.append("SM003")
        # OCL001: a typo'd attribute in a guard
        region.add_transition(alive, alive, trigger="poke",
                              guard="levell > 3")
        expected.append("OCL001")

        # ACT001: a join fed sequentially (never two tokens)
        activity = Activity(name=f"Defective{index}Act")
        cls.owned_behaviors.append(activity)
        start = activity.add_initial()
        first = activity.add_action("first")
        second = activity.add_action("second")
        join = activity.add_join()
        final = activity.add_final()
        activity.flow(start, first)
        activity.flow(first, second)
        activity.flow(first, join)
        activity.flow(second, join)
        activity.flow(join, final)
        expected.append("ACT001")
    return expected


def test_e13_precision_and_recall():
    factory = make_sized_pim(50)
    base = ModelLinter().lint(factory.model)
    assert base.ok, "workload must lint clean before seeding"

    expected = seed_defects(factory, n_each=5)
    report = ModelLinter().lint(factory.model)

    flagged = [d for d in report.diagnostics
               if d.severity.value == "error"]
    relevant = {}
    for code in expected:
        relevant[code] = relevant.get(code, 0) + 1
    found = {}
    for diagnostic in flagged:
        found[diagnostic.code] = found.get(diagnostic.code, 0) + 1

    true_positives = sum(min(found.get(code, 0), wanted)
                         for code, wanted in relevant.items())
    recall = true_positives / len(expected)
    precision = true_positives / max(len(flagged), 1)

    print("\nE13: precision/recall on seeded defects")
    print(f"{'code':>8} {'seeded':>7} {'found':>6}")
    for code in sorted(relevant):
        print(f"{code:>8} {relevant[code]:>7} {found.get(code, 0):>6}")
    print(f"seeded={len(expected)} flagged={len(flagged)} "
          f"precision={precision:.2f} recall={recall:.2f}")

    assert recall == 1.0, f"missed defects: recall={recall:.2f}"
    assert precision == 1.0, (
        f"false positives among errors: precision={precision:.2f}")


@pytest.mark.parametrize("disabled,expect_faster", [
    (frozenset(), False),
    (frozenset({"invariant-typecheck", "guard-typecheck"}), True),
])
def test_e13_config_prunes_work(disabled, expect_faster):
    """Disabling rule families must actually skip their work."""
    model = make_sized_pim(200).model
    linter = ModelLinter(config=LintConfig(disabled=set(disabled)))
    report = linter.lint(model)
    assert report.ok
    full_rules = ModelLinter().lint(model).rules_run
    if expect_faster:
        assert report.rules_run < full_rules
    else:
        assert report.rules_run == full_rules


def test_e13_transformation_lint_is_cheap():
    from repro.platforms import make_pim_to_psm, posix_platform
    transformation = make_pim_to_psm(posix_platform())
    started = time.perf_counter()
    report = lint_transformation(transformation)
    elapsed = time.perf_counter() - started
    print(f"\nE13: PIM->PSM rule-set lint: {len(report.diagnostics)} "
          f"finding(s) in {elapsed * 1e3:.2f} ms")
    assert elapsed < 1.0
    assert report.ok, report.render()
