"""E14 — incremental revalidation must make model tests continuous.

Claim: the paper demands "a well defined set of tests ... maintained as
the 'system models' are developed" — tests run at every edit, not at
phase gates.  Batch checking re-walks the whole model per keystroke and
stops scaling around 10^4 elements; the incremental engine re-runs only
the (check, element) pairs whose recorded read set the edit touched.

Measured: median wall-clock of a full from-scratch check versus an
incrementally revalidated single-element edit (renames and guard
tweaks), across model sizes up to ~10^4 elements, plus the cache-
correctness spot check that both paths report identical diagnostics.
A "no-op re-check" row times ``revalidate()`` + ``check_result()`` with
nothing edited on a generated demo corpus (20k elements): the merged
result is served from the engine's cache, so it must cost at most 5 ms
there, and at least 50x less than ``recompute_from_scratch()``.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run a reduced size/edit count.
"""

import os
import random
import statistics
import time

from repro.generate import generate_model
from repro.incremental import IncrementalEngine, report_signature
from workloads import make_sized_pim

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
SIZES = [50] if QUICK else [100, 1000]      # n_classes; ~10 elements each
N_EDITS = 8 if QUICK else 24
N_BASELINE = 2 if QUICK else 3
REQUIRED_SPEEDUP = 2.0 if QUICK else 10.0   # enforced at the largest size
NOOP_SIZE = 2_000 if QUICK else 20_000      # demo corpus elements
NOOP_REPEATS = 50
NOOP_CEILING_MS = 5.0                       # enforced in full mode
NOOP_REQUIRED_SPEEDUP = 50.0                # vs recompute_from_scratch
#: the checker stack this benchmark measures (every family but the
#: cross-diagram consistency rules and constraint sets)
MEASURED_FAMILIES = ("structural", "invariant", "wellformed", "lint")


def _editable_elements(root, rng, count):
    """A deterministic spread of elements with a writable name slot."""
    pool = []
    for element in [root] + list(root.all_contents()):
        feature = element.meta.find_feature("name")
        if feature is not None and not feature.many \
                and isinstance(element.eget("name"), str):
            pool.append(element)
    rng.shuffle(pool)
    return pool[:count]


def test_e14_incremental_speedup():
    print("\nE14: incremental revalidation vs from-scratch checking")
    print(f"{'classes':>8} {'elements':>9} {'units':>7} {'scratch ms':>11} "
          f"{'incr ms':>9} {'speedup':>8}")
    speedups = []
    for size in SIZES:
        model = make_sized_pim(size).model
        engine = IncrementalEngine(model, families=MEASURED_FAMILIES)
        engine.revalidate()                       # prime every cache
        n_elements = 1 + sum(1 for _ in model.all_contents())

        scratch_times = []
        for _ in range(N_BASELINE):
            started = time.perf_counter()
            scratch = engine.recompute_from_scratch()
            scratch_times.append(time.perf_counter() - started)
        scratch_ms = statistics.median(scratch_times) * 1e3

        rng = random.Random(size)
        edit_times = []
        for element in _editable_elements(model, rng, N_EDITS // 2):
            # one perturbing edit and one restoring edit, both timed
            original = element.eget("name")
            for value in (original + "~", original):
                element.eset("name", value)
                started = time.perf_counter()
                engine.revalidate()
                edit_times.append(time.perf_counter() - started)
        incr_ms = statistics.median(edit_times) * 1e3

        speedup = scratch_ms / incr_ms if incr_ms else float("inf")
        speedups.append((size, n_elements, speedup))
        print(f"{size:>8} {n_elements:>9} {engine.unit_count():>7} "
              f"{scratch_ms:>11.2f} {incr_ms:>9.3f} {speedup:>7.1f}x")

        # cache-correctness spot check at every size
        assert report_signature(engine.revalidate()) == \
            report_signature(engine.recompute_from_scratch())
        engine.detach()

    largest = speedups[-1]
    if not QUICK:
        assert largest[1] >= 10_000, \
            f"largest workload too small: {largest[1]} elements"
    assert largest[2] >= REQUIRED_SPEEDUP, (
        f"median speedup {largest[2]:.1f}x at {largest[1]} elements, "
        f"required >= {REQUIRED_SPEEDUP}x")


def test_e14_edit_cost_does_not_scale_with_model():
    """The point of dependency tracking: the cost of revalidating one
    rename tracks the touched element's unit fan-in, not model size —
    so the per-edit rerun count stays flat across sizes."""
    reruns = []
    for size in SIZES:
        model = make_sized_pim(size).model
        engine = IncrementalEngine(model, families=MEASURED_FAMILIES)
        engine.revalidate()
        rng = random.Random(42)
        worst = 0
        for element in _editable_elements(model, rng, 4):
            element.eset("name", element.eget("name") + "!")
            engine.revalidate()
            worst = max(worst, engine.stats.last_rerun)
        reruns.append((size, worst, engine.unit_count()))
        engine.detach()
    print("\nE14: worst-case units re-run after a rename")
    for size, worst, total in reruns:
        print(f"  {size:>5} classes: {worst:>4} of {total} units")
    # re-run counts must not grow with the model (allow small jitter)
    if len(reruns) > 1:
        small, large = reruns[0][1], reruns[-1][1]
        assert large <= max(small * 3, small + 20), reruns
    # and must always be a sliver of the whole
    for size, worst, total in reruns:
        assert worst < total * 0.05 + 10, (size, worst, total)


def test_e14_noop_recheck():
    """A re-check with nothing edited re-runs no unit and re-merges no
    result: ``revalidate()`` + ``check_result()`` is served from the
    engine's cache, in time independent of the unit count."""
    model = generate_model("demo", size=NOOP_SIZE, seed=0).model
    engine = IncrementalEngine(model, families=MEASURED_FAMILIES)
    engine.revalidate()                           # prime every cache
    scratch_times = []
    for _ in range(N_BASELINE):
        started = time.perf_counter()
        engine.recompute_from_scratch()
        scratch_times.append(time.perf_counter() - started)
    scratch_ms = statistics.median(scratch_times) * 1e3
    noop_times = []
    for _ in range(NOOP_REPEATS):
        started = time.perf_counter()
        engine.revalidate()
        engine.check_result()
        noop_times.append(time.perf_counter() - started)
    noop_ms = statistics.median(noop_times) * 1e3
    assert engine.stats.last_rerun == 0
    speedup = scratch_ms / noop_ms if noop_ms else float("inf")
    print(f"\nE14: no-op re-check (revalidate + check_result), demo "
          f"{model.size():,} elements, {engine.unit_count():,} units")
    print(f"  scratch {scratch_ms:9.2f} ms   no-op {noop_ms:7.3f} ms   "
          f"{speedup:,.0f}x")
    engine.detach()
    assert speedup >= NOOP_REQUIRED_SPEEDUP, (
        f"no-op re-check only {speedup:.0f}x cheaper than scratch")
    if not QUICK:
        assert noop_ms <= NOOP_CEILING_MS, (
            f"no-op re-check {noop_ms:.2f} ms > {NOOP_CEILING_MS} ms")
