"""E10 — Model interchange: faithful, stable and cheap (paper §1).

Claim: MDA tooling rests on MOF/XMI interchange; a round trip must be
lossless (stable fixed point) and scale with model size.

Measured: XML and JSON round-trip stability, document size and time
across a model-size sweep, and XML load cost per element on generated
demo corpora from 10^3 to 10^5 elements (10^5 is skipped under
``REPRO_BENCH_QUICK=1``).
"""

import os
import time

import pytest

from repro.generate import demo_package, generate_model
from repro.mof import Model
from repro.uml import UML
from repro.xmi import read_json, read_xml, write_json, write_xml
from workloads import make_sized_pim

SIZES = [25, 50, 100, 200]
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
LOAD_SIZES = [1000, 10_000] if QUICK else [1000, 10_000, 100_000]
LOAD_REPEATS = 3


def wrap(size):
    model = Model(f"urn:pim{size}")
    model.add_root(make_sized_pim(size).model)
    return model


def test_e10_report_and_shape():
    print("\nE10: interchange round trip")
    print(f"{'classes':>8} {'elements':>9} {'xml KiB':>9} "
          f"{'xml ms':>8} {'json KiB':>9} {'json ms':>9}")
    for size in SIZES:
        model = wrap(size)
        elements = sum(1 for _ in model.all_elements())

        started = time.perf_counter()
        xml_text = write_xml(model)
        xml_model = read_xml(xml_text, [UML])
        xml_ms = (time.perf_counter() - started) * 1e3

        started = time.perf_counter()
        json_text = write_json(model)
        json_model = read_json(json_text, [UML])
        json_ms = (time.perf_counter() - started) * 1e3

        print(f"{size:>8} {elements:>9} {len(xml_text) / 1024:>9.1f} "
              f"{xml_ms:>8.2f} {len(json_text) / 1024:>9.1f} "
              f"{json_ms:>9.2f}")
        # losslessness: the round trip is a fixed point
        assert write_xml(xml_model) == xml_text
        assert write_json(json_model) == json_text
        assert sum(1 for _ in xml_model.all_elements()) == elements
        assert sum(1 for _ in json_model.all_elements()) == elements


def test_e10_xml_roundtrip_cost(benchmark):
    model = wrap(100)

    def roundtrip():
        return read_xml(write_xml(model), [UML])
    loaded = benchmark(roundtrip)
    assert loaded.roots


def test_e10_json_roundtrip_cost(benchmark):
    model = wrap(100)

    def roundtrip():
        return read_json(write_json(model), [UML])
    loaded = benchmark(roundtrip)
    assert loaded.roots


def test_e10_load_cost_per_element_is_flat():
    """Load must be linear in model size: the per-element cost at 10^4
    elements stays within 1.5x of the cost at 10^3 (best of 3 each)."""
    packages = [UML, demo_package()]
    print("\nE10: XML load of generated demo corpora "
          f"(best of {LOAD_REPEATS})")
    print(f"{'elements':>9} {'xml MiB':>8} {'load s':>8} {'us/elem':>8}")
    us_per_element = {}
    for size in LOAD_SIZES:
        model = generate_model("demo", size=size, seed=0).model
        text = write_xml(model)
        elements = sum(1 for _ in model.all_elements())
        del model
        best = float("inf")
        for _ in range(LOAD_REPEATS):
            started = time.perf_counter()
            loaded = read_xml(text, packages)
            best = min(best, time.perf_counter() - started)
            assert sum(1 for _ in loaded.all_elements()) == elements
            del loaded
        us_per_element[size] = best / elements * 1e6
        print(f"{elements:>9} {len(text) / 2**20:>8.2f} {best:>8.3f} "
              f"{us_per_element[size]:>8.1f}")
    assert us_per_element[10_000] <= 1.5 * us_per_element[1000], \
        us_per_element
