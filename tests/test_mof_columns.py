"""Tests for the columnar extent store (repro.mof.columns).

The store is a struct-of-arrays mirror of each exact-metaclass extent,
maintained off the same notification protocol as the ModelIndex; every
Session enables it.  Everything here pivots on two properties:

* **freshness** — after any edit sequence, a rebuilt block agrees with
  per-object reads cell by cell (``ColumnStore.verify`` is the oracle);
* **output invariance** — a columnar :meth:`Session.check` produces a
  byte-identical diagnostic document to the object-backed run (a session
  whose model had ``disable_columns()`` called), because
  the bulk scans only ever *narrow* which elements get the exact
  per-object checker, never change what it reports.
"""

import json
from array import array

import pytest

from repro.generate import EditFuzzer, demo_generator, demo_package
from repro.mof import (
    M_0N,
    M_11,
    M_1N,
    Model,
    add_reference,
    define_class,
    define_package,
    set_read_hook,
)
from repro.mof.validate import validate_element
from repro.session import Session


@pytest.fixture
def library_model():
    root = demo_generator(5).generate(40)
    model = Model("urn:columns")
    model.add_root(root)
    return model


class TestColumnStoreReads:
    def test_conforming_values_match_object_reads(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        values = store.conforming_values(book, "pages")
        expected = [e.eget("pages")
                    for e in library_model.instances_of(book)]
        assert list(values) == expected

    def test_pure_int_attribute_compacts_to_typed_array(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        block = store.block(book)
        if all(isinstance(v, int) for v in block.columns["pages"]):
            assert isinstance(block.columns["pages"], array)

    def test_inapplicable_features_return_none(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        assert store.conforming_values(book, "tags") is None      # many
        assert store.conforming_values(book, "sequel") is None    # reference
        assert store.conforming_values(book, "nope") is None      # unknown

    def test_superclass_read_spans_subclass_extents(self, library_model):
        store = library_model.enable_columns()
        named = demo_package().classifier("GNamed")
        values = store.conforming_values(named, "name")
        assert values is not None
        assert len(values) == len(library_model.instances_of(named))

    def test_read_hook_gates_bulk_reads(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        assert store.conforming_values(book, "pages") is not None
        previous = set_read_hook(lambda element, key: None)
        try:
            # dependency tracking must see per-element reads; the bulk
            # path would hide them, so it refuses
            assert store.conforming_values(book, "pages") is None
        finally:
            set_read_hook(previous)
        assert store.conforming_values(book, "pages") is not None


class TestColumnStoreMaintenance:
    def test_write_invalidates_and_rebuild_reflects_it(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        some_book = library_model.instances_of(book)[0]
        before = store.conforming_values(book, "pages")
        invalidations = store.invalidations
        some_book.eset("pages", 123456)
        assert store.invalidations > invalidations
        after = store.conforming_values(book, "pages")
        assert 123456 in after
        assert before != after

    def test_verify_reports_injected_divergence(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        block = store.block(book)
        assert store.verify() == []
        # simulate a missed notification by corrupting one cell; the
        # column must be a boxed list for in-place corruption
        block.columns["color"] = list(block.columns["color"])
        block.columns["color"][0] = "not-a-color"
        assert any("color[0]" in problem for problem in store.verify())

    def test_detach_stops_maintenance(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        store.block(book)
        library_model.disable_columns()
        assert library_model.column_store() is None
        invalidations = store.invalidations
        library_model.instances_of(book)[0].eset("pages", 7)
        assert store.invalidations == invalidations

    def test_stats_shape(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        store.conforming_values(book, "pages")
        stats = store.stats()
        assert stats["enabled"] is True
        assert stats["bulk_reads"] >= 1
        assert stats["rebuilds"] >= 1
        assert stats["bytes"] > 0
        assert stats["per_extent"]["GBook"]["rows"] == len(
            library_model.instances_of(book, exact=True))


class TestStructuralScan:
    def _strict_package(self):
        pkg = define_package("colstruct", "urn:test:colstruct")
        box = define_class(pkg, "CBox")
        item = define_class(pkg, "CItem")
        add_reference(box, "items", item, containment=True,
                      multiplicity=M_1N)
        add_reference(box, "lid", item, multiplicity=M_11)
        add_reference(box, "subboxes", box, containment=True,
                      multiplicity=M_0N)
        return pkg, box, item

    def test_scan_flags_every_structural_violator(self):
        _pkg, box_class, item_class = self._strict_package()
        root = box_class.instantiate()
        model = Model("urn:strict")
        model.add_root(root)
        good = item_class.instantiate()
        root.eget("items").append(good)
        root.eset("lid", good)                   # root is clean
        bad = box_class.instantiate()            # items empty under 1..*,
        root.eget("subboxes").append(bad)        # lid unset under 1..1

        store = model.enable_columns()
        suspects = store.scan_structural()
        violators = {
            id(e) for e in model.all_elements()
            if validate_element(e, check_invariants=False).diagnostics}
        # completeness: the bulk scan may over-approximate but must
        # never miss an element the per-object validator would flag
        assert id(bad) in violators
        assert violators <= set(suspects)
        # ...and after a repair, a rebuilt scan clears the suspect
        bad.eget("items").append(item_class.instantiate())
        bad.eset("lid", bad.eget("items")[0])
        assert id(bad) not in store.scan_structural()

    def test_clean_model_scan_bounds_revalidation(self, library_model):
        store = library_model.enable_columns()
        suspects = store.scan_structural()
        model_elements = {id(e) for e in library_model.all_elements()}
        # over-approximation is allowed, but suspects must still be
        # elements of this model
        assert set(suspects) <= model_elements


class TestColumnarSessionParity:
    """Columnar on/off must not change a single output byte."""

    @pytest.mark.parametrize("seed", range(50))
    def test_check_documents_byte_identical(self, seed):
        plain = Session(self._fresh_root(seed))
        plain.model.disable_columns()            # the object-path reference
        columnar = Session(self._fresh_root(seed))
        assert plain.model.column_store() is None
        assert columnar.model.column_store() is not None
        assert self._doc(plain) == self._doc(columnar)
        # ...and still after an identically seeded fuzz of both models
        EditFuzzer(plain.roots[0], seed=seed).apply_random_edits(20)
        EditFuzzer(columnar.roots[0], seed=seed).apply_random_edits(20)
        assert self._doc(plain) == self._doc(columnar)

    @staticmethod
    def _fresh_root(seed):
        root = demo_generator(seed).generate(25)
        model = Model(f"urn:parity{seed}")
        model.add_root(root)
        return model

    @staticmethod
    def _doc(session):
        return json.dumps(session.check().to_json(), sort_keys=True)

    def test_session_stats_reports_columns(self, library_model):
        session = Session(library_model)
        session.check(["structural", "invariant"])
        stats = session.stats()["model"]["columns"]
        assert stats["enabled"] is True
        assert stats["extents"] > 0
        session.model.disable_columns()
        assert session.stats()["model"]["columns"] == {"enabled": False}
