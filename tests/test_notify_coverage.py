"""Notification coverage: every mutating kernel operation announces itself.

A change-driven revalidation engine is only as sound as the change feed
it subscribes to: one silent mutation and the cache serves stale
diagnostics forever.  This suite pins down, per mutation entry point,
*that* a notification fires and *what* it carries — kind, effective old
value (the declared default when the slot was never set), new value and
position — plus the negative space: operations that do NOT change
anything must stay silent, and failed mutations (frozen targets) must
change neither side.  The dispatch-safety cases (observers detached or
attached mid-dispatch, ``ChangeRecorder.clear`` while a snapshot is
held) are regression tests for real bugs.
"""

from __future__ import annotations

import pytest

from kernel_fixture import TBook, TChapter, TLibrary
from repro.mof import ChangeKind, ChangeRecorder, FrozenElementError
from repro.mof.repository import Model


@pytest.fixture
def lib():
    library = TLibrary(name="lib")
    return library


@pytest.fixture
def book():
    return TBook(name="b")


def record(element):
    recorder = ChangeRecorder()
    element.observe(recorder)
    return recorder


def last(recorder):
    assert recorder.notifications, "expected a notification"
    return recorder.notifications[-1]


# ---------------------------------------------------------------------------
# Single-valued attributes
# ---------------------------------------------------------------------------

class TestAttributeSet:
    def test_set_reports_effective_default_as_old(self, book):
        recorder = record(book)
        book.pages = 150
        n = last(recorder)
        assert (n.kind, n.old, n.new) == (ChangeKind.SET, 100, 150)
        assert n.feature.name == "pages"

    def test_set_reports_previous_value_as_old(self, book):
        book.pages = 150
        recorder = record(book)
        book.pages = 200
        n = last(recorder)
        assert (n.old, n.new) == (150, 200)

    def test_set_to_none_is_unset(self, book):
        recorder = record(book)
        book.name = None
        n = last(recorder)
        assert (n.kind, n.old, n.new) == (ChangeKind.UNSET, "b", None)

    def test_eunset_notifies(self, book):
        recorder = record(book)
        book.eunset("name")
        assert last(recorder).kind == ChangeKind.UNSET

    def test_set_same_value_is_silent(self, book):
        book.pages = 150
        recorder = record(book)
        book.pages = 150
        assert len(recorder) == 0

    def test_assigning_the_default_is_silent(self, book):
        # pages defaults to 100; writing 100 changes nothing observable
        recorder = record(book)
        book.pages = 100
        assert len(recorder) == 0
        assert book.eis_set("pages")   # the slot itself did materialise


# ---------------------------------------------------------------------------
# Many-valued attributes
# ---------------------------------------------------------------------------

class TestManyAttribute:
    def test_append_carries_position(self, book):
        recorder = record(book)
        book.tags.append("sf")
        book.tags.append("hugo")
        kinds = [(n.kind, n.new, n.position) for n in recorder.notifications]
        assert kinds == [(ChangeKind.ADD, "sf", 0),
                         (ChangeKind.ADD, "hugo", 1)]

    def test_insert_carries_position(self, book):
        book.tags.extend(["a", "c"])
        recorder = record(book)
        book.tags.insert(1, "b")
        n = last(recorder)
        assert (n.kind, n.new, n.position) == (ChangeKind.ADD, "b", 1)

    def test_remove_carries_value_and_position(self, book):
        book.tags.extend(["a", "b", "c"])
        recorder = record(book)
        book.tags.remove("b")
        n = last(recorder)
        assert (n.kind, n.old, n.position) == (ChangeKind.REMOVE, "b", 1)

    def test_pop_notifies_with_position(self, book):
        book.tags.extend(["a", "b"])
        recorder = record(book)
        assert book.tags.pop() == "b"
        n = last(recorder)
        assert (n.kind, n.old, n.position) == (ChangeKind.REMOVE, "b", 1)

    def test_duplicate_append_is_silent(self, book):
        book.tags.append("a")
        recorder = record(book)
        book.tags.append("a")     # unique-values semantics: no-op
        assert len(recorder) == 0

    def test_move_notifies_old_index_and_new_position(self, book):
        book.tags.extend(["a", "b", "c"])
        recorder = record(book)
        book.tags.move(0, "c")
        n = last(recorder)
        assert (n.kind, n.old, n.new, n.position) == \
            (ChangeKind.MOVE, 2, "c", 0)
        assert list(book.tags) == ["c", "a", "b"]

    def test_move_to_same_index_is_silent(self, book):
        book.tags.extend(["a", "b"])
        recorder = record(book)
        book.tags.move(1, "b")
        assert len(recorder) == 0


# ---------------------------------------------------------------------------
# References and opposites
# ---------------------------------------------------------------------------

class TestReferences:
    def test_set_notifies_both_ends(self):
        b1, b2 = TBook(name="b1"), TBook(name="b2")
        r1, r2 = record(b1), record(b2)
        b1.sequel = b2
        assert (last(r1).kind, last(r1).new) == (ChangeKind.SET, b2)
        assert last(r1).feature.name == "sequel"
        assert (last(r2).kind, last(r2).new) == (ChangeKind.SET, b1)
        assert last(r2).feature.name == "prequel"

    def test_set_same_target_is_silent(self):
        b1, b2 = TBook(), TBook()
        b1.sequel = b2
        r1, r2 = record(b1), record(b2)
        b1.sequel = b2
        assert len(r1) == 0 and len(r2) == 0

    def test_displacement_unsets_old_opposite(self):
        b1, b2, b3 = TBook(name="b1"), TBook(name="b2"), TBook(name="b3")
        b1.sequel = b2
        r2 = record(b2)
        b1.sequel = b3
        n = last(r2)
        assert (n.kind, n.feature.name, n.old) == \
            (ChangeKind.UNSET, "prequel", b1)

    def test_set_to_none_unlinks_both_ends(self):
        b1, b2 = TBook(), TBook()
        b1.sequel = b2
        r1, r2 = record(b1), record(b2)
        b1.sequel = None
        assert last(r1).kind == ChangeKind.UNSET
        assert (last(r2).kind, last(r2).feature.name) == \
            (ChangeKind.UNSET, "prequel")

    def test_containment_add_sets_opposite_and_container(self, lib, book):
        rl, rb = record(lib), record(book)
        lib.books.append(book)
        n = last(rl)
        assert (n.kind, n.new, n.position) == (ChangeKind.ADD, book, 0)
        assert (last(rb).kind, last(rb).feature.name) == \
            (ChangeKind.SET, "library")
        assert book.container is lib

    def test_containment_remove_carries_position(self, lib):
        books = [TBook(name=f"b{i}") for i in range(3)]
        lib.books.extend(books)
        rl = record(lib)
        rb = record(books[1])
        lib.books.remove(books[1])
        n = last(rl)
        assert (n.kind, n.old, n.position) == \
            (ChangeKind.REMOVE, books[1], 1)
        assert (last(rb).kind, last(rb).feature.name) == \
            (ChangeKind.UNSET, "library")
        assert books[1].container is None

    def test_reparent_notifies_old_and_new_parent(self, book):
        lib1, lib2 = TLibrary(name="l1"), TLibrary(name="l2")
        lib1.books.append(book)
        r1, r2 = record(lib1), record(lib2)
        lib2.books.append(book)
        assert (last(r1).kind, last(r1).old) == (ChangeKind.REMOVE, book)
        assert (last(r2).kind, last(r2).new) == (ChangeKind.ADD, book)
        assert book.container is lib2

    def test_delete_announces_every_broken_link(self, lib, book):
        lib.books.append(book)
        lib.featured = book
        chapter = TChapter(name="ch")
        book.chapters.append(chapter)
        rl, rb, rc = record(lib), record(book), record(chapter)
        book.delete()
        assert any(n.kind == ChangeKind.REMOVE and n.old is book
                   for n in rl.notifications)          # left lib.books
        # featured has no opposite: delete() cannot see that incoming
        # link, so it dangles (documented kernel semantics)
        assert lib.featured is book
        assert any(n.feature.name == "chapters"
                   for n in rb.notifications)          # dropped chapter
        assert any(n.feature.name == "book"
                   for n in rc.notifications)          # chapter's inverse
        assert book.container is None and chapter.container is None


# ---------------------------------------------------------------------------
# Frozen-target atomicity
# ---------------------------------------------------------------------------

class TestFrozenAtomicity:
    def test_link_to_frozen_target_changes_neither_side(self):
        b1, b2 = TBook(name="b1"), TBook(name="b2")
        b2.freeze()
        recorder = record(b1)
        with pytest.raises(FrozenElementError):
            b1.sequel = b2
        assert b1.sequel is None
        assert b2.prequel is None
        assert len(recorder) == 0

    def test_unlink_from_frozen_target_changes_neither_side(self):
        b1, b2 = TBook(name="b1"), TBook(name="b2")
        b1.sequel = b2
        b2.freeze()
        with pytest.raises(FrozenElementError):
            b1.sequel = None
        assert b1.sequel is b2
        assert b2.prequel is b1

    def test_frozen_source_still_vetoes(self):
        b1, b2 = TBook(), TBook()
        b1.freeze()
        with pytest.raises(FrozenElementError):
            b1.sequel = b2


# ---------------------------------------------------------------------------
# Dispatch safety
# ---------------------------------------------------------------------------

class TestDispatchSafety:
    def test_observer_detached_mid_dispatch_is_not_called(self, book):
        calls = []

        def second(notification):
            calls.append("second")

        def first(notification):
            calls.append("first")
            book.unobserve(second)

        book.observe(first)
        book.observe(second)
        book.pages = 1
        assert calls == ["first"]
        book.pages = 2
        assert calls == ["first", "first"]

    def test_observer_removing_itself_survives(self, book):
        calls = []

        def once(notification):
            calls.append(notification.new)
            book.unobserve(once)

        book.observe(once)
        book.pages = 1
        book.pages = 2
        assert calls == [1]

    def test_observer_attached_mid_dispatch_misses_current_change(self, book):
        calls = []

        def late(notification):
            calls.append(("late", notification.new))

        def first(notification):
            book.observe(late)

        book.observe(first)
        book.pages = 1
        assert calls == []
        book.pages = 2
        assert calls == [("late", 2)]

    def test_model_observer_detached_mid_dispatch(self, lib):
        model = Model("urn:test:m")
        model.add_root(lib)
        calls = []

        def second(notification):
            calls.append("second")

        def first(notification):
            calls.append("first")
            model.unobserve(second)

        model.observe(first)
        model.observe(second)
        lib.name = "renamed"
        assert calls == ["first"]

    def test_model_forwards_nested_element_changes(self, lib, book):
        model = Model("urn:test:m")
        model.add_root(lib)
        lib.books.append(book)
        recorder = ChangeRecorder()
        model.observe(recorder)
        book.pages = 7
        assert last(recorder).element is book

    def test_recorder_clear_rebinds_list(self, book):
        recorder = record(book)
        book.pages = 1
        snapshot = recorder.notifications
        recorder.clear()
        book.pages = 2
        assert [n.new for n in snapshot] == [1]
        assert [n.new for n in recorder.notifications] == [2]

    def test_recorder_clear_during_dispatch_keeps_later_changes(self, book):
        recorder = ChangeRecorder()

        def clearing(notification):
            if notification.new == 1:
                recorder.clear()

        book.observe(recorder)
        book.observe(clearing)
        book.pages = 1
        book.pages = 2
        # the clear dropped change 1 only; change 2 landed in the new list
        assert [n.new for n in recorder.notifications] == [2]


# ---------------------------------------------------------------------------
# The sweep: every mutation entry point, counted
# ---------------------------------------------------------------------------

MUTATIONS = [
    ("eset attr", lambda lib, book: book.eset("pages", 1), 1),
    ("descriptor attr", lambda lib, book: setattr(book, "pages", 2), 1),
    ("eunset attr", lambda lib, book: book.eunset("name"), 1),
    ("many append", lambda lib, book: book.tags.append("x"), 1),
    ("many insert", lambda lib, book: book.tags.insert(0, "y"), 1),
    ("many extend", lambda lib, book: book.tags.extend(["p", "q"]), 2),
    ("eset many", lambda lib, book: book.eset("tags", ["z"]), 1),
    ("containment append", lambda lib, book: lib.books.append(book), 2),
    ("single ref set", lambda lib, book: setattr(lib, "featured", book), 1),
    ("opposite ref set",
     lambda lib, book: setattr(book, "sequel", TBook()), 1),
]


@pytest.mark.parametrize("label,mutate,expected",
                         [m for m in MUTATIONS], ids=[m[0] for m in MUTATIONS])
def test_no_silent_mutations(label, mutate, expected):
    """Each entry point emits exactly the expected notifications on the
    mutated element (opposite-end notifications land on the other
    element and are covered above)."""
    lib, book = TLibrary(name="l"), TBook(name="b")
    recorder = ChangeRecorder()
    lib.observe(recorder)
    book.observe(recorder)
    mutate(lib, book)
    assert len(recorder) == expected, \
        f"{label}: expected {expected} notifications, got " \
        f"{[str(n) for n in recorder.notifications]}"


# ---------------------------------------------------------------------------
# Inverse sufficiency: the journal can undo every change kind
# ---------------------------------------------------------------------------

class TestInverseSufficiency:
    """The transaction journal (repro.mof.txn) is only as good as the
    notifications it replays: every :class:`ChangeKind` must carry
    enough state — effective old value, position, both ends of a link —
    to reconstruct the pre-state.  These tests apply the documented
    inverse of each kind *by hand* from the captured notification and
    assert the mutation disappears, pinning the record format the
    rollback machinery depends on."""

    def test_set_old_value_suffices(self, book):
        book.pages = 7
        recorder = record(book)
        book.pages = 9
        n = last(recorder)
        assert n.kind is ChangeKind.SET
        book.eset(n.feature.name, n.old)
        assert book.pages == 7

    def test_unset_old_value_suffices(self, book):
        recorder = record(book)
        book.eunset("name")
        n = last(recorder)
        assert n.kind is ChangeKind.UNSET and n.old == "b"
        book.eset(n.feature.name, n.old)
        assert book.name == "b"

    def test_add_new_value_suffices(self, book):
        recorder = record(book)
        book.tags.append("x")
        n = last(recorder)
        assert n.kind is ChangeKind.ADD and n.new == "x"
        book.eget(n.feature.name).remove(n.new)
        assert list(book.tags) == []

    def test_remove_carries_value_and_exact_position(self, book):
        book.tags.extend(["a", "b", "c"])
        recorder = record(book)
        book.tags.remove("b")
        n = last(recorder)
        assert n.kind is ChangeKind.REMOVE
        assert (n.old, n.position) == ("b", 1)
        book.eget(n.feature.name).insert(n.position, n.old)
        assert list(book.tags) == ["a", "b", "c"]

    def test_move_old_index_suffices(self, book):
        book.tags.extend(["a", "b", "c"])
        recorder = record(book)
        book.tags.move(2, "a")
        n = last(recorder)
        assert n.kind is ChangeKind.MOVE
        assert (n.old, n.new, n.position) == (0, "a", 2)
        book.eget(n.feature.name).move(n.old, n.new)
        assert list(book.tags) == ["a", "b", "c"]

    def test_containment_remove_restores_link_and_position(self, lib):
        books = [TBook(name=t) for t in ("x", "y", "z")]
        for b in books:
            lib.books.append(b)
        recorder = record(lib)
        lib.books.remove(books[1])
        n = last(recorder)
        assert n.kind is ChangeKind.REMOVE
        assert (n.old, n.position) == (books[1], 1)
        lib.books.insert(n.position, n.old)
        assert [b.name for b in lib.books] == ["x", "y", "z"]
        assert books[1].library is lib      # opposite re-established

    def test_opposite_add_notification_carries_position(self, lib):
        """The non-owning end of a bidirectional link also reports the
        index its slot changed at — the record a faithful ordered-list
        rollback needs (regression: it used to report position=None)."""
        first, second = TBook(name="f"), TBook(name="s")
        lib.books.append(first)
        lib.books.append(second)
        recorder = record(lib)
        # set from the *book* side: lib's ADD arrives via the opposite
        third = TBook(name="t")
        third.library = lib
        adds = [n for n in recorder.notifications
                if n.kind is ChangeKind.ADD and n.element is lib]
        assert len(adds) == 1
        assert adds[0].position == 2

    def test_opposite_remove_notification_carries_position(self, lib):
        books = [TBook(name=t) for t in ("x", "y", "z")]
        for b in books:
            lib.books.append(b)
        recorder = record(lib)
        books[1].library = None          # unset from the *book* side
        n = last(recorder)
        assert (n.kind, n.old, n.position) == (ChangeKind.REMOVE, books[1], 1)

    def test_frozen_veto_emits_nothing_to_undo(self, lib):
        """A vetoed mutation must not notify: if it did, rollback would
        'undo' a change that never happened."""
        book = TBook(name="b")
        lib.books.append(book)
        lib.freeze(recursive=False)
        recorder = record(lib)
        book_recorder = record(book)
        try:
            with pytest.raises(FrozenElementError):
                lib.books.remove(book)
        finally:
            lib.unfreeze(recursive=False)
        assert len(recorder) == 0
        assert len(book_recorder) == 0


# ---------------------------------------------------------------------------
# Emission gate: notifications are built only for listeners
# ---------------------------------------------------------------------------

class _Abort(RuntimeError):
    pass


@pytest.fixture
def built(monkeypatch):
    """Every Notification the kernel constructs, in order."""
    from repro.mof import kernel
    made = []
    real = kernel.Notification

    def counting(*args, **kwargs):
        notification = real(*args, **kwargs)
        made.append(notification)
        return notification

    monkeypatch.setattr(kernel, "Notification", counting)
    return made


def build_shelf(n_books=12):
    """A load-like detached build: construct, fill attributes, contain
    children, then link cross references and reorder."""
    lib = TLibrary(name="shelf")
    books = [TBook(name=f"b{i}") for i in range(n_books)]
    for i, book in enumerate(books):
        book.pages = 10 + i
        book.tags.append("t")
        book.chapters.append(TChapter(name="c"))
        lib.books.append(book)
    books[0].sequel = books[1]
    lib.featured = books[2]
    lib.books.move(0, books[5])
    return lib, books


def stream(notifications):
    return [(n.element, n.feature.name, n.kind, n.old, n.new, n.position)
            for n in notifications]


class TestEmissionGate:
    def script(self, lib, book):
        lib.books.append(book)
        self.script_tail(lib, book)

    def script_tail(self, lib, book):
        book.pages = 7
        book.tags.append("x")
        lib.books.remove(book)

    def expected(self, lib, book):
        K = ChangeKind
        return [(lib, "books", K.ADD, None, book, 0),
                (book, "library", K.SET, None, lib, None),
                (book, "pages", K.SET, 100, 7, None),
                (book, "tags", K.ADD, None, "x", 0),
                (lib, "books", K.REMOVE, book, None, 0),
                (book, "library", K.UNSET, lib, None, None)]

    def test_detached_build_without_listener_builds_nothing(self, built):
        lib, books = build_shelf()
        assert len(lib.books) == 12 and lib.books[0] is books[5]
        assert built == []

    def test_model_without_observers_builds_nothing(self, built, lib, book):
        Model("urn:test:quiet").add_root(lib)
        self.script(lib, book)
        assert built == []

    def test_notify_hook_sees_the_full_stream(self, built, lib, book):
        from repro.mof import set_notify_hook
        seen = []
        previous = set_notify_hook(seen.append)
        try:
            self.script(lib, book)
        finally:
            set_notify_hook(previous)
        assert stream(seen) == self.expected(lib, book)
        assert built == seen

    def test_element_observers_see_their_own_changes(self, built, lib, book):
        on_lib, on_book = record(lib), record(book)
        self.script(lib, book)
        expected = self.expected(lib, book)
        assert stream(on_lib.notifications) == \
            [e for e in expected if e[0] is lib]
        assert stream(on_book.notifications) == \
            [e for e in expected if e[0] is book]
        assert len(built) == len(expected)

    def test_model_index_is_a_listener(self, built, lib, book):
        model = Model("urn:test:indexed")
        model.add_root(lib)
        index = model.index()
        recorder = ChangeRecorder()
        model.observe(recorder)
        lib.books.append(book)
        assert model.instances_of(TBook._meta) == [book]
        self.script_tail(lib, book)
        assert model.instances_of(TBook._meta) == []
        assert index.verify() == []
        # the book's own UNSET lands after it left the model: no model
        # listener, so it is never built
        expected = self.expected(lib, book)[:-1]
        assert stream(recorder.notifications) == expected
        assert stream(built) == expected

    def test_open_transaction_journals_the_full_stream(self, built, lib,
                                                      book):
        from repro.mof import transaction
        with transaction() as txn:
            self.script(lib, book)
            journal = list(txn.journal)
        assert stream(journal) == self.expected(lib, book)
        assert built == journal

    def test_rollback_of_load_like_build_is_exact(self, lib):
        from repro.mof import transaction
        from repro.xmi import write_xml
        model = Model("urn:test:rollback")
        model.add_root(lib)
        keep = TBook(name="keep")
        lib.books.append(keep)
        before = write_xml(model)
        with pytest.raises(_Abort):
            with transaction():
                shelf, books = build_shelf()
                for book in books:
                    lib.books.append(book)
                keep.sequel = books[3]
                raise _Abort
        assert write_xml(model) == before
        assert list(lib.books) == [keep] and keep.sequel is None
        assert len(shelf.books) == 0 and shelf.featured is None
        assert all(b.container is None and b.sequel is None
                   and len(b.chapters) == 0 for b in books)
