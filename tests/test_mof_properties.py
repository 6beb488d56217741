"""Property-based tests: random mutation sequences never break the
kernel's two global invariants (opposite consistency, single container),
and structural validation agrees."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mof import transaction, validate_element
from repro.mof.kernel import SIDECAR_MIN, FeatureList
from kernel_fixture import TBook, TChapter, TLibrary

# A mutation script is a list of (op, indices) tuples interpreted over a
# fixed population of libraries and books.

N_LIBS = 3
N_BOOKS = 5

operation = st.sampled_from(
    ["attach", "detach", "move", "sequel", "unsequel", "feature", "chapter"])
script_step = st.tuples(operation,
                        st.integers(0, N_LIBS - 1),
                        st.integers(0, N_BOOKS - 1),
                        st.integers(0, N_BOOKS - 1))


def apply_step(libs, books, step):
    op, lib_index, book_index, other_index = step
    lib = libs[lib_index]
    book = books[book_index]
    other = books[other_index]
    if op == "attach":
        lib.books.append(book)
    elif op == "detach":
        if book in lib.books:
            lib.books.remove(book)
    elif op == "move":
        libs[(lib_index + 1) % N_LIBS].books.append(book)
    elif op == "sequel":
        if book is not other:
            book.sequel = other
    elif op == "unsequel":
        book.sequel = None
    elif op == "feature":
        lib.featured = book
    elif op == "chapter":
        chapter = TChapter(name=f"ch{other_index}")
        book.chapters.append(chapter)
    # the ops below only appear in the membership-sidecar scripts
    elif op == "fill":
        for candidate in books:
            lib.books.append(candidate)
    elif op == "clear":
        lib.books.clear()
    elif op == "reorder":
        if book in lib.books:
            lib.books.move(0, book)
    elif op == "delete":
        book.delete()
    elif op == "abort":
        with pytest.raises(_Abort):
            with transaction():
                for candidate in books:
                    libs[(lib_index + 1) % N_LIBS].books.append(candidate)
                lib.books.clear()
                other.delete()
                raise _Abort


class _Abort(RuntimeError):
    pass


def check_global_invariants(libs, books):
    # 1. opposite consistency both directions
    for lib in libs:
        for book in lib.books:
            assert book.library is lib
            assert book.container is lib
    for book in books:
        if book.library is not None:
            assert book in book.library.books
        if book.sequel is not None:
            assert book.sequel.prequel is book
        if book.prequel is not None:
            assert book.prequel.sequel is book
        # 2. single container
        containers = [lib for lib in libs if book in lib.books]
        assert len(containers) <= 1
        for chapter in book.chapters:
            assert chapter.book is book
            assert chapter.container is book


@settings(max_examples=120, deadline=None)
@given(st.lists(script_step, max_size=25))
def test_random_mutations_keep_invariants(script):
    libs = [TLibrary(name=f"L{i}") for i in range(N_LIBS)]
    books = [TBook(name=f"B{i}") for i in range(N_BOOKS)]
    for step in script:
        apply_step(libs, books, step)
    check_global_invariants(libs, books)
    for element in libs + books:
        report = validate_element(element, check_invariants=False)
        assert report.ok, str(report)


@settings(max_examples=60, deadline=None)
@given(st.lists(script_step, max_size=15))
def test_delete_is_always_clean(script):
    libs = [TLibrary(name=f"L{i}") for i in range(N_LIBS)]
    books = [TBook(name=f"B{i}") for i in range(N_BOOKS)]
    for step in script:
        apply_step(libs, books, step)
    victim = books[0]
    victim.delete()
    assert victim.container is None
    assert victim.library is None
    assert victim.sequel is None and victim.prequel is None
    for lib in libs:
        assert victim not in lib.books
    check_global_invariants(libs, books[1:])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=5), max_size=10))
def test_many_attribute_roundtrip(values):
    book = TBook()
    book.tags = values
    # uniqueness: the feature keeps first occurrence of each distinct value
    expected = []
    for value in values:
        if value not in expected:
            expected.append(value)
    assert list(book.tags) == expected


# Membership sidecars: long reference lists answer ``in`` from a set of
# item ids.  A wider book population lets scripts push a library past
# SIDECAR_MIN and back (fill/clear/delete/reparent/abort).

N_SIDECAR_BOOKS = SIDECAR_MIN + 4

sidecar_step = st.tuples(
    st.sampled_from(["attach", "detach", "move", "chapter", "fill", "clear",
                     "reorder", "delete", "abort"]),
    st.integers(0, N_LIBS - 1),
    st.integers(0, N_SIDECAR_BOOKS - 1),
    st.integers(0, N_SIDECAR_BOOKS - 1))


def check_membership_sidecars(pool):
    for element in pool:
        for slot in element._slots.values():
            if not isinstance(slot, FeatureList) \
                    or not slot._feature.is_reference:
                continue
            items = slot._items
            assert (slot._ids is not None) == (len(items) > SIDECAR_MIN)
            if slot._ids is not None:
                assert slot._ids == {id(v) for v in items}
            for candidate in pool:
                assert (candidate in slot) == \
                    any(v is candidate for v in items)


@settings(max_examples=80, deadline=None)
@given(st.lists(sidecar_step, max_size=20))
@example([("fill", 0, 0, 1), ("reorder", 0, 9, 0), ("move", 0, 3, 0),
          ("abort", 1, 0, 2), ("delete", 0, 4, 0), ("fill", 2, 0, 0),
          ("clear", 2, 0, 0)] + [("chapter", 0, 5, 0)] * (SIDECAR_MIN + 2)
         + [("abort", 0, 0, 5)])
def test_membership_sidecar_tracks_items(script):
    libs = [TLibrary(name=f"L{i}") for i in range(N_LIBS)]
    books = [TBook(name=f"B{i}") for i in range(N_SIDECAR_BOOKS)]
    for step in script:
        apply_step(libs, books, step)
        pool = libs + books + [c for b in books for c in b.chapters]
        check_membership_sidecars(pool)
    check_global_invariants(libs, books)
