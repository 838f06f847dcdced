"""Tests for dictionary encoding of terms."""

from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import TermNotFoundError
from repro.rdf import IRI, Literal, TermDictionary
from repro.rdf.dictionary import encode_term_record


class TestTermDictionary:
    def test_encode_assigns_dense_ids(self):
        d = TermDictionary()
        ids = [d.encode(IRI(f"ex:{i}")) for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_encode_is_idempotent(self):
        d = TermDictionary()
        first = d.encode(IRI("ex:a"))
        second = d.encode(IRI("ex:a"))
        assert first == second
        assert len(d) == 1

    def test_roundtrip(self):
        d = TermDictionary()
        terms = [IRI("ex:a"), Literal("x"), Literal("x", language="en")]
        for term in terms:
            assert d.decode(d.encode(term)) == term

    def test_distinct_literals_get_distinct_ids(self):
        d = TermDictionary()
        assert d.encode(Literal("x")) != d.encode(Literal("x", language="en"))

    def test_lookup_missing_raises(self):
        d = TermDictionary()
        with pytest.raises(TermNotFoundError):
            d.lookup(IRI("ex:missing"))

    def test_lookup_or_none(self):
        d = TermDictionary()
        assert d.lookup_or_none(IRI("ex:missing")) is None
        d.encode(IRI("ex:a"))
        assert d.lookup_or_none(IRI("ex:a")) == 0

    def test_decode_out_of_range_raises(self):
        d = TermDictionary()
        with pytest.raises(TermNotFoundError):
            d.decode(0)
        d.encode(IRI("ex:a"))
        with pytest.raises(TermNotFoundError):
            d.decode(1)
        with pytest.raises(TermNotFoundError):
            d.decode(-1)

    def test_contains_and_iter(self):
        d = TermDictionary()
        d.encode(IRI("ex:a"))
        assert IRI("ex:a") in d
        assert IRI("ex:b") not in d
        assert list(d) == [IRI("ex:a")]


# Any text UTF-8 can carry, non-ASCII included (a lone surrogate cannot).
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_iris = st.builds(IRI, _text.filter(bool))
_terms = st.one_of(
    _iris,
    st.builds(Literal, _text),
    st.builds(Literal, _text, datatype=_iris),
    st.builds(Literal, _text, language=st.text("abz-\u00e9", min_size=1, max_size=5)),
)


def _packed(terms):
    """The term table of ``terms`` (position == id) as the snapshot
    compiler packed it itself: each id's record, the ids sorted by
    record."""
    records = [encode_term_record(term) for term in terms]
    return (
        list(accumulate(map(len, records), initial=0)),
        b"".join(records),
        sorted(range(len(records)), key=records.__getitem__),
    )


def _as_lists(columns):
    offsets, records, by_record = columns
    return list(offsets), bytes(records), list(by_record)


class TestOneForm:
    """A dictionary is record columns plus a tail: freezing folds the
    tail in and changes nothing a reader can see."""

    @given(st.lists(_terms, unique=True, max_size=30), _terms)
    @settings(max_examples=150, deadline=None)
    def test_frozen_opened_and_unfrozen_agree(self, terms, late):
        assume(late not in terms)
        unfrozen, frozen = TermDictionary(), TermDictionary()
        for term in terms:
            assert unfrozen.encode(term) == frozen.encode(term)
        frozen.freeze()
        held = frozen.columns()
        assert all(a is b for a, b in zip(frozen.columns(), held))
        assert _as_lists(held) == _as_lists(unfrozen.columns()) == _packed(terms)
        opened = TermDictionary.over_records(*held)
        for dictionary in (unfrozen, frozen, opened):
            assert len(dictionary) == len(terms)
            assert list(dictionary) == terms
            for term_id, term in enumerate(terms):
                assert dictionary.lookup(term) == term_id
                assert dictionary.encode(term) == term_id
                assert dictionary.decode(term_id) == term
            assert dictionary.lookup_or_none(late) is None and late not in dictionary
            with pytest.raises(TermNotFoundError):
                dictionary.decode(len(terms))
        stats = frozen.statistics()
        assert stats["terms_decoded"] == stats["terms_total"] == len(terms)
        assert stats["snapshot_mapped_bytes"] == 0

        assert frozen.encode(late) == len(terms)
        assert frozen.ids_since(0) == [len(terms)]
        assert frozen.decode(len(terms)) == late
        assert _as_lists(frozen.columns()) == _packed([*terms, late])
