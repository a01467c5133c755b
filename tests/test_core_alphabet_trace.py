"""Unit tests for the policy alphabet and the trace containers."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core.alphabet import (
    EVICT,
    MISS_OUTPUT,
    Evict,
    Line,
    is_evict_input,
    is_line_input,
    policy_input_alphabet,
    policy_output_alphabet,
    validate_output,
)
from repro.core.trace import Trace, TraceStep


class TestAlphabet:
    def test_input_alphabet_order_and_size(self):
        alphabet = policy_input_alphabet(4)
        assert alphabet == (Line(0), Line(1), Line(2), Line(3), EVICT)

    def test_output_alphabet(self):
        assert policy_output_alphabet(3) == (MISS_OUTPUT, 0, 1, 2)

    @pytest.mark.parametrize("associativity", [0, -1])
    def test_invalid_associativity_rejected(self, associativity):
        with pytest.raises(ValueError):
            policy_input_alphabet(associativity)
        with pytest.raises(ValueError):
            policy_output_alphabet(associativity)

    def test_line_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Line(-1)

    def test_line_ordering_and_hashing(self):
        assert Line(0) < Line(1)
        assert len({Line(2), Line(2), Line(3)}) == 2
        assert Line(5) == Line(5)

    def test_evict_is_singleton_like(self):
        assert Evict() == EVICT
        assert hash(Evict()) == hash(EVICT)

    def test_predicates(self):
        assert is_line_input(Line(1)) and not is_line_input(EVICT)
        assert is_evict_input(EVICT) and not is_evict_input(Line(1))

    def test_validate_output_accepts_wellformed(self):
        validate_output(Line(2), MISS_OUTPUT, 4)
        validate_output(EVICT, 3, 4)

    @pytest.mark.parametrize(
        "symbol,output",
        [(Line(0), 1), (EVICT, MISS_OUTPUT), (EVICT, 4), (EVICT, -1)],
    )
    def test_validate_output_rejects_malformed(self, symbol, output):
        with pytest.raises(ValueError):
            validate_output(symbol, output, 4)

    def test_str_representations(self):
        assert str(Line(3)) == "Ln(3)"
        assert str(EVICT) == "Evct"
        assert repr(Line(3)) == "Ln(3)"
        assert repr(EVICT) == "Evct"
        assert repr((Line(0), EVICT)) == "(Ln(0), Evct)"


class TestInternedSymbols:
    def test_line_is_interned_per_index(self):
        assert Line(3) is Line(3)
        assert Line(3) is not Line(4)
        assert Line(index=3) is Line(3)
        assert Line(index=3).index == 3

    def test_evict_is_the_singleton(self):
        assert Evict() is EVICT
        assert Evict() is Evict()

    def test_identity_equality_and_hashing(self):
        assert Line(2) == Line(2)
        assert Line(2) != Line(3)
        assert Line(2) != EVICT
        assert Line(2) != 2
        assert {Line(2): "a"}[Line(2)] == "a"

    @pytest.mark.parametrize("index", [-1, -7])
    def test_negative_index_raises_value_error(self, index):
        with pytest.raises(ValueError):
            Line(index)

    @pytest.mark.parametrize("index", [1.0, "1", None, 2.5])
    def test_non_integral_index_raises_type_error(self, index):
        with pytest.raises(TypeError):
            Line(index)

    def test_attributes_cannot_be_assigned(self):
        line = Line(1)
        with pytest.raises(AttributeError):
            line.index = 2
        with pytest.raises(FrozenInstanceError):
            line.other = 0
        with pytest.raises(AttributeError):
            del line.index
        with pytest.raises(AttributeError):
            EVICT.index = 0
        assert line.index == 1

    @pytest.mark.parametrize(
        "roundtrip",
        [
            lambda symbol: pickle.loads(pickle.dumps(symbol)),
            lambda symbol: pickle.loads(pickle.dumps(symbol, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
    )
    def test_roundtrips_return_the_interned_instance(self, roundtrip):
        assert roundtrip(Line(5)) is Line(5)
        assert roundtrip(EVICT) is EVICT
        word = (Line(0), EVICT, Line(7))
        restored = roundtrip(word)
        assert all(a is b for a, b in zip(restored, word))

    def test_store_codec_roundtrip_returns_the_interned_instance(self):
        # Importing the query engine registers the symbol codecs.
        import repro.learning.query_engine  # noqa: F401
        from repro.store.codec import decode_symbol, encode_symbol

        assert decode_symbol(encode_symbol(Line(6))) is Line(6)
        assert decode_symbol(encode_symbol(EVICT)) is EVICT

    def test_lines_sort_by_index(self):
        assert sorted([Line(3), Line(0), Line(2)]) == [Line(0), Line(2), Line(3)]
        assert Line(1) <= Line(1) < Line(2)
        assert Line(2) >= Line(2) > Line(1)
        assert not EVICT < Evict()
        assert EVICT <= Evict()

    @pytest.mark.parametrize(
        "compare",
        [
            lambda a, b: a < b,
            lambda a, b: a <= b,
            lambda a, b: a > b,
            lambda a, b: a >= b,
        ],
    )
    def test_line_and_evict_do_not_order(self, compare):
        with pytest.raises(TypeError):
            compare(Line(0), EVICT)
        with pytest.raises(TypeError):
            compare(EVICT, Line(0))
        with pytest.raises(TypeError):
            sorted([Line(1), EVICT, Line(0)])


class TestTrace:
    def test_from_pairs_and_projections(self):
        trace = Trace.from_pairs(["A", "B"], ["Miss", "Hit"])
        assert trace.inputs == ("A", "B")
        assert trace.outputs == ("Miss", "Hit")
        assert len(trace) == 2

    def test_from_pairs_length_mismatch(self):
        with pytest.raises(ValueError):
            Trace.from_pairs(["A"], ["Miss", "Hit"])

    def test_append_is_persistent(self):
        trace = Trace([("A", "Miss")])
        extended = trace.append("B", "Hit")
        assert len(trace) == 1
        assert len(extended) == 2
        assert extended.outputs == ("Miss", "Hit")

    def test_prefix_indexing_and_slicing(self):
        trace = Trace([("A", "Miss"), ("B", "Hit"), ("C", "Hit")])
        assert trace.prefix(2).inputs == ("A", "B")
        assert isinstance(trace[0], TraceStep)
        assert trace[0].input == "A"
        assert trace[1:].inputs == ("B", "C")

    def test_equality_and_hash(self):
        first = Trace([("A", "Miss")])
        second = Trace([("A", "Miss")])
        assert first == second
        assert hash(first) == hash(second)
        assert first != Trace([("A", "Hit")])

    def test_step_unpacking(self):
        step = TraceStep("A", "Hit")
        symbol, output = step
        assert (symbol, output) == ("A", "Hit")
