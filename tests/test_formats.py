"""JSON job files and the deterministic report serializer."""

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from realsim import formats
from realsim.encoding import DensityOperator, PureState


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def pairs_to_complex_by_pair(entries, where):
    """Pair-by-pair reference parser: the bulk path must match its values and its messages."""
    if not isinstance(entries, list):
        raise formats.FormatError(f"{where} must be a list of [re, im] pairs")
    out = []
    for i, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise formats.FormatError(f"{where}[{i}] must be a [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)) \
                or isinstance(re, bool) or isinstance(im, bool):
            raise formats.FormatError(f"{where}[{i}] must hold two numbers")
        out.append(complex(re, im))
    return np.array(out, dtype=complex)


JSON_NUMBERS = st.one_of(
    st.integers(-(10 ** 300), 10 ** 300),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
)
PAIRS = st.lists(st.lists(JSON_NUMBERS, min_size=2, max_size=2), max_size=30)
# Values that are not numbers, and entries that are not [re, im] pairs.
BAD_NUMBERS = st.sampled_from([True, False, "1.0", None, [1.0], [], {"re": 1.0}])
BAD_PAIRS = st.sampled_from([[1.0], [1.0, 2.0, 3.0], [], "ab", {"re": 1.0, "im": 0.0}, None, 1.0, True])


class TestDumps:
    def test_seventeen_significant_digits(self):
        assert formats.dumps(1.0 / 3.0) == "0.33333333333333331"

    def test_repeated_calls_are_byte_identical(self):
        payload = {"a": [1.0, 2.5], "b": {"c": np.array([0.1, 0.2])}}
        assert formats.dumps(payload) == formats.dumps(payload)

    def test_insertion_order_is_preserved(self):
        s = formats.dumps({"zeta": 1, "alpha": 2})
        assert s.index("zeta") < s.index("alpha")

    def test_ndarray_nesting(self):
        s = formats.dumps({"m": np.eye(2)})
        assert json.loads(s) == {"m": [[1.0, 0.0], [0.0, 1.0]]}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            formats.dumps({"x": float("nan")})

    def test_non_finite_error_names_the_keys(self):
        with pytest.raises(ValueError, match=r"^results\.expm_error: cannot serialize non-finite number nan$"):
            formats.dumps({"command": "evolve", "results": {"times": [0.0, 1.0], "expm_error": float("nan")}})
        with pytest.raises(ValueError, match=r"^m: cannot serialize non-finite number inf$"):
            formats.dumps({"m": [[1.0, float("inf")]]})

    def test_integers_stay_integers(self):
        assert formats.dumps({"n": 3}) == '{"n":3}'


class TestBulkPairs:
    @given(PAIRS)
    def test_values_equal_the_pairwise_conversion_bit_for_bit(self, pairs):
        got = formats._pairs_to_complex(pairs, "x")
        want = pairs_to_complex_by_pair(pairs, "x")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(PAIRS.filter(bool), st.data())
    def test_bad_number_message_is_the_pairwise_one(self, pairs, data):
        i = data.draw(st.integers(0, len(pairs) - 1))
        pairs[i][data.draw(st.integers(0, 1))] = data.draw(BAD_NUMBERS)
        self.assert_same_error(pairs)

    @given(PAIRS.filter(bool), st.data())
    def test_bad_pair_message_is_the_pairwise_one(self, pairs, data):
        pairs[data.draw(st.integers(0, len(pairs) - 1))] = data.draw(BAD_PAIRS)
        self.assert_same_error(pairs)

    def assert_same_error(self, pairs):
        with pytest.raises(formats.FormatError) as want:
            pairs_to_complex_by_pair(pairs, "m.entries")
        with pytest.raises(formats.FormatError) as got:
            formats._pairs_to_complex(pairs, "m.entries")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("part", [0, 1])
    def test_first_non_finite_pair_is_named(self, part):
        pairs = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        pairs[2][part] = float("inf")
        pairs[3][part] = float("-inf")
        with pytest.raises(formats.FormatError, match=r"^m\.entries\[2\] must be finite$"):
            formats._pairs_to_complex(pairs, "m.entries")

    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 309)])
    def test_integer_beyond_the_double_range_names_its_pair(self, big):
        pairs = [[1.0, 0.0], [0, big], [float("inf"), 0.0]]
        with pytest.raises(formats.FormatError, match=r"^m\.entries\[1\] must be finite: non-finite number"):
            formats._pairs_to_complex(pairs, "m.entries")

    def test_a_type_fault_is_named_before_a_non_finite_number(self):
        with pytest.raises(formats.FormatError, match=r"^v\[1\] must hold two numbers$"):
            formats._pairs_to_complex([[float("inf"), 0.0], [True, 0.0]], "v")

    def test_tuple_pairs_and_float_subclasses_still_parse(self):
        pairs = [(1.0, np.float64(-0.5)), [np.float64(2.0), 3]]
        assert formats._pairs_to_complex(pairs, "v").tolist() == [1.0 - 0.5j, 2.0 + 3.0j]


class TestBulkFloatLists:
    FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308]))

    @given(st.lists(FLOATS, max_size=40))
    def test_float_list_equals_the_element_wise_writer(self, values):
        assert formats.dumps(values) == "[" + ",".join(formats.dumps(x) for x in values) + "]"

    @given(st.lists(st.one_of(FLOATS, FLOATS.map(np.float64)), max_size=40))
    def test_float64_mixes_equal_the_element_wise_writer(self, values):
        report = {"results": {"encoded_amplitudes": values}}
        expected = '{"results":{"encoded_amplitudes":[' + ",".join(formats.dumps(x) for x in values) + "]}}"
        assert formats.dumps(report) == expected

    def test_integers_in_a_list_stay_integers(self):
        assert formats.dumps([1, 2.0]) == "[1,2]"

    def test_empty_list(self):
        assert formats.dumps([]) == "[]"

    def test_non_finite_value_in_a_float_list_names_the_key(self):
        report = {"results": {"encoded_amplitudes": [0.5, float("nan"), 0.25]}}
        with pytest.raises(ValueError, match=r"^results\.encoded_amplitudes: cannot serialize non-finite number nan$"):
            formats.dumps(report)


class TestLoadJson:
    def test_malformed_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2,}')
        with pytest.raises(formats.FormatError, match=r"line 1 column"):
            formats.load_json(str(path))

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-" + "9" * 320], ids=["1e400", "-1e320"])
    def test_integer_beyond_the_double_range_rejected(self, tmp_path, literal):
        # complex() and float() raise OverflowError on such an integer, which is not an input error type.
        path = tmp_path / "big.json"
        path.write_text('{"dims": [1], "amplitudes": [[%s, 0]]}' % literal)
        with pytest.raises(formats.FormatError, match="non-finite number"):
            formats.load_state(str(path))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_names_the_file_once(self, tmp_path, literal):
        path = tmp_path / "v.json"
        path.write_text('{"dims": [1], "amplitudes": [[%s, 0]]}' % literal)
        with pytest.raises(formats.FormatError, match=rf"^{re.escape(str(path))}: non-finite number {literal} is not allowed$"):
            formats.load_json(str(path))

    def test_integer_past_the_conversion_limit_names_the_file(self, tmp_path):
        # Recent Pythons refuse to read an integer literal of more than 4300 digits, with a ValueError.
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [1], "amplitudes": [[%s, 0]]}' % ("1" * 5000))
        with pytest.raises(formats.FormatError, match=r"huge\.json"):
            formats.load_state(str(path))

    def test_ordinary_integers_are_still_integers(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [2], "amplitudes": [[1, 0], [0, 0]]})
        assert formats.load_json(path)["dims"] == [2]
        assert formats.load_state(path).factor_dims == (2,)


class TestVector:
    def test_round_trip(self, tmp_path):
        s = 0.7071067811865476
        path = write(tmp_path, "v.json", {"dims": [2], "amplitudes": [[s, 0.0], [0.0, s]]})
        state = formats.load_state(path)
        assert isinstance(state, PureState)
        assert np.allclose(state.amplitudes, [s, 1j * s], atol=1e-15)
        assert state.factor_dims == (2,)

    def test_dims_must_match_length(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [3], "amplitudes": [[1.0, 0.0]]})
        with pytest.raises(formats.FormatError):
            formats.load_state(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [1], "amplitudes": [[1.0, 0.0]], "extra": 1})
        with pytest.raises(formats.FormatError, match="extra"):
            formats.load_state(path)

    def test_booleans_are_not_numbers(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [1], "amplitudes": [[True, 0.0]]})
        with pytest.raises(formats.FormatError):
            formats.load_state(path)

    def test_missing_key_named_in_error(self, tmp_path):
        path = write(tmp_path, "v.json", {"amplitudes": [[1.0, 0.0]]})
        with pytest.raises(formats.FormatError, match="dims"):
            formats.load_state(path)


class TestMatrix:
    def test_round_trip(self, tmp_path):
        obj = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}
        m = formats.load_matrix(write(tmp_path, "m.json", obj))
        assert np.array_equal(m, np.diag([1.0, -1.0]).astype(complex))

    def test_entry_count_checked(self, tmp_path):
        obj = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}
        with pytest.raises(formats.FormatError):
            formats.load_matrix(write(tmp_path, "m.json", obj))


class TestStateOrDensity:
    def test_vector_file_loads_as_pure_state(self, tmp_path):
        path = write(tmp_path, "s.json", {"dims": [1], "amplitudes": [[1.0, 0.0]]})
        assert isinstance(formats.load_state_or_density(path), PureState)

    def test_matrix_file_loads_as_density(self, tmp_path):
        obj = {"rows": 2, "cols": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
        loaded = formats.load_state_or_density(write(tmp_path, "rho.json", obj))
        assert isinstance(loaded, DensityOperator)


class TestPovmFile:
    def test_load(self, tmp_path):
        obj = {
            "elements": [
                {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                {"rows": 2, "cols": 2, "entries": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
            ]
        }
        povm = formats.load_povm(write(tmp_path, "p.json", obj))
        assert len(povm.elements) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(formats.FormatError):
            formats.load_povm(write(tmp_path, "p.json", {"elements": []}))


class TestScenarioFile:
    def scenario_obj(self):
        z = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}
        return {
            "parties": 2,
            "settings_per_party": [1, 1],
            "observables": [[z], [z]],
            "coefficients": [{"settings": [0, 0], "value": 1.0}],
            "classical_bound": 1.0,
        }

    def test_load(self, tmp_path):
        scenario = formats.load_scenario(write(tmp_path, "sc.json", self.scenario_obj()))
        assert scenario.parties == 2
        assert scenario.coefficients == {(0, 0): 1.0}
        assert scenario.quantum_target is None

    def test_unknown_key_rejected(self, tmp_path):
        obj = self.scenario_obj()
        obj["bound"] = 3.0
        with pytest.raises(formats.FormatError):
            formats.load_scenario(write(tmp_path, "sc.json", obj))


class TestComplexPairs:
    def test_round_trip(self):
        v = np.array([1.0 + 2.0j, -0.5j])
        assert formats.complex_pairs(v) == [[1.0, 2.0], [-0.0, -0.5]]
