"""JSON job files and the deterministic report serializer."""

import ast
import contextlib
import gc
import hashlib
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import matrix_obj
from realsim import formats
from realsim.applications.bell import BellScenario
from realsim.encoding import DensityOperator, Povm, PureState


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def pairs_to_complex_by_pair(entries, where):
    """Pair-by-pair reference parser: the bulk path must match its values, its messages and their types.

    The first bad pair is named, whatever its fault; a number is rejected with linalg.as_float's message.
    """
    if not isinstance(entries, list):
        raise formats.FormatError(f"{where} must be a list of [re, im] pairs")
    out = []
    for i, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise formats.FormatError(f"{where}[{i}] must be a [re, im] pair")
        for x in pair:
            if type(x) not in (int, float):
                raise ValueError(f"{where}[{i}] must be a real number, got {x!r}")
            try:
                x = float(x)
            except OverflowError:
                raise ValueError(f"{where}[{i}] must be finite: an integer beyond the double range") from None
            if not np.isfinite(x):
                raise ValueError(f"{where}[{i}] must be finite, got {x}")
        out.append(complex(*pair))
    return np.array(out, dtype=complex)


JSON_NUMBERS = st.one_of(
    st.integers(-(10 ** 300), 10 ** 300),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
)
PAIRS = st.lists(st.lists(JSON_NUMBERS, min_size=2, max_size=2), max_size=30)
# Values that are not finite numbers, and entries that are not [re, im] pairs.
BAD_NUMBERS = st.sampled_from([True, False, "1.0", None, [1.0], [], {"re": 1.0}, float("inf"), float("-inf"),
                               float("nan"), 10 ** 400, -(10 ** 309)])
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

    def test_lists_and_tuples_add_no_segment_to_the_named_keys(self):
        with pytest.raises(ValueError, match=r"^a\.b: cannot serialize non-finite number nan$"):
            formats.dumps({"a": [{"b": float("nan")}]})
        restarts = ((11, 2.5, 4), (12, float("nan"), 9))
        with pytest.raises(ValueError, match=r"^results\.restarts: cannot serialize non-finite number nan$"):
            formats.dumps({"command": "bell", "results": {"restarts": restarts}})

    def test_unknown_type_under_a_key_names_the_keys(self):
        with pytest.raises(ValueError, match=r"^results\.trace: cannot serialize object in a report$"):
            formats.dumps({"results": {"trace": [1.0, object()]}})

    def test_non_string_key_rejected(self):
        # The message names no keys, however deep the offending dict sits.
        for report in ({"results": {1: 2.0}}, {"results": {"trace": [{1: 2.0}]}}):
            with pytest.raises(ValueError, match=r"^report keys must be strings, got 1$"):
                formats.dumps(report)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match=r"^cannot serialize object in a report$"):
            formats.dumps(object())

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
        with pytest.raises(ValueError) as want:
            pairs_to_complex_by_pair(pairs, "m.entries")
        with pytest.raises(ValueError) as got:
            formats._pairs_to_complex(pairs, "m.entries")
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("part", [0, 1])
    def test_first_non_finite_pair_is_named(self, part):
        pairs = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        pairs[2][part] = float("inf")
        pairs[3][part] = float("-inf")
        with pytest.raises(ValueError, match=rf"^m\.entries\[2\] must be finite, got inf$"):
            formats._pairs_to_complex(pairs, "m.entries")

    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 309)])
    def test_integer_beyond_the_double_range_names_its_pair(self, big):
        pairs = [[1.0, 0.0], [0, big], [float("inf"), 0.0]]
        with pytest.raises(ValueError, match=r"^m\.entries\[1\] must be finite: an integer beyond the double range$"):
            formats._pairs_to_complex(pairs, "m.entries")

    def test_the_first_bad_pair_is_named_whatever_its_fault(self):
        with pytest.raises(ValueError, match=r"^v\[0\] must be finite, got inf$"):
            formats._pairs_to_complex([[float("inf"), 0.0], [True, 0.0]], "v")
        with pytest.raises(ValueError, match=r"^v\[1\] must be a real number, got True$"):
            formats._pairs_to_complex([[1.0, 0.0], [True, 0.0], [float("inf"), 0.0]], "v")
        with pytest.raises(formats.FormatError, match=r"^v\[1\] must be a \[re, im\] pair$"):
            formats._pairs_to_complex([[1.0, 0.0], [1.0], [True, 0.0]], "v")

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

    @given(st.lists(FLOATS, max_size=40))
    def test_float_tuple_is_written_as_the_equal_list(self, values):
        assert formats.dumps({"times": tuple(values)}) == formats.dumps({"times": values})

    def test_integers_in_a_list_stay_integers(self):
        assert formats.dumps([1, 2.0]) == "[1,2]"

    def test_empty_list(self):
        assert formats.dumps([]) == "[]"

    def test_non_finite_value_in_a_float_list_names_the_key(self):
        report = {"results": {"encoded_amplitudes": [0.5, float("nan"), 0.25]}}
        with pytest.raises(ValueError, match=r"^results\.encoded_amplitudes: cannot serialize non-finite number nan$"):
            formats.dumps(report)


class TestBulkArrays:
    """A finite float or complex array is written in one format pass, as dumps writes its nested lists."""

    EDGES = [-0.0, 5e-324, 1e308, -1e308, 0.0, 1.0 / 3.0]

    @staticmethod
    def as_lists(z):
        """The nested lists dumps writes for an array: complex entries as [re, im] pairs."""
        return (np.stack([z.real, z.imag], axis=-1) if np.iscomplexobj(z) else z).tolist()

    @given(shape=st.sampled_from([(0,), (1,), (7,), (3, 4), (0, 3), (3, 0), (2, 3, 2)]), data=st.data())
    def test_float_array_equals_its_list(self, shape, data):
        values = data.draw(st.lists(TestBulkFloatLists.FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)))
        z = np.array(values, dtype=float).reshape(shape)
        assert formats.dumps(z) == formats.dumps(z.tolist())
        assert formats.dumps({"results": {"x": z}}) == formats.dumps({"results": {"x": z.tolist()}})

    @given(shape=st.sampled_from([(0,), (1,), (7,), (3, 4), (0, 3), (3, 0)]), data=st.data())
    def test_complex_array_equals_its_pairs(self, shape, data):
        size = 2 * math.prod(shape)
        values = data.draw(st.lists(TestBulkFloatLists.FLOATS, min_size=size, max_size=size))
        z = np.array(values, dtype=float).view(complex).reshape(shape)
        assert formats.dumps(z) == formats.dumps(self.as_lists(z))

    @pytest.mark.parametrize("shape", [(6,), (2, 3), (3, 2, 2)])
    def test_signed_zero_and_the_extremes_keep_their_digits(self, shape):
        x = np.resize(np.array(self.EDGES), shape)
        text = formats.dumps(x)
        assert text == formats.dumps(x.tolist())
        assert all(literal in text for literal in ("[-0,", "4.9406564584124654e-324", "1e+308", "-1e+308"))
        z = np.stack([x, x[..., ::-1]], axis=-1).view(complex)[..., 0]  # both parts keep their sign of zero
        assert formats.dumps(z) == formats.dumps(self.as_lists(z))

    def test_zero_dimensional_array_is_a_number(self):
        assert formats.dumps(np.array(0.1)) == formats.dumps(0.1) == "0.10000000000000001"

    def test_integer_and_boolean_arrays_keep_their_own_literals(self):
        assert formats.dumps({"n": np.arange(3), "b": np.array([True, False])}) == '{"n":[0,1,2],"b":[true,false]}'

    @pytest.mark.parametrize("bad, named", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    @pytest.mark.parametrize("kind", ["real", "complex", "imaginary part"])
    def test_non_finite_entry_names_its_key(self, bad, named, kind):
        z = np.array([[0.5, 0.25], [1.0, -0.0]])
        if kind == "real":
            z[1, 0] = bad
        else:
            z = z + 0j
            z[1, 0] = complex(bad, 0.0) if kind == "complex" else complex(1.0, bad)
        with pytest.raises(ValueError, match=rf"^results\.final_complex: cannot serialize non-finite number {named}$"):
            formats.dumps({"results": {"times": (0.0, 1.0), "final_complex": z}})


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
        message = r"amplitudes\[0\] must be finite: an integer beyond the double range$"
        with pytest.raises(formats.FormatError, match=message):
            formats.load_json(str(path), formats.parse_vector)

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
            formats.load_json(str(path), formats.parse_vector)

    @pytest.mark.parametrize("text", ['{"dims": [2]}', '{"dims": [2,}', "[NaN]", "[%s]" % ("1" * 5000)],
                             ids=["good", "malformed", "nan_literal", "past_the_conversion_limit"])
    @pytest.mark.parametrize("collecting", [True, False], ids=["gc_on", "gc_off"])
    def test_the_callers_collector_state_is_restored(self, tmp_path, text, collecting):
        path = tmp_path / "v.json"
        path.write_text(text)
        before = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with contextlib.nullcontext() if text == '{"dims": [2]}' else pytest.raises(formats.FormatError):
                formats.load_json(str(path))
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if before else gc.disable)()

    def test_parsing_sets_off_no_collection(self, tmp_path):
        # A POVM-sized file of pair lists would set off many generation-0 collections with the collector on.
        path = write(tmp_path, "pairs.json", {"entries": [[0.5, -0.25]] * 50000})
        starts = []

        def count(phase, info):
            starts.append(phase == "start")

        # From an empty generation 0, the dozen objects load_json makes before it pauses the collector (the file
        # and decoder objects) cannot set off a collection, whatever the tests before this one left behind.
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert len(formats.load_json(path)[0]["entries"]) == 50000
        finally:
            gc.callbacks.remove(count)
        assert not any(starts)

    @pytest.mark.parametrize("case", ["good", "ragged", "non_finite", "mixed_dimensions"])
    @pytest.mark.parametrize("collecting", [True, False], ids=["gc_on", "gc_off"])
    def test_loaders_restore_the_callers_collector_state(self, tmp_path, case, collecting):
        # A ragged or non-finite matrix raises while the collector is paused, mixed dimensions in admission after.
        elements = [matrix_obj(np.diag([1.0, 0.0])), matrix_obj(np.diag([0.0, 1.0]))]
        if case == "ragged":
            elements[1]["entries"][3] = [1.0]
        elif case == "mixed_dimensions":
            elements[1] = matrix_obj(np.diag([0.0, 1.0, 1.0]))
        text = json.dumps({"elements": elements})
        if case == "non_finite":
            text = text.replace("1.0", "1e400", 1)
        path = tmp_path / "povm.json"
        path.write_text(text)
        error = {"good": None, "ragged": r"entries\[3\] must be a \[re, im\] pair", "non_finite": "must be finite",
                 "mixed_dimensions": "share one dimension"}[case]
        before = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with contextlib.nullcontext() if error is None else pytest.raises(ValueError, match=error):
                Povm(formats.load_json(str(path), formats.parse_povm)[0])
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize("kind", ["povm", "vector", "density"])
    def test_no_collection_scans_a_parse_tree(self, tmp_path, kind):
        # The pair lists are dropped before the collector resumes, so the first allocation after the
        # pause, such as the container's admission, does not set off a pass over them.
        n = 128
        obj, parse, admit = {
            "povm": ({"elements": [matrix_obj(np.eye(n) / 2.0)] * 2}, formats.parse_povm, Povm),
            "vector": ({"dims": [n * n], "amplitudes": [[1.0 / n, 0.0]] * (n * n)}, formats.parse_vector,
                       lambda vector: PureState(*vector)),
            "density": (matrix_obj(np.eye(n) / n), formats.parse_state, DensityOperator),
        }[kind]
        path = write(tmp_path, "big.json", obj)
        starts = []

        def count(phase, info):
            starts.append(phase == "start")

        before = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(count)
        try:
            admit(formats.load_json(path, parse)[0])
        finally:
            gc.callbacks.remove(count)
            (gc.enable if before else gc.disable)()
        assert not any(starts)

    @pytest.mark.parametrize("text, key", [
        ('{"dims": [2], "dims": [1], "amplitudes": [[1, 0]]}', "dims"),
        ('{"elements": [{"rows": 1, "cols": 1, "rows": 1, "entries": [[1, 0]]}]}', "rows"),
        ('{"a": 1, "b": 2, "b": 3, "a": 4}', "b"),
    ], ids=["top_level", "nested", "first_repeat"])
    def test_a_repeated_key_is_rejected_naming_the_file_and_the_key(self, tmp_path, text, key):
        # json would keep the last value; a file is read as written or not at all.
        path = tmp_path / "v.json"
        path.write_text(text)
        message = rf"^{re.escape(str(path))}: key '{key}' is repeated in one object$"
        with pytest.raises(formats.FormatError, match=message):
            formats.load_json(str(path))

    def test_ordinary_integers_are_still_integers(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [2], "amplitudes": [[1, 0], [0, 0]]})
        assert formats.load_json(path)[0]["dims"] == [2]
        assert PureState(*formats.load_json(path, formats.parse_vector)[0]).factor_dims == (2,)

    @pytest.mark.parametrize("convert", [None, "parse_vector", "parse_state"], ids=["tree", "vector", "state"])
    def test_digest_is_the_sha256_of_the_file_bytes(self, tmp_path, convert):
        # CRLF line ends are parsed as LF, yet the digest is of the bytes on disk.
        path = tmp_path / "v.json"
        path.write_bytes(b'{"dims": [1],\r\n "amplitudes": [[1.0, 0.0]]}\r\n')
        args = (getattr(formats, convert),) if convert else ()
        _, digest = formats.load_json(str(path), *args)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


class TestVector:
    def test_round_trip(self, tmp_path):
        s = 0.7071067811865476
        path = write(tmp_path, "v.json", {"dims": [2], "amplitudes": [[s, 0.0], [0.0, s]]})
        state = PureState(*formats.load_json(path, formats.parse_vector)[0])
        assert np.allclose(state.amplitudes, [s, 1j * s], atol=1e-15)
        assert state.factor_dims == (2,)

    def test_dims_must_match_length(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [3], "amplitudes": [[1.0, 0.0]]})
        with pytest.raises(formats.FormatError):
            formats.load_json(path, formats.parse_vector)

    def test_product_past_the_print_limit_is_not_printed(self, tmp_path):
        # The product has 6001 digits, more than Python prints; each factor has 3001 and prints.
        path = write(tmp_path, "v.json", {"dims": [10 ** 3000, 10 ** 3000], "amplitudes": [[1.0, 0.0]]})
        message = rf"^{re.escape(path)} has 1 amplitudes but dims \[1(0{{3000}}), 1\1\] require more than 2\*\*64$"
        with pytest.raises(formats.FormatError, match=message):
            formats.load_json(path, formats.parse_vector)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [1], "amplitudes": [[1.0, 0.0]], "extra": 1})
        with pytest.raises(formats.FormatError, match="extra"):
            formats.load_json(path, formats.parse_vector)

    def test_booleans_are_not_numbers(self, tmp_path):
        path = write(tmp_path, "v.json", {"dims": [1], "amplitudes": [[True, 0.0]]})
        with pytest.raises(formats.FormatError):
            formats.load_json(path, formats.parse_vector)

    def test_missing_key_named_in_error(self, tmp_path):
        path = write(tmp_path, "v.json", {"amplitudes": [[1.0, 0.0]]})
        with pytest.raises(formats.FormatError, match="dims"):
            formats.load_json(path, formats.parse_vector)


class TestMatrix:
    def test_round_trip(self, tmp_path):
        obj = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}
        m, _ = formats.load_json(write(tmp_path, "m.json", obj), formats.parse_matrix)
        assert np.array_equal(m, np.diag([1.0, -1.0]).astype(complex))

    def test_entry_count_checked(self, tmp_path):
        obj = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}
        path = write(tmp_path, "m.json", obj)
        with pytest.raises(formats.FormatError, match=rf"^{re.escape(path)} has 1 entries but needs rows\*cols = 4$"):
            formats.load_json(path, formats.parse_matrix)

    def test_product_past_the_print_limit_is_not_printed(self, tmp_path):
        big = int("9" * 3001)
        path = write(tmp_path, "m.json", {"rows": big, "cols": big, "entries": [[1.0, 0.0]]})
        message = rf"^{re.escape(path)} has 1 entries but needs rows\*cols = more than 2\*\*64$"
        with pytest.raises(formats.FormatError, match=message):
            formats.load_json(path, formats.parse_matrix)


class TestStateOrDensity:
    def test_vector_file_loads_as_pure_state(self, tmp_path):
        path = write(tmp_path, "s.json", {"dims": [1], "amplitudes": [[1.0, 0.0]]})
        parsed, _ = formats.load_json(path, formats.parse_state)
        assert isinstance(parsed, tuple)
        assert PureState(*parsed).factor_dims == (1,)

    def test_matrix_file_loads_as_density(self, tmp_path):
        obj = {"rows": 2, "cols": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
        matrix, _ = formats.load_json(write(tmp_path, "rho.json", obj), formats.parse_state)
        assert isinstance(matrix, np.ndarray)
        assert DensityOperator(matrix).dim == 2


class TestPovmFile:
    def test_load(self, tmp_path):
        obj = {
            "elements": [
                {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                {"rows": 2, "cols": 2, "entries": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
            ]
        }
        elements, _ = formats.load_json(write(tmp_path, "p.json", obj), formats.parse_povm)
        assert len(Povm(elements).elements) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(formats.FormatError):
            formats.load_json(write(tmp_path, "p.json", {"elements": []}), formats.parse_povm)


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
        fields, _ = formats.load_json(write(tmp_path, "sc.json", self.scenario_obj()), formats.parse_scenario)
        scenario = BellScenario(*fields)
        assert scenario.parties == 2
        assert scenario.coefficients == {(0, 0): 1.0}
        assert scenario.quantum_target is None

    def test_unknown_key_rejected(self, tmp_path):
        obj = self.scenario_obj()
        obj["bound"] = 3.0
        with pytest.raises(formats.FormatError):
            formats.load_json(write(tmp_path, "sc.json", obj), formats.parse_scenario)


def test_formats_imports_no_layer_but_linalg():
    # formats turns JSON into arrays; the containers, and the layers that define them, are the CLI's to import.
    tree = ast.parse(pathlib.Path(formats.__file__).read_text(encoding="utf-8"))
    assert [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level] == ["linalg"]


class TestComplexArrays:
    @staticmethod
    def per_element(v):
        """Each complex number as a list of two Python floats, the oracle of the array writer."""
        return [[float(z.real), float(z.imag)] for z in v]

    def test_round_trip(self):
        assert formats.dumps(np.array([1.0 + 2.0j, -0.5j])) == "[[1,2],[-0,-0.5]]"

    @pytest.mark.parametrize("v", [
        (np.arange(12.0) - 5.5).view(complex)[::2],  # a strided view, which .view(float) cannot take
        np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]),
        np.array([complex(5e-324, -5e-324), complex(1.7e308, -1.7e308), complex(-5e-324, 1.7e308)]),
    ], ids=["strided", "signed_zeros", "extremes"])
    def test_matches_the_per_element_conversion(self, v):
        # 17 significant digits and the sign of zero keep every bit, so equal text means equal numbers.
        assert formats.dumps({"v": v}) == formats.dumps({"v": self.per_element(v)})

    def test_matrix_rows_hold_pairs(self):
        m = np.array([[1j, 2.0], [3.0, -4.5j]])
        assert formats.dumps(m) == "[[[0,1],[2,0]],[[3,0],[-0,-4.5]]]"
