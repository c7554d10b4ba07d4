"""JSON job files and the deterministic report serializer."""

import json

import numpy as np
import pytest

from realsim import formats
from realsim.encoding import DensityOperator, PureState


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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
