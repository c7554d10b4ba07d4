"""JSON file formats and byte-deterministic report serialization.

Complex vectors are stored as {"dims": [...], "amplitudes": [[re, im],
...]} in row-major order with the last factor fastest; matrices as
{"rows": r, "cols": c, "entries": [[re, im], ...]} row-major.  Numbers
are emitted with 17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .applications.bell import BellScenario
from .encoding import DensityOperator, Povm, PureState


class FormatError(ValueError):
    """Input violates the documented JSON schema."""


def load_json(path: str):
    """Parse a JSON file; NaN and Infinity are rejected, not read."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    def reject(literal):
        raise FormatError(f"{path}: non-finite number {literal} is not allowed")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except FormatError:  # from reject, already naming the file
        raise
    except ValueError as e:  # an integer literal longer than Python's int conversion limit
        raise FormatError(f"{path}: {e}") from e


def _require_keys(obj, required: tuple[str, ...], optional: tuple[str, ...] = (), where: str = "object") -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"{where} is missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise FormatError(f"{where} has unknown keys {unknown}")


def _int_list(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or any(not isinstance(v, int) or isinstance(v, bool) for v in value):
        raise FormatError(f"{where} must be a list of integers")
    return tuple(value)


def _float(value, where: str) -> float:
    """float(value); an integer beyond the double range is rejected here, where it would become a float."""
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the double range
        raise FormatError(f"{where} must be finite: non-finite number, an integer beyond the double range") from None


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FormatError(f"{where} must be a number")
    number = _float(value, where)
    if not np.isfinite(number):
        raise FormatError(f"{where} must be finite, got {value}")
    return number


def _pairs_to_complex(entries, where: str) -> np.ndarray:
    """[[re, im], ...] as one complex vector.

    Shape and types are checked in whole-list passes and the numbers
    converted in one array call; the per-pair scan runs only to name the
    first bad pair.
    """
    if not isinstance(entries, list):
        raise FormatError(f"{where} must be a list of [re, im] pairs")
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}):
        _raise_on_first_bad_pair(entries, where)  # returns only for tuple pairs, which JSON never gives
    flat = list(chain.from_iterable(entries))
    if not set(map(type, flat)) <= {int, float}:  # bool, str, None and lists are other types
        _raise_on_first_bad_pair(entries, where)  # returns only for number subclasses, which JSON never gives
    try:
        values = np.array(flat, dtype=float).view(complex)
    except OverflowError:  # a float literal beyond the double range parses to inf, an integer one does not
        for i, x in enumerate(flat):
            _float(x, f"{where}[{i // 2}]")  # raises at the first such integer, naming its pair
        raise
    finite = np.isfinite(values)
    if not finite.all():
        raise FormatError(f"{where}[{int(np.argmin(finite))}] must be finite")
    return values


def _raise_on_first_bad_pair(entries: list, where: str) -> None:
    for i, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FormatError(f"{where}[{i}] must be a [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)) \
                or isinstance(re, bool) or isinstance(im, bool):
            raise FormatError(f"{where}[{i}] must hold two numbers")


def parse_vector(obj, where: str = "vector") -> tuple[np.ndarray, tuple[int, ...]]:
    _require_keys(obj, ("dims", "amplitudes"), where=where)
    dims = obj["dims"]
    if not isinstance(dims, list) or not dims or any(not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in dims):
        raise FormatError(f"{where}.dims must be a nonempty list of positive integers")
    amps = _pairs_to_complex(obj["amplitudes"], f"{where}.amplitudes")
    if amps.size != int(np.prod(dims)):
        raise FormatError(f"{where} has {amps.size} amplitudes but dims {dims} require {int(np.prod(dims))}")
    return amps, tuple(dims)


def parse_matrix(obj, where: str = "matrix") -> np.ndarray:
    _require_keys(obj, ("rows", "cols", "entries"), where=where)
    rows, cols = obj["rows"], obj["cols"]
    for name, n in (("rows", rows), ("cols", cols)):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise FormatError(f"{where}.{name} must be a positive integer")
    entries = _pairs_to_complex(obj["entries"], f"{where}.entries")
    if entries.size != rows * cols:
        raise FormatError(f"{where} has {entries.size} entries but needs rows*cols = {rows * cols}")
    return entries.reshape(rows, cols)


def load_state(path: str) -> PureState:
    amps, dims = parse_vector(load_json(path), where=path)
    return PureState(amps, dims)


def load_matrix(path: str) -> np.ndarray:
    return parse_matrix(load_json(path), where=path)


def load_state_or_density(path: str):
    """A state file holds either a complex vector or a density matrix."""
    obj = load_json(path)
    if isinstance(obj, dict) and "amplitudes" in obj:
        amps, dims = parse_vector(obj, where=path)
        return PureState(amps, dims)
    return DensityOperator(parse_matrix(obj, where=path))


def load_povm(path: str) -> Povm:
    obj = load_json(path)
    _require_keys(obj, ("elements",), where=path)
    if not isinstance(obj["elements"], list) or not obj["elements"]:
        raise FormatError(f"{path}.elements must be a nonempty list of matrices")
    return Povm(tuple(parse_matrix(e, where=f"{path}.elements[{i}]") for i, e in enumerate(obj["elements"])))


def load_scenario(path: str) -> BellScenario:
    obj = load_json(path)
    _require_keys(
        obj,
        ("parties", "settings_per_party", "observables", "coefficients", "classical_bound"),
        optional=("quantum_target",),
        where=path,
    )
    parties = obj["parties"]
    if not isinstance(parties, int) or isinstance(parties, bool):
        raise FormatError(f"{path}.parties must be an integer")
    observables = obj["observables"]
    if not isinstance(observables, list) or len(observables) != parties \
            or any(not isinstance(family, list) for family in observables):
        raise FormatError(f"{path}.observables must list one family of matrices per party")
    families = tuple(
        tuple(parse_matrix(o, where=f"{path}.observables[{j}][{s}]") for s, o in enumerate(family))
        for j, family in enumerate(observables)
    )
    if not isinstance(obj["coefficients"], list):
        raise FormatError(f"{path}.coefficients must be a list")
    coeffs = {}
    for i, entry in enumerate(obj["coefficients"]):
        where = f"{path}.coefficients[{i}]"
        _require_keys(entry, ("settings", "value"), where=where)
        coeffs[_int_list(entry["settings"], f"{where}.settings")] = _number(entry["value"], f"{where}.value")
    return BellScenario(
        parties,
        _int_list(obj["settings_per_party"], f"{path}.settings_per_party"),
        families,
        coeffs,
        _number(obj["classical_bound"], f"{path}.classical_bound"),
        _number(obj["quantum_target"], f"{path}.quantum_target") if "quantum_target" in obj else None,
    )


def complex_pairs(v) -> list[list[float]]:
    """Complex vector as [re, im] pairs for serialization."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


class _Unwritable(ValueError):
    """A report value that cannot be written, with the keys that lead to it."""

    def __init__(self, reason: str, keys: tuple[str, ...] = ()):
        super().__init__(f"{'.'.join(keys)}: {reason}" if keys else reason)
        self.reason = reason
        self.keys = keys


def _write(value, out: list) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        f = float(value)
        if not np.isfinite(f):
            raise _Unwritable(f"cannot serialize non-finite number {f}")
        out.append(format(f, ".17g"))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise ValueError(f"report keys must be strings, got {k!r}")
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            try:
                _write(v, out)
            except _Unwritable as e:
                raise _Unwritable(e.reason, (k,) + e.keys) from None
        out.append("}")
    elif type(value) is list and set(map(type, value)) == {float} and all(map(math.isfinite, value)):
        out.append("[" + ",".join([format(x, ".17g") for x in value]) + "]")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    elif isinstance(value, np.ndarray):
        _write(value.tolist(), out)
    else:
        raise _Unwritable(f"cannot serialize {type(value).__name__} in a report")


def dumps(value) -> str:
    """Deterministic JSON text: insertion order, 17 significant digits."""
    out: list = []
    _write(value, out)
    return "".join(out)
