"""JSON file formats and byte-deterministic report serialization.

Complex vectors are stored as {"dims": [...], "amplitudes": [[re, im],
...]} in row-major order with the last factor fastest; matrices as
{"rows": r, "cols": c, "entries": [[re, im], ...]} row-major.  Numbers
are emitted with 17 significant digits so doubles round-trip exactly.
`load_json` reads a file once and returns (value, sha256 hex of the
bytes parsed): the digest a report carries is of what it ran on.  The
value is what a `parse_*` function makes of the tree, arrays and numbers
for the caller's containers to admit: this module imports only `linalg`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
from itertools import chain

import numpy as np

from .linalg import as_float, as_int


class FormatError(ValueError):
    """Input violates the documented JSON schema."""


def load_json(path: str, convert=lambda tree, path: tree):
    """(convert(tree, path), sha256 hex of the file's bytes) for a JSON file; each parse_* function is a convert.

    NaN and Infinity are rejected, not read, and so is a key repeated within one object.  The file is read
    once, in binary, and its bytes are decoded as text mode would (UTF-8, universal newlines): the digest is
    of the bytes parsed.  Every error names the file: text that is not UTF-8 or not JSON, nesting too deep
    to parse, and a value that `convert` rejects.  Parsed JSON holds no reference cycles, yet its many small
    lists would set off collections that scan it.  So the collector stays paused while the file is parsed
    and converted, and the tree is dropped before the collector resumes: `convert` should return arrays,
    not parts of the tree.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text at byte {e.start}: {e.reason}") from None
    del data  # json reads the text alone, so the bytes need not stay alive beside its tree

    def reject(literal):
        raise FormatError(f"{path}: non-finite number {literal} is not allowed")

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise FormatError(f"{path}: key {repeated!r} is repeated in one object")
        return obj

    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            tree = json.loads(text, parse_constant=reject, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
        except RecursionError:  # json's parser recurses once per nested list or object
            raise FormatError(f"{path}: JSON nested too deeply to parse") from None
        except FormatError:  # from reject or unique_keys, already naming the file
            raise
        except ValueError as e:  # an integer literal longer than Python's int conversion limit
            raise FormatError(f"{path}: {e}") from e
        try:
            value = convert(tree, path)
        except FormatError:
            raise
        except ValueError as e:  # from linalg's number readers, given the field's JSON path
            raise FormatError(str(e)) from None
        del tree
        return value, digest
    finally:
        if collecting:
            gc.enable()


def _require_keys(obj, required: tuple[str, ...], optional: tuple[str, ...] = (), where: str = "object") -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"{where} is missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise FormatError(f"{where} has unknown keys {unknown}")


def _ints(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise FormatError(f"{where} must be a list of integers")
    return tuple(as_int(v, f"{where}[{i}]") for i, v in enumerate(value))


def _pairs_to_complex(entries, where: str) -> np.ndarray:
    """[[re, im], ...] as one complex vector.

    Shape and types are checked in whole-list passes and the numbers
    converted in one array call; only when that fails does a per-pair
    scan run, to name the first bad pair.
    """
    if not isinstance(entries, list):
        raise FormatError(f"{where} must be a list of [re, im] pairs")
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        flat = list(chain.from_iterable(entries))
        if set(map(type, flat)) <= {int, float}:  # bool, str, None and lists are other types
            # An integer literal beyond the double range raises OverflowError; a float one parses to inf.
            with contextlib.suppress(OverflowError):
                values = np.array(flat, dtype=float).view(complex)
                if np.isfinite(values).all():
                    return values
    for i, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FormatError(f"{where}[{i}] must be a [re, im] pair")
        for x in pair:
            as_float(x, f"{where}[{i}]")
    # Every pair holds two finite real numbers, yet not as JSON gives them: tuples or number subclasses.
    return np.array(list(chain.from_iterable(entries)), dtype=float).view(complex)


def _product(factors) -> str:
    """The product in decimal, or its bound past 2**64: Python refuses to print an integer of over 4300 digits."""
    n = math.prod(factors)
    return str(n) if n < 2 ** 64 else "more than 2**64"


def parse_vector(obj, where: str = "vector") -> tuple[np.ndarray, tuple[int, ...]]:
    _require_keys(obj, ("dims", "amplitudes"), where=where)
    dims = _ints(obj["dims"], f"{where}.dims")
    if not dims or min(dims) < 1:
        raise FormatError(f"{where}.dims must be a nonempty list of positive integers")
    amps = _pairs_to_complex(obj["amplitudes"], f"{where}.amplitudes")
    if amps.size != math.prod(dims):
        raise FormatError(f"{where} has {amps.size} amplitudes but dims {list(dims)} require {_product(dims)}")
    return amps, dims


def parse_matrix(obj, where: str = "matrix") -> np.ndarray:
    _require_keys(obj, ("rows", "cols", "entries"), where=where)
    rows, cols = (as_int(obj[name], f"{where}.{name}") for name in ("rows", "cols"))
    for name, n in (("rows", rows), ("cols", cols)):
        if n < 1:
            raise FormatError(f"{where}.{name} must be a positive integer")
    entries = _pairs_to_complex(obj["entries"], f"{where}.entries")
    if entries.size != rows * cols:
        raise FormatError(f"{where} has {entries.size} entries but needs rows*cols = {_product((rows, cols))}")
    return entries.reshape(rows, cols)


def parse_state(obj, where: str = "state"):
    """A state file's value: (amplitudes, dims) for a vector object, else the matrix of a density operator."""
    if isinstance(obj, dict) and "amplitudes" in obj:
        return parse_vector(obj, where)
    return parse_matrix(obj, where)


def parse_povm(obj, where: str = "povm") -> list[np.ndarray]:
    _require_keys(obj, ("elements",), where=where)
    if not isinstance(obj["elements"], list) or not obj["elements"]:
        raise FormatError(f"{where}.elements must be a nonempty list of matrices")
    return [parse_matrix(e, f"{where}.elements[{i}]") for i, e in enumerate(obj["elements"])]


def parse_scenario(obj, path: str = "scenario") -> tuple:
    """The arguments of BellScenario, converted from a parsed scenario file."""
    _require_keys(
        obj,
        ("parties", "settings_per_party", "observables", "coefficients", "classical_bound"),
        optional=("quantum_target",),
        where=path,
    )
    parties = as_int(obj["parties"], f"{path}.parties")
    observables = obj["observables"]
    if not isinstance(observables, list) or len(observables) != parties \
            or any(not isinstance(family, list) for family in observables):
        raise FormatError(f"{path}.observables must list one family of matrices for each of the {parties} parties")
    families = [[parse_matrix(o, where=f"{path}.observables[{j}][{s}]") for s, o in enumerate(family)]
                for j, family in enumerate(observables)]
    if not isinstance(obj["coefficients"], list):
        raise FormatError(f"{path}.coefficients must be a list")
    coeffs = {}
    for i, entry in enumerate(obj["coefficients"]):
        where = f"{path}.coefficients[{i}]"
        _require_keys(entry, ("settings", "value"), where=where)
        settings = _ints(entry["settings"], f"{where}.settings")
        if settings in coeffs:  # each earlier entry added one key, so the key's index is its entry's
            raise FormatError(f"{where}.settings repeats {path}.coefficients[{list(coeffs).index(settings)}].settings")
        coeffs[settings] = as_float(entry["value"], f"{where}.value")
    return (
        parties,
        _ints(obj["settings_per_party"], f"{path}.settings_per_party"),
        families,
        coeffs,
        as_float(obj["classical_bound"], f"{path}.classical_bound"),
        as_float(obj["quantum_target"], f"{path}.quantum_target") if "quantum_target" in obj else None,
    )


def _unwritable(reason: str, keys: tuple[str, ...]) -> ValueError:
    """The error for a report value that cannot be written, named by the keys that lead to it."""
    return ValueError(f"{'.'.join(keys)}: {reason}" if keys else reason)


def _float_format(shape: tuple[int, ...]) -> str:
    """%-format of a float array of this shape as nested JSON lists, each entry '%.17g'."""
    if not shape:
        return "%.17g"
    return "[" + ",".join([_float_format(shape[1:])] * shape[0]) + "]"


def _write(value, out: list, keys: tuple[str, ...] = ()) -> None:
    """Append the JSON text of value to out; keys, the dict keys that lead to value, name it if it is unwritable."""
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
            raise _unwritable(f"cannot serialize non-finite number {f}", keys)
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
            _write(v, out, keys + (k,))
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _write(v, out, keys)
        out.append("]")
    elif isinstance(value, np.ndarray):
        if np.iscomplexobj(value):  # each complex number as its [re, im] pair
            value = np.stack([value.real, value.imag], axis=-1)
        if value.dtype.kind == "f" and np.isfinite(value).all():  # one format pass, the text the per-entry path writes
            out.append(_float_format(value.shape) % tuple(value.ravel().tolist()))
        else:  # the per-entry path names a non-finite entry
            _write(value.tolist(), out, keys)
    else:
        raise _unwritable(f"cannot serialize {type(value).__name__} in a report", keys)


def dumps(value) -> str:
    """Deterministic JSON text: insertion order, 17 significant digits, complex arrays as [re, im] pairs."""
    out: list = []
    _write(value, out)
    return "".join(out)
