"""JSON serialization of structures, maps, and conventions.

Rationals are serialized as strings in lowest terms ("3/2", "-4", "0") so no
float ever enters a file; product lists are sparse (omitted entries are zero)
and the basis order in the file is authoritative for reporting.  Saving is
deterministic: entries are emitted in basis-index order, map names sorted.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional

from .core import Element, EvenMap, SuperSpace, Value
from .structures import (
    BinaryStructure,
    Convention,
    HomBinaryTernary,
    HomStructure,
    HomSuperalgebra,
    HomTripleSystem,
    TernaryStructure,
    grading_check,
)

KIND_BINARY = "hom_superalgebra"
KIND_TERNARY = "hom_triple"
KIND_BOTH = "hom_binary_ternary"
# The structure each kind of file loads as; its ``absent`` product list must be empty.
_KIND_TYPES = {KIND_BINARY: HomSuperalgebra, KIND_TERNARY: HomTripleSystem, KIND_BOTH: HomBinaryTernary}
KINDS = tuple(_KIND_TYPES)
# "twist": "id" in a file names the identity map, so no map may be called "id".
IDENTITY_TWIST = "id"
# The top-level keys a file may hold; ``save`` writes exactly these.
KEYS = ("name", "kind", "convention", "basis", "binary", "ternary", "maps", "twist")
# The keys of one ``basis`` entry; ``save`` writes exactly these.
BASIS_KEYS = ("name", "parity")


class AlgebraFileError(ValueError):
    """Malformed or inconsistent algebra file, or a structure no file can hold."""


class AlgebraDocument(Value):
    """A structure plus the file-level context it travels with; ``maps``
    defaults to a new empty dict."""

    __slots__ = _fields = ("name", "structure", "maps", "convention")

    def __init__(self, name: str, structure: HomStructure, maps: Optional[Mapping[str, EvenMap]] = None,
                 convention: Convention = Convention.UNIT):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "maps", {} if maps is None else maps)
        object.__setattr__(self, "convention", convention)

    @property
    def kind(self) -> str:
        if self.structure.ternary is None:
            return KIND_BINARY
        return KIND_TERNARY if self.structure.binary is None else KIND_BOTH

    @property
    def space(self) -> SuperSpace:
        return self.structure.space


_RATIONAL_SHAPE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _rat(text: str, where: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_SHAPE.match(text.strip()):
        raise AlgebraFileError(f"{where}: cannot parse rational {text!r} (expected 'p' or 'p/q')")
    try:
        return Fraction(text.strip())
    except ValueError as exc:  # more digits than int() converts
        raise AlgebraFileError(f"{where}: cannot parse rational {text!r}: {exc}") from None


def _index(space: SuperSpace, name: str, where: str) -> int:
    if not isinstance(name, str):
        raise AlgebraFileError(f"{where}: basis name must be a string, got {name!r}")
    try:
        return space.index(name)
    except KeyError:
        raise AlgebraFileError(f"{where}: unknown basis name {name!r}") from None


def _parse_products(space: SuperSpace, entries, arity: int, label: str):
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise AlgebraFileError(f"{label} must be a list of product rows, got {entries!r}")
    constants: dict[tuple, dict[int, Fraction]] = {}
    for position, entry in enumerate(entries):
        where = f"{label}[{position}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != arity + 2:
            raise AlgebraFileError(f"{where}: expected {arity + 2} fields, got {entry!r}")
        key = tuple(_index(space, n, where) for n in entry[:arity])
        target = _index(space, entry[arity], where)
        coeff = _rat(entry[arity + 1], where)
        slot = constants.setdefault(key, {})
        slot[target] = slot.get(target, Fraction(0)) + coeff
    return {key: Element(space, coords) for key, coords in constants.items()}


def _check_grading(structure, label: str) -> None:
    report = grading_check(structure)
    if not report.passed:
        raise AlgebraFileError(f"{label} grading violation: {report.detail}")


def _parse_map(space: SuperSpace, name: str, rows) -> EvenMap:
    if not isinstance(rows, list) or len(rows) != space.dim:
        raise AlgebraFileError(f"map {name!r}: expected {space.dim} rows")
    parsed = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != space.dim:
            raise AlgebraFileError(f"map {name!r} row {r}: expected {space.dim} entries")
        parsed.append(tuple(_rat(v, f"map {name!r} row {r}") for v in row))
    try:
        return EvenMap(space, tuple(parsed))
    except ValueError as exc:
        raise AlgebraFileError(f"map {name!r}: {exc}") from exc


def load(path) -> AlgebraDocument:
    """Read and fully validate an algebra file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise AlgebraFileError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal with more digits than int() converts
        raise AlgebraFileError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise AlgebraFileError(f"{path}: top level must be an object")
    unknown = [key for key in data if key not in KEYS]
    if unknown:
        raise AlgebraFileError(
            f"unknown top-level key {', '.join(map(repr, unknown))}; allowed keys: {', '.join(KEYS)}"
        )

    kind = data.get("kind")
    if kind not in KINDS:
        raise AlgebraFileError(f"kind must be one of {KINDS}, got {kind!r}")

    raw_basis = data.get("basis")
    if not isinstance(raw_basis, list) or not raw_basis:
        raise AlgebraFileError("basis must be a nonempty list")
    pairs = []
    for position, item in enumerate(raw_basis):
        if not isinstance(item, dict) or "name" not in item or "parity" not in item:
            raise AlgebraFileError(f"basis[{position}]: expected {{name, parity}}")
        unknown = [key for key in item if key not in BASIS_KEYS]
        if unknown:
            raise AlgebraFileError(
                f"basis[{position}]: unknown key {', '.join(map(repr, unknown))}; allowed keys: {', '.join(BASIS_KEYS)}"
            )
        name, parity = item["name"], item["parity"]
        if not isinstance(name, str):
            raise AlgebraFileError(f"basis[{position}]: name must be a string, got {name!r}")
        if type(parity) is not int or parity not in (0, 1):
            raise AlgebraFileError(f"basis[{position}]: parity must be 0 or 1, got {parity!r}")
        pairs.append((name, parity))
    try:
        space = SuperSpace.build(pairs)
    except ValueError as exc:
        raise AlgebraFileError(str(exc)) from exc

    raw_maps = data.get("maps", {})
    if not isinstance(raw_maps, dict):
        raise AlgebraFileError(f"maps must be an object of named matrices, got {raw_maps!r}")
    if IDENTITY_TWIST in raw_maps:
        raise AlgebraFileError(f"map name {IDENTITY_TWIST!r} is reserved for the identity twist")
    maps = {name: _parse_map(space, name, rows) for name, rows in raw_maps.items()}

    twist_ref = data.get("twist", IDENTITY_TWIST)
    if not isinstance(twist_ref, str):
        raise AlgebraFileError(f"twist must be 'id' or a map name, got {twist_ref!r}")
    if twist_ref == IDENTITY_TWIST:
        twist = EvenMap.identity(space)
    elif twist_ref in maps:
        twist = maps[twist_ref]
    else:
        raise AlgebraFileError(f"twist {twist_ref!r} is not 'id' or a defined map name")

    convention_ref = data.get("convention", "unit")
    try:
        convention = Convention(convention_ref)
    except ValueError:
        raise AlgebraFileError(f"convention must be 'unit' or 'half', got {convention_ref!r}") from None

    structure_type = _KIND_TYPES[kind]
    products = []
    for label, tensor_type in (("binary", BinaryStructure), ("ternary", TernaryStructure)):
        entries = data.get(label)
        if label == structure_type.absent:
            if entries:
                raise AlgebraFileError(f"{label} must be empty in a file of kind {kind}")
            continue
        product = tensor_type(space, _parse_products(space, entries, tensor_type.arity, label))
        _check_grading(product, label)
        products.append(product)
    structure = structure_type(*products, twist)

    name = data.get("name", path.stem)
    if not isinstance(name, str):
        raise AlgebraFileError(f"name must be a string, got {name!r}")
    return AlgebraDocument(name=name, structure=structure, maps=maps, convention=convention)


def _text(value: Fraction, where: str) -> str:
    try:
        return str(value)
    except ValueError as exc:  # more digits than str() converts
        raise AlgebraFileError(f"{where}: cannot write rational: {exc}") from None


def _product_rows(space: SuperSpace, constants, label: str):
    rows = []
    for key in sorted(constants):
        element = constants[key]
        for target, coeff in element.coords.items():
            names = [space.names[i] for i in key] + [space.names[target]]
            where = f"{label} entry ({', '.join(names[:-1])}) -> {names[-1]}"
            rows.append(names + [_text(coeff, where)])
    return rows


def _map_rows(name: str, even_map: EvenMap):
    return [[_text(v, f"map {name!r} row {r}") for v in row] for r, row in enumerate(even_map.matrix)]


def document_to_dict(document: AlgebraDocument) -> dict:
    space = document.space
    structure = document.structure
    maps = dict(document.maps)
    if IDENTITY_TWIST in maps:
        raise AlgebraFileError(f"map name {IDENTITY_TWIST!r} is reserved for the identity twist")

    twist = structure.twist
    if twist.is_identity():
        twist_ref = IDENTITY_TWIST
    else:
        twist_ref = next((n for n, m in maps.items() if m == twist), None)
        if twist_ref is None:
            twist_ref = "twist"
            maps[twist_ref] = twist

    return {
        "name": document.name,
        "kind": document.kind,
        "convention": document.convention.value,
        "basis": [{"name": n, "parity": p} for n, p in space.basis],
        "binary": [] if structure.binary is None else _product_rows(space, structure.binary.constants, "binary"),
        "ternary": [] if structure.ternary is None else _product_rows(space, structure.ternary.constants, "ternary"),
        "maps": {name: _map_rows(name, maps[name]) for name in sorted(maps)},
        "twist": twist_ref,
    }


def save(document: AlgebraDocument, path) -> None:
    """Write a document; loading it back reproduces the structure tensor-exactly."""
    Path(path).write_text(json.dumps(document_to_dict(document), indent=2) + "\n")
