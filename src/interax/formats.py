"""Bit-exact JSON serialization for systems, machines, and predicates.

Documents carry a required integer `version` (currently 1).  Parsing is
strict: undeclared or absent fields, wrong types, and duplicate machine
delta rows (one `(state, read)` twice) are rejected with the offending
path, while a transition row repeated in a system document is one
transition, since transitions form a set; plain syntax errors carry the
line and column; a key repeated within one object, the constants
NaN/Infinity/-Infinity, and nesting too deep to parse, are errors too.
Every other rule is checked by validation.  One table per object kind
lists its fields in the order they are checked, with the shape of each,
and one reader, `_read`, raises the first fault of a value against its
shape: an object's type, then a field its table does not list, then a
listed field it lacks, then each field in table order, so an object's own
fields are checked before any object in its lists is read.  The readers of the
objects in lists take their key sets and field order from the tables and
check an object, or a list of them, whole, with C-level calls: its key
set, and the type of every value in one `map(type, ...)` pass.  Only an
object that fails is read again by `_read`, which spells paths, to raise
its first error (finding none is an `AssertionError`).
Serialization writes in canonical order and emits sorted keys, two-space
indentation, `\\uXXXX` escapes for non-ASCII and a trailing newline, so
equal values produce identical bytes: those of `json.dumps(...,
sort_keys=True, indent=2)` plus a newline.  `dump_document` writes every
document but the system's (machines, predicates and the CLI's verdicts)
with that call.  `serialize_system` renders the system document, the one
that grows large, from templates of its fixed shape instead, quoting every
string with the standard library's `encode_basestring_ascii`.

System document:
    {"version": 1,
     "components": [{"name", "ports", "states", "initial",
                     "transitions": [{"from", "port", "to"}, ...]}, ...],
     "interactions": [{"name"?, "ports": ["comp.port", ...]}, ...]}

Machine document:
    {"version": 1, "tape_alphabet", "input_alphabet", "blank",
     "states", "initial", "accept", "reject",
     "delta": [{"state", "read", "next", "write", "move"}, ...]}

Predicate document:
    {"version": 1, "predicates": [{"<component>": "<state>"|"*", ...}, ...]}
    "*" means any state here and in an inline target only; validation
    reports a state named "*" as `wildcard-state`.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any

from .errors import ModelError, ParseError
from .model import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    PortId,
    _mark_typed,
    refuse_untyped,
    validate_system,
)
from .turing import DTM, _names, canonicalize_dtm, validate_dtm
from .validation import refuse_non_strings

DOCUMENT_VERSION = 1

# The system document's objects, keys in sorted order, each at the
# indentation it has in the document; `_items` fills their lists.
_SYSTEM = '{\n  "components": %s,\n  "interactions": %s,\n  "version": %d\n}\n'
_COMPONENT = (
    '{\n      "initial": %s,\n      "name": %s,\n      "ports": %s,'
    '\n      "states": %s,\n      "transitions": %s\n    }'
)
_TRANSITION = '{\n          "from": %s,\n          "port": %s,\n          "to": %s\n        }'
_INTERACTION = '{\n      "name": %s,\n      "ports": %s\n    }'


def dump_document(doc: dict) -> str:
    """The writer of every document but the system's: `doc` stamped with
    the document version, written by `json.dumps` with sorted keys and
    two-space indentation, plus a newline."""
    return json.dumps({"version": DOCUMENT_VERSION, **doc}, sort_keys=True, indent=2) + "\n"


def _items(rendered: list[str], newline: str) -> str:
    """A JSON list of already rendered items, on a line whose break and
    indentation are `newline`: `[]` when empty, else one item per line two
    spaces deeper."""
    if not rendered:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(rendered) + newline + "]"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        dupe = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(f"duplicate key {dupe!r}")
    return obj


def _no_constant(name: str) -> Any:
    raise ParseError(f"{name} is not a JSON number")


def _integer(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:
        raise ParseError(f"integer literal too long: {len(literal)} characters") from None


_HOOKS = {"object_pairs_hook": _unique_keys, "parse_constant": _no_constant, "parse_int": _integer}
_DECODER = json.JSONDecoder(**_HOOKS)


def _load(text: str) -> Any:
    try:
        if type(text) is str and not text.startswith("\ufeff"):
            return _DECODER.decode(text)
        return json.loads(text, **_HOOKS)  # bytes, or the byte order mark it refuses
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None


# Each object's fields in the order they are read, with the shape of each:
# `str` a string, `int` an integer (not a bool), `list` an array whose items
# their own reader reads, `PortId` a `component.port` reference,
# `DOCUMENT_VERSION` the version, `[shape]` an array of `shape`, and a table
# `{field: shape}` an object with exactly those fields.
_TRANSITION_FIELDS = {"from": str, "port": str, "to": str}
_COMPONENT_FIELDS = {
    "name": str, "ports": [str], "states": [str], "initial": str,
    "transitions": [_TRANSITION_FIELDS],
}
_INTERACTION_FIELDS = {"ports": [PortId]}  # unnamed, the k-th is `alpha_<k>`
_NAMED_INTERACTION_FIELDS = {**_INTERACTION_FIELDS, "name": str}
_ROW_FIELDS = {"state": str, "read": str, "next": str, "write": str, "move": int}
_SYSTEM_FIELDS = {"version": DOCUMENT_VERSION, "components": list, "interactions": list}
_MACHINE_FIELDS = {  # a `DTM`'s fields and the version
    "version": DOCUMENT_VERSION,
    "tape_alphabet": [str], "input_alphabet": [str], "blank": str, "states": [str],
    "initial": str, "accept": str, "reject": str,
    "delta": list,
}
_PREDICATES_FIELDS = {"version": DOCUMENT_VERSION, "predicates": list}


def _read(value: Any, shape: Any, path: str) -> None:
    """Raise the first `ParseError` of `value` read as `shape` at `path`, in
    the order the module states.  A field or item whose type is its shape
    (`str`, `int` or `list`), or that is its shape (the version), fits it
    without a call, so no path is spelled for it."""
    if type(shape) is dict:
        if type(value) is not dict:
            raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
        if value.keys() != shape.keys():
            for key in value:
                if key not in shape:
                    raise ParseError(f"{path}: unknown field {key!r}")
            for key in shape:
                if key not in value:
                    raise ParseError(f"{path}: missing field {key!r}")
        for key, field in shape.items():
            v = value[key]
            if v is not field and type(v) is not field:
                _read(v, field, f"{path}.{key}")
    elif type(shape) is list or shape is list:
        if type(value) is not list:
            raise ParseError(f"{path}: expected an array, got {type(value).__name__}")
        for k, item in enumerate(value if shape is not list else ()):
            if type(item) is not shape[0]:
                _read(item, shape[0], f"{path}[{k}]")
    elif shape is str or shape is PortId:
        if type(value) is not str:
            raise ParseError(f"{path}: expected a string, got {type(value).__name__}")
        if shape is PortId and "" in value.partition(".")[::2]:
            raise ParseError(f"{path}: port reference {value!r} must be 'component.port'")
    elif shape is int:
        if type(value) is not int:
            raise ParseError(f"{path}: expected an integer, got {type(value).__name__}")
    elif type(value) is not int or value != shape:  # the version
        raise ParseError(f"{path}: unsupported version {value!r}")


def _reference(name: str, p: PortId) -> str:
    """The `component.port` text that `_interaction` reads back as `p`, which
    interaction `name` lists; refused where no text does."""
    component, port = p
    if not component or not port or "." in component:
        raise ModelError(
            f"cannot serialize: interaction {name!r} lists {p!r}, "
            f"whose reference {str(p)!r} does not read back as it"
        )
    return f"{component}.{port}"


# The readers of the objects in lists, reading their tables' key sets and order.
_STR, _DICT = {str}, {dict}
_TRANSITION_KEYS = {frozenset(_TRANSITION_FIELDS)}
_INTERACTION_KEYS = (_INTERACTION_FIELDS.keys(), _NAMED_INTERACTION_FIELDS.keys())
_ROW_KEYS = {frozenset(_ROW_FIELDS)}
_ROW_TYPES = tuple(_ROW_FIELDS.values())
_component_values = itemgetter(*_COMPONENT_FIELDS)
_transition_values = itemgetter(*_TRANSITION_FIELDS)
_row_values = itemgetter(*_ROW_FIELDS)


def _component(obj: Any, k: int) -> tuple[str, tuple[str, ...], LocalBehavior]:
    if type(obj) is dict and obj.keys() == _COMPONENT_FIELDS.keys():
        name, ports, states, initial, trs = _component_values(obj)
        if (
            type(name) is type(initial) is str
            and type(ports) is type(states) is type(trs) is list
            and _STR.issuperset(map(type, chain(ports, states)))
            and _DICT.issuperset(map(type, trs))
            and _TRANSITION_KEYS.issuperset(map(frozenset, trs))
        ):
            triples = list(map(_transition_values, trs))
            if _STR.issuperset(map(type, chain.from_iterable(triples))):
                return name, tuple(ports), LocalBehavior(tuple(states), frozenset(triples), initial)
    path = f"$.components[{k}]"
    _read(obj, _COMPONENT_FIELDS, path)
    raise AssertionError(f"{path} reads value by value but not whole")


def _interaction(obj: Any, k: int) -> Interaction:
    if type(obj) is dict and obj.keys() in _INTERACTION_KEYS:
        refs, name = obj["ports"], obj.get("name", f"alpha_{k}")
        if type(refs) is list and type(name) is str and _STR.issuperset(map(type, refs)):
            pids = tuple(PortId(c, p) for c, _, p in (r.partition(".") for r in refs))
            if "" not in chain.from_iterable(pids):
                return Interaction(name, pids)
    path = f"$.interactions[{k}]"
    named = type(obj) is dict and "name" in obj
    _read(obj, _NAMED_INTERACTION_FIELDS if named else _INTERACTION_FIELDS, path)
    raise AssertionError(f"{path} reads value by value but not whole")


def _delta(rows: list) -> dict[tuple[str, str], tuple[str, str, int]]:
    if _DICT.issuperset(map(type, rows)) and _ROW_KEYS.issuperset(map(frozenset, rows)):
        values = list(map(_row_values, rows))
        if all(tuple(map(type, v)) == _ROW_TYPES for v in values):
            delta = {v[:2]: v[2:] for v in values}
            if len(delta) == len(values):
                return delta
    seen: dict[tuple[str, str], int] = {}
    for k, row in enumerate(rows):
        path = f"$.delta[{k}]"
        _read(row, _ROW_FIELDS, path)
        key = (row["state"], row["read"])
        if key in seen:
            raise ParseError(f"{path} duplicates $.delta[{seen[key]}] (same state and read symbol)")
        seen[key] = k
    raise AssertionError("$.delta reads value by value but not whole")


def parse_system(text: str, validate: bool = True) -> InteractionSystem:
    """Parse a system document.  With validate=True (the default) any
    validation finding is raised; validate=False returns the value so the
    findings can be reported as data.  The readers take only strings, so
    the value is marked typed either way."""
    doc = _load(text)
    _read(doc, _SYSTEM_FIELDS, "$")

    components: list[str] = []
    ports: dict[str, tuple[str, ...]] = {}
    behaviors: dict[str, LocalBehavior] = {}
    for k, obj in enumerate(doc["components"]):
        name, family, behavior = _component(obj, k)
        components.append(name)
        ports[name], behaviors[name] = family, behavior
    interactions = [_interaction(obj, k) for k, obj in enumerate(doc["interactions"])]

    model = InteractionModel(tuple(components), ports, tuple(interactions))
    system = _mark_typed(InteractionSystem(model, behaviors))
    if validate:
        validate_system(system).raise_if_failed("system")
    return system


def serialize_system(sys: InteractionSystem) -> str:
    """Canonical, byte-stable system document.  A document holds only string
    names and `component.port` references, and it states each component's
    behavior and port family with the component, so an interaction port
    entry that is not a `PortId`, a name that is not a string, a port whose
    reference would not read back as that port (an empty component or port
    name, or a component name with a `.`), a component without a behavior,
    or a behavior or port family without a component, cannot be written.

    The text is rendered straight from the document's fixed shape, one
    template per object, with no dict in between; its bytes are those that
    `dump_document` writes for the same document, and `json.dumps(...,
    sort_keys=True, indent=2)` plus a newline.  It reads the system through
    sorted views: sorted components, port families, states and transitions,
    and the interactions as sorted `(name, sorted ports)` pairs, so reading
    the document back gives the system in that order.  The faults are
    checked in this order: the first port entry that is not a `PortId`, else
    the first name that is not a string (unless the system is marked typed),
    then the first missing behavior, the first behavior the model lacks, the
    first port family it lacks, and each interaction's port references."""
    refuse_untyped(sys, "serialize")
    model, behaviors = sys.model, sys.behaviors
    components = sorted(model.components)
    known = set(components)
    for faults, message in (
        (known - behaviors.keys(), "component {} has no behavior"),
        (behaviors.keys() - known, "component {} is not in the model"),
        (model.ports.keys() - known, "port family for component {} is not in the model"),
    ):
        if faults:
            raise ModelError("cannot serialize: " + message.format(min(faults)))
    rendered = []
    for c in components:
        b = behaviors[c]
        transitions = [
            _TRANSITION % (_quote(src), _quote(port), _quote(dst))
            for src, port, dst in sorted(b.transitions)
        ]
        rendered.append(
            _COMPONENT
            % (
                _quote(b.initial),
                _quote(c),
                _items([_quote(p) for p in sorted(model.ports.get(c, ()))], "\n      "),
                _items([_quote(q) for q in sorted(b.states)], "\n      "),
                _items(transitions, "\n      "),
            )
        )
    interactions = [
        _INTERACTION
        % (
            _quote(label),
            _items([_quote(_reference(label, p)) for p in pids], "\n      "),
        )
        for label, pids in sorted((a.name, tuple(sorted(a.ports))) for a in model.interactions)
    ]
    return _SYSTEM % (
        _items(rendered, "\n  "),
        _items(interactions, "\n  "),
        DOCUMENT_VERSION,
    )


def parse_dtm(text: str) -> DTM:
    """Parse a machine document and validate it; rule totality is checked
    after parsing."""
    doc = _load(text)
    _read(doc, _MACHINE_FIELDS, "$")
    del doc["version"]
    delta = _delta(doc.pop("delta"))
    machine = DTM(delta=delta, **{k: tuple(v) if type(v) is list else v for k, v in doc.items()})
    validate_dtm(machine).raise_if_failed("machine")
    return machine


def serialize_dtm(machine: DTM) -> str:
    """Canonical, byte-stable machine document.  A machine with a name that
    is not a string, or with a move that is not an `int`, cannot be written:
    `parse_dtm` reads a move only as a JSON integer.  An `int` move that
    validation rejects is written, so its finding survives the round trip."""
    refuse_non_strings(chain(*_names(machine)), "serialize")
    canonical = canonicalize_dtm(machine)
    rules = sorted(canonical.delta.items())
    for (p, g), (_, _, move) in rules:
        if type(move) is not int:
            raise ModelError(
                f"cannot serialize: delta rule ({p}, {g}) has move {move!r}, "
                "which is not an int"
            )
    doc = {
        "tape_alphabet": list(canonical.tape_alphabet),
        "input_alphabet": list(canonical.input_alphabet),
        "blank": canonical.blank,
        "states": list(canonical.states),
        "initial": canonical.initial,
        "accept": canonical.accept,
        "reject": canonical.reject,
        "delta": [
            {"state": p, "read": g, "next": p2, "write": w, "move": move}
            for (p, g), (p2, w, move) in rules
        ],
    }
    return dump_document(doc)


def parse_predicates(text: str) -> list[dict[str, str]]:
    """Parse a predicate document into raw component->state mappings; names
    are resolved against a system later."""
    doc = _load(text)
    _read(doc, _PREDICATES_FIELDS, "$")
    predicates = doc["predicates"]
    if _DICT.issuperset(map(type, predicates)) and _STR.issuperset(
        map(type, chain.from_iterable(map(dict.values, predicates)))
    ):
        return predicates
    for k, obj in enumerate(predicates):
        # a predicate's fields are its own keys, each naming a state
        _read(obj, dict.fromkeys(obj if type(obj) is dict else (), str), f"$.predicates[{k}]")
    raise AssertionError("$.predicates reads value by value but not whole")


def serialize_predicates(predicates: list[dict[str, str]]) -> str:
    """Predicate document; a component or state name that is not a string
    cannot be written."""
    pairs = chain.from_iterable(p.items() for p in predicates)
    refuse_non_strings(chain.from_iterable(pairs), "serialize")
    return dump_document({"predicates": [dict(p) for p in predicates]})
