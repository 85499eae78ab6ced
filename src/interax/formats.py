"""Bit-exact JSON serialization for systems, machines, and predicates.

Documents carry a required integer `version` (currently 1).  Parsing is
strict: unknown fields, wrong types, and duplicate machine delta rows (one
`(state, read)` twice) are rejected with the offending path, while a
transition row repeated in a system document is one transition, since
transitions form a set; plain syntax errors carry the line and column; a
key repeated within one object, the constants NaN/Infinity/-Infinity, and
nesting too deep to parse, are errors too.  Every other rule is checked by
validation.  A reader checks an object, or a list of them, whole: its key
set, and the type of every value in one `map(type, ...)` pass; it builds
the value with C-level calls.  Only an object that fails is walked again
value by value, spelling paths, to raise its first error (finding none is
an `AssertionError`), so a path is formatted only for a refused document.
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


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _fields(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"{path}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{path}: missing field {key!r}")


def _version(obj: dict, path: str) -> None:
    v = obj["version"]
    if type(v) is not int or v != DOCUMENT_VERSION:
        raise ParseError(f"{path}.version: unsupported version {v!r}")


def _string_array(value: Any, path: str) -> tuple[str, ...]:
    return tuple(_string(s, f"{path}[{k}]") for k, s in enumerate(_array(value, path)))


def _port_ref(value: Any, path: str) -> PortId:
    text = _string(value, path)
    component, _, port = text.partition(".")
    if not component or not port:
        raise ParseError(f"{path}: port reference {text!r} must be 'component.port'")
    return PortId(component, port)


def _reference(name: str, p: PortId) -> str:
    """The `component.port` text that `_port_ref` reads back as `p`, which
    interaction `name` lists; refused where no text does."""
    component, port = p
    if not component or not port or "." in component:
        raise ModelError(
            f"cannot serialize: interaction {name!r} lists {p!r}, "
            f"whose reference {str(p)!r} does not read back as it"
        )
    return f"{component}.{port}"


# The readers of the objects in lists: each reads its object whole, and
# walks one that does not read value by value to raise its first error.
_STR, _DICT = {str}, {dict}
_COMPONENT_FIELDS = ("name", "ports", "states", "initial", "transitions")
_TRANSITION_FIELDS = ("from", "port", "to")
_ROW_FIELDS = ("state", "read", "next", "write", "move")
_COMPONENT_KEYS = set(_COMPONENT_FIELDS)
_TRANSITION_KEYS = {frozenset(_TRANSITION_FIELDS)}
_ROW_KEYS = {frozenset(_ROW_FIELDS)}
_INTERACTION_KEYS = ({"ports"}, {"ports", "name"})
_ROW_TYPES = (str, str, str, str, int)
_component_values = itemgetter(*_COMPONENT_FIELDS)
_transition_values = itemgetter(*_TRANSITION_FIELDS)
_row_values = itemgetter(*_ROW_FIELDS)


def _component(obj: Any, k: int) -> tuple[str, tuple[str, ...], LocalBehavior]:
    if type(obj) is dict and obj.keys() == _COMPONENT_KEYS:
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
    obj = _object(obj, path)
    _fields(obj, path, _COMPONENT_FIELDS)
    _string(obj["name"], f"{path}.name")
    _string_array(obj["ports"], f"{path}.ports")
    _string_array(obj["states"], f"{path}.states")
    _string(obj["initial"], f"{path}.initial")
    for t, tr in enumerate(_array(obj["transitions"], f"{path}.transitions")):
        tr_path = f"{path}.transitions[{t}]"
        _fields(_object(tr, tr_path), tr_path, _TRANSITION_FIELDS)
        for field in _TRANSITION_FIELDS:
            _string(tr[field], f"{tr_path}.{field}")
    raise AssertionError(f"{path} reads value by value but not whole")


def _interaction(obj: Any, k: int) -> Interaction:
    if type(obj) is dict and obj.keys() in _INTERACTION_KEYS:
        refs, name = obj["ports"], obj.get("name", f"alpha_{k}")
        if type(refs) is list and type(name) is str and _STR.issuperset(map(type, refs)):
            pids = tuple(PortId(c, p) for c, _, p in (r.partition(".") for r in refs))
            if "" not in chain.from_iterable(pids):
                return Interaction(name, pids)
    path = f"$.interactions[{k}]"
    obj = _object(obj, path)
    _fields(obj, path, ("ports",), ("name",))
    for j, p in enumerate(_array(obj["ports"], f"{path}.ports")):
        _port_ref(p, f"{path}.ports[{j}]")
    if "name" in obj:
        _string(obj["name"], f"{path}.name")
    raise AssertionError(f"{path} reads value by value but not whole")


def _delta(rows: list) -> dict[tuple[str, str], tuple[str, str, int]]:
    if _DICT.issuperset(map(type, rows)) and _ROW_KEYS.issuperset(map(frozenset, rows)):
        values = list(map(_row_values, rows))
        if all(tuple(map(type, v)) == _ROW_TYPES for v in values):
            delta = {v[:2]: v[2:] for v in values}
            if len(delta) == len(values):
                return delta
    seen: dict[tuple[str, str], int] = {}
    for k, raw in enumerate(rows):
        path = f"$.delta[{k}]"
        obj = _object(raw, path)
        _fields(obj, path, _ROW_FIELDS)
        key = (_string(obj["state"], f"{path}.state"), _string(obj["read"], f"{path}.read"))
        move = obj["move"]
        if not isinstance(move, int) or isinstance(move, bool):
            raise ParseError(f"{path}.move: expected an integer, got {type(move).__name__}")
        if key in seen:
            raise ParseError(f"{path} duplicates $.delta[{seen[key]}] (same state and read symbol)")
        seen[key] = k
        _string(obj["next"], f"{path}.next")
        _string(obj["write"], f"{path}.write")
    raise AssertionError("$.delta reads value by value but not whole")


def parse_system(text: str, validate: bool = True) -> InteractionSystem:
    """Parse a system document.  With validate=True (the default) any
    validation finding is raised; validate=False returns the value so the
    findings can be reported as data.  The readers take only strings, so
    the value is marked typed either way."""
    doc = _object(_load(text), "$")
    _fields(doc, "$", ("version", "components", "interactions"))
    _version(doc, "$")

    components: list[str] = []
    ports: dict[str, tuple[str, ...]] = {}
    behaviors: dict[str, LocalBehavior] = {}
    for k, obj in enumerate(_array(doc["components"], "$.components")):
        name, family, behavior = _component(obj, k)
        components.append(name)
        ports[name], behaviors[name] = family, behavior
    interactions = [
        _interaction(obj, k) for k, obj in enumerate(_array(doc["interactions"], "$.interactions"))
    ]

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
    doc = _object(_load(text), "$")
    _fields(
        doc,
        "$",
        (
            "version",
            "tape_alphabet",
            "input_alphabet",
            "blank",
            "states",
            "initial",
            "accept",
            "reject",
            "delta",
        ),
    )
    _version(doc, "$")

    delta = _delta(_array(doc["delta"], "$.delta"))
    machine = DTM(
        tape_alphabet=_string_array(doc["tape_alphabet"], "$.tape_alphabet"),
        input_alphabet=_string_array(doc["input_alphabet"], "$.input_alphabet"),
        blank=_string(doc["blank"], "$.blank"),
        states=_string_array(doc["states"], "$.states"),
        initial=_string(doc["initial"], "$.initial"),
        accept=_string(doc["accept"], "$.accept"),
        reject=_string(doc["reject"], "$.reject"),
        delta=delta,
    )
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
    doc = _object(_load(text), "$")
    _fields(doc, "$", ("version", "predicates"))
    _version(doc, "$")
    predicates = _array(doc["predicates"], "$.predicates")
    if _DICT.issuperset(map(type, predicates)) and _STR.issuperset(
        map(type, chain.from_iterable(map(dict.values, predicates)))
    ):
        return predicates
    for k, obj in enumerate(predicates):
        path = f"$.predicates[{k}]"
        for c, s in _object(obj, path).items():
            _string(s, f"{path}.{c}")
    raise AssertionError("$.predicates reads value by value but not whole")


def serialize_predicates(predicates: list[dict[str, str]]) -> str:
    """Predicate document; a component or state name that is not a string
    cannot be written."""
    pairs = chain.from_iterable(p.items() for p in predicates)
    refuse_non_strings(chain.from_iterable(pairs), "serialize")
    return dump_document({"predicates": [dict(p) for p in predicates]})
