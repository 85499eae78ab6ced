"""Bit-exact JSON serialization for systems, machines, and predicates.

Documents carry a required integer `version` (currently 1).  Parsing is
strict: unknown fields, wrong types, and duplicate rule rows are rejected
with the offending path; plain syntax errors carry the line and column; a
key repeated within one object, the constants NaN/Infinity/-Infinity, and
nesting too deep to parse, are errors too.  Every other rule is checked by
validation.  Serialization canonicalizes first and emits sorted keys with
two-space indentation, so equal values produce identical bytes.

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
from typing import Any

from .errors import ParseError
from .model import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    PortId,
    canonicalize_system,
    validate_system,
)
from .turing import DTM, canonicalize_dtm, validate_dtm

DOCUMENT_VERSION = 1


def dump_document(doc: dict) -> str:
    """The one JSON writer: `doc` stamped with the document version, emitted
    with sorted keys, two-space indentation and a trailing newline."""
    stamped = {"version": DOCUMENT_VERSION, **doc}
    return json.dumps(stamped, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        dupe = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(f"duplicate key {dupe!r}")
    return obj


def _no_constant(name: str) -> Any:
    raise ParseError(f"{name} is not a JSON number")


def _load(text: str) -> Any:
    try:
        return json.loads(
            text, object_pairs_hook=_unique_keys, parse_constant=_no_constant
        )
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


def parse_system(text: str, validate: bool = True) -> InteractionSystem:
    """Parse a system document.  With validate=True (the default) any
    validation finding is raised; validate=False returns the value so the
    findings can be reported as data."""
    doc = _object(_load(text), "$")
    _fields(doc, "$", ("version", "components", "interactions"))
    _version(doc, "$")

    components: list[str] = []
    ports: dict[str, tuple[str, ...]] = {}
    behaviors: dict[str, LocalBehavior] = {}
    for k, raw in enumerate(_array(doc["components"], "$.components")):
        path = f"$.components[{k}]"
        obj = _object(raw, path)
        _fields(obj, path, ("name", "ports", "states", "initial", "transitions"))
        name = _string(obj["name"], f"{path}.name")
        ports[name] = _string_array(obj["ports"], f"{path}.ports")
        states = _string_array(obj["states"], f"{path}.states")
        initial = _string(obj["initial"], f"{path}.initial")
        transitions = set()
        for t, raw_tr in enumerate(_array(obj["transitions"], f"{path}.transitions")):
            tr_path = f"{path}.transitions[{t}]"
            tr = _object(raw_tr, tr_path)
            _fields(tr, tr_path, ("from", "port", "to"))
            transitions.add(
                (
                    _string(tr["from"], f"{tr_path}.from"),
                    _string(tr["port"], f"{tr_path}.port"),
                    _string(tr["to"], f"{tr_path}.to"),
                )
            )
        components.append(name)
        behaviors[name] = LocalBehavior(states, frozenset(transitions), initial)

    interactions: list[Interaction] = []
    for k, raw in enumerate(_array(doc["interactions"], "$.interactions")):
        path = f"$.interactions[{k}]"
        obj = _object(raw, path)
        _fields(obj, path, ("ports",), ("name",))
        pids = tuple(
            _port_ref(p, f"{path}.ports[{j}]")
            for j, p in enumerate(_array(obj["ports"], f"{path}.ports"))
        )
        name = (
            _string(obj["name"], f"{path}.name") if "name" in obj else f"alpha_{k}"
        )
        interactions.append(Interaction(name, pids))

    system = InteractionSystem(
        InteractionModel(tuple(components), ports, tuple(interactions)), behaviors
    )
    if validate:
        validate_system(system).raise_if_failed("system")
    return system


def serialize_system(sys: InteractionSystem) -> str:
    """Canonical, byte-stable system document."""
    canonical = canonicalize_system(sys)
    doc = {
        "components": [
            {
                "name": c,
                "ports": list(canonical.model.ports[c]),
                "states": list(canonical.behaviors[c].states),
                "initial": canonical.behaviors[c].initial,
                "transitions": [
                    {"from": src, "port": port, "to": dst}
                    for src, port, dst in sorted(canonical.behaviors[c].transitions)
                ],
            }
            for c in canonical.model.components
        ],
        "interactions": [
            {"name": a.name, "ports": [str(p) for p in a.ports]}
            for a in canonical.model.interactions
        ],
    }
    return dump_document(doc)


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

    delta: dict[tuple[str, str], tuple[str, str, int]] = {}
    rows: dict[tuple[str, str], int] = {}
    for k, raw in enumerate(_array(doc["delta"], "$.delta")):
        path = f"$.delta[{k}]"
        obj = _object(raw, path)
        _fields(obj, path, ("state", "read", "next", "write", "move"))
        state = _string(obj["state"], f"{path}.state")
        read = _string(obj["read"], f"{path}.read")
        move = obj["move"]
        if not isinstance(move, int) or isinstance(move, bool):
            raise ParseError(
                f"{path}.move: expected an integer, got {type(move).__name__}"
            )
        key = (state, read)
        if key in rows:
            raise ParseError(
                f"{path} duplicates $.delta[{rows[key]}] (same state and read symbol)"
            )
        rows[key] = k
        delta[key] = (
            _string(obj["next"], f"{path}.next"),
            _string(obj["write"], f"{path}.write"),
            move,
        )

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
    """Canonical, byte-stable machine document."""
    canonical = canonicalize_dtm(machine)
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
            for (p, g), (p2, w, move) in sorted(canonical.delta.items())
        ],
    }
    return dump_document(doc)


def parse_predicates(text: str) -> list[dict[str, str]]:
    """Parse a predicate document into raw component->state mappings; names
    are resolved against a system later."""
    doc = _object(_load(text), "$")
    _fields(doc, "$", ("version", "predicates"))
    _version(doc, "$")
    out = []
    for k, raw in enumerate(_array(doc["predicates"], "$.predicates")):
        path = f"$.predicates[{k}]"
        obj = _object(raw, path)
        out.append({c: _string(s, f"{path}.{c}") for c, s in obj.items()})
    return out


def serialize_predicates(predicates: list[dict[str, str]]) -> str:
    return dump_document({"predicates": [dict(sorted(p.items())) for p in predicates]})
