"""Command-line front door. Thin shell: every answer is a library call.

Machine-readable results go to stdout as canonical JSON documents; the human
summary goes to stderr.  Exit codes: 0 for any computed answer (including
"unreachable"), 1 for internal errors, 2 for invalid input.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path
from typing import Sequence

from .errors import ModelError, ParseError
from .formats import (
    dump_document,
    parse_dtm,
    parse_predicates,
    parse_system,
    serialize_predicates,
    serialize_system,
)
from .model import validate_system
from .oracle import (
    GenParams,
    Verdict,
    check_theorem1,
    check_theorem2,
    gen_random_system,
)
from .reduce_linear import accept_predicate, compile_lsa, extend_halt_propagation
from .reduce_star import starify
from .semantics import DEFAULT_MAX_STATES, StatePredicate, compile_system, is_reachable
from .topology import classify, export_dot, interaction_graph
from .turing import run_tm


def _write(text: str, out: str | None) -> None:
    if out is None:
        _sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit(out: str | None, kind: str, **fields) -> None:
    _write(dump_document({"kind": kind, **fields}), out)


def _say(message: str) -> None:
    print(message, file=_sys.stderr)


def _read(path: str) -> str:
    return Path(path).read_text()


def _cmd_validate(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.system), validate=False)
    report = validate_system(system)
    _emit(
        args.output,
        "validation",
        findings=[{"rule": f.rule, "message": f.message} for f in report.findings],
    )
    _say("ok" if report.ok else f"{len(report.findings)} finding(s)")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.system))
    graph = interaction_graph(system.model)
    shape = classify(system.model)
    if args.dot is not None:
        Path(args.dot).write_text(export_dot(graph))
    _emit(
        args.output,
        "topology",
        star_like=shape.star_like,
        linear=shape.linear,
        nodes=len(graph.nodes),
        edges=len(graph.edges),
    )
    _say(f"star_like={shape.star_like} linear={shape.linear}")
    return 0


def _parse_inline_target(text: str) -> list[dict[str, str]]:
    constraints: dict[str, str] = {}
    for chunk in text.split(","):
        comp, _, state = chunk.partition("=")
        comp, state = comp.strip(), state.strip()
        if not comp or not state:
            raise ModelError(f"bad target constraint {chunk!r}, expected comp=state")
        if comp in constraints:
            raise ModelError(f"target names component {comp!r} twice")
        constraints[comp] = state
    return [constraints]


def _cmd_reach(args: argparse.Namespace) -> int:
    # compile_system validates, as starify does in starify and check-thm2
    system = parse_system(_read(args.system), validate=False)
    compile_system(system)
    if "=" in args.target:
        raw = _parse_inline_target(args.target)
    else:
        raw = parse_predicates(_read(args.target))
    # "*" means any state in predicate text only; validation bars it as a
    # state name.  is_reachable rejects unknown names and an empty list.
    predicates = [
        StatePredicate.of({c: s for c, s in constraints.items() if s != "*"})
        for constraints in raw
    ]
    result = is_reachable(system, predicates, max_states=args.max_states)
    _emit(
        args.output,
        "reach",
        reachable=result.reachable,
        trace=result.trace,
        states_explored=result.states_explored,
        transitions_explored=result.transitions_explored,
        complete=result.complete,
    )
    if result.reachable:
        _say(f"reachable in {len(result.trace or [])} step(s)")
        if args.trace:
            for k, name in enumerate(result.trace or []):
                _say(f"  {k + 1}. {name}")
    else:
        suffix = "" if result.complete else " (search truncated)"
        _say(f"unreachable{suffix}")
    return 0


def _cmd_tm_run(args: argparse.Namespace) -> int:
    machine = parse_dtm(_read(args.dtm))
    result = run_tm(machine, args.input, max_steps=args.max_steps)
    _emit(args.output, "tm-run", outcome=result.outcome.value, steps=result.steps)
    _say(f"{result.outcome.value} after {result.steps} step(s)")
    return 0


def _cmd_tm_compile(args: argparse.Namespace) -> int:
    machine = parse_dtm(_read(args.dtm))
    if args.halt_extension:
        system, distinguished = extend_halt_propagation(machine, args.input)
        targets = [dict(zip(system.model.components, distinguished))]
    else:
        system = compile_lsa(machine, args.input)
        targets = [p.as_dict() for p in accept_predicate(machine, args.input)]
    _write(serialize_system(system), args.output)
    if args.target_out is not None:
        Path(args.target_out).write_text(serialize_predicates(targets))
    model = system.model
    _say(
        f"{len(model.components)} components, {len(model.interactions)} interactions"
        + (f"; target written to {args.target_out}" if args.target_out else "")
    )
    return 0


def _cmd_starify(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.system), validate=False)
    transformed = starify(system)
    _write(serialize_system(transformed), args.output)
    model = transformed.model
    _say(f"{len(model.components)} components, {len(model.interactions)} interactions")
    return 0


def _report_verdict(verdict: Verdict, out: str | None) -> int:
    _emit(out, "verdict", agree=verdict.agree, details=verdict.details)
    _say(("agree: " if verdict.agree else "DISAGREE: ") + verdict.details)
    return 0


def _cmd_check_thm1(args: argparse.Namespace) -> int:
    machine = parse_dtm(_read(args.dtm))
    return _report_verdict(check_theorem1(machine, args.input), args.output)


def _cmd_check_thm2(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.system), validate=False)
    return _report_verdict(check_theorem2(system), args.output)


def _cmd_gen_random(args: argparse.Namespace) -> int:
    params = GenParams(
        seed=args.seed,
        max_components=args.max_components,
        max_states=args.max_states,
        max_ports=args.max_ports,
        max_interactions=args.max_interactions,
        max_interaction_size=args.max_interaction_size,
    )
    system = gen_random_system(params)
    _write(serialize_system(system), args.output)
    model = system.model
    _say(f"{len(model.components)} components, {len(model.interactions)} interactions")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interax",
        description=(
            "Interaction systems: validation, composed-state reachability, "
            "topology classification, and the machine/star reductions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", help="write the result here instead of stdout")

    p = sub.add_parser("validate", help="report validation findings for a system file")
    p.add_argument("system")
    with_output(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classify the communication topology")
    p.add_argument("system")
    p.add_argument("--dot", help="also write the interaction graph as DOT")
    with_output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("reach", help="decide reachability of a target predicate")
    p.add_argument("system")
    p.add_argument(
        "--target",
        required=True,
        help="inline 'comp=state,comp2=*' (a '=' marks it inline) or a predicate file",
    )
    p.add_argument(
        "--max-states",
        type=int,
        help=f"stop after this many states (default {DEFAULT_MAX_STATES:,}; at least 1)",
    )
    p.add_argument("--trace", action="store_true", help="print the witness trace")
    with_output(p)
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("tm-run", help="run a machine on an input word")
    p.add_argument("dtm")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--max-steps",
        type=int,
        help="at least 1; if omitted, the run ends in accept, reject, bound_violation or loop",
    )
    with_output(p)
    p.set_defaults(func=_cmd_tm_run)

    p = sub.add_parser(
        "tm-compile", help="compile machine + word into a line-shaped system"
    )
    p.add_argument("dtm")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--halt-extension",
        action="store_true",
        help="add the halt cascade and target the all-done state",
    )
    p.add_argument(
        "--target-out",
        help="also write the matching reachability target as a predicate file",
    )
    with_output(p)
    p.set_defaults(func=_cmd_tm_compile)

    p = sub.add_parser("starify", help="transform a system into hub-and-spokes form")
    p.add_argument("system")
    with_output(p)
    p.set_defaults(func=_cmd_starify)

    p = sub.add_parser(
        "check-thm1",
        help="machine acceptance vs. reachability in the compiled line system",
    )
    p.add_argument("dtm")
    p.add_argument("--input", required=True)
    with_output(p)
    p.set_defaults(func=_cmd_check_thm1)

    p = sub.add_parser(
        "check-thm2",
        help="reachable set vs. hub-idle projection of the starified system",
    )
    p.add_argument("system")
    with_output(p)
    p.set_defaults(func=_cmd_check_thm2)

    p = sub.add_parser("gen-random", help="generate a seeded random system")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-components", type=int, default=4)
    p.add_argument("--max-states", type=int, default=3)
    p.add_argument("--max-ports", type=int, default=4)
    p.add_argument("--max-interactions", type=int, default=6)
    p.add_argument("--max-interaction-size", type=int, default=3)
    with_output(p)
    p.set_defaults(func=_cmd_gen_random)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ParseError, ModelError, OSError) as e:
        _say(f"error: {e}")
        return 2
    except Exception as e:  # pragma: no cover - defensive
        _say(f"internal error: {type(e).__name__}: {e}")
        return 1


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
