"""Command-line front door. Thin shell: every answer is a library call.

Machine-readable results go to stdout as canonical JSON documents; the human
summary goes to stderr.  Exit codes: 0 for any computed answer (including
"unreachable"), 1 for internal errors, 2 for invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
import traceback
from dataclasses import fields
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
from .model import InteractionSystem, validate_system
from .oracle import (
    GenParams,
    Verdict,
    check_theorem1,
    check_theorem2,
    gen_random_system,
)
from .reduce_linear import accept_predicate, compile_lsa, extend_halt_propagation
from .reduce_star import starify
from .semantics import DEFAULT_MAX_STATES, StatePredicate, is_reachable
from .topology import classify, export_dot, interaction_graph
from .turing import run_tm


def _write(text: str, out: str | None) -> None:
    if out is None:
        _sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit(out: str | None, kind: str, **fields) -> None:
    _write(dump_document({"kind": kind, **fields}), out)


def _say(message: str) -> None:
    print(message, file=_sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None


def _cmd_validate(args: argparse.Namespace) -> None:
    system = parse_system(_read(args.system), validate=False)
    report = validate_system(system)
    _emit(
        args.output,
        "validation",
        findings=[{"rule": f.rule, "message": f.message} for f in report.findings],
    )
    _say("ok" if report.ok else f"{len(report.findings)} finding(s)")


def _cmd_classify(args: argparse.Namespace) -> None:
    system = parse_system(_read(args.system))
    graph = interaction_graph(system.model)
    shape = classify(system.model)
    if args.dot is not None:
        _write(export_dot(graph), args.dot)
    _emit(
        args.output,
        "topology",
        star_like=shape.star_like,
        linear=shape.linear,
        nodes=len(graph.nodes),
        edges=len(graph.edges),
    )
    _say(f"star_like={shape.star_like} linear={shape.linear}")


def _argv_text(arg: str) -> str:
    """A command-line word as UTF-8 text, as the files spell names.  Python
    decodes argv in the locale's encoding, so under an ASCII locale a UTF-8
    name arrives as escaped bytes; this reads those bytes back as UTF-8."""
    try:
        raw = os.fsencode(arg)
    except UnicodeEncodeError:
        return arg  # not from argv (a caller's own string): already text
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise argparse.ArgumentTypeError(
            f"not UTF-8 ({e.reason} at byte {e.start})"
        ) from None


def _target_arg(arg: str) -> str:
    # inline constraints name components and states; a path stays a path
    return _argv_text(arg) if "=" in arg else arg


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


def _cmd_reach(args: argparse.Namespace) -> None:
    system = parse_system(_read(args.system))
    if "=" in args.target:
        raw = _parse_inline_target(args.target)
    else:
        raw = parse_predicates(_read(args.target))
    # "*" means any state in predicate text only; validation bars it as a
    # state name.  is_reachable rejects unknown names and an empty list, so
    # only a wildcard's component is checked before the wildcard is dropped.
    for constraints in raw:
        for c, s in constraints.items():
            if s == "*" and c not in system.model.components:
                raise ModelError(f"predicate names unknown component {c!r}")
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
        bound = DEFAULT_MAX_STATES if args.max_states is None else args.max_states
        suffix = "" if result.complete else f" (search stopped at {bound} states)"
        _say(f"unreachable{suffix}")


def _cmd_tm_run(args: argparse.Namespace) -> None:
    machine = parse_dtm(_read(args.dtm))
    result = run_tm(machine, args.input, max_steps=args.max_steps)
    _emit(args.output, "tm-run", outcome=result.outcome.value, steps=result.steps)
    _say(f"{result.outcome.value} after {result.steps} step(s)")


def _write_system(system: InteractionSystem, out: str | None) -> str:
    """Write the system document; return the summary line for stderr."""
    _write(serialize_system(system), out)
    model = system.model
    return f"{len(model.components)} components, {len(model.interactions)} interactions"


def _cmd_tm_compile(args: argparse.Namespace) -> None:
    machine = parse_dtm(_read(args.dtm))
    if args.halt_extension:
        system, distinguished = extend_halt_propagation(machine, args.input)
        targets = [dict(zip(system.model.components, distinguished))]
    else:
        system = compile_lsa(machine, args.input)
        targets = [p.as_dict() for p in accept_predicate(machine, args.input)]
    summary = _write_system(system, args.output)
    if args.target_out is not None:
        _write(serialize_predicates(targets), args.target_out)
        summary += f"; target written to {args.target_out}"
    _say(summary)


def _cmd_starify(args: argparse.Namespace) -> None:
    system = parse_system(_read(args.system))
    _say(_write_system(starify(system), args.output))


def _report_verdict(verdict: Verdict, out: str | None) -> None:
    _emit(out, "verdict", agree=verdict.agree, details=verdict.details)
    _say(("agree: " if verdict.agree else "DISAGREE: ") + verdict.details)


def _cmd_check_thm1(args: argparse.Namespace) -> None:
    machine = parse_dtm(_read(args.dtm))
    _report_verdict(check_theorem1(machine, args.input), args.output)


def _cmd_check_thm2(args: argparse.Namespace) -> None:
    system = parse_system(_read(args.system))
    _report_verdict(check_theorem2(system), args.output)


def _cmd_gen_random(args: argparse.Namespace) -> None:
    params = GenParams(**{f.name: getattr(args, f.name) for f in fields(GenParams)})
    _say(_write_system(gen_random_system(params), args.output))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interax",
        description=(
            "Interaction systems: validation, composed-state reachability, "
            "topology classification, and the machine/star reductions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, takes: str | None, help: str) -> argparse.ArgumentParser:
        # takes "system" (a system file), "dtm" (a machine file and --input) or None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=handler)
        if takes is not None:
            p.add_argument(takes)
        if takes == "dtm":
            p.add_argument("--input", required=True, type=_argv_text)
        return p

    command("validate", _cmd_validate, "system",
            "report validation findings for a system file")

    p = command("classify", _cmd_classify, "system",
                "classify the communication topology")
    p.add_argument("--dot", help="also write the interaction graph as DOT")

    p = command("reach", _cmd_reach, "system",
                "decide reachability of a target predicate")
    p.add_argument(
        "--target",
        required=True,
        type=_target_arg,
        help="inline 'comp=state,comp2=*' (a '=' marks it inline) or a predicate file",
    )
    p.add_argument(
        "--max-states",
        type=int,
        help=f"stop after this many states (default {DEFAULT_MAX_STATES:,}; at least 1)",
    )
    p.add_argument("--trace", action="store_true", help="print the witness trace")

    p = command("tm-run", _cmd_tm_run, "dtm", "run a machine on an input word")
    p.add_argument(
        "--max-steps",
        type=int,
        help="at least 1; if omitted, the run ends in accept, reject, bound_violation or loop",
    )

    p = command("tm-compile", _cmd_tm_compile, "dtm",
                "compile machine + word into a line-shaped system")
    p.add_argument(
        "--halt-extension",
        action="store_true",
        help="add the halt cascade and target the all-done state",
    )
    p.add_argument(
        "--target-out",
        help="also write the matching reachability target as a predicate file",
    )

    command("starify", _cmd_starify, "system",
            "transform a system into hub-and-spokes form")
    command("check-thm1", _cmd_check_thm1, "dtm",
            "machine acceptance vs. reachability in the compiled line system")
    command("check-thm2", _cmd_check_thm2, "system",
            "reachable set vs. hub-idle projection of the starified system")

    p = command("gen-random", _cmd_gen_random, None, "generate a seeded random system")
    p.add_argument("--seed", type=int, required=True)
    for f in fields(GenParams)[1:]:
        # the bounds after `seed`; GenParams states their defaults
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            type=int,
            default=f.default,
            help=f"1 to {f.metadata['cap']:,} (default {f.default})",
        )

    # last, so every help screen lists -o after the command's own options
    for p in sub.choices.values():
        p.add_argument("-o", "--output", help="write the result here instead of stdout")
    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Run one command; return its exit code (0, 2 or 1, as above)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.func(args)
    except (ParseError, ModelError, OSError) as e:
        _say(f"error: {e}")
        return 2
    except Exception as e:
        traceback.print_exc()
        _say(f"internal error: {type(e).__name__}: {e}")
        return 1
    return 0


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
