"""The README states what the code declares: its finding table names exactly
the rules validation reports, and its CLI synopsis the parser's subcommands
and options."""

import argparse
import re
from pathlib import Path

from interax.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_readme_lists_every_finding_rule():
    code = "".join(p.read_text() for p in sorted((ROOT / "src").rglob("*.py")))
    in_code = set(re.findall(r'report\.add\(\s*"([^"]+)"', code))
    readme = (ROOT / "README.md").read_text()
    in_table = set(re.findall(r"^\| `([^`]+)` \|", readme, re.MULTILINE))
    assert in_table == in_code


def test_readme_cli_synopsis_matches_the_parser():
    # each subcommand and its long options, as the parser declares them;
    # -h and -o are on every subcommand and the synopsis leaves them out
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    in_parser = {
        name: {
            o
            for a in p._actions
            for o in a.option_strings
            if o.startswith("--") and o not in ("--help", "--output")
        }
        for name, p in sub.choices.items()
    }
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    in_readme: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("interax "):
            options = in_readme.setdefault(line.split()[1], set())
        options.update(re.findall(r"--[a-z][a-z-]*", line.split("#")[0]))
    assert in_readme == in_parser
