"""The README's finding table names exactly the rules validation reports."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_lists_every_finding_rule():
    code = "".join(p.read_text() for p in sorted((ROOT / "src").rglob("*.py")))
    in_code = set(re.findall(r'report\.add\(\s*"([^"]+)"', code))
    readme = (ROOT / "README.md").read_text()
    in_table = set(re.findall(r"^\| `([^`]+)` \|", readme, re.MULTILINE))
    assert in_table == in_code
