"""Checks on the package as a whole: its import layering and the README's
library example."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_modules_import_no_private_name_of_another():
    """A module reaches another module only through its public names: no
    relative ``from .x import _name`` (dunders such as ``__version__``
    aside)."""
    relative, private = 0, []
    for path in sorted((ROOT / "src" / "scarsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                relative += 1
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert relative > 0
    assert private == []


def test_readme_quick_start_runs(capsys):
    """The fenced python block under "Library quick start" runs as written
    and prints the fitted scar frequency (over Omega) and lifetime."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    ratio, tau = map(float, capsys.readouterr().out.split())
    assert 0.5 < ratio < 0.8 and tau > 0
