"""The README's work-budget table prices every parameter the library charges against WORK_BUDGET."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "demoivre").glob("*.py"))


def charged_names():
    """The name every charge call gives its parameter, an f-string's fields written as …."""
    names = set()
    for path in SOURCES:
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "charge":
                name = call.args[1]
                parts = name.values if isinstance(name, ast.JoinedStr) else [name]
                names.add("".join(part.value if isinstance(part, ast.Constant) else "…" for part in parts))
    return names


def budget_section():
    """The paragraph that names the budget and the table after it."""
    paragraphs = (ROOT / "README.md").read_text().split("\n\n")
    (at,) = [i for i, text in enumerate(paragraphs) if "`exactnum.WORK_BUDGET`" in text]
    table = paragraphs[at + 1]
    assert all(line.startswith("|") for line in table.splitlines())
    return paragraphs[at], table


def test_every_charged_parameter_is_in_the_readme_budget_table():
    names = charged_names()
    assert {"n", "size", "reps", "band width", "samples", "predicted n", "years (annuity price at age …)"} <= names
    _, table = budget_section()
    cells = {cell.strip() for line in table.splitlines() for cell in line.split("|")}
    assert [name for name in sorted(names) if f"`{name}`" not in cells] == []
