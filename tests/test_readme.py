"""The README's size-limits paragraph names every work ceiling the library checks."""

import ast
from pathlib import Path

from demoivre import lifeannuity

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "demoivre").glob("*.py"))


def ceiling_names():
    """Every constant a check_ceiling call passes as its ceiling, directly or through a function of its module."""
    names = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_ceiling":
                ceiling = call.args[1]
                if isinstance(ceiling, ast.Call):
                    ceiling = functions[ceiling.func.id]
                names |= {node.id for node in ast.walk(ceiling) if isinstance(node, ast.Name) and node.id.isupper()}
    return names


def size_limits_paragraph():
    paragraphs = (ROOT / "README.md").read_text().split("\n\n")
    (paragraph,) = [text for text in paragraphs if "work ceiling" in text]
    return paragraph


def test_every_work_ceiling_is_named_in_the_readme_size_limits():
    names = ceiling_names()
    # the annuity walk checks its own ceiling, in years at the rate's size
    assert isinstance(lifeannuity.ANNUITY_WORK_LIMIT, int)
    names.add("ANNUITY_WORK_LIMIT")
    assert {"FACTORIAL_LIMIT", "SIM_REPS_LIMIT", "WALK_LIMIT"} <= names
    paragraph = size_limits_paragraph()
    assert [name for name in sorted(names) if f"{name}`" not in paragraph] == []
