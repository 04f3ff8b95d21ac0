"""Public surface that nothing but the tests reaches is surface to retire.

Every public function, method and class defined in ``src/glot`` must be
referenced by name from the package, the bench or the demos, or be named
by ``glot.__all__``, the ``glot`` console script or a flag choice of
``cli.COMMANDS`` (``--hparams set1`` reaches ``GlotConfig.set1`` through
``getattr``).
"""

import ast
import tomllib
from pathlib import Path

import glot
from glot import cli

ROOT = Path(__file__).resolve().parents[1]
# The ops the gradient tests build their scalar losses from; no package
# code calls them (test_every_recording_op_has_a_gradient_case).
ALLOWED = {"mul", "tsum"}


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((ROOT / d).glob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def public_definitions() -> dict[str, str]:
    """{qualified name: name} of every public module-level function and
    class, and every public method, defined in src/glot."""
    found = {}
    for path, tree in _trees("src/glot"):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                found.update(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_"))
    return found


def referenced_names() -> set[str]:
    """Every name and attribute used in src/glot, bench and demos, and the
    names the package exports or its command line reaches."""
    names = set(glot.__all__)
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names.update(target.rsplit(":", 1)[1]
                 for target in pyproject["project"]["scripts"].values())
    names.update(choice for _, _, flags in cli.COMMANDS.values()
                 for kind, *_ in flags.values() if isinstance(kind, tuple)
                 for choice in kind)
    for _, tree in _trees("src/glot", "bench", "demos"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_public_surface_is_reachable_outside_the_tests():
    defined = public_definitions()
    assert ALLOWED <= set(defined.values()), "an allowed name is gone"
    used = referenced_names()
    assert ALLOWED.isdisjoint(used), "an allowed name has a caller now"
    unreached = sorted(q for q, name in defined.items()
                       if name not in used | ALLOWED)
    assert unreached == [], "retire it, or give it a caller outside tests/"
