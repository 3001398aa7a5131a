"""The public surface holds only what the program or the benchmark uses.

Every name in a module's `__all__` and every public method of a public class
in `src/spinboson` must be used somewhere in `src/spinboson` or `bench/`:
loaded as a name, read as an attribute, imported, or (in `bench/` only, where
kernel methods are looked up with `getattr`) written as a string that names a
public `Kernel` method.  Tests do not count.  A name that only tests call is
kept only as a named oracle below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinboson"
BENCH = ROOT / "bench"

ORACLES = {
    "integrator.term_integrand": "the exact integrand that tests/oracles.py wraps",
    "jump_process.sample_path": "the scalar path sampler of the route Z is checked against",
    "jump_process.interaction_action": "the exact per-path action that _action_chunk and Z "
                                       "are checked against",
}


def _modules():
    return [f for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"]


def _public_methods(cls: ast.ClassDef) -> list:
    return [f.name for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not f.name.startswith("_")]


def _used_names() -> set:
    kernel = next(node for node in ast.parse((SRC / "kernel.py").read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == "Kernel")
    lookups = set(_public_methods(kernel))
    used = set()
    for path, strings in [(f, False) for f in _modules()] + [
            (f, True) for f in sorted(BENCH.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and node.value in lookups:
                used.add(node.value)
    return used


def _public_surface() -> dict:
    """Qualified name -> the bare name a caller would use."""
    surface = {}
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                surface.update((f"{path.stem}.{n}", n) for n in ast.literal_eval(node.value))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                surface.update((f"{path.stem}.{node.name}.{name}", name)
                               for name in _public_methods(node))
    return surface


def test_public_names_have_a_caller_outside_tests():
    surface, used = _public_surface(), _used_names()
    unused = sorted(q for q, name in surface.items() if name not in used and q not in ORACLES)
    assert not unused, f"public names that only tests use: {unused}"
    assert set(ORACLES) <= set(surface), "an oracle left the public surface"
