"""The package's surface: every name that perfbench and the `benchmarks/`
scripts reach resolves, every name in `dresidues.__all__` resolves, and the
test-only helpers live in `tests/conftest.py`, not in the package.  The
harness files are parsed, never imported or edited."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dresidues
from dresidues.polys import SquarefreeDecomposition
from dresidues.residues import MultiResidues, ResiduePair
from dresidues.shiftset import ShiftSetResult

ROOT = Path(__file__).resolve().parents[1]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _traced() -> list[tuple[str, str]]:
    """The (module, name) pairs of `TRACED` in perfbench/tracer.py."""
    for node in _tree(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def _lib_reads() -> list[tuple[str, str]]:
    """Every `lib.<module>.<name>` that perfbench/workloads.py reads."""
    return sorted(
        {
            (node.value.attr, node.attr)
            for node in ast.walk(_tree(ROOT / "perfbench" / "workloads.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and getattr(node.value.value, "id", None) == "lib"
        }
    )


def _script_imports() -> list[tuple[str, str]]:
    """Every `from dresidues[.<module>] import <name>` in perfbench/ and
    benchmarks/, and every `<module>.<name>` read through a module imported
    so, as (module path, name)."""
    out = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py")):
        tree = _tree(path)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dresidues":
                for alias in node.names:
                    out.add((node.module, alias.name))
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                out.add((modules[node.value.id], node.attr))
    return sorted(out)


def _resolve(module: str, name: str):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def test_the_harness_files_are_read():
    assert ("hermite", "hermite_reduction") in _traced()
    assert ("testkit", "random_orbit_spec") in _lib_reads()
    assert ("dresidues.testkit", "random_poly") in _script_imports()


@pytest.mark.parametrize(("module", "name"), sorted(set(_traced()) | set(_lib_reads())))
def test_perfbench_names_resolve(module, name):
    assert callable(_resolve(f"dresidues.{module}", name))


@pytest.mark.parametrize(("module", "name"), _script_imports())
def test_script_imports_resolve(module, name):
    _resolve(module, name)


def test_exports_resolve():
    for name in dresidues.__all__:
        assert getattr(dresidues, name) is not None, name


def test_test_only_names_are_gone():
    for name in ("Rat", "OrbitSpec", "build_from_spec", "dres_by_definition", "lattice_contains"):
        assert name not in dresidues.__all__ and not hasattr(dresidues, name), name
    for module, name in (
        ("polys", "Rat"),
        ("galois", "lattice_contains"),
        ("testkit", "orbit_spec"),
        ("testkit", "rational_roots"),
        ("testkit", "random_summable"),
        ("testkit", "random_dispersion_zero"),
    ):
        assert not hasattr(importlib.import_module(f"dresidues.{module}"), name), (module, name)
    for cls, name in (
        (ShiftSetResult, "as_set"),
        (ResiduePair, "is_trivial"),
        (ResiduePair, "astuple"),
        (MultiResidues, "order_count"),
        (SquarefreeDecomposition, "expand"),
        (SquarefreeDecomposition, "max_multiplicity"),
    ):
        assert not hasattr(cls, name), (cls.__name__, name)


def test_oracle_runs_without_the_tests(tmp_path):
    # README's spec example, run from outside the checkout with only src/ on
    # the path, so that no helper of tests/ is importable.
    spec = tmp_path / "spec.txt"
    spec.write_text("-3 1 1/1080\n-2 1 1/250\n0 1 313/33750\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dresidues.cli", "oracle", str(spec)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-3 1 71/5000\n", "")
