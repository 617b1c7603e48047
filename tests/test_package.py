"""The package surface: what `import postopt` exports, what production imports and defines,
and the seeds its entry points refuse; and the pytest settings a failing property needs."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import postopt

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "postopt"

# The library surface, as README's Library paragraph lists it
PUBLIC = {
    "AmplitudeEncoder", "JunkPolicy", "RunConfig", "CostInstance",
    "generate", "load_instance", "save_instance", "count_below", "min_cost",
    "instance_amplitudes", "exact_analysis", "chain_decomposition", "sequential_vs_joint_check",
    "run_repeat_until_success", "ExactAnalysis", "ChainDecomposition", "TrialStats",
    "random_search", "hill_climb", "grover_simulate", "optimal_iterations",
    "amplitude_amplification_success", "SearchResult",
    "PostoptError", "ConfigurationError", "DomainError", "CapacityError",
}

# The dense reference the tests hold production to; no production module may use it,
# nor read a dense state's Born grid
REFERENCE = {"OutcomeDistribution", "marginal_probability", "marginal_distribution",
             "postselect", "joint_distribution", "grover_state", "grid"}
PRODUCTION = ("algorithm", "baselines", "cli", "costfn", "encoding")

# The `statevec` measurement functions that the benchmark's tracer wraps by name; only
# tests call them.  ROADMAP item 1 lifts that pin: then drop this set, and the guard
# below asks for item 2's move of `statevec` under tests/.
TRACER_PINNED = {"uniform_superposition", "marginal_probability", "marginal_distribution",
                 "postselect", "joint_distribution"}


def imported_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Attribute):  # statevec.postselect after `from . import statevec`
            names.add(node.attr)
    return names


def exported() -> set[str]:
    return {name for name, value in vars(postopt).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def definitions(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name, owning class or None) of every function, class and non-dunder method."""
    owner = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    return [(node.name, owner.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_production_defines_only_what_production_or_the_surface_uses():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    surface = exported()
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name, owner in definitions(tree)
              if name not in referenced and name not in surface and owner not in surface
              and not (module == "statevec" and name in TRACER_PINNED)]
    assert unused == []


def test_every_imported_name_is_used():
    # a deletion must not leave an import behind; `__init__` imports only to re-export
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound <= used, (path.stem, bound - used)


def test_production_modules_do_not_use_the_dense_reference():
    for module in PRODUCTION:
        assert not imported_names(PACKAGE / f"{module}.py") & REFERENCE, module


def test_package_exports_the_documented_library_surface():
    assert exported() == PUBLIC
    library = (ROOT / "README.md").read_text().partition("## Library")[2]
    assert all(f"`{name}`" in library for name in PUBLIC)


@pytest.mark.parametrize("entry", ["RunConfig", "generate", "random_search", "hill_climb"])
def test_a_negative_seed_is_refused_before_numpy_sees_it(entry):
    inst = postopt.generate("uniform_random", {"n_data": 3})
    calls = {
        "RunConfig": lambda: postopt.RunConfig(c_tol=0.5, encoder=postopt.AmplitudeEncoder.linear(),
                                               seed=-1),
        "generate": lambda: postopt.generate("uniform_random", {"n_data": 3}, seed=-1),
        "random_search": lambda: postopt.random_search(inst, 0.5, seed=-1),
        "hill_climb": lambda: postopt.hill_climb(inst, 0.5, seed=-1),
    }
    with pytest.raises(postopt.ConfigurationError, match="seed must be >= 0"):
        calls[entry]()


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # hypothesis imports libcst to report a failure; under the repo's warning filters that
    # import's DeprecationWarning must not crash the session before the example is printed
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
