"""The package surface: what `import postopt` exports, what production imports and defines."""

import ast
import types
from pathlib import Path

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


def test_production_modules_do_not_use_the_dense_reference():
    for module in PRODUCTION:
        assert not imported_names(PACKAGE / f"{module}.py") & REFERENCE, module


def test_package_exports_the_documented_library_surface():
    assert exported() == PUBLIC
    library = (ROOT / "README.md").read_text().partition("## Library")[2]
    assert all(f"`{name}`" in library for name in PUBLIC)
