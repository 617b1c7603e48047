"""The package surface: what `import postopt` exports, and what production imports."""

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

# The dense reference the tests hold production to; no production module may use it
REFERENCE = {"OutcomeDistribution", "marginal_probability", "marginal_distribution",
             "postselect", "joint_distribution", "grover_state"}
PRODUCTION = ("algorithm", "baselines", "cli", "costfn", "encoding")


def imported_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Attribute):  # statevec.postselect after `from . import statevec`
            names.add(node.attr)
    return names


def test_production_modules_do_not_use_the_dense_reference():
    for module in PRODUCTION:
        assert not imported_names(PACKAGE / f"{module}.py") & REFERENCE, module


def test_package_exports_the_documented_library_surface():
    exported = {name for name, value in vars(postopt).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
    library = (ROOT / "README.md").read_text().partition("## Library")[2]
    assert all(f"`{name}`" in library for name in PUBLIC)
