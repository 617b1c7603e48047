"""The package surface: what `import postopt` exports, what production imports and defines,
the runtime dependencies it declares, and the seeds its entry points refuse; and the pytest
settings a failing property needs."""

import ast
import os
import re
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
REFERENCE = {"marginal_probability", "marginal_distribution", "postselect", "joint_distribution",
             "grover_state", "grid"}
PRODUCTION = ("algorithm", "baselines", "cli", "costfn", "encoding")

# The `statevec` measurement functions that the benchmark's tracer wraps by name; only
# tests call them.  ROADMAP item 1 lifts that pin: then drop this set, and the guard
# below asks for item 2's move of `statevec` under tests/.
TRACER_PINNED = {"uniform_superposition", "marginal_probability", "marginal_distribution",
                 "postselect", "joint_distribution"}

# How production may write a file: an `open` with a writing mode string or flag, or a call by
# one of these names.  An unnamed `tempfile.TemporaryFile` is scratch, never an output file.
WRITE_MODE = re.compile(r"[rbt]*[wxa+][rwxabt+]*")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}
WRITERS = {"write_text", "write_bytes", "save", "savez", "savez_compressed"}


def imported_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Attribute):  # statevec.postselect after `from . import statevec`
            names.add(node.attr)
    return names


def name_of(node: ast.AST) -> str | None:
    """The name of a Name node or the attribute of an Attribute node."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def writes_a_file(call: ast.Call) -> bool:
    if name_of(call.func) in WRITERS:
        return True
    arguments = [node for arg in [*call.args, *(k.value for k in call.keywords)]
                 for node in ast.walk(arg)]
    return name_of(call.func) == "open" and any(
        name_of(node) in WRITE_FLAGS
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and WRITE_MODE.fullmatch(node.value))
        for node in arguments)


def file_writes(node: ast.AST, function: str | None = None) -> set[tuple[str | None, str]]:
    """(innermost enclosing function, callee) of each call under `node` that writes a file."""
    writes = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and writes_a_file(child):
            writes.add((function, name_of(child.func)))
        writes |= file_writes(child, child.name if isinstance(child, ast.FunctionDef) else function)
    return writes


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


def test_only_costfn_writes_files():
    # one writer, so every output file is replaced only once it is whole; `save_instance`
    # calls np.savez on the file `replacing` yields
    writes = {(path.stem, *write) for path in PACKAGE.glob("*.py")
              for write in file_writes(ast.parse(path.read_text()))}
    assert writes == {("costfn", "replacing", "open"), ("costfn", "save_instance", "savez")}


def test_production_modules_do_not_use_the_dense_reference():
    for module in PRODUCTION:
        assert not imported_names(PACKAGE / f"{module}.py") & REFERENCE, module


def test_package_exports_the_documented_library_surface():
    assert exported() == PUBLIC
    library = (ROOT / "README.md").read_text().partition("## Library")[2]
    assert all(f"`{name}`" in library for name in PUBLIC)


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):  # function bodies too
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    assert imported - sys.stdlib_module_names == {re.match(r"[\w.-]+", d)[0] for d in declared}


def test_a_grover_compare_leaves_mpmath_unimported(tmp_path):
    path = tmp_path / "inst.txt"
    postopt.save_instance(postopt.generate("uniform_random", {"n_data": 10}, seed=3), path)
    argv = ["compare", str(path), "--c-tol", "0.01", "--strategy", "grover:auto",
            "-o", str(tmp_path / "report.jsonl")]
    script = (f"import sys\nfrom postopt.cli import main\ncode = main({argv!r})\n"
              "print(code, 'mpmath' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    assert run.stdout.split()[-2:] == ["0", "False"], run.stdout + run.stderr


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
