"""The package's public surface: ``owlrules.__all__`` is what its callers use.

The callers are the benchmark scripts under ``bench/`` and the README's
"Library" example.  Every name they import from ``owlrules``, read as
``owlrules.<name>`` or look up by name must be exported; the tests import
everything else from the module that defines it.

Inside the package, the fact layer (``owlrules.facts``) builds on the model
alone, and only the command line imports the engine; the package imports each
export on first use.  So a fresh interpreter that reads a fact file or
extracts rules does not load the join compiler.
"""

import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import owlrules

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = {m.name for m in pkgutil.iter_modules(owlrules.__path__)}


def _names_used(source: str) -> set[str]:
    """Names imported from, read from, or looked up by name on ``owlrules``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "owlrules":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "owlrules"
        ):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]
        ):
            names.update(ast.literal_eval(node.value).values())  # getattr(owlrules, ...)
    return {n for n in names if not n.startswith("__") and n not in SUBMODULES}


def _readme_block(pattern: str) -> str:
    """The body of the README's fenced block that ``pattern`` leads into."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.search(pattern + r"\n(.*?)^```", readme, re.M | re.S)
    assert found, f"README has no block for {pattern!r}"
    return found.group(1)


def _readme_library_example() -> str:
    return _readme_block(r"^## Library\n+```python")


def test_all_exports_every_name_the_bench_and_the_readme_use():
    used = {
        path.name: _names_used(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "bench").glob("*.py"))
    }
    used["README.md"] = _names_used(_readme_library_example())
    assert used["README.md"] and used["worker.py"] and used["generators.py"]
    missing = {
        where: sorted(names - set(owlrules.__all__)) for where, names in used.items()
    }
    assert not any(missing.values()), missing


def test_the_readme_library_example_runs_as_printed(capsys, monkeypatch, tmp_path):
    region = _readme_block(r"^Given `region\.owl`:\n+```xml")
    (tmp_path / "region.owl").write_text(region, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(_readme_library_example(), {})
    assert capsys.readouterr().out == (
        "transitive-property-b5304bf074 -> LinkFact(subject='latgale', "
        "prop='subAreaOf', obj='eu', obj_is_class=False)\n"
    )


def test_dir_lists_exactly_all():
    assert dir(owlrules) == owlrules.__all__


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from owlrules import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(owlrules.__all__)
    assert len(set(owlrules.__all__)) == len(owlrules.__all__)


def _package_imports(path: Path) -> set[str]:
    """The modules of the package that the module at ``path`` imports."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("owlrules."):
            found.add(node.module.removeprefix("owlrules."))
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("owlrules.")]
            found.update(name.removeprefix("owlrules.") for name in names)
    return {name.split(".")[0] for name in found}


IMPORTS = {p.name: _package_imports(p) for p in Path(owlrules.__file__).parent.glob("*.py")}


def test_only_the_cli_imports_the_engine():
    importers = sorted(name for name, found in IMPORTS.items() if "engine" in found)
    assert importers == ["cli.py"]


def test_the_fact_layer_imports_only_the_model():
    assert IMPORTS["facts.py"] == {"model"}


def _layers_loaded_after(code: str) -> set[str]:
    """The package's modules that a fresh interpreter holds after ``code``."""
    src = str(Path(owlrules.__file__).resolve().parent.parent)
    probe = (
        f"import sys, owlrules\n{code}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('owlrules.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("owlrules.") for name in done.stdout.split()}


def test_importing_the_package_loads_no_layer():
    assert _layers_loaded_after("") == set()


def test_the_extract_path_leaves_the_engine_unloaded():
    text = (ROOT / "tests" / "data" / "patterns.owl").read_text(encoding="utf-8")
    loaded = _layers_loaded_after(
        f"model, _ = owlrules.parse_ontology({text!r})\n"
        "owlrules.render_structured(owlrules.extract_all(model).rules)"
    )
    assert "extract" in loaded and "engine" not in loaded


def test_reading_a_fact_file_loads_only_the_fact_layer_and_the_parser():
    loaded = _layers_loaded_after("owlrules.parse_fact_base('isa(ann, Person)')")
    assert loaded == {"facts", "model", "parser"}
