"""The README's Python quick start runs as written and prints what it says,
and every module's ``__all__`` names only what the module defines and what
code outside the tests uses."""
import ast
import contextlib
import importlib
import io
import pkgutil
import re
from functools import cached_property
from pathlib import Path

import pytest

import netspread

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(netspread.__path__)
                 if m.name != "__main__")
assert "meanfield" in MODULES


def test_readme_quick_start_prints_what_it_says():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(block, namespace)
    lines = printed.getvalue().splitlines()
    assert len(lines) == 4
    score, status = lines[0].split()
    assert score.startswith("1.68") and status == "false"   # 1.68… "false"
    before, arrow, after = lines[1].split()
    assert before.startswith("10.5") and arrow == "→"       # 10.5… → 4.0
    assert float(after) == pytest.approx(4.0, abs=1e-9)
    assert lines[2] == "True"
    converged, carriers = lines[3].split()
    assert converged == "True" and f"{float(carriers):.1e}" == "5.3e-06"

    # "running run("sis", …) on g itself raises MeanFieldBoundsError"
    from netspread.meanfield import LinkProbs, MeanFieldBoundsError, MfState, run
    g, params = namespace["g"], namespace["params"]
    with pytest.raises(MeanFieldBoundsError):
        run("sis", MfState.uniform(g.n, p0=0.1), LinkProbs.homogeneous(g, 0.4),
            params, max_steps=2000, tol=1e-9)


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_star_import_and_all_agree(name):
    module_name = "netspread" if name == "__init__" else f"netspread.{name}"
    module = importlib.import_module(module_name)
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def code_uses() -> tuple[set[str], set[str], set[str]]:
    """What the package (but ``__init__.py``), the scripts, the benchmark and
    the README's Python blocks use, as :func:`uses_in` reads it."""
    files = [p for p in sorted((ROOT / "src" / "netspread").glob("*.py"))
             if p.name != "__init__.py"]
    files += [*sorted((ROOT / "scripts").glob("*.py")),
              *sorted((ROOT / "benchmarks").glob("*.py"))]
    sources = [p.read_text(encoding="utf-8") for p in files]
    sources += re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return uses_in(sources)


def uses_in(sources: list[str]) -> tuple[set[str], set[str], set[str]]:
    """What ``sources`` use, read from their syntax trees, so that a
    docstring, a comment or a string never counts: the names loaded,
    imported or read as attributes; the attributes read; the attributes
    called."""
    names, read, called = set(), set(), set()
    for node in (n for source in sources for n in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return names | read, read, called


@pytest.mark.parametrize("source,uses", [
    ('"""Calls mc_step(states)."""', (set(), set(), set())),
    ("# g.degree(3)\n", (set(), set(), set())),
    ("x = 'edges'", (set(), set(), set())),
    ("from netspread.montecarlo import mc_step", ({"mc_step"}, set(), set())),
    ("g.degree(3)", ({"g", "degree"}, {"degree"}, {"degree"})),
    ("g.edges", ({"g", "edges"}, {"edges"}, set())),
], ids=["docstring", "comment", "string", "import", "call", "read"])
def test_only_code_counts_as_a_use(source, uses):
    assert uses_in([source]) == uses


def test_every_public_name_has_a_use_outside_the_tests():
    # A name in an ``__all__`` counts where it is loaded or imported; a
    # public method of such a class where it is called as ``.name(...)``; a
    # property where it is read.
    names, read, called = code_uses()
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"netspread.{name}")
        for public in getattr(module, "__all__", ()):
            if public not in names:
                unused.append(f"{name}.{public}")
            obj = getattr(module, public)
            members = vars(obj).items() if isinstance(obj, type) else ()
            for attr, member in members:
                if attr.startswith("_"):
                    continue
                if isinstance(member, (property, cached_property)):
                    if attr not in read:
                        unused.append(f"{name}.{public}.{attr}")
                elif callable(member) or isinstance(member, (classmethod, staticmethod)):
                    if attr not in called:
                        unused.append(f"{name}.{public}.{attr}")
    assert unused == []


def readme_model_table() -> tuple[list[str], list[tuple[str, set[str]]]]:
    """The README's sweep ``model:`` list, and each model of its
    ``| Model | Keys read |`` table with the keys its row lists."""
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"^- `model`: ((?:`\w+`,?\s*)+)\.$", text, re.M).group(1)
    rows = re.search(r"\| Model \| Keys read \|\n\s*\|---\|---\|\n((?:[ \t]*\|.*\n)+)",
                     text).group(1)
    table = []
    for row in rows.splitlines():
        models, keys = row.strip().strip("|").split("|")
        table += [(model, set(keys.strip(" `").split()))
                  for model in re.findall(r"`(\w+)`", models)]
    return re.findall(r"`(\w+)`", listed), table


def test_readme_model_table_is_the_code_table():
    from netspread.experiments import _MODELS
    listed, table = readme_model_table()
    assert listed == list(_MODELS)
    assert sorted(table) == sorted((model, set(keys))
                                   for model, (_, _, keys) in _MODELS.items())
