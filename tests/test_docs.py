"""The README's Python quick start runs as written and prints what it says,
and every module's ``__all__`` names only what the module defines and what
something outside the tests uses."""
import contextlib
import importlib
import io
import pkgutil
import re
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


def test_every_public_name_has_a_use_outside_the_tests():
    # A use is a whole-word match in the package, the scripts, the benchmark
    # or the README, other than the name's own def, class or assignment line,
    # an ``__all__`` entry or a re-export in ``__init__.py``.
    files = [p for p in sorted((ROOT / "src" / "netspread").glob("*.py"))
             if p.name != "__init__.py"]
    files += [*sorted((ROOT / "scripts").glob("*.py")),
              *sorted((ROOT / "benchmarks").glob("*.py")), README]
    lines = []
    for path in files:
        text = re.sub(r"^__all__ = \[.*?\]$", "", path.read_text(encoding="utf-8"),
                      flags=re.S | re.M)
        lines += text.splitlines()
    unused = []
    for name in MODULES:
        for public in getattr(importlib.import_module(f"netspread.{name}"), "__all__", ()):
            word = re.compile(rf"\b{public}\b")
            own = re.compile(rf"^\s*(def|class)\s+{public}\b|^\s*{public}\s*(:[^=]*)?=")
            if not any(word.search(line) and not own.search(line) for line in lines):
                unused.append(f"{name}.{public}")
    assert unused == []
