"""The package's public surface: each submodule's __all__, listed once."""

import ast
import subprocess
import sys
from pathlib import Path

import dualsel
from dualsel import analytic, montecarlo, selection, specfun

ORACLES = (
    "ChannelRealization",
    "SlotRates",
    "draw_realization",
    "slot_rates",
    "cdf_order_stat",
    "walked_gains",
    "corr_a",
    "esr_exact_positive",
    "esr_tdma_positive",
    "esr_high_snr_mp",
)
SRC = Path(dualsel.__file__).parent


def test_all_is_the_submodules_all():
    names = dualsel.__all__
    assert len(names) == len(set(names))
    assert names == [
        "__version__",
        *analytic.__all__,
        *montecarlo.__all__,
        *selection.__all__,
        *specfun.__all__,
    ]
    assert all(hasattr(dualsel, name) for name in names)


def test_oracles_are_not_exported():
    for module in (dualsel, analytic, montecarlo):
        for name in ORACLES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_no_executor():
    # the Monte Carlo draw starts a plain thread; importing concurrent.futures
    # would add about 7 ms to every process that imports the package
    code = "import sys, dualsel; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_every_private_name_has_a_caller_in_the_package():
    # a private helper that only the tests read belongs in tests/oracles.py
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [
                f"{name}:{d}" for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in used
            ]
    assert unused == []


def test_the_user_count_rule_is_stated_once():
    # 2 <= K <= MAX_USERS is stated in analytic._check_user_count alone;
    # every other place that needs it calls that function
    def names_cap(node):
        return any(
            isinstance(n, ast.Name) and n.id == "MAX_USERS"
            or isinstance(n, ast.Attribute) and n.attr == "MAX_USERS"
            for n in ast.walk(node)
        )

    where = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where += [
                f"{path.stem}.{getattr(top, 'name', '<module>')}"
                for node in ast.walk(top)
                if isinstance(node, ast.Compare) and names_cap(node)
            ]
    assert where == ["analytic._check_user_count"]


def test_the_scan_memo_protocol_is_stated_once():
    # specfun alone reads and writes the scan memo (_scan_terms); selection
    # opens a scan with _scan_scope on the cells each engine's _scan_cells
    # declares, and the engines reach the memo through _scan_value alone
    # (a def is not a Name: the engines' _scan_cells count where called)
    names = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                found = [alias.name for alias in node.names]
            else:
                continue
            names.setdefault(path.stem, set()).update(f for f in found if f.startswith("_scan"))
    assert "_scan_terms" in names.pop("specfun")
    assert {module: sorted(found) for module, found in names.items() if found} == {
        "analytic": ["_scan_value"],
        "montecarlo": ["_scan_value"],
        "selection": ["_scan_cells", "_scan_scope"],
    }
