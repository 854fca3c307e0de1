"""The names the benchmark's tracer wraps still exist in the package.

``perfbench/tracer.py`` wraps functions of ``gothicvol`` modules by name and
reads ``cache_info()`` from the lru-cached ``arith`` tables.  A renamed or
deleted function would break only a traced benchmark run, so the tracer's
name tables are read here with ``ast``, without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    """SPANNED, COUNTED and TABLES, the literal assignments of the tracer."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED", "TABLES"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_traced_name_is_a_package_attribute():
    tables = _tracer_tables()
    assert set(tables) == {"SPANNED", "COUNTED", "TABLES"}
    for table in ("SPANNED", "COUNTED"):
        for module, names in tables[table].items():
            mod = importlib.import_module(f"gothicvol.{module}")
            for name in names:
                assert hasattr(mod, name), (table, module, name)
    arith = importlib.import_module("gothicvol.arith")
    for name in tables["TABLES"]:
        assert hasattr(getattr(arith, name, None), "cache_info"), name
