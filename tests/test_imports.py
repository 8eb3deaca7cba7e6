import ast
import os
import subprocess
import sys
from pathlib import Path

import rankmass

HEAVY = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")


def test_import_loads_no_heavy_scipy_submodules():
    """``import rankmass`` must not pull in scipy's graph or linear-algebra
    submodules.  Importing ``scipy.sparse.csgraph`` also loads
    ``scipy.sparse.linalg`` and ``scipy.linalg``, which adds about 10 MB to
    every process, 13-17% of the benchmark's ``peak_rss_mb`` on each
    workload, against a regression bound of 10%."""
    env = dict(os.environ)
    src = str(Path(rankmass.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys, rankmass; print([m for m in {HEAVY!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_no_module_reads_the_environment():
    """Results depend on arguments alone: no module of the package reads
    ``os.environ`` or ``os.getenv``."""
    reads = []
    for path in sorted(Path(rankmass.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                reads.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "getenv") for alias in node.names):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
