"""What a fresh process loads.  The graph store and the bow-tie layer are
numpy-only, so ``import rankmass``, the structure calls, the dense
instruments and ``rankmass decompose`` never load scipy; ``scipy.sparse``
comes in at the first matrix product, and scipy's graph and linear-algebra
submodules never.  Each check runs in a subprocess, since this test process
has scipy loaded already."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rankmass
from rankmass.sample_graphs import bowtie_sample

HEAVY = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")


def _run(code: str) -> str:
    """Standard output of ``python -c code`` with this checkout's package on the path."""
    env = dict(os.environ)
    src = str(Path(rankmass.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


def test_structure_and_decompose_load_no_scipy(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text(rankmass.dumps(bowtie_sample()))
    out = _run("import sys, rankmass as rm\n"
               "from rankmass import cli\n"
               "from rankmass.bowtie import dual_path_mask\n"
               f"g = rm.load_path({str(graph)!r})\n"
               "labels = rm.bowtie_labeling(g)\n"
               "blocks = rm.block_decomposition(g, labels)\n"
               "dual_path_mask(g, labels, blocks)\n"
               f"cli.main(['decompose', '--graph', {str(graph)!r}, "
               f"'--out', {str(tmp_path / 'd.csv')!r}])\n"
               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
               "rm.pagerank(g, rm.PageRankConfig(0.85))\n"
               "print('scipy.sparse' in sys.modules)")
    assert out.split("\n")[:2] == ["[]", "True"]


def test_dense_instruments_load_no_scipy():
    """The dense instruments find their classes on numpy arrays alone."""
    out = _run("import sys, rankmass as rm\n"
               "for a, c in (rm.laurent_example_2state(), rm.laurent_example_5state()):\n"
               "    rm.laurent_check(a, c, [0.1, 0.05])\n"
               "    rm.aggregated_chain_limit(a, c)\n"
               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_import_loads_no_heavy_scipy_submodules():
    """``import rankmass``, and the structure, spectral and damping-grid calls
    after it, must not pull in scipy's graph or linear-algebra submodules, not even
    lazily inside a call.  Importing ``scipy.sparse.csgraph`` also loads
    ``scipy.sparse.linalg`` and ``scipy.linalg``, which adds about 10 MB to
    every process, 13-17% of the benchmark's ``peak_rss_mb`` on each
    workload, against a regression bound of 10%."""
    code = ("import sys, rankmass as rm\n"
            "from rankmass.sample_graphs import bowtie_sample, three_block_sample\n"
            "from rankmass.bowtie import dual_path_mask\n"
            "g = bowtie_sample()\n"
            "labels = rm.bowtie_labeling(g)\n"
            "blocks = rm.block_decomposition(g, labels)\n"
            "dual_path_mask(g, labels, blocks)\n"
            "rm.spectral_summary(g, labels, blocks)\n"
            "rm.damping_sweep(g, labels, blocks, [0.0, 0.5, 0.85])\n"
            "rm.prop3_bounds(g, labels, blocks, [0.5, 0.85])\n"
            "rm.cstar_solve(g, labels, blocks)\n"
            "three = three_block_sample()\n"
            "rm.inscc_curve(rm.three_block_view(three, rm.bowtie_labeling(three)), [0.5, 0.85])\n"
            f"print([m for m in {HEAVY!r} if m in sys.modules])")
    assert _run(code).strip() == "[]"


def test_public_names_are_sorted_unique_and_defined():
    """``rankmass.__all__`` is kept by hand: sorted, each name once, and each
    one an attribute of the package."""
    names = rankmass.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(rankmass, name)] == []


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


def test_tolerance_defaults_have_one_home():
    """Only the primitives in ``operators.py`` declare a parameter named
    ``tol``, each defaulting to ``SOLVE_TOL`` or ``EIG_TOL``, and only
    ``operators.py`` assigns those two names."""
    names = ("SOLVE_TOL", "EIG_TOL")
    stray = []
    for path in sorted(Path(rankmass.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                if path.name != "operators.py":
                    stray += [f"{path.name}:{node.lineno} declares tol"
                              for arg in a.posonlyargs + a.args + a.kwonlyargs
                              if arg.arg == "tol"]
                positional = a.posonlyargs + a.args
                pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                stray += [f"{path.name}:{node.lineno} tol={ast.unparse(default)}"
                          for arg, default in pairs if arg.arg == "tol"
                          and not (isinstance(default, ast.Name) and default.id in names)]
            if isinstance(node, ast.Name) and node.id in names and path.name != "operators.py" \
                    and isinstance(node.ctx, ast.Store):
                stray.append(f"{path.name}:{node.lineno} assigns {node.id}")
    assert stray == []
    assert (rankmass.operators.SOLVE_TOL, rankmass.operators.EIG_TOL) == (1e-14, 1e-13)
