"""How the package loads, what each command imports, and how a CLI process ends.

The import-graph and exit tests start ``python`` in a child process, because
the test process itself has long since imported every module of the package.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import sqw

SRC = pathlib.Path(sqw.__file__).resolve().parent.parent
DEV_FULL = pathlib.Path("/dev/full")


def _python(args, **kwargs):
    """Run ``python *args`` on this checkout's sources; the finished process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.update(kwargs.pop("env", {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, timeout=60, stderr=subprocess.PIPE, **kwargs
    )


# ---- import graph ----

def _imports(argv):
    """Exit code of ``python -m sqw *argv``, and every module it imported."""
    proc = _python(["-X", "importtime", "-m", "sqw", *argv], stdout=subprocess.DEVNULL)
    loaded = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, loaded


_BASE = {"sqw", "sqw.cli", "sqw.errors", "sqw.report"}
#: What a command that computes on S3 states loads beyond ``_BASE``.
_S3 = {"sqw.linalg", "sqw.permworld", "sqw.s3world"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["sweep", "--axis", "h2", "--points", "11", "--out", os.devnull], _S3),
        (["check", "s3"], _S3),
        (["state", "--t", "1"], _S3 | {"sqw.twoqubit"}),
        (["measure", "--axis", "h1", "--t", "0"], _S3 | {"sqw.twoqubit"}),
        (["check", "s4", "--format", "json"], {"sqw.permworld"}),
        (["check", "x"], {"sqw.linalg", "sqw.twoqubit", "sqw.xworld"}),
        (["check", "s4"], {"sqw.permworld"}),
        (["--help"], set()),
    ],
)
def test_command_loads_only_the_modules_it_runs(argv, extra):
    code, loaded = _imports(argv)
    assert code == 0
    assert {m for m in loaded if m.split(".")[0] == "sqw"} == _BASE | extra
    # check s4 compares permutations: only the commands that compute on matrices load numpy.
    assert ("numpy" in loaded) == (argv[:2] != ["check", "s4"] and argv != ["--help"])
    # Records are NamedTuples, and only a command that prints JSON imports json.
    assert "dataclasses" not in loaded
    assert ("json" in loaded) == ("json" in argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--t", "nan"],
        ["state", "--ie", "--t", "0"],
        ["measure", "--axis", "h2", "--b", "0", "--c", "0"],
        ["measure", "--axis", "h4", "--t", "0"],
        ["sweep", "--axis", "h1", "--points", "1", "--out", os.devnull],
    ],
)
def test_usage_errors_load_no_numpy(argv):
    code, loaded = _imports(argv)
    assert code == 2
    assert {m for m in loaded if m.split(".")[0] == "sqw"} == _BASE
    assert "numpy" not in loaded


def test_only_report_refers_to_the_check_records():
    # Every check suite lives in report: no other module binds, imports or reads
    # exact, CheckResult or Report, so suites cannot drift back into the formulas.
    # And every public function of report annotated -> Report is named in the
    # SUITES literal, so report holds no suite that `sqw check` cannot run.
    names = {"exact", "CheckResult", "Report"}
    offenders = []
    for path in sorted((SRC / "sqw").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "report.py":
            suites = next(
                node.value for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SUITES"
            )
            run = {node.id for node in ast.walk(suites) if isinstance(node, ast.Name)}
            offenders += [
                f"{path.name}:{node.lineno} {node.name} not in SUITES" for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and node.returns is not None and ast.unparse(node.returns) == "Report"
                and node.name not in run
            ]
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found = [n for a in node.names for n in (a.name, a.asname)]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in found if n in names]
    assert offenders == []


def test_bare_import_loads_no_submodule_and_resolves_submodules():
    code = (
        "import sys, sqw\n"
        "print(sorted(m for m in sys.modules if m.startswith('sqw.')))\n"
        "print(sqw.linalg.__name__)\n"
    )
    proc = _python(["-c", code], stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == ["[]", "sqw.linalg"]


def test_every_public_name_is_its_home_modules_object():
    assert sqw.__all__
    for name in sqw.__all__:
        obj = getattr(sqw, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
    assert set(sqw.__all__) <= set(dir(sqw))


def test_public_names_follow_their_home_module(monkeypatch):
    replacement = object()
    monkeypatch.setattr(sqw.linalg, "herm_eigen", replacement)
    assert sqw.herm_eigen is replacement
    monkeypatch.undo()
    assert sqw.herm_eigen is sqw.linalg.herm_eigen
    assert "herm_eigen" not in vars(sqw)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sqw import *", namespace)
    assert all(namespace[name] is getattr(sqw, name) for name in sqw.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        sqw.nope


# ---- unwritable standard output ----

# An empty PYTHONUNBUFFERED leaves stdout buffered. Buffered or not, help text
# that cannot be written fails like any other output: argparse's own
# print_help would swallow the error and exit 0.
@pytest.mark.skipif(not DEV_FULL.exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["state", "--t", "1"], ""),
        (["state", "--t", "1"], "1"),
        (["check", "s4", "--format", "json"], ""),
        (["check", "s4", "--format", "json"], "1"),
        (["--help"], ""),
        (["--help"], "1"),
        (["sweep", "--help"], "1"),
    ],
)
def test_unwritable_stdout_exits_two(argv, unbuffered):
    with DEV_FULL.open("wb") as full:
        proc = _python(["-m", "sqw", *argv], stdout=full,
                       env={"PYTHONUNBUFFERED": unbuffered})
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
