"""The candidate path (seifert, torus_bundle, pipeline) shares no code with
its checkers (catalog, torsion_engine); otherwise certification would be
tautological.  Checked on the import statements of each module's source.
Exact phases have one form outside `algebra`: a `RationalPhase` of two ints,
or int64 residues, so no other module imports fractions."""

import ast
from pathlib import Path

import pytest

import mtcforge

SRC = Path(mtcforge.__file__).parent
CANDIDATE = ("seifert", "torus_bundle", "pipeline")
CHECKERS = ("catalog", "torsion_engine")
# the only names the candidate path takes from a checker: data types
ALLOWED = {"catalog": {"ModularData"}, "torsion_engine": {"BasedChainComplex"}}


def imported(source):
    """(package module, name) for each name imported from the package; the
    name is None where a whole module is imported."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((a.name.split(".")[1], None) for a in node.names
                        if a.name.startswith("mtcforge."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "mtcforge":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield from ((parts[0], a.name) for a in node.names)
            else:
                yield from ((a.name, None) for a in node.names)


def test_scan_sees_every_import_form():
    source = ("import numpy\nimport mtcforge.catalog\nfrom mtcforge import torsion_engine\n"
              "from mtcforge.seifert import make_sfs\nfrom .catalog import tlj_data\n"
              "from . import pipeline\n")
    assert set(imported(source)) == {
        ("catalog", None), ("catalog", "tlj_data"), ("pipeline", None),
        ("seifert", "make_sfs"), ("torsion_engine", None)}


@pytest.mark.parametrize("module", CANDIDATE)
def test_candidate_path_takes_only_data_types_from_checkers(module):
    taken = [(m, name) for m, name in imported((SRC / f"{module}.py").read_text())
             if m in CHECKERS]
    assert all(name in ALLOWED[m] for m, name in taken), taken


@pytest.mark.parametrize("module", CHECKERS)
def test_checkers_import_nothing_from_candidate_path(module):
    taken = [m for m, _ in imported((SRC / f"{module}.py").read_text())]
    assert not set(taken) & set(CANDIDATE), taken


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "algebra"))
def test_residue_modules_import_nothing_from_fractions(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "fractions" not in modules
