"""Byte-for-byte CLI output on a fixed set of manifolds.

The files under tests/golden/ hold the stdout of each command; regenerate
one only when an output change is intended.  A .sha256 file there locks the
outputs of a whole sweep of commands in one digest.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mtcforge import cli
from mtcforge.cli import main
from mtcforge.suites import supported_monodromies

GOLDEN = Path(__file__).parent / "golden"


def _sfs(*fibers):
    return ["sfs"] + [arg for f in fibers for arg in ("--fiber", f)]


COMMANDS = {
    "sfs_5-1_3-2_5-4": _sfs("5,1", "3,2", "5,4"),
    "sfs_4-3_5-2_3-2": _sfs("4,3", "5,2", "3,2"),
    "sfs_2-1_2-1_3-1": _sfs("2,1", "2,1", "3,1"),
    "sfs_3-1_3-1_6-1_reseated": _sfs("3,1", "3,1", "6,1") + ["--unit", "reseated"],
    "torus_2_1_1_1": ["torus", "--monodromy=2,1,1,1"],
    "torus_-10_9_-19_17": ["torus", "--monodromy=-10,9,-19,17"],
    "torus_-10_9_-19_17_oracle": ["torus", "--monodromy=-10,9,-19,17", "--oracle"],
}
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.suffix != ".sha256")


def test_every_command_has_golden_files():
    assert {name.rsplit(".", 1)[0] for name in CASES} == set(COMMANDS)


def _run(stem, fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(COMMANDS[stem] + ["--format", fmt])
    # bytes, not text: csv rows end in \r\n
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name):
    stem, fmt = name.rsplit(".", 1)
    assert _run(stem, fmt) == (0, (GOLDEN / name).read_bytes())


# what only the json report computes; none of it reaches a csv row
REPORT_ONLY = ("sl2z_diagnostics", "modular_data_to_json", "find_transparent",
               "s_det_modulus", "admissibility_report")


class ReportBuilt(Exception):
    pass


def _forbid(monkeypatch, names):
    def refuse(name):
        def call(*args, **kwargs):
            raise ReportBuilt(name)
        return call

    for name in names:
        monkeypatch.setattr(cli, name, refuse(name))


@pytest.mark.parametrize("name", [c for c in CASES if c.endswith(".csv")])
def test_csv_skips_the_report(monkeypatch, name):
    _forbid(monkeypatch, REPORT_ONLY)
    assert _run(name[:-len(".csv")], "csv") == (0, (GOLDEN / name).read_bytes())


@pytest.mark.parametrize("fn", REPORT_ONLY)
def test_json_builds_the_report(monkeypatch, fn):
    _forbid(monkeypatch, [fn])
    with pytest.raises(ReportBuilt, match=fn):
        _run("sfs_5-1_3-2_5-4", "json")


def test_oracle_sweep_matches_lock():
    """`torus --monodromy=a,b,c,d --oracle --format json` on each of the 268
    supported monodromies with N <= 13, in supported_monodromies order: one
    sha256 over b"<exit code>\\n" followed by the stdout, per command."""
    monos = supported_monodromies(13)
    assert len(monos) == 268
    digest = hashlib.sha256()
    for mono in monos:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["torus", "--monodromy=" + ",".join(map(str, mono)), "--oracle",
                         "--format", "json"])
        digest.update(f"{code}\n".encode())
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == (GOLDEN / "torus_oracle_n13.sha256").read_text().strip()
