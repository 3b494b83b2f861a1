"""The JSON the CLI prints, byte for byte, against committed golden files.

The files under ``tests/data/`` hold the output of ``torifan COMMAND --json``
for both classifications, for the weakened verdict of every catalog
3-fold, in ``analyze-catalog.json`` for ``analyze`` on every catalog fan
(its relations with their extremality flags), and in ``catalog.json`` for
``catalog --list`` and ``catalog NAME`` on every catalog name (the rays and
cones of each named fan). A change that must not alter any answer keeps
these tests passing; one that alters an answer on purpose regenerates the
files, e.g.

    python -m torifan is-weakened-fano catalog:X3_0 --json > tests/data/is-weakened-fano-X3_0.json
    PYTHONPATH=src:tests python -c "import test_golden as g; g.write_analyze_catalog()"
    PYTHONPATH=src:tests python -c "import test_golden as g; g.write_catalog()"
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from torifan.catalog import all_named, threefolds
from torifan.cli import main

DATA = Path(__file__).parent / "data"

CASES = [
    ("classify-surfaces.json", ["classify-surfaces"]),
    ("classify-3folds-b3.json", ["classify-3folds", "--twist-bound", "3"]),
] + [
    (f"is-weakened-fano-{nf.name}.json", ["is-weakened-fano", f"catalog:{nf.name}"])
    for nf in threefolds()
]


@pytest.mark.parametrize("filename, argv", CASES, ids=[name for name, _ in CASES])
def test_json_output_matches_golden_file(filename, argv, capsys):
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == (DATA / filename).read_text(encoding="utf-8")


def _json_lines(commands) -> str:
    """One JSON object: each label, one per line, mapped to the exact line
    that its command prints with ``--json``."""
    lines = []
    for label, argv in commands:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + ["--json"]) == 0
        lines.append(f"{json.dumps(label)}:{out.getvalue().rstrip(chr(10))}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def analyze_catalog_text() -> str:
    """``analyze catalog:NAME`` for each catalog name."""
    return _json_lines((name, ["analyze", f"catalog:{name}"]) for name in all_named())


def catalog_text() -> str:
    """``catalog --list`` under the label ``--list``, then ``catalog NAME``
    for each catalog name."""
    commands = [("--list", ["catalog", "--list"])]
    return _json_lines(commands + [(name, ["catalog", name]) for name in all_named()])


def write_analyze_catalog() -> None:
    (DATA / "analyze-catalog.json").write_text(analyze_catalog_text(), encoding="utf-8")


def write_catalog() -> None:
    (DATA / "catalog.json").write_text(catalog_text(), encoding="utf-8")


def test_analyze_of_every_catalog_fan_matches_golden_file():
    golden = (DATA / "analyze-catalog.json").read_text(encoding="utf-8")
    assert len(json.loads(golden)) == len(all_named()) == 34
    assert analyze_catalog_text() == golden


def test_catalog_listing_and_every_catalog_fan_match_golden_file():
    golden = (DATA / "catalog.json").read_text(encoding="utf-8")
    assert len(json.loads(golden)) == len(all_named()) + 1 == 35
    assert catalog_text() == golden
