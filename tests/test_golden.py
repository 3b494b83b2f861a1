"""The JSON the CLI prints, byte for byte, against committed golden files.

The files under ``tests/data/`` hold the output of ``torifan COMMAND --json``
for both classifications, for the weakened verdict of every catalog
3-fold, and, in ``analyze-catalog.json``, for ``analyze`` on every catalog
fan (its relations with their extremality flags). A change that must not
alter any answer keeps these tests passing; one that alters an answer on
purpose regenerates the files, e.g.

    python -m torifan is-weakened-fano catalog:X3_0 --json > tests/data/is-weakened-fano-X3_0.json
    PYTHONPATH=src:tests python -c "import test_golden as g; g.write_analyze_catalog()"
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


def analyze_catalog_text() -> str:
    """One JSON object: each catalog name, one per line, mapped to the exact
    line that ``analyze catalog:NAME --json`` prints."""
    lines = []
    for name in all_named():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["analyze", f"catalog:{name}", "--json"]) == 0
        lines.append(f"{json.dumps(name)}:{out.getvalue().rstrip(chr(10))}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_analyze_catalog() -> None:
    (DATA / "analyze-catalog.json").write_text(analyze_catalog_text(), encoding="utf-8")


def test_analyze_of_every_catalog_fan_matches_golden_file():
    golden = (DATA / "analyze-catalog.json").read_text(encoding="utf-8")
    assert len(json.loads(golden)) == len(all_named()) == 34
    assert analyze_catalog_text() == golden
