"""The JSON the CLI prints, byte for byte, against committed golden files.

The files under ``tests/data/`` hold the output of ``torifan COMMAND --json``
for both classifications and for the weakened verdict of every catalog
3-fold. A change that must not alter any answer keeps these tests passing;
one that alters an answer on purpose regenerates the files, e.g.

    python -m torifan is-weakened-fano catalog:X3_0 --json > tests/data/is-weakened-fano-X3_0.json
"""

from pathlib import Path

import pytest

from torifan.catalog import threefolds
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
