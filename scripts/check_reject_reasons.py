"""Check that ``validate`` refuses each reject-mix fan for the defect the benchmark certifies.

Run from anywhere, with no arguments:

    python3 scripts/check_reject_reasons.py

For seeds 1, 2 and 3 it writes the reject-mix inputs of
``perfbench/workloads.py`` to a temporary directory and runs
``cli.run(["validate", path])`` on every corrupted fan (238 per seed, in
dimensions 2 and 3). perfbench itself only asks that each such input be
refused with exit code 1. Here the reasons in the report's
``offending_cones`` must also include the category of the certificate that
``perfbench/reference.invalidity`` gives for the same data: a fan refused
for some other reason than its defect is a mismatch. It exits 1 on any
mismatch and prints them. Standard library only; perfbench is imported, not
changed.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reference  # noqa: E402
import workloads  # noqa: E402
from torifan import catalog, cli  # noqa: E402

SEEDS = (1, 2, 3)

# certificate of reference.invalidity -> reasons of offending_cones that name
# the same defect; the first pattern that matches decides, so "a generic
# point lies in N cones" is read before the facet count it resembles
CATEGORIES = [
    (r"^ray \d+ is zero$", {"zero_ray"}),
    (r"^ray \d+ is not primitive$", {"non_primitive_ray"}),
    (r"^duplicate rays$", {"duplicate_ray"}),
    (r"^duplicate cones$", {"duplicate_cone"}),
    (r"distinct valid indices$", {"cone_wrong_size", "bad_ray_index"}),
    (r"^a ray is in no cone$", {"unused_ray"}),
    (r"\|det\| != 1$", {"cone_not_unimodular", "cone_degenerate"}),
    (r"^rays \d+ and \d+ lie on one side of facet ", {"improper_intersection"}),
    (r"generic point lies in \d+ cones$", {"improper_intersection"}),
    (r"^facet .* lies in \d+ cones$", {"facet_unmatched"}),
]


def expected_reasons(certificate: str) -> set[str]:
    for pattern, reasons in CATEGORIES:
        if re.search(pattern, certificate):
            return reasons
    raise SystemExit(f"no category for the certificate {certificate!r}")


def main() -> int:
    plain = workloads.plain_catalog(catalog.all_named())
    checked = 0
    mismatches = []
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            queries = workloads.reject_mix(seed, plain, Path(tmp))
            corrupted = [q for q in queries if not q.text]
            for q in corrupted:
                certificate = reference.invalidity(q.rays, q.cones)
                if certificate is None:
                    raise SystemExit(f"seed {seed}: {q.label} input is not certified invalid")
                result = cli.run(["validate", q.argv[1]])
                reasons = {entry["reason"] for entry in result.payload.get("offending_cones", [])}
                if result.exit_code != 1 or not reasons & expected_reasons(certificate):
                    mismatches.append(f"seed {seed} {q.label} ({q.name}, dim {q.dim}): "
                                      f"certificate {certificate!r}, exit {result.exit_code}, "
                                      f"reasons {sorted(reasons)}")
        checked += len(corrupted)
    for line in mismatches:
        print(line)
    print(f"{checked} corrupted fans over seeds {SEEDS}, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
