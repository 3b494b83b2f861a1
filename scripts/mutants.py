"""Rerun the mutants that the tests are recorded to catch.

Each row of ``MUTANTS`` is one exact-text replacement in one file. A killed
mutant is applied to a fresh copy of the repository in a temporary
directory, and ``pytest -x -q`` on its tests must exit with code 1: a test
failed. Exit code 0 means the mutant survived; any other code (a test id
that no longer exists, a collection error) fails the row too. An equivalent
mutant changes no answer, so it is not run, and its row gives the reason.
The old text of every row must occur exactly once in its file, so a row
whose code has moved fails instead of testing nothing. Mutants run one at a
time.

usage: python3 scripts/mutants.py

Exits 1 when a mutant survives or a row no longer applies. Standard library
only; pytest must be importable by the running interpreter.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "_work")

CONTRACTION = "src/torifan/contraction.py"
PRIMITIVE = "src/torifan/primitive.py"
FAN = "src/torifan/fan.py"
CLASSIFY = "src/torifan/classify.py"
ISOMORPHISM = "src/torifan/isomorphism.py"
LATTICE = "src/torifan/lattice.py"
CLI = "src/torifan/cli.py"
POLYTOPE = "src/torifan/polytope.py"
CATALOG = "src/torifan/catalog.py"
CLASSIFY_TESTS = "tests/test_contraction.py::TestClassifyContraction::"
WITNESS_TESTS = "tests/test_contraction.py::TestNormalFormWitness::"
BUNDLE_TESTS = "tests/test_primitive.py::TestBundleRelations::"
WALL_TEST = "tests/test_primitive.py::test_wall_degrees_decide_fano_and_weak_fano_as_the_relations_do"
KERNEL_TEST = "tests/test_fan.py::test_cone_kernel_agrees_with_the_cofactor_references"
INVARIANT_TESTS = "tests/test_primitive.py::TestRelationInvariants::"
IDENTITY_TESTS = "tests/test_riemann_roch.py::"
DEGREE_TESTS = "tests/test_polytope.py::TestDegree::"
PARSE_TEST = "tests/test_cli.py::test_a_command_parsed_once_parses_as_the_top_level_parser_does"
ROUTE_TEST = "tests/test_primitive.py::test_crepant_relations_off_the_walls_agree_with_the_relation_route"
FAR_RAY_TEST = "tests/test_fan.py::test_each_wall_keeps_its_far_rays"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...] = ()  # expected to fail; empty for an equivalent mutant
    equivalent: str = ""  # why the mutant changes no answer


MUTANTS = (
    # the zero-two witness
    Mutant(
        "witness without the wall-degree test (drops alpha + beta == 0)",
        CONTRACTION,
        "return abs(alpha) if alpha + beta == 0 else None",
        "return abs(alpha)",
        (CLASSIFY_TESTS + "test_crepancy_offset_must_vanish",),
    ),
    Mutant(
        "witness asks for wall degree 1",
        CONTRACTION,
        "if alpha + beta == 0 else None",
        "if alpha + beta == 1 else None",
        (CLASSIFY_TESTS + "test_x3_0_collapses_p1xp1",),
    ),
    Mutant(
        "witness returns beta for a",
        CONTRACTION,
        "return abs(alpha) if",
        "return -alpha if",
        (WITNESS_TESTS + "test_shapes_and_witnesses_agree_with_the_references",),
    ),
    Mutant(
        "witness returns |beta| for a",
        CONTRACTION,
        "return abs(alpha) if",
        "return abs(beta) if",
        equivalent="the value is returned only when alpha + beta == 0, and then |beta| = |alpha|",
    ),
    Mutant(
        "witness reads the wall {x0, x-}",
        CONTRACTION,
        "rel.collection[0]",
        "rel.collection[1]",
        equivalent="{x0, x-} is a wall too (Reid, in the witness's docstring), and its relation "
        "has the coefficients alpha + 2*beta and -beta, whose sum is alpha + beta, and "
        "|-beta| = |alpha| when it is 0",
    ),
    # the shape of a crepant relation
    Mutant(
        "a 2 + 2 relation called other",
        CONTRACTION,
        'return ContractionKind("small")',
        'return ContractionKind("other")',
        (CLASSIFY_TESTS + "test_small_contraction_shape",),
    ),
    Mutant(
        "a 3-ray collection called small",
        CONTRACTION,
        'return ContractionKind("divisor_to_point")',
        'return ContractionKind("small")',
        (CLASSIFY_TESTS + "test_divisor_to_point_on_p1_bundle_over_p2",),
    ),
    # the weakened verdict
    Mutant(
        "verdict asks for any zero-two contraction",
        CONTRACTION,
        "weakened = weak and not fano and all(",
        "weakened = weak and not fano and any(",
        ("tests/test_contraction.py::test_short_circuit_verdict_agrees_with_eager_verdict",),
    ),
    Mutant(
        "verdict negates the zero-two test",
        CONTRACTION,
        '.kind == "zero_two" for rel in crepant_relations(fan)',
        '.kind != "zero_two" for rel in crepant_relations(fan)',
        ("tests/test_contraction.py::TestWeakenedPredicate::test_all_fifteen_catalog_threefolds",),
    ),
    # the crepant relations, read off the degree-0 wall classes
    Mutant(
        "crepant relations without the extremality filter",
        PRIMITIVE,
        "crepant = [rel for cls, rel in read if _extremal(table, signs, True, cls, rel)]",
        "crepant = [rel for cls, rel in read]",
        (ROUTE_TEST,),
    ),
    Mutant(
        "wall class with the sign of -alpha_t flipped",
        PRIMITIVE,
        "cls[t] = -alpha",
        "cls[t] = alpha",
        (ROUTE_TEST,),
    ),
    Mutant(
        "degree-0 face dropped from the wall route's extremality test",
        PRIMITIVE,
        "_extremal(table, signs, True, cls, rel)",
        "_extremal(table, signs, False, cls, rel)",
        equivalent="the wall route's table holds only degree-0 classes, so the counts over all "
        "classes are the counts over the face and the face filter keeps every class; and on a "
        "weak Fano fan a face's extremal rays are the cone's",
    ),
    Mutant(
        "wall classes of every degree read as crepant",
        PRIMITIVE,
        "if sum(alphas) == 2:",
        "if sum(alphas) <= 2:",
        (ROUTE_TEST,),
    ),
    # what a relation derives from its collection and coefficients
    Mutant(
        "relation degree counts the collection once more",
        PRIMITIVE,
        "return len(self.collection) - sum(a for _, a in self.coeffs)",
        "return 2 * len(self.collection) - sum(a for _, a in self.coeffs)",
        (INVARIANT_TESTS + "test_degree_equals_class_component_sum",
         "tests/test_acceptance.py::test_criterion_6d_degree_is_class_sum"),
    ),
    Mutant(
        "class entries keep the sign of sigma",
        PRIMITIVE,
        "cls[i] = -a",
        "cls[i] = a",
        (INVARIANT_TESTS + "test_class_vector_is_a_relation_among_rays",
         "tests/test_primitive.py::test_relations_grown_from_faces_agree_with_the_subset_scan"),
    ),
    # how primitive_collections grows the relations from the faces
    Mutant(
        "relations skip the face lookups on candidates of four rays",
        PRIMITIVE,
        "if s in faces or len(members) > 2 and any(s ^ 1 << i not in faces for i in members):",
        "if s in faces:",
        ("tests/test_primitive.py::test_relations_grown_from_faces_agree_with_the_subset_scan",),
    ),
    Mutant(
        "faces extended by common neighbours below their largest index too",
        PRIMITIVE,
        "common = (1 << n) - (2 << members[-1])",
        "common = (1 << n) - 1",
        ("tests/test_primitive.py::test_relations_grown_from_faces_agree_with_the_subset_scan",),
    ),
    Mutant(
        "pairs read off a non-neighbour mask that holds the ray's own bit",
        PRIMITIVE,
        "_members(~near[i] & (1 << n) - (2 << i))",
        "_members((~near[i] | 1 << i) & (1 << n) - (2 << i))",
        equivalent="the pairs of ray i are read only above it, and (1 << n) - (2 << i) clears bit i",
    ),
    # the crepant relations of each sweep bundle
    Mutant(
        "bundle candidates without the section relation",
        PRIMITIVE,
        "candidates[w] = crepant + (section,)",
        "candidates[w] = crepant",
        (BUNDLE_TESTS + "test_candidates_of_p2",),
    ),
    Mutant(
        "bundle candidates keep the section relation at p + q < 2",
        PRIMITIVE,
        "if p + q < 2:",
        "if p + q < 0:",
        (BUNDLE_TESTS + "test_candidates_agree_with_the_reference",),
    ),
    Mutant(
        "bundle candidates seed every degree-0 fiber relation",
        PRIMITIVE,
        "crepant = crepant_relations(fiber)",
        "crepant = tuple(r for r in primitive_collections(fiber) if r.degree == 0)",
        (BUNDLE_TESTS + "test_candidates_agree_with_the_reference",),
    ),
    Mutant(
        "bundle candidates copy the fiber relations",
        PRIMITIVE,
        "crepant = crepant_relations(fiber)",
        "crepant = tuple(PrimitiveRelation(r.collection, r.coeffs) for r in crepant_relations(fiber))",
        ("tests/test_primitive.py::test_bundles_reuse_their_fiber_relations",),
    ),
    # validate: check 2 at each wall, the kept wall relation, and the cone kernel.
    # The 3-D forms of the wall listing and of checks 2 and 3 only write out
    # what the generic code computes. Without them, a warm in-process sweep was the slowest copy in each of
    # four interleaved rounds on 2 shared cores: medians 68-76 ms, against
    # 43-65 ms with them
    Mutant(
        "walls of a 3-fan listed by the generic loop",
        FAN,
        "        if fan.dim == 3:\n            for ci, (a, b, c) in enumerate(cones):",
        "        if False:\n            for ci, (a, b, c) in enumerate(cones):",
        equivalent="the generic loop lists the same facets, each with the same cone and "
        "opposite position, in the same order",
    ),
    Mutant(
        "check 2 of a 3-fan by matvec",
        FAN,
        "                if fan.dim == 3:\n                    x, y, z = rays[cones[cj][l]]",
        "                if False:\n                    x, y, z = rays[cones[cj][l]]",
        equivalent="matvec computes the same coordinates, so the same flags, offending cones "
        "and wall relations follow",
    ),
    Mutant(
        "check 3 of a 3-fan by the generic loop",
        FAN,
        "            if fan.dim == 3:\n                x, y, z = vsum",
        "            if False:\n                x, y, z = vsum",
        equivalent="vdot gives the same products, so the same cones are found to hold p",
    ),
    Mutant(
        "check 2 drops its flag",
        FAN,
        "                if coords[k] >= 0:\n                    is_complete = False\n",
        "                if coords[k] >= 0:\n",
        ("tests/test_fan.py::test_linear_completeness_agrees_with_pairwise_oracle",),
    ),
    Mutant(
        "wall relation keeps the coordinates after the first, not all but the k-th",
        FAN,
        "relations[facet] = coords[:k] + coords[k + 1:]",
        "relations[facet] = coords[1:]",
        (WALL_TEST,),
    ),
    Mutant(
        "far rays read the ray of the first cone twice",
        FAN,
        "(cones[ci][k], cones[cj][l])",
        "(cones[ci][k], cones[ci][k])",
        (FAR_RAY_TEST,),
    ),
    Mutant(
        "far rays read in the order of the second cone",
        FAN,
        "(cones[ci][k], cones[cj][l])",
        "(cones[cj][l], cones[ci][k])",
        (FAR_RAY_TEST,),
    ),
    Mutant(
        "check 2 asks > 0",
        FAN,
        "if coords[k] >= 0:",
        "if coords[k] > 0:",
        equivalent="coords[k] = 0 puts the far ray in the span of the wall, so the second cone "
        "is degenerate, the fan is not simplicial, and the wall checks are never reached",
    ),
    Mutant(
        "3-cone kernel keeps the rows of a negative determinant",
        FAN,
        "((-x0, -x1, -x2), (-y0, -y1, -y2), (-z0, -z1, -z2))",
        "((x0, x1, x2), (y0, y1, y2), (z0, z1, z2))",
        (KERNEL_TEST,),
    ),
    Mutant(
        "2-cone kernel keeps the rows of a negative determinant",
        FAN,
        "return det, ((-b1, b0), (a1, -a0))",
        "return det, ((b1, -b0), (-a1, a0))",
        (KERNEL_TEST,),
    ),
    Mutant(
        "1-cone kernel keeps the row of a negative determinant",
        FAN,
        "return det, ((-1,),)",
        "return det, ((1,),)",
        (KERNEL_TEST,),
    ),
    # the closed forms of the kernels, kept for speed
    Mutant(
        "vdot without its 3-entry closed form",
        LATTICE,
        "    if n == 3:\n        a0, a1, a2 = a",
        "    if False:\n        a0, a1, a2 = a",
        equivalent="the generic sum is the same number; a length mismatch raises ValueError "
        "in both, with another message, and every vector that reaches vdot has the fan's "
        "dim entries, which the constructor checks",
    ),
    Mutant(
        "vdot without its 2-entry closed form",
        LATTICE,
        "    if n == 2:\n        a0, a1 = a",
        "    if False:\n        a0, a1 = a",
        equivalent="as for the 3-entry form",
    ),
    Mutant(
        "matvec without its 3 x 3 closed form",
        LATTICE,
        "    if n == 3 and len(a) == 3:",
        "    if False:",
        equivalent="as for vdot: the generic rows give the same entries",
    ),
    Mutant(
        "matvec without its 2 x 2 closed form",
        LATTICE,
        "    if n == 2 and len(a) == 2:",
        "    if False:",
        equivalent="as for vdot: the generic rows give the same entries",
    ),
    # the predicates and the surface sequence that read the kept wall relations
    Mutant(
        "weak Fano asks every wall degree > 0",
        PRIMITIVE,
        "return max(map(sum, wall_relations(fan).values())) <= 2",
        "return max(map(sum, wall_relations(fan).values())) < 2",
        (WALL_TEST,),
    ),
    Mutant(
        "Fano asks every wall degree >= 0",
        PRIMITIVE,
        "return max(map(sum, wall_relations(fan).values())) < 2",
        "return max(map(sum, wall_relations(fan).values())) <= 2",
        (WALL_TEST,),
    ),
    Mutant(
        "self-intersection sequence reads b + 1",
        CLASSIFY,
        "walls[(i,)][0] for i in order",
        "walls[(i,)][0] + 1 for i in order",
        ("tests/test_classify.py::TestSelfIntersectionSequences::test_sequence_is_read_from_the_rays",),
    ),
    Mutant(
        "one-ray certificate from a collection ray with two positive classes",
        PRIMITIVE,
        "positive[i] == 1",
        "positive[i] <= 2",
        (CLASSIFY_TESTS + "test_non_extremal_rejected",),
    ),
    Mutant(
        "one-ray certificate from a sigma ray with two negative classes",
        PRIMITIVE,
        "negative[i] == 1",
        "negative[i] <= 2",
        (CLASSIFY_TESTS + "test_non_extremal_rejected",),
    ),
    Mutant(
        "one-ray certificate counted on the degree-0 face for every class",
        PRIMITIVE,
        "positive, negative = signs[face]",
        "positive, negative = signs[True]",
        ("tests/test_primitive.py::test_extremality_on_degree_face_agrees_with_full_lp",),
    ),
    Mutant(
        "extremality without the one-ray certificate",
        PRIMITIVE,
        "    if any(positive[i] == 1 for i in rel.collection) or any(negative[i] == 1 for i, _ in rel.coeffs):\n"
        "        return True\n",
        "",
        ("tests/test_memo.py::test_extremality_lps_over_every_relation_of_the_catalog_and_the_bundles",),
    ),
    Mutant(
        "extremality face on fans that are not weak Fano",
        PRIMITIVE,
        "face = rel.degree == 0 and is_weak_fano(fan)",
        "face = rel.degree == 0",
        ("tests/test_primitive.py::test_extremality_on_degree_face_agrees_with_full_lp",),
    ),
    Mutant(
        "class table keyed on the first d entries of a class",
        PRIMITIVE,
        "_class_table(((r.entries(n), r) for r in",
        "_class_table(((r.entries(n)[:fan.dim], r) for r in",
        ("tests/test_primitive.py::test_extremality_on_degree_face_agrees_with_full_lp",),
    ),
    Mutant(
        "extremality without the degree-0 face filter",
        PRIMITIVE,
        "c != target and (degree == 0 or not face)",
        "c != target",
        ("tests/test_memo.py::test_extremality_lps_only_for_degree_zero_relations",),
    ),
    Mutant(
        "sum-of-two lookup restricted to the classes tested against",
        PRIMITIVE,
        "tuple(map(sub, target, c)) in table",
        "tuple(map(sub, target, c)) in others",
        equivalent="the difference is never the target, a class being nonzero, and on the "
        "degree-0 face a difference of two degree-0 classes that is itself a class has "
        "degree 0, the degree being linear: so a hit in the whole table is a hit in others",
    ),
    # the printed degree, checked by Riemann-Roch
    Mutant(
        "wall degree starts from 1",
        POLYTOPE,
        "degrees = (2 - sum(alphas)",
        "degrees = (1 - sum(alphas)",
        (DEGREE_TESTS + "test_p2_degree_9", DEGREE_TESTS + "test_x3_0_degree_52"),
    ),
    Mutant(
        "anticanonical degree two too high",
        POLYTOPE,
        "return sum(c * (2 - vdot(",
        "return 2 + sum(c * (2 - vdot(",
        (IDENTITY_TESTS + "test_lattice_points_match_riemann_roch",),
    ),
    Mutant(
        "3-fold degree counts each wall once less",
        POLYTOPE,
        "2 - vdot(",
        "1 - vdot(",
        (DEGREE_TESTS + "test_x3_0_degree_52",),
    ),
    Mutant(
        "surface degree one too high",
        POLYTOPE,
        "return sum(degrees)\n",
        "return sum(degrees) + 1\n",
        (DEGREE_TESTS + "test_surface_degree_identity",),
    ),
    Mutant(
        "3-fold degree reads the last cone at each ray",
        POLYTOPE,
        "m.setdefault(i, row)",
        "m[i] = row",
        equivalent="any m with <m, v_r> = 1 gives a divisor linearly equivalent to D_r, "
        "-sum_j <m, v_j> D_j for j != r, so the intersection numbers do not change",
    ),
    # the surface search and the catalog it must reproduce
    Mutant(
        "weak Fano blow-up allows neighbours with b = 2",
        CLASSIFY,
        "if seq[k] > 1 or seq[after] > 1:",
        "if seq[k] > 2 or seq[after] > 2:",
        ("tests/test_classify.py::TestSurfaceEnumeration::test_sixteen_classes",),
    ),
    Mutant(
        "catalog without W7",
        CATALOG,
        '    "W7": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (1, -2), (-1, 1), (-2, 1)],\n',
        "",
        ("tests/test_catalog.py::test_counts",),
    ),
    # the bundle test of verify
    Mutant(
        "projection onto P1 drops the straddle test",
        CLASSIFY,
        "        if any(c > 0 for c in coords) and any(c < 0 for c in coords):\n"
        "            return False\n",
        "",
        ("tests/test_classify.py::TestThreefoldEnumeration::test_fans_that_do_not_project_to_p1",),
    ),
    # fan JSON
    Mutant(
        "fan JSON keeps the last value of a repeated key",
        FAN,
        "if key in out:",
        "if False:",
        ("tests/test_cli.py::test_a_repeated_key_is_refused_in_either_order",),
    ),
    # the CLI's messages
    Mutant(
        "invalid fan without its reasons",
        CLI,
        "raise ValueError(f\"fan is invalid: {', '.join(reasons)}\")",
        "raise ValueError(\"fan is invalid: unknown reason\")",
        ("tests/test_cli.py::test_per_fan_commands_name_the_defect_of_an_invalid_fan",),
    ),
    Mutant(
        "error message read from str(exc), which quotes a KeyError",
        CLI,
        "message = str(exc.args[0]) if exc.args else str(exc)",
        "message = str(exc)",
        ("tests/test_cli.py::test_unknown_catalog_name",),
    ),
    Mutant(
        "error message without the test for an exception with no args",
        CLI,
        " if exc.args else str(exc)",
        "",
        equivalent="every ValueError and KeyError that a command raises carries a message, "
        "its first argument",
    ),
    Mutant(
        "the is-fano row computes is_weak_fano",
        CLI,
        'lambda fan: {"is_fano": is_fano(fan)}',
        'lambda fan: {"is_fano": is_weak_fano(fan)}',
        ("tests/test_cli.py::test_false_predicate_still_exits_zero",),
    ),
    Mutant(
        "validate's failures drop the completeness flag",
        CLI,
        "            if not flag:\n",
        '            if not flag and word != "complete":\n',
        ("tests/test_cli.py::test_validate_error_on_incomplete_fan",),
    ),
    Mutant(
        "verify's failures keep a passed assertion",
        CLI,
        '            if not a["passed"]:\n',
        "            if True:\n",
        ("tests/test_cli.py::test_failed_verify_lists_only_the_failed_assertions",),
    ),
    Mutant(
        "isomorphic without the ray permutation",
        CLI,
        '        "ray_permutation": list(iso.ray_permutation) if iso else None,\n',
        "",
        ("tests/test_cli.py::test_isomorphic_command",),
    ),
    Mutant(
        "human mode prints every other payload as a verify summary",
        CLI,
        '    elif command == "verify":',
        "    elif True:",
        ("tests/test_cli.py::test_human_mode_prints_any_other_payload_as_indented_json",),
    ),
    Mutant(
        "human mode lists the names of any payload that has them",
        CLI,
        'elif command == "catalog" and "names" in payload:',
        'elif "names" in payload:',
        equivalent="only the payload of catalog --list has a \"names\" key",
    ),
    Mutant(
        "classes table without the mark of an unnamed class",
        CLI,
        'entry["name"] or "?"',
        'entry["name"]',
        equivalent="every class that either search finds has a catalog name, as verify's "
        "bijection assertions check, so the \"?\" of an unnamed class is never printed",
    ),
    # the CLI's router: a known command parsed once, by its own parser
    Mutant(
        "router without the leftover-arguments check",
        CLI,
        "    if extras:\n"
        "        build_parser().error(f\"unrecognized arguments: {' '.join(extras)}\")\n",
        "",
        (PARSE_TEST,),
    ),
    Mutant(
        "routed namespace without its command",
        CLI,
        "    args.command = argv[0]\n",
        "",
        (PARSE_TEST,),
    ),
    Mutant(
        "router sends -h and an unknown name to a command's parser",
        CLI,
        "if not argv or argv[0] not in commands:",
        "if not argv:",
        (PARSE_TEST,),
    ),
    Mutant(
        "router sends an empty argv to a command's parser",
        CLI,
        "if not argv or argv[0]",
        "if argv[0]",
        (PARSE_TEST,),
    ),
    Mutant(
        "router leaves a missing argv to the top-level parser",
        CLI,
        "    argv = sys.argv[1:] if argv is None else argv\n",
        "",
        equivalent="a missing argv then takes the top-level branch, and parse_args(None) reads "
        "sys.argv[1:] itself, so only the speed of a main() that reads sys.argv changes",
    ),
    # isomorphism: the 1-D relabelling, the wall-degree cuts and the perf-only early exits
    Mutant(
        "relabelling without the identity shortcut",
        ISOMORPHISM,
        "    if order == tuple(range(len(order))):\n"
        "        # also the only order in dimension 1, where itemgetter gives no tuple\n"
        "        return coords\n",
        "",
        ("tests/test_isomorphism.py::TestAgainstReference::test_witnesses_on_rebased_pairs",),
    ),
    Mutant(
        "witness search without the ray-count test",
        ISOMORPHISM,
        "if f.dim != g.dim or len(f.rays) != len(g.rays):",
        "if f.dim != g.dim:",
        equivalent="a candidate map is invertible, so it sends the rays of f to distinct rays of "
        "g and the cones of f to as many cones; a valid fan with n rays has 2, n or 2n - 4 "
        "cones in dimension 1, 2 or 3, so with another ray count the cone sets differ",
    ),
    Mutant(
        "witness order test reads the target's wall degrees unpermuted",
        ISOMORPHISM,
        "if any(want[k] != have[order[k]] for k in identity):",
        "if any(want[k] != have[k] for k in identity):",
        ("tests/test_isomorphism.py::test_coordinate_flip_symmetry",),
    ),
    Mutant(
        "witness anchor signature read in index order",
        ISOMORPHISM,
        "wall_relations(f), anchor, anchor_sorted)",
        "wall_relations(f), anchor, anchor)",
        ("tests/test_isomorphism.py::test_coordinate_flip_symmetry",),
    ),
    Mutant(
        "witness search without the sorted wall-degree test on a target cone",
        ISOMORPHISM,
        "        if sorted(have) != want_sorted:\n"
        "            continue\n",
        "",
        equivalent="a target cone whose sorted wall sums differ from the anchor's has no "
        "order with want[k] == have[order[k]] for every k, so the order test skips each of its "
        "candidates instead",
    ),
    Mutant(
        "anchor cone taken over all cones",
        ISOMORPHISM,
        "min(cones, key=",
        "min(fan.max_cones, key=",
        equivalent="a cone's key starts with its least ray, so the cones that hold the least ray "
        "of the fan have the least keys; the min over them, in the same order, is the same cone",
    ),
    Mutant(
        "canonical key without the first-ray cut",
        ISOMORPHISM,
        "            if best is not None and entry % min(transformed) > best_first:\n"
        "                continue\n",
        "",
        equivalent="a least ray text above the best's first one makes the whole ray text above "
        "the best's, since no ray text is a proper prefix of another, and the ray-text cut "
        "drops the candidate",
    ),
    Mutant(
        "canonical key without the ray-text cut",
        ISOMORPHISM,
        "            if best is not None and ray_text > best[0]:\n"
        "                continue\n",
        "",
        equivalent="a candidate whose ray text is above the best's compares above it, since the "
        "ray text is compared first, so it never replaces the best",
    ),
)


def run(mutant: Mutant) -> tuple[bool, str]:
    """(passed, what happened) for one row."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return False, f"old text occurs {count} times in {mutant.path}"
    if bool(mutant.tests) == bool(mutant.equivalent):
        return False, "a row names either the tests that kill it or why it is equivalent"
    if mutant.equivalent:
        return True, "equivalent: " + mutant.equivalent
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        (copy / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        elapsed = time.monotonic() - start
    if proc.returncode == 1:
        return True, f"killed in {elapsed:.1f} s"
    if proc.returncode == 0:
        return False, f"survived {len(mutant.tests)} test(s)"
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])
    return False, f"pytest exit code {proc.returncode}:\n{tail}"


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        ok, what = run(mutant)
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {what}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} rows hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
