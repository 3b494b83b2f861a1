import random

import pytest

from torifan.lattice import (
    has_nonneg_combination,
    is_primitive,
    matmul,
    matvec,
    vdot,
    vsum,
)

from _oracles import (
    cofactor_det,
    fraction_lp_feasible,
    full_lp,
    gauss_solve,
    make_primitive,
    minor_gcd_invariant_factors,
    reference_adjugate,
    reference_unimodular_inverse,
    sweep_bundles_b3,
)


def columns(*cols):
    return tuple(zip(*cols))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def scaled_identity(det, n):
    return tuple(tuple(det * x for x in row) for row in identity(n))


class TestDeterminant:
    """``_oracles.reference_adjugate`` against cofactor expansion:
    adj(m) * m = det(m) * I with det from ``_oracles.cofactor_det``. The
    package has no determinant, adjugate or inverse function; it writes a
    cone's out from its rays (``fan.cone_det_and_normals``, checked against
    these oracles in ``test_fan``), and on a unimodular cone the signed
    adjugate is the inverse. The oracles' own inverse,
    ``reference_unimodular_inverse``, is checked against it here."""

    def test_identity(self):
        m = identity(3)
        assert reference_adjugate(m) == m
        assert reference_unimodular_inverse(m) == m

    def test_cofactor_oracle_case(self):
        m = columns((1, 0, 0), (1, 1, 0), (0, 0, 1))
        assert cofactor_det([list(r) for r in m]) == 1
        assert matmul(reference_adjugate(m), m) == identity(3)

    def test_dependent_columns(self):
        m = columns((1, 0), (-1, 0))
        assert matmul(reference_adjugate(m), m) == scaled_identity(0, 2)
        with pytest.raises(ValueError):
            reference_unimodular_inverse(m)

    def test_non_square_rejected(self):
        for m in (
            ((1, 0, 0), (0, 1, 0)),
            ((1, 0), (0, 1), (1, 1)),
            ((1, 0, 0), (0, 1)),
            (),
        ):
            with pytest.raises(ValueError):
                reference_adjugate(m)
            with pytest.raises(ValueError):
                reference_unimodular_inverse(m)
        # the oracles take any square size
        assert reference_adjugate(identity(4)) == identity(4)
        assert reference_unimodular_inverse(identity(4)) == identity(4)

    def test_matches_cofactor_expansion_on_random_matrices(self):
        rng = random.Random(7)
        singular = unimodular = 0
        for _ in range(300):
            n = rng.choice([1, 2, 3])
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n == 3 and rng.random() < 0.25:
                # a row that is a combination of two others
                i, j, k = rng.sample(range(n), 3)
                m[i] = [rng.randint(-2, 2) * x + y for x, y in zip(m[j], m[k])]
            det = cofactor_det(m)
            m = tuple(map(tuple, m))
            assert matmul(reference_adjugate(m), m) == scaled_identity(det, n), m
            singular += det == 0
            if det in (1, -1):
                unimodular += 1
                inverse = reference_unimodular_inverse(m)
                assert matmul(m, inverse) == identity(n), m
                # the inverse is adj(m) / det(m)
                adj = reference_adjugate(m)
                assert inverse == tuple(tuple(det * x for x in row) for row in adj), m
            else:
                with pytest.raises(ValueError):
                    reference_unimodular_inverse(m)
        assert singular > 20 and unimodular > 20


class TestVectorKernels:
    """The kernels against entrywise loops, and their length checks. ``vdot``
    of 2 and 3 entries and ``matvec`` of 2 x 2 and 3 x 3 matrices have
    closed forms; other shapes take the generic map/zip path."""

    def test_match_entrywise_loops_on_random_vectors(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 5)
            a = tuple(rng.randint(-9, 9) for _ in range(n))
            b = tuple(rng.randint(-9, 9) for _ in range(n))
            rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(rng.randint(0, 4))]
            assert vdot(a, b) == sum(a[i] * b[i] for i in range(n))
            assert vsum(rows, n) == tuple(sum(r[i] for r in rows) for i in range(n))
            assert matvec(tuple(rows), a) == tuple(sum(r[i] * a[i] for i in range(n)) for r in rows)

    def test_closed_forms_match_entrywise_loops(self):
        rng = random.Random(6)
        for _ in range(300):
            n = rng.choice([2, 3])
            a = tuple(rng.randint(-10**12, 10**12) for _ in range(n))
            b = tuple(rng.randint(-9, 9) for _ in range(n))
            # square matrices take the closed form, other row counts the
            # generic path
            count = rng.choice([0, 1, n, n, 4])
            rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(count))
            assert vdot(a, b) == sum(a[i] * b[i] for i in range(n))
            assert vdot(list(a), b) == vdot(a, b)
            assert matvec(rows, a) == tuple(sum(r[i] * a[i] for i in range(n)) for r in rows)

    def test_vdot_rejects_mismatched_lengths(self):
        for a, b in (
            ((1, 2, 3), (1, 2)),
            ((1, 2), (1, 2, 3)),
            ((1, 2, 3), (1, 2, 3, 4)),
            ((1,), (1, 2)),
        ):
            with pytest.raises(ValueError):
                vdot(a, b)

    def test_vsum_rejects_mismatched_lengths(self):
        assert vsum([], 3) == (0, 0, 0)
        with pytest.raises(ValueError):
            vsum([(1, 2), (1, 2, 3)], 2)
        with pytest.raises(ValueError):
            vsum([(1, 2), (3, 4)], 3)

    def test_matvec_rejects_extra_row_entries(self):
        assert matvec((), (1, 2)) == ()
        with pytest.raises(ValueError):
            matvec(((1, 0, 5), (0, 1, 7)), (1, 2))
        for m, v in (
            (((1, 0), (0,)), (1, 2)),
            (((1, 2),) * 3, (1, 2, 3)),
            (((1, 2, 3, 4),) * 3, (1, 2, 3)),
            (((1, 2, 3),) * 2, (1, 2)),
            (((1, 2, 3), (1, 2)), (1, 2, 3)),
            (((1, 2, 3), (4, 5, 6), (7, 8)), (1, 2, 3)),
            (((1,), (2,), (3,)), (1, 2, 3, 4)),
        ):
            with pytest.raises(ValueError):
                matvec(m, v)


class TestPrimitivity:
    def test_basic(self):
        assert is_primitive((1, -1, 0))
        assert not is_primitive((0, 2, -2))

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_section_ray_shape(self, a):
        # the rays (0, a, -1) appearing in the contraction normal form
        assert is_primitive((0, a, -1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_primitive((0, 0, 0))

    def test_primitivity_equals_trivial_invariant_factor(self):
        rng = random.Random(19)
        for _ in range(40):
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            if all(x == 0 for x in v):
                continue
            col = [[x] for x in v]
            assert is_primitive(v) == (minor_gcd_invariant_factors(col)[0] == 1)

    def test_make_primitive(self):
        assert make_primitive((4, -6)) == (2, -3)


class TestGaussSolveOracle:
    """``_oracles.gauss_solve``, on which the oracles' unimodular inverse and
    cone membership rest, against ranks by minors: a system is consistent
    exactly when appending b keeps the rank (Rouche-Capelli), and a returned
    x must satisfy it exactly, with 0 on the free columns, so at most
    rank(a) of its entries are nonzero."""

    def test_small_cases(self):
        assert gauss_solve([[1, 1], [0, 1]], [3, 1]) == [2, 1]
        assert gauss_solve([[1, 1], [2, 2]], [1, 2]) == [1, 0]
        assert gauss_solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_random_systems(self):
        rng = random.Random(29)
        deficient = inconsistent = zero_rhs = 0
        for _ in range(3000):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.4:
                # rank deficiency: a row, then a column, made a multiple of another
                i, j = rng.sample(range(m), 2)
                a[i] = [rng.randint(-2, 2) * x for x in a[j]]
            if n > 1 and rng.random() < 0.4:
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                for row in a:
                    row[i] = c * row[j]
            if rng.random() < 0.15:
                b = [0] * m
            elif rng.random() < 0.5:
                x = [rng.randint(-3, 3) for _ in range(n)]
                b = [sum(c * y for c, y in zip(row, x)) for row in a]
            else:
                b = [rng.randint(-6, 6) for _ in range(m)]
            got = gauss_solve(a, b)
            rank = cofactor_rank(a)
            consistent = rank == cofactor_rank([row + [y] for row, y in zip(a, b)])
            assert (got is not None) == consistent, (a, b)
            if got is not None:
                assert [sum(c * y for c, y in zip(row, got)) for row in a] == b, (a, b)
                assert sum(x != 0 for x in got) <= rank, (a, b)
            deficient += rank < min(m, n)
            inconsistent += not consistent
            zero_rhs += not any(b)
        assert deficient > 300 and inconsistent > 300 and zero_rhs > 300


def cofactor_rank(a) -> int:
    """Largest k with a nonzero k x k minor."""
    from itertools import combinations

    m, n = len(a), len(a[0])
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                if cofactor_det([[a[r][c] for c in ci] for r in ri]):
                    return k
    return 0


def _random_lp(rng: random.Random):
    """(columns, target, feasible by construction) with 1-7 rows and 0-9 columns.

    Half the targets are nonnegative integer combinations of the columns,
    with many zero coefficients (degenerate pivots and tied ratios); others
    are zero or random. Columns may repeat or be scaled, and rows may be
    combinations of other rows.
    """
    m, k = rng.randint(1, 7), rng.randint(0, 9)
    cols = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
    if k > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(k), 2)
        cols[i] = [rng.choice([1, 2]) * x for x in cols[j]]
    feasible = rng.random() < 0.5
    if feasible:
        coeffs = [rng.choice([0, 0, 0, 1, 2]) for _ in range(k)]
        target = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(m)]
    elif rng.random() < 0.1:
        target = [0] * m
        feasible = True
    else:
        target = [rng.randint(-4, 4) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        # a redundant row: the same combination of two rows in every column and the target
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-2, 2)
        for col in cols + [target]:
            col.append(col[i] + c * col[j])
    return [tuple(col) for col in cols], tuple(target), feasible


def _catalog_lps():
    from torifan.catalog import all_named
    from torifan.primitive import primitive_collections

    for nf in all_named().values():
        relations = primitive_collections(nf.fan)
        for rel in relations:
            yield full_lp(relations, rel, len(nf.fan.rays))


def _bound_3_bundle_lps():
    """Every full LP over the relations of the 304 weak Fano bundles at bound 3."""
    from torifan.primitive import is_weak_fano, primitive_collections

    bundles = sweep_bundles_b3()
    assert len(bundles) == 304
    for fan in bundles:
        assert is_weak_fano(fan)
        relations = primitive_collections(fan)
        for rel in relations:
            yield full_lp(relations, rel, len(fan.rays))


class TestNonnegFeasibility:
    def test_trivial(self):
        assert has_nonneg_combination([(1, 0), (0, 1)], (3, 4))
        assert not has_nonneg_combination([(1, 0), (0, 1)], (-1, 0))

    def test_empty_columns(self):
        assert has_nonneg_combination([], (0, 0))
        assert not has_nonneg_combination([], (1, 0))

    def test_needs_mixing(self):
        # (0, 2) = (1, 1) + (-1, 1)
        assert has_nonneg_combination([(1, 1), (-1, 1)], (0, 2))
        assert not has_nonneg_combination([(1, 1), (-1, 1)], (0, -2))

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(40):
            cols = [
                tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(rng.randint(1, 4))
            ]
            target = tuple(rng.randint(-4, 4) for _ in range(2))
            # brute force over a rational grid of coefficients
            found = False
            steps = [x / 4 for x in range(0, 33)]
            if len(cols) <= 2:
                import itertools

                for combo in itertools.product(steps, repeat=len(cols)):
                    if all(
                        sum(c * col[i] for c, col in zip(combo, cols)) == target[i]
                        for i in range(2)
                    ):
                        found = True
                        break
                if found:
                    assert has_nonneg_combination(cols, target)


class TestIntegerSimplexAgainstFractionSimplex:
    """``has_nonneg_combination`` against the Fraction simplex of the oracles."""

    @staticmethod
    def agree(lps) -> tuple[int, int]:
        feasible = infeasible = 0
        for columns, target in lps:
            answer = has_nonneg_combination(columns, target)
            assert answer == fraction_lp_feasible(columns, target), (columns, target)
            feasible += answer
            infeasible += not answer
        return feasible, infeasible

    def test_full_lps_of_the_catalog_fans(self):
        feasible, infeasible = self.agree(_catalog_lps())
        assert feasible > 100 and infeasible > 100

    def test_full_lps_of_the_bound_3_weak_fano_bundles(self):
        assert self.agree(_bound_3_bundle_lps()) == (2146, 1962)

    def test_random_lps(self):
        rng = random.Random(41)
        lps = [_random_lp(rng) for _ in range(3000)]
        for columns, target, feasible in lps:
            assert not feasible or has_nonneg_combination(columns, target)
        feasible, infeasible = self.agree((columns, target) for columns, target, _ in lps)
        assert feasible > 1000 and infeasible > 500
        assert sum(not columns for columns, _, _ in lps) > 100
        assert sum(any(x < 0 for x in target) for _, target, _ in lps) > 1000
        assert sum(not any(target) for _, target, _ in lps) > 100
