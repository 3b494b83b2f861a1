import random

import pytest

from torifan.lattice import (
    determinant,
    has_nonneg_combination,
    invariant_factors,
    invert_unimodular,
    is_primitive,
    make_primitive,
    matmul,
    matrix_from_columns,
    smith_normal_form,
    solve_rational,
)

from _oracles import cofactor_det, minor_gcd_invariant_factors


def columns(*cols):
    return matrix_from_columns(cols)


class TestDeterminant:
    def test_identity(self):
        assert determinant(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1

    def test_cofactor_oracle_case(self):
        m = columns((1, 0, 0), (1, 1, 0), (0, 0, 1))
        assert cofactor_det([list(r) for r in m]) == 1
        assert determinant(m) == 1

    def test_dependent_columns(self):
        assert determinant(columns((1, 0), (-1, 0))) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(((1, 0, 0), (0, 1, 0)))

    def test_matches_cofactor_expansion_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.choice([1, 2, 3, 4])
            m = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
            assert determinant(m) == cofactor_det([list(r) for r in m])


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert invariant_factors(((2, 0), (0, 3))) == (1, 6)

    def test_zero_matrix(self):
        _, d, _ = smith_normal_form(((0, 0), (0, 0)))
        assert d == ((0, 0), (0, 0))

    def test_two_columns_in_z3(self):
        m = columns((1, 0, 0), (1, 1, 0))
        assert minor_gcd_invariant_factors([list(r) for r in m]) == [1, 1]
        factors = invariant_factors(m)
        assert tuple(f for f in factors if f) == (1, 1)

    def test_random_decomposition_properties(self):
        rng = random.Random(11)
        for _ in range(50):
            rows = rng.choice([1, 2, 3])
            cols = rng.choice([1, 2, 3, 4])
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
            u, d, v = smith_normal_form(m)
            assert matmul(matmul(u, m), v) == d
            assert determinant(u) in (1, -1)
            assert determinant(v) in (1, -1)
            diag = [d[i][i] for i in range(min(rows, cols))]
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0
                else:
                    assert b == 0
            # off-diagonal must vanish
            assert all(
                d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j
            )

    def test_determinant_is_product_of_invariant_factors(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.choice([2, 3])
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            product = 1
            for f in invariant_factors(m):
                product *= f
            assert abs(determinant(m)) == product

    def test_matches_minor_gcd_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            rows = rng.choice([2, 3])
            cols = rng.choice([2, 3])
            m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
            expected = minor_gcd_invariant_factors(m)
            got = [f for f in invariant_factors(tuple(map(tuple, m))) if f != 0]
            assert got == expected


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
            col = tuple((x,) for x in v)
            assert is_primitive(v) == (invariant_factors(col)[0] == 1)

    def test_make_primitive(self):
        assert make_primitive((4, -6)) == (2, -3)


class TestSolvers:
    def test_solve_rational_consistency(self):
        sol = solve_rational(((1, 1), (0, 1)), (3, 1))
        assert sol == [2, 1]
        assert solve_rational(((1, 1), (2, 2)), (1, 2)) is not None
        assert solve_rational(((1, 1), (2, 2)), (1, 3)) is None

    def test_invert_unimodular(self):
        m = ((1, 2, 0), (0, 1, 0), (3, 5, 1))
        inv = invert_unimodular(m)
        assert matmul(m, inv) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError):
            invert_unimodular(((2, 0), (0, 1)))


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
