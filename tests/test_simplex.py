import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from soncbound import simplex
from soncbound.generator import generate_instance
from soncbound.pipeline import PREPARE_ERRORS, PipelineOptions, prepare_root
from soncbound.simplex import LpProblem, lp_solve

from builders import acceptance_instance


def problem_of(A, b, c):
    """The LpProblem of array-likes A, b and c, as lists of Python floats."""
    return LpProblem(*(np.asarray(v, dtype=float).tolist() for v in (A, b, c)))


def solve(A, b, c):
    return lp_solve(problem_of(A, b, c))


class TestExamples:
    def test_fully_determined(self):
        # max l0  s.t. l0 + l1 = 1, 2*l1 = 1
        res = solve([[1, 1], [0, 2]], [1, 1], [1, 0])
        assert res.status == simplex.OPTIMAL
        assert res.x == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_infeasible_negative_rhs(self):
        # l1 = -1 with l >= 0
        res = solve([[0, 1]], [-1], [0, 0])
        assert res.status == simplex.INFEASIBLE

    def test_motzkin_barycentric_lp(self):
        # lambda over {(0,0),(4,2),(2,4)} hitting (2,2): unique solution 1/3 each
        A = [[0, 4, 2], [0, 2, 4], [1, 1, 1]]
        res = solve(A, [2, 2, 1], [1, 0, 0])
        assert res.status == simplex.OPTIMAL
        assert res.x == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-9)

    def test_unbounded(self):
        res = solve([[1, -1]], [0], [1, 0])
        assert res.status == simplex.UNBOUNDED

    def test_redundant_rows(self):
        res = solve([[1, 1], [2, 2]], [1, 2], [1, 0])
        assert res.status == simplex.OPTIMAL
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)


def brute_force_best(A, b, c, tol=1e-9):
    """Enumerate basic solutions of Ax=b, x>=0; return the best objective.

    Independent oracle: tries every column subset of size = #rows.
    """
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if np.linalg.matrix_rank(sub) < m:
            continue
        try:
            x_sub = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(x_sub) < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = x_sub
        if np.max(np.abs(A @ x - b)) > 1e-7:
            continue
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


class TestAgainstBruteForce:
    def test_random_lps(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(120):
            m = rng.integers(1, 5)
            n = rng.integers(m, 7)
            A = np.round(rng.uniform(-3, 3, size=(m, n)), 1)
            x_feas = rng.uniform(0, 2, size=n)
            b = A @ x_feas  # guarantees feasibility
            c = np.round(rng.uniform(-2, 2, size=n), 2)
            res = solve(A, b, c)
            if res.status == simplex.UNBOUNDED:
                continue
            assert res.status == simplex.OPTIMAL
            oracle = brute_force_best(A, b, c)
            assert oracle is not None
            assert float(c @ res.x) == pytest.approx(oracle, abs=1e-6)
            checked += 1
        assert checked > 50

    def test_infeasible_detection(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = rng.integers(2, 6)
            A = np.vstack([rng.uniform(0.1, 2, size=(1, n)), rng.uniform(-1, 1, size=(1, n))])
            b = np.array([-1.0, 0.5])  # first row cannot be met with x >= 0
            res = solve(A, b, np.zeros(n))
            assert res.status == simplex.INFEASIBLE


class TestBasicSolutions:
    def test_nonzero_count_bounded_by_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = rng.integers(1, 4)
            n = rng.integers(m + 1, 8)
            A = rng.uniform(-2, 2, size=(m, n))
            b = A @ rng.uniform(0, 1, size=n)
            res = solve(A, b, rng.uniform(-1, 1, size=n))
            if res.status == simplex.OPTIMAL:
                assert np.count_nonzero(res.x) <= m

    def test_determinism(self):
        problem = LpProblem([[1.0, 2.0, 0.5], [0.0, 1.0, 1.0]], [2.0, 1.0], [1.0, -1.0, 0.3])
        r1, r2 = lp_solve(problem), lp_solve(problem)
        assert np.array(r1.x).tobytes() == np.array(r2.x).tobytes()


# The numpy-tableau simplex that the list-of-lists tableau replaced, kept
# as the reference: lp_solve must match it bit for bit.
def _ref_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > simplex.PIVOT_TOL:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _ref_bland_iterate(tableau, basis, ncols, budget):
    used = 0
    while True:
        obj = tableau[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if obj[j] < -simplex.FEAS_TOL:
                entering = j
                break
        if entering < 0:
            return simplex.OPTIMAL, used
        leaving = -1
        best_ratio = np.inf
        for r in range(tableau.shape[0] - 1):
            a = tableau[r, entering]
            if a > simplex.PIVOT_TOL:
                ratio = tableau[r, -1] / a
                if ratio < best_ratio - simplex.PIVOT_TOL or (
                    abs(ratio - best_ratio) <= simplex.PIVOT_TOL
                    and leaving >= 0
                    and basis[r] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return simplex.UNBOUNDED, used
        _ref_pivot(tableau, basis, leaving, entering)
        used += 1
        if used > budget:
            return simplex.NUMERICAL_ERROR, used


def _ref_lp_solve(problem):
    A = np.array(problem.eq_matrix, dtype=float)
    b = np.array(problem.eq_rhs, dtype=float)
    c = np.array(problem.objective, dtype=float)
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, n : n + m] = 1.0
    basis = list(range(n, n + m))
    tableau[-1] -= tableau[:m].sum(axis=0)
    status, it1 = _ref_bland_iterate(tableau, basis, n + m, simplex.MAX_PIVOTS)
    if status == simplex.NUMERICAL_ERROR:
        return simplex.LpResult(simplex.NUMERICAL_ERROR, iterations=it1)
    if -tableau[-1, -1] > simplex.FEAS_TOL:
        return simplex.LpResult(simplex.INFEASIBLE, iterations=it1)
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[r, j]) > 1e-8:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _ref_pivot(tableau, basis, r, pivot_col)
                keep_rows.append(r)
            elif abs(tableau[r, -1]) > simplex.FEAS_TOL:
                return simplex.LpResult(simplex.INFEASIBLE, iterations=it1)
        else:
            keep_rows.append(r)
    rows = [r for r in range(m) if r in set(keep_rows) or basis[r] < n]
    work = np.zeros((len(rows) + 1, n + 1))
    work[:-1, :n] = tableau[rows][:, :n]
    work[:-1, -1] = tableau[rows][:, -1]
    basis = [basis[r] for r in rows]
    work[-1, :n] = -c
    for r, bv in enumerate(basis):
        coef = work[-1, bv]
        if abs(coef) > simplex.PIVOT_TOL:
            work[-1] -= coef * work[r]
    status, it2 = _ref_bland_iterate(work, basis, n, simplex.MAX_PIVOTS)
    if status in (simplex.NUMERICAL_ERROR, simplex.UNBOUNDED):
        return simplex.LpResult(status, iterations=it1 + it2)
    x = np.zeros(n)
    for r, bv in enumerate(basis):
        x[bv] = work[r, -1]
    x[np.abs(x) < simplex.PIVOT_TOL] = 0.0
    return simplex.LpResult(simplex.OPTIMAL, x=x, iterations=it1 + it2)


def _assert_same_as_reference(problem):
    got, want = lp_solve(problem), _ref_lp_solve(problem)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    if want.x is None:
        assert got.x is None
    else:
        assert all(type(v) is float for v in got.x)
        assert np.array(got.x).tobytes() == want.x.tobytes()
    return got


# Entries as the cover LPs have them (small integers), plus fractions,
# near-tolerance values and a wide range, so that pivots, ties and the
# tolerance tests all take both branches.
_ENTRY = hst.one_of(hst.integers(-4, 4).map(float),
                    hst.sampled_from([0.5, -0.25, 1 / 3, 2.5, 1e-9, -1e-12, 1e6, -3e-5]))


@hst.composite
def _small_lps(draw):
    """max c.x, Ax = b, x >= 0 with up to 5 rows and 7 columns: feasible
    by construction (degenerate when the point has zeros), with an
    arbitrary right-hand side, or with redundant rows (a copy or the sum
    of two rows)."""
    m, n = draw(hst.integers(1, 4)), draw(hst.integers(1, 7))
    A = np.array(draw(hst.lists(hst.lists(_ENTRY, min_size=n, max_size=n),
                                min_size=m, max_size=m)))
    kind = draw(hst.sampled_from(["feasible", "any", "redundant"]))
    if kind == "any":
        b = np.array(draw(hst.lists(_ENTRY, min_size=m, max_size=m)))
    else:
        point = np.array(draw(hst.lists(hst.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 1 / 3]),
                                        min_size=n, max_size=n)))
        b = A @ point
    if kind == "redundant":
        i, j = draw(hst.integers(0, m - 1)), draw(hst.integers(0, m - 1))
        A, b = np.vstack([A, A[i] + A[j] * (i != j)]), np.append(b, b[i] + b[j] * (i != j))
    c = np.array(draw(hst.lists(_ENTRY, min_size=n, max_size=n)))
    return problem_of(A, b, c)


class TestListTableau:
    """lp_solve on a list-of-lists tableau takes the numpy tableau's
    pivots and returns its solution bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_small_lps())
    def test_matches_numpy_tableau(self, problem):
        _assert_same_as_reference(problem)

    def test_examples_match_numpy_tableau(self):
        statuses = set()
        for A, b, c in [([[1, 1], [0, 2]], [1, 1], [1, 0]), ([[0, 1]], [-1], [0, 0]),
                        ([[1, -1]], [0], [1, 0]), ([[1, 1], [2, 2]], [1, 2], [1, 0]),
                        ([[1, 1], [1, 1]], [1, 2], [0, 0]), ([[0, 0]], [0], [1, 1])]:
            statuses.add(_assert_same_as_reference(problem_of(A, b, c)).status)
        assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE, simplex.UNBOUNDED}

    def test_corpus_lps(self, monkeypatch):
        # Every LP that prepare_root takes for the benchmark's acceptance
        # (both configurations), high-degree and wide corpora.
        problems = []
        real = simplex.lp_solve
        monkeypatch.setattr(simplex, "lp_solve", lambda p: problems.append(p) or real(p))
        runs = [(acceptance_instance(i), options) for i in range(100)
                for options in (PipelineOptions(), PipelineOptions(use_bound_constraints=False))]
        runs += [(generate_instance(seed, n=n, m=m, max_degree=degree), PipelineOptions())
                 for n, degree, m in ((2, 8, 1), (4, 8, 2), (1, 12, 0)) for seed in range(20)]
        runs += [(generate_instance(0, n=6, m=1, max_degree=degree, density=2.0),
                  PipelineOptions()) for degree in (4, 5)]
        for inst, options in runs:
            try:
                prepare_root(inst, options)
            except PREPARE_ERRORS:
                pass  # the without-bcs configuration: no cover, after its LPs
        monkeypatch.undo()
        assert len(problems) == 216  # 187 acceptance, 26 high-degree, 3 wide
        for problem in problems:
            _assert_same_as_reference(problem)
