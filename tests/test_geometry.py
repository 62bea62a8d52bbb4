import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from soncbound import covers, geometry, simplex
from soncbound.covers import build_candidate_set
from soncbound.geometry import (
    ONE_SIDED,
    TWO_SIDED,
    CandidateSet,
    CoverUnavailable,
    barycentric_coordinates,
    classify_support,
    inner_term_kind,
    is_monomial_square,
    polytope_vertices,
)
from soncbound.generator import generate_instance
from soncbound.pipeline import PREPARE_ERRORS, PipelineOptions, prepare_root

from builders import acceptance_instance
from oracle import in_hull_exact, vertices_exact

MOTZKIN_SUPPORT = [(4, 2), (2, 4), (2, 2), (0, 0)]


def cand_set(points):
    points = [tuple(p) for p in points]
    origin = points[0]
    assert all(v == 0 for v in origin)
    return CandidateSet(points=tuple(points))


class TestMonomialSquare:
    @pytest.mark.parametrize(
        "e,coeff,expected",
        [
            ((4, 2), 1.0, True),
            ((2, 2), -3.0, False),
            ((1, 0), 5.0, False),
            ((0, 0), 0.0, True),
            ((0,), -0.1, False),
        ],
    )
    def test_examples(self, e, coeff, expected):
        assert is_monomial_square(e, coeff) is expected


class TestPolytopeVertices:
    def test_midpoint_dropped(self):
        verts = polytope_vertices({(0, 0), (2, 0), (0, 2), (1, 1)})
        assert verts == {(0, 0), (2, 0), (0, 2)}

    def test_motzkin(self):
        # (2,2) = ((4,2)+(2,4)+(0,0))/3, checked by the exact oracle too
        verts = polytope_vertices(set(MOTZKIN_SUPPORT))
        assert verts == {(4, 2), (2, 4), (0, 0)}
        assert vertices_exact(MOTZKIN_SUPPORT) == verts

    def test_singleton(self):
        assert polytope_vertices({(0, 0)}) == {(0, 0)}

    def test_agrees_with_exact_oracle_on_random_supports(self):
        rng = random.Random(123)
        for _ in range(60):
            dim = rng.randint(1, 3)
            size = rng.randint(1, 8)
            support = {tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(size)}
            assert polytope_vertices(support) == vertices_exact(support)


def _vertices_one_lp_per_point(support):
    """The vertex test without the exact steps: one LP per point
    against all the other points."""
    points = sorted(support)
    if len(points) == 1:
        return set(points)
    vertices = set()
    for p in points:
        others = [q for q in points if q != p]
        res = geometry._combination_lp(p, others, [0.0] * len(others))
        assert res.status in (simplex.OPTIMAL, simplex.INFEASIBLE)
        if res.status == simplex.INFEASIBLE:
            vertices.add(p)
    return vertices


def _random_support(rng, dim, size):
    """Up to size points; often the origin plus axis powers (the axis step
    applies), sometimes points with negative entries (it must not)."""
    points = set()
    if rng.random() < 0.7:
        points.add((0,) * dim)
        for i in range(dim):
            if rng.random() < 0.8:
                points.add(tuple(rng.randint(1, 8) if j == i else 0 for j in range(dim)))
    low = -3 if rng.random() < 0.3 else 0
    for _ in range(size):
        points.add(tuple(rng.randint(low, 8) for _ in range(dim)))
    return points


class TestExactVertexSteps:
    """The axis-simplex and lexicographic steps decide points without an
    LP and leave the vertex set unchanged."""

    def test_agrees_with_one_lp_per_point(self):
        rng = random.Random(2024)
        fired = negative = 0
        for _ in range(200):
            support = _random_support(rng, rng.randint(1, 4), rng.randint(1, 17))
            fired += bool(geometry._axis_simplex_interior(sorted(support)))
            negative += any(min(p) < 0 for p in support)
            assert polytope_vertices(support) == _vertices_one_lp_per_point(support)
        assert fired > 50 and negative > 30

    def test_agrees_with_exact_oracle(self):
        rng = random.Random(77)
        fired = 0
        for _ in range(60):
            support = _random_support(rng, rng.randint(1, 4), rng.randint(1, 4))
            fired += bool(geometry._axis_simplex_interior(sorted(support)))
            assert polytope_vertices(support) == vertices_exact(support)
        assert fired > 10

    def test_negative_entry_is_kept(self):
        # (-1, 1) has sum p_i/m_i = 0 but lies outside conv(0, 4e_1, 4e_2)
        support = {(0, 0), (4, 0), (0, 4), (-1, 1), (1, 1)}
        assert geometry._axis_simplex_interior(sorted(support)) == {(1, 1)}
        assert polytope_vertices(support) == {(0, 0), (4, 0), (0, 4), (-1, 1)}

    def test_axis_step_needs_the_origin(self):
        support = {(4, 0), (0, 4), (1, 1), (2, 2)}
        assert geometry._axis_simplex_interior(sorted(support)) == set()
        assert polytope_vertices(support) == {(4, 0), (0, 4), (1, 1)}

    def test_axis_step_needs_a_pure_power_on_every_used_axis(self):
        support = {(0, 0), (4, 0), (1, 1), (2, 0)}
        assert geometry._axis_simplex_interior(sorted(support)) == {(2, 0)}
        assert polytope_vertices(support) == {(0, 0), (4, 0), (1, 1)}


def _ref_axis_simplex_interior(points):
    """The Fraction sum that _axis_simplex_interior's integer test replaced."""
    n = len(points[0])
    if (0,) * n not in points:
        return set()
    top = {}
    for p in points:
        axes = [i for i, v in enumerate(p) if v]
        if len(axes) == 1 and p[axes[0]] > 0:
            top[axes[0]] = max(top.get(axes[0], 0), p[axes[0]])
    corners = {tuple(m if j == i else 0 for j in range(n)) for i, m in top.items()}
    return {p for p in points
            if p not in corners and any(p) and min(p) >= 0
            and all(v == 0 or i in top for i, v in enumerate(p))
            and sum(Fraction(v, top[i]) for i, v in enumerate(p) if v) <= 1}


@hst.composite
def _small_supports(draw):
    """Up to 12 points in 1-4 dimensions, entries in [-2, 12], with the
    origin and pure powers more often than chance would put them there."""
    n = draw(hst.integers(1, 4))
    entry = hst.integers(-2, 12)
    points = set(draw(hst.lists(hst.tuples(*[entry] * n), min_size=1, max_size=12)))
    if draw(hst.booleans()):
        points.add((0,) * n)
    for i, m in draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(1, 12)),
                               max_size=n)):
        points.add(tuple(m if j == i else 0 for j in range(n)))
    return sorted(points)


class TestAxisSimplexInIntegers:
    @settings(max_examples=500, deadline=None)
    @given(_small_supports())
    def test_matches_fraction_sum(self, points):
        assert geometry._axis_simplex_interior(points) == _ref_axis_simplex_interior(points)

    def test_boundary_of_the_simplex_is_inside(self):
        # 2/4 + 1/3 + 1/6 = 1 exactly: on the facet, not a vertex; lcm 12.
        points = sorted({(0, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 6), (2, 1, 1), (2, 1, 2)})
        assert geometry._axis_simplex_interior(points) == {(2, 1, 1)}
        assert _ref_axis_simplex_interior(points) == {(2, 1, 1)}


def _hulls(monkeypatch, runs):
    """The hulls prepare_root takes for each (instance, options) in runs,
    in call order, as (support, keyword arguments) pairs."""
    supports = []
    monkeypatch.setattr(covers, "polytope_vertices",
                        lambda s, **kw: supports.append((set(s), kw)) or polytope_vertices(s, **kw))
    for inst, options in runs:
        try:
            prepare_root(inst, options)
        except PREPARE_ERRORS:
            pass  # the without-bcs configuration: no cover, after the hull
    return supports


def _vertex_lps(monkeypatch, supports):
    lps = []
    real_lp = geometry._combination_lp
    monkeypatch.setattr(geometry, "_combination_lp",
                        lambda *args: lps.append(args[0]) or real_lp(*args))
    for support, kw in supports:
        polytope_vertices(support, **kw)
    return len(lps)


class TestVertexLpCount:
    def test_with_bounds_hull_takes_no_lp(self, monkeypatch):
        # Default options take the hull without bound exponents (to choose
        # them), then the one with them: conv(0, a_i e_i), decided exactly.
        supports = _hulls(monkeypatch, [(acceptance_instance(i), PipelineOptions())
                                        for i in range(100)])
        assert len(supports) == 200
        assert _vertex_lps(monkeypatch, supports[1::2]) == 0  # 795 with one LP per point

    def test_acceptance_corpus(self, monkeypatch):
        vanilla = PipelineOptions(use_bound_constraints=False)
        runs = [(acceptance_instance(i), options)
                for i in range(100) for options in (PipelineOptions(), vanilla)]
        # 428 deciding odd points too, 1,987 before the exact steps
        assert _vertex_lps(monkeypatch, _hulls(monkeypatch, runs)) <= 76


class TestEvenVerticesOnly:
    """build_candidate_set decides only even points: odd points shape the
    hull but take no LP, and the candidates stay those of the full hull."""

    def test_candidates_match_full_hull(self):
        rng = random.Random(5)
        odd = negative = 0
        for _ in range(200):
            dim = rng.randint(1, 4)
            support = _random_support(rng, dim, rng.randint(1, 17))
            odd += any(v % 2 for p in support for v in p)
            negative += any(min(p) < 0 for p in support)
            origin = (0,) * dim
            full = polytope_vertices(support | {origin})
            expected = sorted(p for p in full if geometry.is_even(p) and p != origin)
            assert build_candidate_set(support, [], dim).points == (origin, *expected)
        assert odd > 150 and negative > 30

    def test_no_lp_for_an_odd_point(self, monkeypatch):
        targets = []
        real_lp = geometry._combination_lp
        monkeypatch.setattr(geometry, "_combination_lp",
                            lambda *args: targets.append(args[0]) or real_lp(*args))
        rng = random.Random(11)
        for _ in range(100):
            dim = rng.randint(1, 4)
            build_candidate_set(_random_support(rng, dim, rng.randint(1, 17)), [], dim)
        assert targets and all(geometry.is_even(t) for t in targets)

    def test_even_point_inside_odd_points(self):
        # (2, 2) lies between (0, 0) and (3, 3): only an odd point shows
        # that it is no vertex
        support = {(0, 0), (3, 3), (2, 2), (6, 0)}
        assert polytope_vertices(support, even_only=True) == {(0, 0), (6, 0)}
        assert build_candidate_set(support, [], 2).points == ((0, 0), (6, 0))


class TestClassifySupport:
    def test_motzkin(self):
        cands = cand_set([(0, 0), (2, 4), (4, 2)])
        present, inner = classify_support(set(MOTZKIN_SUPPORT), cands)
        assert set(present) == {(0, 0), (2, 4), (4, 2)}
        assert inner == [((2, 2), ONE_SIDED)]

    def test_univariate_parity(self):
        cands = cand_set([(0,), (2,)])
        _, inner = classify_support({(0,), (1,), (2,)}, cands)
        assert inner == [((1,), TWO_SIDED)]

    def test_all_even_candidates_leave_no_inner(self):
        cands = cand_set([(0, 0), (2, 0), (0, 2)])
        _, inner = classify_support({(0, 0), (2, 0), (0, 2)}, cands)
        assert inner == []

    def test_kind_tagging(self):
        assert inner_term_kind((2, 2)) == ONE_SIDED
        assert inner_term_kind((3, 1)) == TWO_SIDED


class TestBarycentric:
    def test_motzkin_cover(self):
        cands = cand_set([(0, 0), (2, 4), (4, 2)])
        cover = barycentric_coordinates((2, 2), cands)
        lams = [cover.weights.get(j, 0.0) for j in range(3)]
        assert lams == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-9)

    def test_midpoint(self):
        cands = cand_set([(0,), (2,)])
        cover = barycentric_coordinates((1,), cands)
        assert cover.weights[0] == pytest.approx(0.5, abs=1e-9)
        assert cover.weights[1] == pytest.approx(0.5, abs=1e-9)

    def test_outside_hull(self):
        cands = cand_set([(0,), (2,)])
        with pytest.raises(CoverUnavailable):
            barycentric_coordinates((3,), cands)

    def test_origin_weight_maximized(self):
        # (3,) over {0, 2, 4}: max origin weight is 1/4 via (0, 0, 3/4)
        cands = cand_set([(0,), (2,), (4,)])
        cover = barycentric_coordinates((3,), cands)
        assert cover.origin_weight == pytest.approx(0.25, abs=1e-9)

    def test_reconstruction_and_size_on_random_pairs(self):
        rng = random.Random(7)
        checked_available = 0
        checked_unavailable = 0
        for _ in range(500):
            dim = rng.randint(1, 3)
            n_points = rng.randint(1, 5)
            pts = {tuple(0 for _ in range(dim))}
            for _ in range(60):  # the even-point pool in dim 1 is tiny
                if len(pts) >= n_points + 1:
                    break
                pts.add(tuple(2 * rng.randint(0, 3) for _ in range(dim)))
            ordered = [tuple(0 for _ in range(dim))] + sorted(pts - {tuple(0 for _ in range(dim))})
            cands = cand_set(ordered)
            beta = tuple(rng.randint(0, 6) for _ in range(dim))
            if beta in pts:
                continue
            expected = in_hull_exact(beta, ordered)
            try:
                cover = barycentric_coordinates(beta, cands)
            except CoverUnavailable:
                assert not expected
                checked_unavailable += 1
                continue
            assert expected
            checked_available += 1
            total = sum(cover.weights.values())
            recon = np.zeros(dim)
            for j, w in cover.weights.items():
                recon += w * np.array(ordered[j], float)
            assert abs(total - 1.0) <= 1e-9
            assert np.max(np.abs(recon - np.array(beta, float))) <= 1e-9
            assert len(cover.weights) <= dim + 1
            _assert_exact(cover, cands)
        assert checked_available >= 50
        assert checked_unavailable >= 50


class TestSimplexCovers:
    """n + 1 affinely independent candidates: the weights are solved
    exactly, with no LP."""

    @pytest.fixture
    def no_lp(self, monkeypatch):
        def refuse(problem):
            raise AssertionError("an LP ran")

        monkeypatch.setattr(simplex, "lp_solve", refuse)

    @pytest.mark.parametrize("beta,a,want", [
        ((1,), 6, {0: Fraction(5, 6), 1: Fraction(1, 6)}),
        ((1, 1), 6, {0: Fraction(2, 3), 1: Fraction(1, 6), 2: Fraction(1, 6)}),
        ((1, 2, 0), 10, {0: Fraction(7, 10), 1: Fraction(1, 10), 2: Fraction(1, 5)}),
    ])
    def test_axis_simplex_weights_are_exact(self, no_lp, beta, a, want):
        n = len(beta)
        points = [(0,) * n] + [tuple(a if j == i else 0 for j in range(n)) for i in range(n)]
        cover = barycentric_coordinates(beta, cand_set(points))
        assert cover.weights == {j: float(w) for j, w in want.items()}
        assert cover.exact_weights == want

    def test_outside_the_simplex(self, no_lp):
        with pytest.raises(CoverUnavailable):
            barycentric_coordinates((3, 3), cand_set([(0, 0), (4, 0), (0, 4)]))

    def test_affinely_dependent_set_takes_the_lp(self, monkeypatch):
        calls = []
        lp_solve = simplex.lp_solve

        def counted(problem):
            calls.append(problem)
            return lp_solve(problem)

        monkeypatch.setattr(simplex, "lp_solve", counted)
        cover = barycentric_coordinates((1, 0), cand_set([(0, 0), (2, 0), (4, 0)]))
        assert len(calls) == 1
        assert cover.origin_weight == pytest.approx(0.75, abs=1e-12)  # 3/4 * 0 + 1/4 * (4, 0)


def _assert_exact(cover, cands):
    """cover.exact_weights is _exact_solve over the candidates its
    weights index, and rounds to its float weights."""
    idx = sorted(cover.weights)
    rows = [[cands.points[j][i] for j in idx] for i in range(len(cover.beta))]
    lam = geometry._exact_solve(rows + [[1] * len(idx)], [*cover.beta, 1])
    assert lam is not None and cover.exact_weights == dict(zip(idx, lam))
    for j, w in cover.weights.items():
        assert w == pytest.approx(float(cover.exact_weights[j]), abs=1e-12)


class TestExactWeights:
    """Every cover carries its exact weights from the moment it is built,
    whichever branch of barycentric_coordinates built it."""

    @pytest.mark.parametrize("beta,points,want", [
        ((2, 2), [(0, 0), (2, 4), (4, 2)], {0: Fraction(1, 3), 1: Fraction(1, 3),
                                            2: Fraction(1, 3)}),
        ((2, 2), [(0, 0), (4, 0), (0, 4)], {1: Fraction(1, 2), 2: Fraction(1, 2)}),
    ])
    def test_simplex_branch(self, monkeypatch, beta, points, want):
        monkeypatch.setattr(simplex, "lp_solve", None)  # no LP may run
        cands = cand_set(points)
        cover = barycentric_coordinates(beta, cands)
        assert cover.exact_weights == want
        _assert_exact(cover, cands)

    @pytest.mark.parametrize("beta,points,want", [
        ((1, 0), [(0, 0), (2, 0), (4, 0)], {0: Fraction(3, 4), 2: Fraction(1, 4)}),
        ((2, 2), [(0, 0), (2, 4), (4, 2), (4, 4)], {0: Fraction(1, 2), 3: Fraction(1, 2)}),
        ((2, 1), [(0, 0), (4, 0), (0, 4), (4, 4)], {0: Fraction(1, 2), 1: Fraction(1, 4),
                                                    3: Fraction(1, 4)}),
    ])
    def test_lp_branch(self, monkeypatch, beta, points, want):
        calls = []
        lp_solve = simplex.lp_solve
        monkeypatch.setattr(simplex, "lp_solve", lambda p: calls.append(p) or lp_solve(p))
        cands = cand_set(points)
        cover = barycentric_coordinates(beta, cands)
        assert len(calls) == 1 and cover.exact_weights == want
        _assert_exact(cover, cands)

    def test_corpus_covers(self, monkeypatch):
        # Every cover built for the benchmark's acceptance corpus (both
        # configurations) and high-degree corpus.
        built = []
        real = covers.barycentric_coordinates
        monkeypatch.setattr(covers, "barycentric_coordinates",
                            lambda beta, cands: built.append((real(beta, cands), cands))
                            or built[-1][0])
        runs = [(acceptance_instance(i), options) for i in range(100)
                for options in (PipelineOptions(), PipelineOptions(use_bound_constraints=False))]
        runs += [(generate_instance(seed, n=n, m=m, max_degree=degree), PipelineOptions())
                 for n, degree, m in ((2, 8, 1), (4, 8, 2), (1, 12, 0)) for seed in range(20)]
        for inst, options in runs:
            try:
                prepare_root(inst, options)
            except PREPARE_ERRORS:
                pass  # the without-bcs configuration: no cover for some term
        on_simplex = sum(len(cands.points) == len(cover.beta) + 1 for cover, cands in built)
        assert len(built) - on_simplex >= 10 and on_simplex > 500
        for cover, cands in built:
            _assert_exact(cover, cands)


class TestGuaranteedCovers:
    def test_origin_and_axis_points_cover_everything_in_budget(self):
        # candidates {0} U {a*e_i} with even a >= total degree of beta:
        # the explicit weights beta_i / a always form a cover
        rng = random.Random(99)
        for _ in range(200):
            dim = rng.randint(1, 3)
            beta = tuple(rng.randint(0, 5) for _ in range(dim))
            if sum(beta) == 0:
                continue
            a = sum(beta) + (sum(beta) % 2)
            a = max(a, 2)
            points = [tuple(0 for _ in range(dim))]
            for i in range(dim):
                e = [0] * dim
                e[i] = a
                points.append(tuple(e))
            cands = cand_set(points)
            if beta in points:
                continue
            cover = barycentric_coordinates(beta, cands)  # must not raise
            assert sum(cover.weights.values()) == pytest.approx(1.0, abs=1e-9)


class TestCandidateSetInvariants:
    def test_origin_required_first(self):
        with pytest.raises(ValueError):
            CandidateSet(points=((2, 0), (0, 0)))

    def test_odd_point_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            CandidateSet(points=((0, 0), (1, 2)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            CandidateSet(points=((0,), (2,), (2,)))

    def test_build_candidate_set_filters_nonvertices(self):
        cands = build_candidate_set(set(MOTZKIN_SUPPORT), [], 2)
        assert set(cands.points) == {(0, 0), (2, 4), (4, 2)}
        assert cands.points[0] == (0, 0)
