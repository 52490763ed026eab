"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every expected value is either exact (rational
arithmetic), produced by an independent oracle computed here, or a property
guaranteed by construction; nothing is tuned to the implementation under
test.
"""

import math
import random
import time
from fractions import Fraction as Fr

import numpy as np

from toruskit import exact
from toruskit.clusters import (
    box_table,
    build_partition,
    chain_scaling_experiment,
    relation_links,
    verify_cluster_properties,
)
from toruskit.config import normalize
from toruskit.errors import SingularGenerators
from toruskit.homological import (
    cluster_weight_operator,
    commutator,
    dn_split,
    homological_residual,
    random_cross_cluster_matrix,
    solve_homological,
    verify_remainder_support,
)
from toruskit.lattice import (
    bilinear,
    cauchy_binet_det,
    compound_matrix,
    gram_det_identity,
    new_lattice,
)
from toruskit.runner import run_experiment
from toruskit.spacetime import (
    NLS,
    NLW,
    ChainBilinearData,
    FrequencyParams,
    chain_det_identity,
    chain_pair_bounds,
    enumerate_singular_chains,
    excluded_lambda_measure,
    max_cover_intervals,
    theta_sublevel_cover,
)


class Criterion:
    """Context manager printing one pass/fail line with the elapsed time."""

    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[criterion {self.number:02d}] {verdict} "
              f"({elapsed:.1f}s / limit {self.limit:.0f}s) {self.name}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget")
        return False


def random_rational_basis(rng, d):
    while True:
        try:
            return new_lattice([[Fr(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(d)] for _ in range(d)])
        except SingularGenerators:
            continue


def independent_int_vectors(rng, d, g, span=4):
    fs = []
    while len(fs) < g:
        cand = tuple(rng.randint(-span, span) for _ in range(d))
        if exact.mat_rank([list(f) for f in fs + [cand]]) == len(fs) + 1:
            fs.append(cand)
    return fs


def test_criterion_01_compound_inverse_identity():
    with Criterion(1, "compound inverse identity, 200 bases, all orders", 30):
        rng = random.Random(101)
        for trial in range(200):
            d = 2 + trial % 5
            basis = random_rational_basis(rng, d)
            W = basis.W_rows()
            Winv = basis.W_inverse_rows()
            for g in range(1, d + 1):
                prod = exact.mat_mul(compound_matrix(W, g),
                                     compound_matrix(Winv, g))
                size = len(prod)
                assert all(prod[i][j] == (1 if i == j else 0)
                           for i in range(size) for j in range(size))


def test_criterion_02_cauchy_binet_oracle():
    with Criterion(2, "minor-sum determinant vs direct product, 500 pairs", 10):
        rng = random.Random(202)
        for trial in range(500):
            d = 1 + trial % 6
            g = rng.randint(1, d)
            M = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(g)]
            N = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(d)]
            assert cauchy_binet_det(M, N) == exact.det(exact.mat_mul(M, N))


def test_criterion_03_gram_determinant_identity():
    with Criterion(3, "Gram determinant = squared minor image, 500 frames", 60):
        rng = random.Random(303)
        for trial in range(500):
            d = 2 + trial % 4
            g = rng.randint(1, d)
            basis = random_rational_basis(rng, d)
            fs = independent_int_vectors(rng, d, g)
            res = gram_det_identity(basis, fs)
            brute = exact.det([[bilinear(basis, a, b) for b in fs] for a in fs])
            assert res.det == brute                      # identity, exact
            assert any(x != 0 for x in res.p)            # p never vanishes
            assert res.det >= res.lower_bound            # exact Frobenius floor
            cinv = exact.compound(basis.W_inverse_rows(), g)
            op = np.linalg.norm(np.array(cinv, dtype=float), 2)
            p_sq = float(exact.norm_sq(list(res.p)))
            assert float(res.det) * (1 + 1e-9) >= p_sq / op**2


def test_criterion_04_chain_determinant_identity():
    with Criterion(4, "time-space determinant identity, 200 data sets", 60):
        rng = random.Random(404)
        done = 0
        while done < 200:
            d = 1 + done % 4
            n = 1 + done % 3
            g = rng.randint(1, d + 1)
            basis = random_rational_basis(rng, d)
            raw = [Fr(rng.randint(-5, 5)) for _ in range(n)]
            total = sum(abs(x) for x in raw) + 1
            wb = tuple(x / total for x in raw)
            params = FrequencyParams(n=n, omega_bar=wb, gamma0=Fr(1, 100),
                                     tau0=Fr(n), lam=Fr(1), theta=Fr(0),
                                     mass=Fr(1))
            ls = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(g)]
            ks = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(g)]
            data = ChainBilinearData(basis=basis, params=params,
                                     l_vectors=tuple(ls), k_vectors=tuple(ks))
            # chain_det_identity verifies the 3-point polynomial identity
            # exactly and raises on any discrepancy
            ident = chain_det_identity(data)
            assert ident.m_bound_ok                      # finite product bound
            done += 1


def test_criterion_05_cluster_separation():
    with Criterion(5, "cluster separation and dyadicity, N=64, delta=0.1", 300):
        lattices = [
            new_lattice([["1"]]),
            new_lattice([["1", "0"], ["0", "1"]]),
            new_lattice([["1", "1/2"], ["0", "1"]]),   # non-rectangular
        ]
        for basis in lattices:
            part = build_partition(basis, 64, Fr(1, 10),
                                   enforce_delta_bound=False)
            table = box_table(basis, 64, Fr(1, 10))
            report = verify_cluster_properties(table, part,
                                               relation_links(table))
            assert report.separation_violations == []
            assert report.dyadic_violations == []
            assert report.pairs_checked > 0
            assert report.fitted_threshold <= 2


def test_criterion_06_chain_length_scaling():
    with Criterion(6, "chain length log-log slope below 6, N=200", 120):
        basis = new_lattice([["1"]])
        result = chain_scaling_experiment(basis, [2, 4, 8, 16], 200)
        assert not any(r.truncated for r in result.rows)
        assert result.slope <= 6 + 1e-9
        for row in result.rows:
            assert row.witness.is_valid(basis)
        lengths = [r.length for r in result.rows]
        assert lengths == sorted(lengths)


def test_criterion_07_homological_identity():
    with Criterion(7, "homological identity on a d=2, N=32 box", 30):
        basis = new_lattice([["1", "0"], ["0", "1"]])
        part = build_partition(basis, 32, Fr(1, 10), enforce_delta_bound=False)
        rng = random.Random(707)
        W = random_cross_cluster_matrix(part, 500, rng)
        q_d, q_nd = dn_split(W, part)
        assert q_d + q_nd == W
        table = box_table(basis, 32, Fr(1, 10))
        sol = solve_homological(table, q_nd, part)
        assert homological_residual(table, q_nd, sol) is None
        assert verify_remainder_support(table, sol) == []
        weight = cluster_weight_operator(part)
        assert commutator(q_d, weight).entries == {}


def test_criterion_08_sublevel_covering():
    with Criterion(8, "theta sublevel covering, 1000 cases + sampling", 60):
        basis = new_lattice([["1", "0"], ["0", "1"]])
        rng = random.Random(808)
        N, tau1 = 10, 2
        eps = 0.01
        thetas_unit = np.linspace(-1.0, 1.0, 10_000)
        for _ in range(1000):
            mass = Fr(rng.randint(25, 400), 100)          # in [1/4, 4]
            lam = Fr(rng.randint(50, 150), 100)
            ell = (rng.randint(-20, 20),)
            while True:
                j = (rng.randint(-20, 20), rng.randint(-20, 20))
                if any(j):
                    break
            params = FrequencyParams(n=1, omega_bar=(Fr(1),), gamma0=Fr(1, 2),
                                     tau0=Fr(1), lam=lam, theta=Fr(0),
                                     mass=mass)
            cov = theta_sublevel_cover(basis, params, ell, j, N, tau1, NLW)
            assert len(cov.intervals) <= 2
            assert len(cov.intervals) <= max_cover_intervals(mass, NLW)
            assert cov.length_bound_exact(mass)           # exact rational test
            bound = eps / math.sqrt(float(mass))
            assert cov.max_length() <= bound * (1 + 1e-12)
            # soundness: densely sampled sublevel thetas are all covered
            rho, shift = float(cov.rho), float(cov.shift)
            radius = abs(shift) + math.sqrt(rho + eps) + 0.5
            thetas = thetas_unit * radius
            vals = np.abs(-((shift + thetas) ** 2) + rho)
            for theta in thetas[vals <= eps]:
                assert cov.contains(float(theta))


def test_criterion_09_measure_bound_shape():
    with Criterion(9, "excluded-measure curve: monotone, linear, stable", 300):
        basis = new_lattice([["1", "1/2"], ["0", "1"]])
        wb = ("1",)
        grid = [Fr(1, 1000), Fr(1, 562), Fr(1, 316), Fr(1, 178), Fr(1, 100),
                Fr(1, 56), Fr(1, 32), Fr(1, 18), Fr(1, 10)]  # two decades
        slopes = []
        for scale in (1, 2, 4):
            measures = []
            for gamma in grid:
                res = excluded_lambda_measure(basis, wb, gamma, tau=6, g=2,
                                              p_max=2 * scale,
                                              m_max=2 * scale)
                measures.append(res.lambda_measure)
            if scale == 1:
                assert all(a <= b + 1e-15
                           for a, b in zip(measures, measures[1:]))
                base_measures = measures
            xs = [float(g) for g in grid]
            slopes.append(sum(x * y for x, y in zip(xs, measures))
                          / sum(x * x for x in xs))
        assert all(math.isfinite(s) and s > 0 for s in slopes)
        for s in slopes[1:]:
            assert abs(s - slopes[0]) <= 0.2 * slopes[0]
        # vanishing at gamma -> 0: the smallest point sits on the linear model
        assert base_measures[0] <= 1.5 * slopes[0] * float(grid[0])


def test_criterion_10_singular_chain_bounds():
    with Criterion(10, "singular-chain length and pair bounds, NLW+NLS", 300):
        basis = new_lattice([["1"]])
        cases = [
            (NLW, FrequencyParams.create(["1"], "1/2", 1, 1, 0, "1/2")),
            (NLS, FrequencyParams.create(["1"], "1/2", 1, 1, 0, "1")),
        ]
        for kind, params in cases:
            for gamma in (2, 4):
                survey = enumerate_singular_chains(basis, params, kind,
                                                   40, 40, gamma)
                assert not survey.truncated
                assert survey.chains
                c_star = survey.fitted_exponent
                for chain in survey.chains:
                    assert chain.is_valid(basis, params, kind)
                    if chain.length >= 2:
                        base = max(chain.section_count, 2) * gamma
                        assert math.log(chain.length) <= \
                            c_star * math.log(base) + 1e-12
                reports = [chain_pair_bounds(basis, params, c, kind)
                           for c in survey.chains]
                pair_c = max(r.empirical_constant for r in reports)
                step_budget = 2 * (float(params.mass) + 1) + gamma
                for chain, rep in zip(survey.chains, reports):
                    assert rep.empirical_constant <= pair_c + 1e-12
                    if kind == NLS and chain.length >= 1:
                        assert rep.step_bound_ok
                        assert rep.max_step_mu_gap <= step_budget + 1e-12
                assert math.isfinite(pair_c)


def test_criterion_11_determinism(tmp_path, monkeypatch):
    with Criterion(11, "byte-identical report bodies on rerun", 300):
        monkeypatch.setenv("TORUSKIT_CACHE", str(tmp_path / "cache"))
        configs = [
            {"kind": "cluster", "seed": 1, "out_dir": str(tmp_path / "a"),
             "lattice": {"matrix": [["1"]]},
             "params": {"box_radius": 24, "delta": "1/10",
                        "allow_delta_above_theorem": True}},
            {"kind": "chains", "seed": 2, "out_dir": str(tmp_path / "b"),
             "lattice": {"matrix": [["1"]]},
             "params": {"box_radius": 30, "gammas": [2, 4]}},
            {"kind": "singular", "seed": 3, "out_dir": str(tmp_path / "c"),
             "lattice": {"matrix": [["1"]]},
             "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1,
                           "mass": "1/2"},
             "params": {"symbol": "nlw", "ell_radius": 12, "j_radius": 12,
                        "gamma": 2}},
            {"kind": "measure", "seed": 4, "out_dir": str(tmp_path / "d"),
             "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
             "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1},
             "params": {"g": 2, "tau": 6, "p_max": 1, "m_max": 1,
                        "gamma_grid": ["1/200", "1/50"]}},
            {"kind": "homological", "seed": 5, "out_dir": str(tmp_path / "e"),
             "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
             "params": {"box_radius": 10, "delta": "1/10",
                        "allow_delta_above_theorem": True, "entries": 60}},
            {"kind": "verify", "seed": 6, "out_dir": str(tmp_path / "f"),
             "lattice": {"matrix": [["1"]]},
             "params": {"trials_compound": 6, "trials_cauchy_binet": 12,
                        "trials_gram": 12, "trials_chain_det": 12,
                        "d_min": 2, "d_max": 3}},
        ]
        for raw in configs:
            cfg = normalize(raw)
            first = run_experiment(cfg)
            second = run_experiment(cfg)
            assert first.passed and second.passed
            assert first.body_bytes() == second.body_bytes()
