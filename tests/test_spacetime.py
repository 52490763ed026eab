"""Operator symbols, singular chains, determinant identity, coverings, measures."""

import math
import random
from fractions import Fraction as Fr

import pytest

from toruskit.errors import (
    DependentVectors,
    DimensionMismatch,
    GammaOutOfRange,
    SingularGenerators,
    ValidationError,
)
from toruskit.lattice import bilinear, mu, new_lattice
from toruskit.spacetime import (
    NLS,
    NLW,
    ChainBilinearData,
    FrequencyParams,
    SpaceTimeSite,
    chain_bilinear_data,
    chain_det_identity,
    chain_pair_bounds,
    compound_floor,
    diophantine_check,
    enumerate_singular_chains,
    enumerate_singular_sites,
    excluded_lambda_measure,
    is_singular,
    max_cover_intervals,
    site_distance,
    symbol,
    symbol_nls,
    symbol_nlw,
    theta_sublevel_cover,
)

B1 = new_lattice([[1]])
B2 = new_lattice([[1, 0], [0, 1]])


def params(mass="1", lam="1", theta="0", omega=("1",), gamma0="1/2", tau0=1):
    return FrequencyParams.create(omega, gamma0, tau0, lam, theta, mass)


def test_symbol_values():
    p = params(mass="1/2")
    assert symbol_nlw(B1, p, (0,), (0,)) == Fr(1, 2)
    p1 = params(mass="1")
    assert symbol_nlw(B1, p1, (1,), (1,)) == 1       # -1 + 1 + 1
    # root case: lam*wbar.ell + theta = sqrt(mu + m)
    p2 = params(mass="3", lam="1", theta="1")        # ell=1 -> y = 2, mu=1
    assert symbol_nlw(B1, p2, (1,), (1,)) == 0
    p3 = params(mass="1", lam="1", theta="1/2")
    assert symbol_nls(B1, p3, (1,), (0,), 1) == Fr(-1, 2)
    assert symbol_nls(B1, p3, (0,), (0,), 1) == Fr(1, 2)


def test_nls_sign_flip_identity():
    rng = random.Random(0)
    p = params(mass="7/3", lam="5/4", theta="2/7")
    for _ in range(25):
        ell = (rng.randint(-9, 9),)
        j = (rng.randint(-9, 9),)
        total = symbol_nls(B1, p, ell, j, 1) + symbol_nls(B1, p, ell, j, -1)
        assert total == 2 * (mu(B1, j) + p.mass)


def test_singular_boundary_is_regular():
    p = params(mass="1")
    site = SpaceTimeSite((0,), (0,), 1)
    assert abs(symbol_nlw(B1, p, (0,), (0,))) == 1
    assert not is_singular(B1, p, site, NLW)
    assert is_singular(B1, params(mass="1/2"), site, NLW)
    assert not is_singular(B1, params(mass="2"), site, NLW)


def test_site_distance():
    a = SpaceTimeSite((0,), (0,), 1)
    b = SpaceTimeSite((0,), (0,), -1)
    assert site_distance(a, b) == 1
    assert site_distance(a, a) == 0
    c = SpaceTimeSite((3,), (-1,), -1)
    assert site_distance(a, c) == 3


def test_enumerate_sites_empty_when_mass_dominates():
    p = params(mass="100")
    assert enumerate_singular_sites(B1, p, NLW, 3, 3) == []


def test_enumerate_sites_replay_filter():
    p = params(mass="1/2")
    sites = enumerate_singular_sites(B1, p, NLW, 12, 12)
    assert sites == sorted(sites)
    for s in sites:
        assert abs(symbol_nlw(B1, p, s.ell, s.j)) < 1
    # near the cone: |y^2 - mu - m| < 1
    for s in sites:
        y = float(p.lam) * s.ell[0]
        assert abs(y * y - s.j[0] ** 2 - 0.5) < 1


def test_enumerate_sites_nls_both_signs():
    p = params(mass="1/2")
    sites = enumerate_singular_sites(B1, p, NLS, 10, 3)
    assert {s.a for s in sites} == {-1, 1}
    for s in sites:
        assert abs(symbol_nls(B1, p, s.ell, s.j, s.a)) < 1


def test_singular_chains_empty_box():
    p = params(mass="100")
    survey = enumerate_singular_chains(B1, p, NLW, 3, 3, 2)
    assert survey.chains == [] and survey.site_count == 0


def test_singular_chains_replay_and_exponent():
    p = params(mass="1/2")
    survey = enumerate_singular_chains(B1, p, NLW, 30, 30, 2)
    assert survey.site_count == 123  # two cone lines plus (+-1, 0)
    assert not survey.truncated
    for chain in survey.chains:
        assert chain.is_valid(B1, p, NLW)
        if chain.length >= 2:
            base = max(chain.section_count, 2) * 2.0
            assert chain.length <= base ** survey.fitted_exponent * (1 + 1e-9)
    assert math.isfinite(survey.fitted_exponent)
    assert any(c.breaks_exponent_bound(0.5) for c in survey.chains)
    assert not any(c.breaks_exponent_bound(survey.fitted_exponent)
                   for c in survey.chains)


def test_truncated_chains_still_maximal():
    from toruskit.spacetime import enumerate_singular_chains as survey_fn

    p = params(mass="1/2")
    survey = survey_fn(B1, p, NLW, 20, 20, 2, node_budget=5)
    assert survey.truncated
    top = survey.chains[0]
    assert top.is_valid(B1, p, NLW)
    sites = set(enumerate_singular_sites(B1, p, NLW, 20, 20))
    members = set(top.sites)
    for tip in (top.sites[0], top.sites[-1]):
        assert not any(t not in members and site_distance(tip, t) <= 2
                       for t in sites)


def test_chain_bilinear_g1():
    p = params(mass="1")
    ch = [SpaceTimeSite((0,), (0, 0), 1), SpaceTimeSite((1,), (3, 4), 1)]
    data = chain_bilinear_data(B2, p, ch, 0, [1])
    A = data.A()
    assert A == [[Fr(24)]]  # -(w.l)^2 + <k,k> = -1 + 25
    assert data.S_bar() == [[Fr(1)]]
    assert data.R() == [[Fr(25)]]


def test_chain_bilinear_pure_space():
    p = params(mass="1")
    ch = [SpaceTimeSite((5,), (0, 0), 1), SpaceTimeSite((5,), (1, 2), 1),
          SpaceTimeSite((5,), (2, -1), 1)]
    data = chain_bilinear_data(B2, p, ch, 0, [1, 2])
    assert data.S_bar() == [[0, 0], [0, 0]]
    assert data.A() == data.R()
    A = data.A()
    assert A[0][1] == A[1][0]


def test_chain_bilinear_rejects_dependent():
    p = params(mass="1")
    ch = [SpaceTimeSite((0,), (0, 0), 1), SpaceTimeSite((1,), (1, 0), 1),
          SpaceTimeSite((2,), (2, 0), 1)]
    with pytest.raises(DependentVectors):
        chain_bilinear_data(B2, p, ch, 0, [1, 2])


def test_chain_det_identity_g1():
    p = params(mass="1")
    ch = [SpaceTimeSite((0,), (0, 0), 1), SpaceTimeSite((1,), (3, 4), 1)]
    data = chain_bilinear_data(B2, p, ch, 0, [1])
    ident = chain_det_identity(data)
    assert ident.p == (3, 4)
    assert ident.eta == 25
    assert ident.m_coeffs == ((1,),)
    assert ident.zeta == 1
    assert ident.gram_positive
    assert ident.det_value(Fr(1)) == 24
    assert data.det_A(Fr(2)) == 25 - 4


def test_chain_det_identity_zero_time_part():
    # all time indices equal: the lam^2 part vanishes and the determinant
    # reduces to the Gram minor identity
    p = params(mass="1")
    rng = random.Random(1)
    for _ in range(20):
        ks = []
        while len(ks) < 2:
            cand = (rng.randint(-4, 4), rng.randint(-4, 4))
            if cand not in ks and any(cand):
                ks.append(cand)
        data = ChainBilinearData(basis=B2, params=p,
                                 l_vectors=((0,), (0,)),
                                 k_vectors=tuple(ks))
        ident = chain_det_identity(data)
        assert ident.zeta == 0
        assert all(m == (0,) for m in ident.m_coeffs)
        gram = [[bilinear(B2, a, b) for b in ks] for a in ks]
        from toruskit import exact
        assert ident.det_value(Fr(1)) == exact.det(gram)


def test_chain_det_identity_random_and_g_above_d():
    from toruskit.errors import SingularGenerators

    rng = random.Random(2)
    trials = 0
    while trials < 60:
        d = rng.randint(1, 4)
        n = rng.randint(1, 3)
        g = rng.randint(1, d + 1)
        basis = None
        while basis is None:
            try:
                basis = new_lattice([[Fr(rng.randint(-3, 3), rng.randint(1, 2))
                                      for _ in range(d)] for _ in range(d)])
            except SingularGenerators:
                basis = None
        raw = [Fr(rng.randint(-5, 5)) for _ in range(n)]
        total = sum(abs(x) for x in raw) + 1
        wb = tuple(x / total for x in raw)
        p = FrequencyParams(n=n, omega_bar=wb, gamma0=Fr(1, 100), tau0=Fr(n),
                            lam=Fr(1), theta=Fr(0), mass=Fr(1))
        ls = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(g)]
        ks = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(g)]
        data = ChainBilinearData(basis=basis, params=p,
                                 l_vectors=tuple(ls), k_vectors=tuple(ks))
        ident = chain_det_identity(data)   # raises on any mismatch
        assert ident.m_bound_ok
        if g == d + 1:
            assert ident.p == () and ident.eta == 0
        trials += 1


def test_gram_positivity_detects_independence():
    p = params(mass="1")
    ch = [SpaceTimeSite((0,), (0, 0), 1), SpaceTimeSite((1,), (1, 0), 1),
          SpaceTimeSite((2,), (0, 1), 1)]
    data = chain_bilinear_data(B2, p, ch, 0, [1, 2])
    ident = chain_det_identity(data)
    assert ident.gram_positive
    assert (ident.p, ident.m_coeffs) != ((0,), ((0,),))


# ---------------------------------------------------------------------------
# theta sublevel covers


def test_cover_two_intervals_near_unit_roots():
    p = params(mass="1")
    cov = theta_sublevel_cover(B1, p, (0,), (0,), 10, 2, NLW)
    assert len(cov.intervals) == 2
    lo1, hi1 = cov.intervals[1]
    assert lo1 == pytest.approx(math.sqrt(0.99))
    assert hi1 == pytest.approx(math.sqrt(1.01))
    # exact sublevel width slightly exceeds eps/sqrt(m) at mu = 0 (by ~eps^2/8m^2)
    width = hi1 - lo1
    assert width == pytest.approx(math.sqrt(1.01) - math.sqrt(0.99))
    assert width <= 0.01 * (1 + 2e-5)
    assert not cov.length_bound_exact(p.mass)


def test_cover_bound_holds_off_origin():
    p = params(mass="1")
    for j in ((1,), (2,), (5,)):
        cov = theta_sublevel_cover(B1, p, (0,), j, 10, 2, NLW)
        assert len(cov.intervals) == 2
        assert cov.length_bound_exact(p.mass)
        assert cov.max_length() <= 0.01 / math.sqrt(float(p.mass)) * (1 + 1e-12)


def test_cover_counts():
    assert max_cover_intervals(Fr(1), NLW) == 4
    assert max_cover_intervals(Fr(1, 4), NLW) == 6
    assert max_cover_intervals(Fr(4), NLW) == 2
    assert max_cover_intervals(Fr(1), NLS) == 2


def test_cover_soundness_by_sampling():
    import numpy as np

    rng = random.Random(3)
    for _ in range(40):
        m = Fr(rng.randint(25, 400), 100)
        lam = Fr(rng.randint(50, 150), 100)
        ell = (rng.randint(-10, 10),)
        j = (rng.randint(1, 10),)
        p = FrequencyParams(n=1, omega_bar=(Fr(1),), gamma0=Fr(1, 2),
                            tau0=Fr(1), lam=lam, theta=Fr(0), mass=m)
        cov = theta_sublevel_cover(B1, p, ell, j, 10, 2, NLW)
        rho, shift = float(cov.rho), float(cov.shift)
        radius = abs(shift) + math.sqrt(rho + 1) + 1
        thetas = np.linspace(-radius, radius, 4001)
        vals = -((shift + thetas) ** 2) + rho
        inside = np.abs(vals) <= 0.01
        for theta in thetas[inside]:
            assert cov.contains(float(theta))


def test_cover_nls_single_interval():
    p = params(mass="1", lam="1")
    cov = theta_sublevel_cover(B1, p, (3,), (2,), 10, 3, NLS, a=-1)
    assert len(cov.intervals) == 1
    lo, hi = cov.intervals[0]
    assert hi - lo == pytest.approx(2e-3)
    center = -(4 + 1) - 3  # a(mu+m) - lam*wbar.ell
    assert (lo + hi) / 2 == pytest.approx(center)


def test_cover_membership_is_exact():
    # the exact NLS ends are inside, and a theta 5e-10 past any end is
    # outside, though a float comparison with a 1e-9 slack would take it
    p = params(mass="1", lam="1")
    nls = theta_sublevel_cover(B1, p, (3,), (2,), 10, 3, NLS, a=-1)
    center = Fr(-8)
    assert nls.contains(center - nls.eps) and nls.contains(center + nls.eps)
    assert not nls.contains(center + nls.eps + Fr(1, 10 ** 20))
    nlw = theta_sublevel_cover(B1, p, (0,), (1,), 10, 2, NLW)
    assert len(nlw.intervals) == 2
    for cov in (nls, nlw):
        for lo, hi in cov.intervals:
            assert cov.contains((lo + hi) / 2)
            assert not cov.contains(lo - 5e-10)
            assert not cov.contains(hi + 5e-10)


def test_cover_argument_validation():
    p = params(mass="1")
    with pytest.raises(ValidationError):
        theta_sublevel_cover(B1, p, (0,), (0,), 1, 2, NLW)
    with pytest.raises(ValidationError):
        theta_sublevel_cover(B1, p, (0,), (0,), 10, 0, NLW)


# ---------------------------------------------------------------------------
# Diophantine floor, measure, lambda floor


def test_diophantine_single_frequency():
    res = diophantine_check((Fr(1),), Fr(1, 2), 1, 10)
    assert res.passed and res.max_gamma0 == Fr(1, 2)
    assert not diophantine_check((Fr(1),), Fr(2, 3), 1, 10).passed


def test_diophantine_resonant_direction():
    res = diophantine_check((Fr(1, 2), Fr(1, 2)), Fr(1, 1000), 2, 5)
    assert not res.passed
    assert res.max_gamma0 == 0
    assert abs(sum(a * b for a, b in zip(res.worst_ell, (1, -1)))) in (0, 2)


def test_diophantine_golden_like_direction():
    # convergent-based direction: (408, 577)/986 approximates (1, sqrt 2)/denom
    wb = (Fr(408, 986), Fr(577, 986))
    res = diophantine_check(wb, Fr(1, 10**7), 2, 12)
    assert res.passed
    assert res.max_gamma0 > 0


def convergent_direction(coeffs) -> tuple:
    """Two-component rational direction from continued-fraction coefficients.

    The value [a0; a1, a2, ...] built from ``coeffs`` gives a ratio p/q whose
    best rational approximations are exactly its convergents, so truncating a
    badly-approximable number (all-ones coefficients: the golden ratio)
    manufactures directions with a strong Diophantine floor at every scale
    the truncation resolves.  Scaled to unit 1-norm.
    """
    if not coeffs or any(int(a) != a or a < 1 for a in coeffs):
        raise ValidationError("coefficients must be positive integers")
    num, den = int(coeffs[-1]), 1
    for a in reversed(coeffs[:-1]):
        num, den = int(a) * num + den, num
    total = num + den
    return (Fr(den, total), Fr(num, total))


def test_convergent_direction_constructor():
    wb = convergent_direction([1] * 12)     # golden-ratio convergent 233/144
    assert sum(abs(w) for w in wb) == 1
    assert wb[1] / wb[0] == Fr(233, 144)
    res = diophantine_check(wb, Fr(1, 2000), 2, 12)
    assert res.passed
    with pytest.raises(ValidationError):
        convergent_direction([0, 2])


def test_measure_zero_when_m_range_empty():
    # p != 0, m = 0: constant polynomials stay above gamma
    res = excluded_lambda_measure(B2, ("1",), Fr(1, 100), 6, 2, 2, 0)
    assert res.lambda_measure == 0.0
    assert res.xi_intervals == []


def test_measure_single_mode_interval():
    # p = 0 forced, single m block: one interval of known exact length
    res = excluded_lambda_measure(B1, ("1",), Fr(1, 100), 0, 1, 0, 1)
    # d=1, g=1: zeta_m = m^2 for W=1; m=+-1 gives |1 - xi m^2|... eta=0:
    # excluded xi in (-eps, eps)/1 intersect [1/4, 9/4] = empty
    assert res.lambda_measure == 0.0


def test_measure_exact_interval_endpoints():
    # p=0, wbar=1/2, m=+-1, tau=1, gamma=1/5: eps = 1/10, zeta = 1/4,
    # excluded xi = (-2/5, 2/5) clipped to [1/4, 9/4] -> exactly [1/4, 2/5]
    import math

    res = excluded_lambda_measure(B1, ("1/2",), Fr(1, 5), 1, 1, 0, 1)
    assert res.xi_intervals == [(Fr(1, 4), Fr(2, 5))]
    assert res.xi_measure == Fr(3, 20)
    assert res.lambda_measure == pytest.approx(math.sqrt(0.4) - 0.5)


def test_measure_monotone_and_exact_union():
    gammas = [Fr(1, 1000), Fr(1, 100), Fr(1, 20)]
    values = []
    for gamma in gammas:
        res = excluded_lambda_measure(B2, ("1",), gamma, 6, 2, 2, 2)
        values.append(res.lambda_measure)
        # union bounded by the sum of individual lengths in lambda
        assert res.lambda_measure <= float(res.xi_measure)  # sqrt shrinks on [1/4, ...]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_measure_gamma_range_guard():
    with pytest.raises(GammaOutOfRange):
        excluded_lambda_measure(B2, ("1",), Fr(10), 6, 2, 1, 1)
    with pytest.raises(GammaOutOfRange):
        excluded_lambda_measure(B2, ("1",), Fr(0), 6, 2, 1, 1)
    assert compound_floor(B2) == Fr(1, 2)


def test_chain_pair_bounds_trivial_and_nls():
    p = params(mass="1/2")
    from toruskit.spacetime import SingularChain

    single = SingularChain((SpaceTimeSite((0,), (0,), 1),), 2)
    rep = chain_pair_bounds(B1, p, single, NLW)
    assert rep.empirical_constant == 0.0 and rep.pair_count == 0

    survey = enumerate_singular_chains(B1, p, NLS, 15, 3, 2)
    assert not survey.truncated and survey.max_length() == 15
    for chain in survey.chains:
        rep = chain_pair_bounds(B1, p, chain, NLS)
        assert rep.step_bound_ok in (None, True)
        denom_bound = rep.empirical_constant
        # replay: no pair exceeds the reported constant
        for q0 in range(len(chain.sites)):
            for q in range(len(chain.sites)):
                if q == q0:
                    continue
                lhs = abs(bilinear(
                    B1, chain.sites[q0].j,
                    tuple(a - b for a, b in zip(chain.sites[q].j,
                                                chain.sites[q0].j))))
                assert float(lhs) <= denom_bound * (q - q0) ** 2 * 4 + 1e-9


def _bilinear_pair_bounds(basis, params, chain, kind):
    # the pair replay with one bilinear call per pair, and the step replay
    sites = chain.sites
    worst, best_c = None, 0.0
    for q0, s0 in enumerate(sites):
        x0 = params.omega_dot(s0.ell) + params.theta
        for q, s in enumerate(sites):
            if q == q0:
                continue
            space = bilinear(basis, s0.j,
                             tuple(a - b for a, b in zip(s.j, s0.j)))
            if kind == NLW:
                xq = params.omega_dot(s.ell) + params.theta
                lhs = abs(-x0 * (xq - x0) + space)
            else:
                lhs = abs(space)
            ratio = float(lhs) / ((q - q0) ** 2 * float(chain.gamma) ** 2)
            if ratio > best_c:
                best_c, worst = ratio, (q0, q)
    mu_vals = [mu(basis, s.j) for s in sites]
    step_ok, max_gap = None, 0.0
    if len(sites) >= 2:
        step_ok = True if kind == NLS else None
        for q in range(len(sites) - 1):
            max_gap = max(max_gap, float(abs(mu_vals[q + 1] - mu_vals[q])))
            if kind == NLS:
                s, s2 = sites[q], sites[q + 1]
                wdl = params.omega_dot(tuple(a - b for a, b in
                                             zip(s2.ell, s.ell)))
                if s.a == s2.a:
                    val = abs((mu_vals[q + 1] - mu_vals[q]) - s.a * wdl)
                else:
                    val = abs((mu_vals[q + 1] + mu_vals[q]) - s2.a * wdl)
                if val > 2 * (abs(params.mass) + 1):
                    step_ok = False
    n = len(sites)
    return {"empirical_constant": best_c,
            "worst_pair": list(worst) if worst else None,
            "pair_count": n * (n - 1), "step_bound_ok": step_ok,
            "max_step_mu_gap": max_gap}


def _random_chain(rng, d, kind, length, gamma):
    # a walk of sites with steps of sup-norm at most gamma, far from the origin
    from toruskit.spacetime import SingularChain

    ell, j = (rng.randint(-40, 40),), [rng.randint(-900, 900) for _ in range(d)]
    sites = []
    for _ in range(length):
        a = 1 if kind == NLW else rng.choice((-1, 1))
        sites.append(SpaceTimeSite(ell, tuple(j), a))
        ell = (ell[0] + rng.randint(-gamma, gamma),)
        j = [x + rng.randint(-gamma, gamma) for x in j]
    return SingularChain(tuple(sites), gamma)


@pytest.mark.parametrize("kind", [NLS, NLW])
def test_chain_pair_bounds_match_bilinear_replay(kind):
    rng = random.Random(11)
    bases = [B1, new_lattice([["3/7"]]), new_lattice([[1, "2/3"], [0, 1]]),
             new_lattice([["5/3", "-1/4", 0], [0, "7/9", "1/2"], [0, 0, 3]]),
             new_lattice([[1.0, 0.37], [0.0, 1.21]]),
             new_lattice([[0.9, 0.0, 0.1], [0.2, 1.3, 0.0], [0.0, 0.4, 0.7]])]
    plist = [params(mass="1/2", theta="1/3"), params(mass="7", lam="3/4"),
             params(mass="2/5", lam="2/3", theta="-5/7")]
    for basis in bases:
        for p in plist:
            for length in (1, 2, 5, 12):
                chain = _random_chain(rng, basis.d, kind, length,
                                      rng.choice((2, 3)))
                assert (chain_pair_bounds(basis, p, chain, kind).to_dict()
                        == _bilinear_pair_bounds(basis, p, chain, kind))
    if kind == NLS:
        # mu = j^2 and lambda*omega_bar = 3/4: the step from j = 0 to 3 over
        # 8 ells is |9 - 6| = 3, exactly the budget 2(1/2 + 1), in the
        # difference form and, with the sign flipped, the sum form; over 7
        # ells it is 15/4, past the budget
        from toruskit.spacetime import SingularChain

        p = params(mass="1/2", lam="3/4", theta="1/3")
        for ell, a, ok in ((8, 1, True), (-8, -1, True),
                           (7, 1, False), (-7, -1, False)):
            chain = SingularChain((SpaceTimeSite((0,), (0,), 1),
                                   SpaceTimeSite((ell,), (3,), a)), 2)
            got = chain_pair_bounds(B1, p, chain, kind).to_dict()
            assert got == _bilinear_pair_bounds(B1, p, chain, kind)
            assert (got["step_bound_ok"], got["max_step_mu_gap"]) == (ok, 9.0)


def test_frequency_params_validation():
    with pytest.raises(ValidationError):
        FrequencyParams.create(("2",), "1/2", 1)        # |wbar|_1 > 1
    with pytest.raises(ValidationError):
        FrequencyParams.create(("1",), "1/2", 1, lam="2")
    with pytest.raises(ValidationError):
        FrequencyParams.create(("1",), "1/2", 1, mass="0")
    with pytest.raises(ValidationError):
        FrequencyParams.create(("1",), "1/2", 0)        # tau0 < n
    with pytest.raises(ValidationError):
        FrequencyParams.create(("1", "0"), "1/2", 2, dio_ell_max=3)


def test_site_ordering_is_lexicographic():
    p = params(mass="1/2")
    sites = enumerate_singular_sites(B1, p, NLS, 4, 2)
    assert sites == sorted(sites)


def _double_loop_sites(basis, p, kind, ell_radius, j_radius):
    # the plain O(|ells| |js|) scan: every (ell, j, a) tested on its own
    from toruskit.clusters import box_sites

    signs = (1,) if kind == NLW else (-1, 1)
    rho = {j: mu(basis, j) + p.mass for j in box_sites(j_radius, basis.d)}
    sites = []
    for ell in box_sites(ell_radius, p.n):
        y = p.omega_dot(ell) + p.theta
        for j in rho:
            for a in signs:
                c = y * y if kind == NLW else a * y
                if abs(rho[j] - c) < 1:
                    sites.append(SpaceTimeSite(ell, j, a))
    sites.sort()
    return sites


def test_bisect_scan_matches_double_loop():
    # seed picked so that 23 of the 24 scans, the two on float generators
    # included, find sites
    rng = random.Random(29)
    for trial in range(12):
        d = 1 + trial % 3
        V = [[1 if i == k else Fr(rng.randint(-5, 5), rng.randint(1, 4))
              if k > i else 0 for k in range(d)] for i in range(d)]
        basis = new_lattice([[float(x) for x in r] for r in V]
                            if trial == 11 else V)
        n = rng.randint(1, 2)
        omega = [f"{rng.choice((-1, 1))}/{rng.randint(n + 1, 5)}"
                 for _ in range(n)]
        p = params(mass=f"{rng.randint(1, 9)}/{rng.randint(1, 4)}",
                   lam=f"{rng.randint(2, 6)}/4",
                   theta=f"{rng.randint(-3, 3)}/{rng.randint(1, 5)}",
                   omega=omega, tau0=n)
        for kind in (NLW, NLS):
            radii = (rng.randint(2, 4), rng.randint(2, 6 if d < 3 else 3))
            assert (enumerate_singular_sites(basis, p, kind, *radii)
                    == _double_loop_sites(basis, p, kind, *radii))


def test_bisect_scan_window_is_open():
    # |symbol| == 1 exactly on both edges of the window is regular
    p = params(mass="1")
    for kind, inside, edges in (
            (NLW, ((1,), (0,), 1), [((1,), (1,), 1), ((2,), (2,), 1)]),
            (NLS, ((2,), (1,), 1), [((1,), (1,), 1), ((3,), (1,), 1)])):
        sites = enumerate_singular_sites(B1, p, kind, 6, 6)
        assert sites == _double_loop_sites(B1, p, kind, 6, 6)
        assert symbol(B1, p, SpaceTimeSite(*inside), kind) == 0
        assert SpaceTimeSite(*inside) in sites
        for edge in edges:
            assert abs(symbol(B1, p, SpaceTimeSite(*edge), kind)) == 1
            assert SpaceTimeSite(*edge) not in sites


# ---------------------------------------------------------------------------
# the integer symbol kernel against the Fraction symbols


def _random_exact_basis(rng, d):
    while True:
        try:
            return new_lattice([[Fr(rng.randint(-4, 4), rng.randint(1, 5))
                                 for _ in range(d)] for _ in range(d)])
        except SingularGenerators:
            pass


def _random_rational_params(rng, n):
    raw = [Fr(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(n)]
    total = sum(map(abs, raw)) or Fr(1)
    omega = [x / total * Fr(rng.randint(1, 3), 3) for x in raw]
    den = rng.randint(1, 9)
    return FrequencyParams(n=n, omega_bar=tuple(omega), gamma0=Fr(1, 100),
                           tau0=Fr(n), lam=Fr(rng.randint(den, 3 * den), 2 * den),
                           theta=Fr(rng.randint(-9, 9), rng.randint(1, 9)),
                           mass=Fr(rng.randint(1, 40), rng.randint(1, 9)))


def _random_cases(seed, count):
    rng = random.Random(seed)
    for trial in range(count):
        d = 1 + trial % 3
        n = rng.randint(1, 2)
        yield (rng, _random_exact_basis(rng, d), _random_rational_params(rng, n),
               (NLW, NLS)[trial % 2])


def test_integer_symbols_share_one_denominator():
    from toruskit.spacetime import _Symbols

    p = params(lam="3/4", theta="-2/5", omega=("1/3", "-1/2"), tau0=2)
    sym = _Symbols(B1, p, NLS)
    assert sym.E == 40 and sym.W == (10, -15) and sym.T == -16
    for ell in ((0, 0), (3, -7), (-5, 2)):
        assert Fr(sym.y(ell), sym.E) == p.omega_dot(ell) + p.theta
    # float scalars have no integer form and are refused
    with pytest.raises(TypeError, match="FrequencyParams.create"):
        FrequencyParams(n=1, omega_bar=(0.5,), gamma0=Fr(1, 2), tau0=Fr(1),
                        lam=Fr(1), theta=Fr(0), mass=Fr(1))


# lattices typed in floats whose float site scan once kept a site that a float
# replay of the symbol called regular: there rho = mu_j + mass = 2/3 lies
# exactly on the window edge |symbol| = 1, so read exactly it is regular
FLOATING_PROBES = [
    ([[0.6301449849816195, -0.2964506960608932], [0.0, 1.0870110707497045]],
     dict(omega=("1/9",), lam="3/2", theta="1/2", mass="2/3"),
     SpaceTimeSite((-5,), (0, 0), 1)),
    ([[0.862503126388735, -0.5155336823782777], [0.0, 1.031737811051041]],
     dict(omega=("3/7",), lam="3/2", theta="1/3", mass="2/3"),
     SpaceTimeSite((0,), (0, 0), -1)),
]


@pytest.mark.parametrize("matrix, freq, edge_site", FLOATING_PROBES)
def test_floating_scan_sites_replay_as_singular(matrix, freq, edge_site):
    basis = new_lattice(matrix)
    p = params(gamma0="1/100", **freq)
    sites = enumerate_singular_sites(basis, p, NLS, 6, 6)
    assert abs(symbol(basis, p, edge_site, NLS)) == 1
    assert edge_site not in sites and not is_singular(basis, p, edge_site, NLS)
    assert sites and all(is_singular(basis, p, site, NLS) for site in sites)
    survey = enumerate_singular_chains(basis, p, NLS, 6, 6, 2)
    assert all(c.is_valid(basis, p, NLS) for c in survey.chains)


def test_integer_sites_match_fraction_double_loop():
    found = 0
    for rng, basis, p, kind in _random_cases(41, 24):
        radii = (rng.randint(2, 5), rng.randint(2, 5 if basis.d < 3 else 2))
        sites = enumerate_singular_sites(basis, p, kind, *radii)
        assert sites == _double_loop_sites(basis, p, kind, *radii)
        found += bool(sites)
    assert found >= 16


def test_integer_is_singular_matches_fraction_symbol():
    for rng, basis, p, kind in _random_cases(43, 30):
        for _ in range(40):
            site = SpaceTimeSite(tuple(rng.randint(-6, 6) for _ in range(p.n)),
                                 tuple(rng.randint(-6, 6) for _ in range(basis.d)),
                                 rng.choice((-1, 1)) if kind == NLS else 1)
            assert is_singular(basis, p, site, kind) == \
                (abs(symbol(basis, p, site, kind)) < 1)
        # the sites of a scan lie on the window, so the test is exercised
        # near |symbol| = 1 as well
        for site in enumerate_singular_sites(basis, p, kind, 3, 2):
            assert is_singular(basis, p, site, kind)


def test_integer_is_singular_keeps_its_errors():
    p = params()
    with pytest.raises(ValidationError):
        is_singular(B1, p, SpaceTimeSite((0,), (0,), 2), NLS)
    with pytest.raises(DimensionMismatch):
        is_singular(B1, p, SpaceTimeSite((0, 0), (0,), 1), NLS)
    with pytest.raises(DimensionMismatch):
        is_singular(B1, p, SpaceTimeSite((0,), (0, 0), 1), NLW)


def _fraction_cover(basis, p, ell, j, N, tau1, kind, a=1):
    # the sublevel cover evaluated with Fraction mu and omega_dot
    eps = Fr(1, N ** tau1)
    rho = mu(basis, j) + p.mass
    shift = p.omega_dot(ell)
    if kind == NLS:
        center = a * rho - shift
        return rho, shift, [(float(center - eps), float(center + eps))]
    sh = float(shift)
    if rho + eps < 0:
        intervals = []
    elif rho - eps > 0:
        lo_r, hi_r = math.sqrt(float(rho - eps)), math.sqrt(float(rho + eps))
        intervals = [(-hi_r - sh, -lo_r - sh), (lo_r - sh, hi_r - sh)]
    else:
        hi_r = math.sqrt(float(rho + eps))
        intervals = [(-hi_r - sh, hi_r - sh)]
    return rho, shift, sorted(intervals)


def test_integer_cover_matches_fraction_cover():
    for rng, basis, p, kind in _random_cases(47, 30):
        for _ in range(10):
            ell = tuple(rng.randint(-9, 9) for _ in range(p.n))
            j = tuple(rng.randint(-5, 5) for _ in range(basis.d))
            N, tau1 = rng.randint(2, 12), rng.randint(1, 3)
            a = rng.choice((-1, 1)) if kind == NLS else 1
            cov = theta_sublevel_cover(basis, p, ell, j, N, tau1, kind, a=a)
            assert (cov.rho, cov.shift, cov.intervals) == \
                _fraction_cover(basis, p, ell, j, N, tau1, kind, a)


def test_integer_pair_bounds_match_fraction_replay():
    for rng, basis, p, kind in _random_cases(59, 36):
        for length in (1, 2, 3, 7):
            chain = _random_chain(rng, basis.d, kind, length,
                                  rng.choice((2, 3)))
            if p.n == 2:
                chain = type(chain)(tuple(SpaceTimeSite(
                    (s.ell[0], rng.randint(-9, 9)), s.j, s.a)
                    for s in chain.sites), Fr(5, 2))
            assert (chain_pair_bounds(basis, p, chain, kind).to_dict()
                    == _bilinear_pair_bounds(basis, p, chain, kind))


@pytest.mark.parametrize("kind", [NLW, NLS])
def test_pair_bounds_refuse_wrong_length_mode(kind):
    from toruskit.spacetime import SingularChain

    chain = SingularChain((SpaceTimeSite((0,), (0, 1), 1),
                           SpaceTimeSite((1,), (1,), 1)), 2)
    with pytest.raises(DimensionMismatch):
        chain_pair_bounds(B2, params(mass="1/2"), chain, kind)


def _offset_scan_links(sites, n, gamma):
    # the per-site scan: every site against every offset and sign
    from toruskit.clusters import positive_offsets

    index = {s: i for i, s in enumerate(sites)}
    dim = n + len(sites[0].j) if sites else n
    offsets = [(0,) * dim] + positive_offsets(dim, int(math.floor(float(gamma))))
    adjacency = [[] for _ in sites]
    for i, s in enumerate(sites):
        for o in offsets:
            ell2 = tuple(a + b for a, b in zip(s.ell, o[:n]))
            j2 = tuple(a + b for a, b in zip(s.j, o[n:]))
            for a2 in (-1, 1):
                cand = SpaceTimeSite(ell2, j2, a2)
                k = index.get(cand)
                if k is None or k <= i:
                    continue
                if site_distance(s, cand) <= gamma:
                    adjacency[i].append(k)
                    adjacency[k].append(i)
    return [sorted(nbrs) for nbrs in adjacency]


GAMMAS = (2, 3, Fr(5, 2), Fr(7, 3), 1, Fr(3, 2), Fr(1, 2), Fr(3, 4), 0)


def test_grouped_link_graph_matches_offset_scan():
    from toruskit.spacetime import _link_graph

    edges = 0
    for rng, basis, p, kind in _random_cases(61, 12):
        sites = enumerate_singular_sites(basis, p, kind, 3, 2)
        for gamma in (2, Fr(5, 2), 1, Fr(1, 2)):
            graph = _link_graph(sites, gamma)
            assert graph == _offset_scan_links(sites, p.n, gamma)
            edges += sum(map(len, graph))
    assert edges > 0
    # scattered sites, both signs, coordinates of either sign
    rng = random.Random(67)
    for trial in range(12):
        n, d = rng.randint(1, 2), rng.randint(1, 2)
        sites = sorted({SpaceTimeSite(
            tuple(rng.randint(-4, 4) for _ in range(n)),
            tuple(rng.randint(-3, 5) for _ in range(d)), rng.choice((-1, 1)))
            for _ in range(rng.randint(0, 60))})
        for gamma in GAMMAS:
            assert _link_graph(sites, gamma) == _offset_scan_links(sites, n, gamma)
