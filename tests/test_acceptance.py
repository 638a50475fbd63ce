"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE n (...): PASS/FAIL`` line (visible
under ``pytest -s``) and enforces its runtime budget where one is stated.
"""

import time
from fractions import Fraction
from functools import wraps
from itertools import product

import numpy as np
import pytest

from tropab.degeneration_monoids import (HomogenizedFunction,
                                         TwistedMonoidElement,
                                         central_fiber_complex,
                                         fourier_indices, lift_height,
                                         minimal_lift, star_cocycle,
                                         twisted_add)
from tropab.errors import NotQuasiperiodic
from tropab.exact_linalg import PolarizationType
from tropab.pavings_pwl import (ToricMonoid, affine_region_paving,
                                is_p_convex, quasiperiodic_decompose,
                                sigma_section)
from tropab.quadform_delaunay import (QuadraticForm, delaunay_subdivision,
                                      voronoi_cone_contains)
from tropab.siegel_trop import CuspSpec, SiegelPoint, gamma_action, tropicalize
from tropab.theta_heisenberg import (DegenerationData, HeisenbergElement,
                                     SchrodingerVector, degen_exponents,
                                     enumerate_balanced_set, heis_elements,
                                     kw_decompose,
                                     character_value_exp, mult_operator,
                                     CyclotomicInteger,
                                     power_map_kernel_check,
                                     schrodinger_action,
                                     section_valuation_profile, twist_data,
                                     twist_bilinear_form)

F = Fraction
RNG = np.random.default_rng(271828)


def _obj(m):
    return np.array(m, dtype=object)


I1 = _obj([[1]])
I2 = np.eye(2, dtype=object)


def criterion(n, name):
    def deco(fn):
        @wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print("\nACCEPTANCE %d (%s): FAIL" % (n, name))
                raise
            print("\nACCEPTANCE %d (%s): PASS" % (n, name))
        return wrapper
    return deco


def random_pd2(lo=1, hi=10):
    """Positive definite 2x2 form with integer entries in [lo, hi]."""
    while True:
        a, b, c = (int(RNG.integers(lo, hi + 1)) for _ in range(3))
        if a * b > c * c:
            return QuadraticForm(_obj([[a, c], [c, b]]))


# -- 1: the I3 family -------------------------------------------------------

@criterion(1, "three-torsion family is always I3")
def test_acceptance_1():
    start = time.monotonic()
    q = QuadraticForm(I1)
    pav = delaunay_subdivision(q, I1, 4)
    fiber = central_fiber_complex(pav, _obj([[3]]))
    assert fiber.component_count == 3
    assert {(i, j) for i, j, _ in fiber.incidences} == {(0, 1), (0, 2),
                                                        (1, 2)}
    _, ptype = fourier_indices(1, _obj([[3]]))
    assert ptype.diag == (3,)

    delta = PolarizationType((3,))
    sections = enumerate_balanced_set(delta, 6)
    assert len(sections) == 36
    phi = sigma_section(q, I1, 4)
    profiles = []
    for sec in sections:
        assert sorted(sec.coeffs) == [(0,), (1,), (2,)]
        assert not any(c.is_zero() for c in sec.coeffs.values())
        profiles.append(section_valuation_profile(sec, phi, _obj([[3]]), 3))
    assert all(p == profiles[0] for p in profiles[1:])
    assert profiles[0] == {(0,): F(0), (1,): F(1, 2), (2,): F(1, 2)}
    assert time.monotonic() - start < 5.0


# -- 2: Delaunay = affine regions of sigma ----------------------------------

@criterion(2, "Delaunay pavings are the affine regions of sigma")
def test_acceptance_2():
    start = time.monotonic()
    for _ in range(50):
        q = random_pd2()
        pav = delaunay_subdivision(q, I2, 6)
        s = sigma_section(q, I2, pav.window)
        assert affine_region_paving(s) == pav
        assert voronoi_cone_contains(pav, q)
    assert time.monotonic() - start < 30.0


# -- 3: sigma is linear -----------------------------------------------------

@criterion(3, "sigma is additive on a shared Delaunay cone")
def test_acceptance_3():
    pairs = []
    while len(pairs) < 20:
        q1 = random_pd2()
        pert = _obj([[int(RNG.integers(-2, 3)) for _ in range(2)]
                     for _ in range(2)])
        pert = pert + pert.T
        q2 = QuadraticForm(q1.matrix +
                           F(1, 100) * np.vectorize(F)(pert))
        if not q2.is_positive_definite():
            continue
        d1 = delaunay_subdivision(q1, I2, 6)
        d2 = delaunay_subdivision(q2, I2, 6)
        ds = delaunay_subdivision(q1 + q2, I2, 6)
        if d1 == d2 == ds:
            pairs.append((q1, q2))
    for q1, q2 in pairs:
        assert sigma_section(q1 + q2, I2, 6) == \
            sigma_section(q1, I2, 6) + sigma_section(q2, I2, 6)


# -- 4: tropicalization -----------------------------------------------------

def _random_tau(g):
    a = RNG.normal(size=(g, g))
    b = RNG.normal(size=(g, g))
    return SiegelPoint((a + a.T) / 2 + 1j * (b @ b.T + np.eye(g)))


@criterion(4, "tropicalization: Schur block vs full inverse, equivariance")
def test_acceptance_4():
    from oracles import trop_full_inverse
    for _ in range(50):
        for g in (2, 3):
            gp = int(RNG.integers(1, g))
            tau = _random_tau(g)
            tr = tropicalize(tau, CuspSpec(gp, PolarizationType((1,) * g)))
            ref = trop_full_inverse(tau.tau, gp)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(tr - ref)) <= 1e-10 * scale

    # stabilizer equivariance at the rank-1 cusp of g = 3
    w = np.array([[2, 1], [1, 1]])
    u = np.eye(3, dtype=int)
    u[1:, 1:] = w
    r = np.zeros((6, 6), dtype=int)
    r[:3, :3] = np.linalg.inv(u).T.round().astype(int)
    r[3:, 3:] = u
    principal = PolarizationType((1, 1, 1))
    cusp = CuspSpec(1, principal)
    winv = np.linalg.inv(w)
    for _ in range(20):
        tau = _random_tau(3)
        lhs = tropicalize(gamma_action(r, tau, principal), cusp)
        rhs = winv.T @ tropicalize(tau, cusp) @ winv
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


# -- 5: Heisenberg suite ----------------------------------------------------

@criterion(5, "finite Heisenberg groups and their representation")
def test_acceptance_5():
    start = time.monotonic()
    for diag in [(1,), (2,), (3,), (2, 2), (1, 3)]:
        delta = PolarizationType(diag)
        m = 2 * diag[-1]
        d = delta.degree
        els = list(heis_elements(delta, m))
        assert len(els) == m * d * d
        assert power_map_kernel_check(delta, m)

        indices = sorted(product(*[range(x) for x in diag]))
        basis = [SchrodingerVector.delta_function(delta, m, idx)
                 for idx in indices]
        duals = indices
        for g in els:
            for bp in duals:
                e = character_value_exp(g.w_image(), bp, delta, m)
                for v in basis:
                    lhs = mult_operator(bp, schrodinger_action(g, v))
                    rhs = schrodinger_action(g, mult_operator(bp, v)) \
                        .scaled(CyclotomicInteger.zeta_power(m, e))
                    assert lhs == rhs

        spaces = kw_decompose(delta, m)
        assert len(spaces) == d
        dims = {len(vecs) for _, vecs in spaces}
        assert dims == {1}
        # translations act transitively on the eigenspace indices
        for idx in indices:
            g = HeisenbergElement(0, tuple(-x for x in idx),
                                  (0,) * len(diag), delta, m)
            image = schrodinger_action(g, basis[0])
            assert sorted(image.coeffs) == [idx]
    assert time.monotonic() - start < 60.0


# -- 6: quasiperiodic round-trip --------------------------------------------

@criterion(6, "quasiperiodic samples decompose and reconstruct exactly")
def test_acceptance_6():
    for trial in range(30):
        r = 1 if trial % 2 == 0 else 2
        if r == 1:
            p = int(RNG.integers(1, 4))
            bmat = _obj([[int(RNG.integers(0, 7))]])
            lrow = (int(RNG.integers(-6, 7)),)
            per = {k: F(int(RNG.integers(-5, 6))) for k in range(p)}
            samples = {(x,): F(bmat[0, 0] * x * x, 2) + F(lrow[0] * x, 2)
                       + per[x % p] for x in range(-6, 7)}
            pb = _obj([[p]])
        else:
            p1, p2 = (int(RNG.integers(1, 3)) for _ in range(2))
            a, b, c = (int(RNG.integers(-3, 4)) for _ in range(3))
            bmat = _obj([[2 * a, c], [c, 2 * b]])
            lrow = tuple(2 * int(RNG.integers(-3, 4)) for _ in range(2))
            per = {(i, j): F(int(RNG.integers(-4, 5)))
                   for i in range(p1) for j in range(p2)}
            samples = {(x, y): F(a * x * x + c * x * y + b * y * y)
                       + F(lrow[0] * x + lrow[1] * y, 2)
                       + per[(x % p1, y % p2)]
                       for x in range(-3, 4) for y in range(-3, 4)}
            pb = _obj([[p1, 0], [0, p2]])
        dec = quasiperiodic_decompose(samples, pb)
        assert (dec.bilinear == dec.bilinear.T).all()
        assert (dec.bilinear == np.vectorize(F)(bmat)).all()
        for x, v in samples.items():
            assert dec.reconstruct(x) == v

    cubic = {(x,): F(x ** 3) for x in range(-5, 6)}
    with pytest.raises(NotQuasiperiodic):
        quasiperiodic_decompose(cubic, I1)


# -- 7: degeneration exponent identities ------------------------------------

@criterion(7, "period-action exponents satisfy the quadratic relations")
def test_acceptance_7():
    cases = []
    for trial in range(10):
        if trial % 2 == 0:
            diag = [(1,), (2,), (3,)][trial % 3]
            g = 1
        else:
            diag = [(1, 2), (2, 2), (1, 3)][trial % 3]
            g = 2
        dmat = _obj([[diag[i] if i == j else 0 for j in range(g)]
                     for i in range(g)])
        core = _obj([[int(RNG.integers(-3, 4)) for _ in range(g)]
                     for _ in range(g)])
        core = core + core.T
        qmat = np.vectorize(F)(dmat @ core @ dmat) / 2
        sx = _obj([[0] * g for _ in range(g)])
        for i in range(g):
            for j in range(i + 1, g):
                sx[i, j] = int(RNG.integers(-4, 5))
                sx[j, i] = -sx[i, j]
        data = DegenerationData(QuadraticForm(qmat), dmat @ core,
                                PolarizationType(diag), sx)
        cases.append((data, dmat, g))

    for data, dmat, g in cases:
        window = [p for p in product(range(-5, 6), repeat=g)]
        zero = (0,) * g
        a_of = {lam: degen_exponents(data, lam, zero)[0] for lam in window}
        at_of = {lam: twist_data(data, lam, zero)[0] for lam in window}
        for lam in window:
            for mu in window:
                s = tuple(x + y for x, y in zip(lam, mu))
                phi_mu = tuple(int((dmat @ _obj([[x] for x in mu]))[i, 0])
                               for i in range(g))
                b = degen_exponents(data, lam, phi_mu)[1]
                # the exponents of s are computed only off the window
                a_s = a_of[s] if s in a_of else \
                    degen_exponents(data, s, zero)[0]
                assert a_s == b + a_of[lam] + a_of[mu]
                # mod-2 twist analogue, and chi's bilinear form
                bsym = twist_bilinear_form(data, lam, mu)
                at_s = at_of[s] if s in at_of else \
                    twist_data(data, s, zero)[0]
                assert (at_s - at_of[lam] - at_of[mu]) % 2 == bsym
                assert twist_data(data, lam, phi_mu)[1] % 2 == bsym


# -- 8: the twisted monoid --------------------------------------------------

@criterion(8, "twisted monoid laws and free-basis decomposition")
def test_acceptance_8():
    phi = HomogenizedFunction(sigma_section(QuadraticForm(I1), I1, 4))
    els = [TwistedMonoidElement(0, (0,), (0,))]
    els += [TwistedMonoidElement(d, (x,), (0,))
            for d in (1, 2) for x in range(-4, 5)]
    for x in els:
        for y in els:
            assert twisted_add(x, y, phi) == twisted_add(y, x, phi)
    for x in els:
        for y in els:
            for z in els:
                assert twisted_add(twisted_add(x, y, phi), z, phi) == \
                    twisted_add(x, twisted_add(y, z, phi), phi)

    nat = ToricMonoid.nonnegative_orthant(1)
    # every element splits uniquely as minimal lift + degree-zero payload
    for d, x in [(d, x) for d in (1, 2) for x in range(-4, 5)]:
        for pay in (F(0), F(1), F(5, 2)):
            el = TwistedMonoidElement(d, (x,), (pay,))
            base = minimal_lift((d, (x,)), phi)
            unit = TwistedMonoidElement(0, (0,), (pay,))
            assert twisted_add(base, unit, phi) == el
            # the payload is pinned by the height, hence unique
            assert lift_height(el, phi) - lift_height(base, phi) == pay

    # curvature lands in P = N exactly when the base function is convex
    cocs = [star_cocycle((1, (a,)), (1, (b,)), phi)
            for a in range(-4, 5) for b in range(-4, 5)]
    assert all(nat.contains((c,)) for c in cocs)
    assert is_p_convex(phi.base, nat)
    concave = -1 * phi.base
    assert not is_p_convex(concave, nat)
    phi_neg = HomogenizedFunction(concave)
    assert any(not nat.contains(
        (star_cocycle((1, (a,)), (1, (a + 2,)), phi_neg),))
        for a in range(-3, 2))
