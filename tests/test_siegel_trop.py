"""Floating-point Siegel space: the symplectic action, the Cayley
transform, and tropicalization toward a cusp (Schur complement of the
imaginary part)."""

import numpy as np
import pytest

from tropab.errors import (DomainError, IllConditionedBlock,
                           NearSingularDenominator, NotSymplectic)
from tropab.exact_linalg import PolarizationType, standard_symplectic_form
from tropab.siegel_trop import (CuspSpec, SiegelPoint, cayley_transform,
                                gamma_action, tropicalize)

import oracles as O
from oracles import trop_full_inverse

RNG = np.random.default_rng(20240817)
PRINCIPAL = {g: PolarizationType((1,) * g) for g in (1, 2, 3)}


def random_tau(g):
    a = RNG.normal(size=(g, g))
    b = RNG.normal(size=(g, g))
    re = (a + a.T) / 2
    im = b @ b.T + np.eye(g)
    return SiegelPoint(re + 1j * im)


# -- SiegelPoint validation -------------------------------------------------

def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SiegelPoint(np.array([[1j, 1], [0, 1j]]))


def test_rejects_indefinite_imaginary_part():
    with pytest.raises(ValueError, match="positive definite"):
        SiegelPoint(np.array([[1 - 1j, 0], [0, 1j]]))
    with pytest.raises(ValueError):
        SiegelPoint(np.array([[0j, 0], [0, 1j]]))


# -- the symplectic action --------------------------------------------------

def test_inversion_at_g1():
    tau = SiegelPoint(np.array([[2j]]))
    s = np.array([[0, 1], [-1, 0]])
    out = gamma_action(s, tau, PRINCIPAL[1])
    assert abs(out.tau[0, 0] - (-1 / 2j)) < 1e-12


def test_translation_only_moves_the_real_part():
    tau = random_tau(2)
    b = np.array([[1, 2], [2, -1]])
    r = np.block([[np.eye(2, dtype=int), b],
                  [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)]])
    out = gamma_action(r, tau, PRINCIPAL[2])
    assert np.allclose(out.tau.real, tau.tau.real + b)
    assert np.allclose(out.tau.imag, tau.tau.imag)


def test_action_is_a_group_action():
    tau = random_tau(2)
    e = standard_symplectic_form(PRINCIPAL[2]).astype(int)
    r1 = np.block([[np.eye(2, dtype=int), np.array([[1, 0], [0, 2]])],
                   [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)]])
    r2 = e  # the symplectic "inversion"
    lhs = gamma_action(r1 @ r2, tau, PRINCIPAL[2])
    rhs = gamma_action(r1, gamma_action(r2, tau, PRINCIPAL[2]),
                       PRINCIPAL[2])
    assert np.allclose(lhs.tau, rhs.tau)


def test_action_rejects_non_symplectic():
    tau = random_tau(1)
    with pytest.raises(NotSymplectic, match="alternating"):
        gamma_action(np.array([[1, 1], [1, 1]]), tau, PRINCIPAL[1])
    with pytest.raises(NotSymplectic):
        gamma_action(np.eye(4, dtype=int), tau, PRINCIPAL[1])


def test_action_refuses_a_type_of_another_genus():
    with pytest.raises(ValueError, match="delta of length 2"):
        gamma_action(np.eye(2, dtype=int), random_tau(1), PRINCIPAL[2])


# tau_s = [[s, s], [s, s + 1]] + iI is in the Siegel space for every s,
# and J maps it to -tau_s^-1, whose imaginary part shrinks as s grows
J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


def far_tau(s):
    return SiegelPoint(np.array([[s, s], [s, s + 1]]) + 1j * np.eye(2))


@pytest.mark.parametrize("s", [1e5, 1e8])
def test_action_refuses_an_image_outside_the_binary64_siegel_space(s):
    """The input is valid; only the image's Im(tau) fails to be positive
    definite in binary64, which is a structured refusal on tau and not
    the ValueError of SiegelPoint."""
    with pytest.raises(IllConditionedBlock) as err:
        gamma_action(J, far_tau(s), PRINCIPAL[2])
    assert err.value.field == "tau"


def test_action_refuses_a_near_singular_denominator():
    with pytest.raises(NearSingularDenominator) as err:
        gamma_action(J, far_tau(1e10), PRINCIPAL[2])
    assert err.value.field == "tau"


def test_action_with_nonprincipal_type():
    # at g = 1 any determinant-one matrix preserves the scaled form,
    # but the type rescales the action: tau -> 2 (-tau)^{-1} 2
    t = PolarizationType((2,))
    r = np.array([[0, 1], [-1, 0]])
    tau = SiegelPoint(np.array([[0.5 + 1j]]))
    out = gamma_action(r, tau, t)
    assert abs(out.tau[0, 0] - (-4 / (0.5 + 1j))) < 1e-12


# -- Cayley transform -------------------------------------------------------

def test_cayley_center():
    z = cayley_transform(SiegelPoint(1j * np.eye(3)))
    assert np.allclose(z, 0)


def test_cayley_lands_in_the_bounded_domain():
    for g in (1, 2, 3):
        z = cayley_transform(random_tau(g))
        assert np.allclose(z, z.T)
        w = np.eye(g) - z @ np.conj(z)
        assert np.min(np.linalg.eigvalsh((w + w.T.conj()) / 2).real) > 0


@pytest.mark.parametrize("tau", [1e8 + 1e-8j, 1e9 + 1e-9j])
def test_cayley_refuses_a_point_too_close_to_the_boundary(tau):
    """In binary64 I - Z conj(Z) is not positive definite there."""
    with pytest.raises(IllConditionedBlock) as err:
        cayley_transform(SiegelPoint([[tau]]))
    assert err.value.field == "tau"


def test_cayley_refuses_a_near_singular_denominator():
    with pytest.raises(NearSingularDenominator) as err:
        cayley_transform(far_tau(1e11))
    assert err.value.field == "tau"


# -- tropicalization --------------------------------------------------------

def test_trop_at_the_identity_cusp_is_imag():
    tau = random_tau(3)
    tr = tropicalize(tau, CuspSpec(0, PRINCIPAL[3]))
    assert np.allclose(tr, tau.tau.imag)


def test_trop_frozen_2x2():
    tau = SiegelPoint(np.array([[2j, 1j], [1j, 2j]]))
    tr = tropicalize(tau, CuspSpec(1, PRINCIPAL[2]))
    # 2 - 1 * (1/2) * 1
    assert abs(tr[0, 0] - 1.5) < 1e-14


def test_trop_matches_full_inverse_oracle():
    for g, gp in [(2, 1), (3, 1), (3, 2)]:
        for _ in range(25):
            tau = random_tau(g)
            tr = tropicalize(tau, CuspSpec(gp, PRINCIPAL[g]))
            ref = trop_full_inverse(tau.tau, gp)
            assert np.max(np.abs(tr - ref)) < 1e-10 * max(
                1.0, np.max(np.abs(ref)))


def test_trop_is_positive_definite():
    for _ in range(10):
        tau = random_tau(3)
        tr = tropicalize(tau, CuspSpec(2, PRINCIPAL[3]))
        assert np.min(np.linalg.eigvalsh(tr)) > 0


def test_trop_invalid_cusp_rank():
    tau = random_tau(2)
    with pytest.raises(ValueError):
        tropicalize(tau, CuspSpec(2, PRINCIPAL[2]))


def test_trop_stabilizer_equivariance():
    """Block-diagonal stabilizer elements act on the cusp form by
    (u^T)^{-1} . u^{-1}."""
    g, gp = 3, 1
    w = np.array([[2, 1], [1, 1]])       # GL(2, Z)
    u = np.eye(3, dtype=int)
    u[1:, 1:] = w
    uinv = np.linalg.inv(u)
    r = np.block([[uinv.T.round().astype(int), np.zeros((3, 3), dtype=int)],
                  [np.zeros((3, 3), dtype=int), u]])
    cusp = CuspSpec(gp, PRINCIPAL[g])
    for _ in range(10):
        tau = random_tau(g)
        lhs = tropicalize(gamma_action(r, tau, PRINCIPAL[g]), cusp)
        tr = tropicalize(tau, cusp)
        winv = np.linalg.inv(w)
        rhs = winv.T @ tr @ winv
        assert np.max(np.abs(lhs - rhs)) < 1e-8


# -- non-finite input and the tolerance -------------------------------------

@pytest.mark.parametrize("entry", [complex("nan"), complex(0, float("inf")),
                                   complex(float("-inf"), 1)],
                         ids=["nan", "inf-imag", "inf-real"])
def test_rejects_a_non_finite_entry(entry):
    with pytest.raises(ValueError, match="finite entries"):
        SiegelPoint([[1j, entry], [entry, 1j]])


@pytest.mark.parametrize("tol", [0, -5, float("nan"), float("inf")])
def test_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        SiegelPoint([[1j]], tol=tol)


def test_tau_is_a_read_only_array_built_once():
    tau = SiegelPoint([[2j, 1], [1 + 1e-12, 3j]])
    assert tau.tau is tau.tau
    assert tau.tau.dtype == complex and not tau.tau.flags.writeable
    assert tau.tau[0, 1] == tau.tau[1, 0] == 1 + 5e-13
    with pytest.raises(ValueError):
        tau.tau[0, 0] = 1j


# -- the numpy maps of oracles.py as the reference --------------------------

EPS = np.finfo(float).eps


def random_symplectic(rng, g, length=5):
    """A word in generators of Sp(2g, Z): [[1, b], [0, 1]] for a
    symmetric integer b, [[u, 0], [0, u^-T]] for an elementary u, and
    the form J itself."""
    eye, zero = np.eye(g, dtype=int), np.zeros((g, g), dtype=int)
    out = np.eye(2 * g, dtype=int)
    for _ in range(length):
        kind = rng.integers(3)
        if kind == 0:
            b = np.triu(rng.integers(-2, 3, size=(g, g)))
            gen = np.block([[eye, b + np.triu(b, 1).T], [zero, eye]])
        elif kind == 1 and g > 1:
            i, j = rng.choice(g, 2, replace=False)
            u, uinv_t = eye.copy(), eye.copy()
            u[i, j] = rng.integers(-2, 3)
            uinv_t[j, i] = -u[i, j]
            gen = np.block([[u, zero], [zero, uinv_t]])
        else:
            gen = np.block([[zero, eye], [-eye, zero]])
        out = out @ gen
    return out


def _outcome(fn, *args):
    """The array a map returns, or the class of the error it raises."""
    try:
        out = fn(*args)
    except (ValueError, DomainError) as e:
        return type(e)
    return np.asarray(getattr(out, "tau", out))


class Agreement:
    """Compares one map's outcome with the reference's.  Values agree
    within 1e-12 scale, where the scale grows with the condition number
    kappa of the matrix the map inverts once 64 eps kappa passes 1e-12
    (two solvers of a system of condition kappa differ by about eps
    kappa).  Refusal classes agree, except near a threshold: where the
    reference's condition number is within 1e-4 relative of 1/tol, or
    where the value one side returned passes its positive definiteness
    test (the smallest Cholesky pivot of ``pd(value)`` against
    ``floor``) by no more than the rounding noise 64 eps kappa scale^2.
    Each exception is recorded by its label."""

    def __init__(self):
        self.cases = 0
        self.refused = set()
        self.at_the_condition_threshold = []
        self.at_the_pd_threshold = []

    def check(self, label, got, want, kappa, tol, pd, floor):
        self.cases += 1
        if isinstance(got, np.ndarray) and isinstance(want, np.ndarray):
            scale = max(1.0, float(np.max(np.abs(want))))
            bound = max(1e-12, 64 * EPS * kappa) * scale
            assert np.max(np.abs(got - want)) <= bound
            return
        if got is want:
            self.refused.add((label[0], want.__name__))
            return
        if abs(kappa * tol - 1) <= 1e-4:
            self.at_the_condition_threshold.append(label)
            return
        value = got if isinstance(got, np.ndarray) else want
        assert isinstance(value, np.ndarray), (got, want)
        noise = 64 * EPS * kappa * max(1.0, float(np.max(np.abs(value)))) ** 2
        assert O.min_cholesky_pivot_reference(pd(value)) <= floor + noise, \
            (got, want)
        self.at_the_pd_threshold.append(label)


def _compare_maps(tau_array, r, delta, gprime, agreement, label=None):
    """Run the three maps and their references on one tau; the checks
    are labelled (map, label)."""
    tau, ref = SiegelPoint(tau_array), O.SiegelPointReference(tau_array)
    g, tol = tau.g, tau.tol
    eye = np.eye(g)
    rf = np.asarray(r, dtype=float)
    dd = np.diag([float(x) for x in delta.diag])
    agreement.check(
        ("gamma", label), _outcome(gamma_action, r, tau, delta),
        _outcome(O.gamma_action_reference, r, ref, delta),
        np.linalg.cond(rf[g:, :g] @ ref.tau + rf[g:, g:] @ dd), tol,
        lambda new: new.imag, tol)
    agreement.check(
        ("cayley", label), _outcome(cayley_transform, tau),
        _outcome(O.cayley_transform_reference, ref),
        np.linalg.cond(ref.tau + 1j * eye), tol,
        lambda z: (eye - z @ np.conj(z)).real, 0.0)
    agreement.check(
        ("trop", label), _outcome(tropicalize, tau, CuspSpec(gprime, delta)),
        _outcome(O.tropicalize_reference, ref, gprime),
        np.linalg.cond(ref.tau.imag[:gprime, :gprime]) if gprime else 1.0,
        tol, lambda tr: tr, 0.0)


def _compare_on_random_tau(seed, re_scale, im_shift):
    """tau = s (a + a^T) / 2 + i (b b^T + t I) for normal a and b, with
    log10 s and -log10 t uniform in re_scale and im_shift, and a random
    word r, at g = 1, 2 and 3 and once at g = 4."""
    rng = np.random.default_rng(seed)
    agreement = Agreement()
    for g, count in [(1, 100), (2, 150), (3, 150), (4, 1)]:
        for k in range(count):
            a = rng.normal(size=(g, g)) * 10.0 ** rng.uniform(*re_scale)
            b = rng.normal(size=(g, g))
            im = b @ b.T + 10.0 ** -rng.uniform(*im_shift) * np.eye(g)
            _compare_maps((a + a.T) / 2 + 1j * im, random_symplectic(rng, g),
                          PolarizationType((1,) * g), rng.integers(g),
                          agreement, (g, k))
    assert agreement.cases == 3 * 401
    return agreement


def test_the_maps_agree_with_the_numpy_reference():
    agreement = _compare_on_random_tau(20261021, (0, 0), (1, 1))
    assert agreement.at_the_condition_threshold == []
    assert agreement.at_the_pd_threshold == []


def test_the_maps_agree_with_the_numpy_reference_when_ill_conditioned():
    """Real parts up to 1e11 and imaginary parts down to 1e-8 reach the
    positive definiteness refusals of gamma and cayley.  Where the Cayley
    image is within rounding noise of the boundary, the two
    implementations' boundary tests can differ; nothing else may."""
    agreement = _compare_on_random_tau(7, (0, 11), (0, 8))
    assert agreement.refused >= {("gamma", "IllConditionedBlock"),
                                 ("cayley", "IllConditionedBlock")}
    assert agreement.at_the_condition_threshold == []
    assert {m for m, _ in agreement.at_the_pd_threshold} <= {"cayley"}


def test_the_maps_agree_with_the_numpy_reference_far_from_the_cusp():
    """tau_s = [[s, s], [s, s + 1]] + iI for s from 1e4 to 1e12: the
    condition numbers grow like s, and for s past about 1e6 the smallest
    eigenvalue of I - Z conj(Z), about 1/s^2, is below the rounding
    noise of either implementation, which then decide the Cayley
    transform's boundary test by that noise."""
    agreement = Agreement()
    for s in 10.0 ** np.arange(4, 12.01, 0.25):
        _compare_maps(np.array([[s, s], [s, s + 1]]) + 1j * np.eye(2), J,
                      PRINCIPAL[2], 1, agreement, s)
    assert agreement.cases == 3 * 33
    assert agreement.refused == {("gamma", "IllConditionedBlock"),
                                 ("gamma", "NearSingularDenominator"),
                                 ("cayley", "IllConditionedBlock"),
                                 ("cayley", "NearSingularDenominator")}
    assert agreement.at_the_condition_threshold == []
    assert all(m == "cayley" and s >= 1e6
               for m, s in agreement.at_the_pd_threshold)
