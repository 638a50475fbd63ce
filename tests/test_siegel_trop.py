"""Floating-point Siegel space: the symplectic action, the Cayley
transform, and tropicalization toward a cusp (Schur complement of the
imaginary part)."""

import numpy as np
import pytest

from tropab.errors import (IllConditionedBlock, NearSingularDenominator,
                           NotSymplectic)
from tropab.exact_linalg import PolarizationType, standard_symplectic_form
from tropab.siegel_trop import (CuspSpec, SiegelPoint, cayley_transform,
                                gamma_action, tropicalize)

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
