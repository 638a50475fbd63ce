"""The benchmark's four workloads: pave, query, algebra and cli.

Each workload is a closed loop (one process, one client, sequential
ops, at most one child process at a time).  Its inputs come from the
seed alone, in rounds: ``round(i)`` returns the ops of round i, and
every round has the same composition (the seed picks the numbers, not
the mix), so runs on different seeds do the same kind of work.

``run(op, tr)`` is the timed part and calls ``tropab`` only through
``tr.call``; ``check(op, out, tr)`` runs outside the op span, compares
the result with an independent oracle from ``oracles`` and returns
None or the reason the op failed.
"""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np

import oracles as O
from tropab import cli
from tropab.degeneration_monoids import (HomogenizedFunction,
                                         TwistedMonoidElement,
                                         central_fiber_complex, twisted_add)
from tropab.errors import WindowTooSmall
from tropab.exact_linalg import (PolarizationType, hermite_normal_form,
                                 polarization_type, smith_normal_form,
                                 symplectic_normal_form)
from tropab.pavings_pwl import (affine_region_paving, legendre_transform,
                                sigma_section)
from tropab.quadform_delaunay import (QuadraticForm, delaunay_subdivision,
                                      voronoi_cone_contains)
from tropab.siegel_trop import (CuspSpec, SiegelPoint, gamma_action,
                                tropicalize)
from tropab.theta_heisenberg import (CyclotomicInteger, DegenerationData,
                                     HeisenbergElement, SchrodingerVector,
                                     character_value_exp, degen_exponents,
                                     heis_mul, mult_operator,
                                     power_map_kernel_check,
                                     schrodinger_action,
                                     section_valuation_profile, twist_data,
                                     twist_bilinear_form)

F = Fraction

# The pave window policy: try each window in turn, widening on
# WindowTooSmall; a refusal at the last window fails the op.  Rank 2
# goes from 4 straight to 16: a refused window-8 hull can take 20 s
# (the refusal path walks the whole window), while window 16 holds
# nearly every k <= 8 shear of these forms in about 0.3 s.
WINDOWS = {2: (4, 16), 3: (3, 4)}


def _obj(m):
    return np.array(m, dtype=object)


def _eye(r):
    return np.eye(r, dtype=object)


def _rng(seed, *key):
    return random.Random("%s:%s" % (seed, ":".join(map(str, key))))


# ---------------------------------------------------------------------------
# pave: Delaunay -> sigma -> affine regions -> Voronoi cone -> central fiber
# ---------------------------------------------------------------------------

def random_pd2(rng):
    """A positive definite 2x2 form with entries in [1, 10], drawn as in
    the acceptance tests."""
    while True:
        a, b, c = (rng.randint(1, 10) for _ in range(3))
        if a * b > c * c:
            return [[a, c], [c, b]]


def shear(q, k, transpose):
    """S^T Q S for S = [[1, k], [0, 1]] or its transpose."""
    s = [[1, 0], [k, 1]] if transpose else [[1, k], [0, 1]]
    return O.matmul(O.matmul(O.transpose(s), q), s)


def reduction_skew(q):
    """max |entry| of the unimodular V that Lagrange-reduces the 2x2
    form q (V^T Q V reduced): how far q is from a reduced form."""
    (a, b), (_, c) = q
    v = [[1, 0], [0, 1]]
    while not (abs(2 * b) <= a <= c):
        if c < a:
            a, c = c, a
            v = [row[::-1] for row in v]
            continue
        m = (2 * b + a) // (2 * a)          # nearest integer to b / a
        b, c = b - m * a, c - 2 * m * b + m * m * a
        v = [[row[0], row[1] - m * row[0]] for row in v]
    return max(abs(x) for row in v for x in row)


# Largest reduction skew in the timed stream: a base that is itself
# skewed can push a sheared form past it, so the base is redrawn.  From
# skew 3 on the package gets most forms wrong (see DIAGNOSTIC_FORMS).
MAX_SKEW = 2

# Forms the package gets wrong, run after the measurement of every pave
# run, untimed, and reported apart from the timed ops (a timed stream
# must have no failing ops).  Each is a shear by k of a random_pd2
# base; the comment gives what the package does with it.
DIAGNOSTIC_FORMS = (
    [[14, -25], [-25, 45]],     # wrong window-4 paving; sigma refuses it
    [[26, 7], [7, 2]],          # k=3: voronoi_cone_contains is False
    [[9, 32], [32, 116]],       # k=3: lattice point on a circumellipsoid
    [[110, 23], [23, 5]],       # k=4: voronoi_cone_contains is False
    [[10, 44], [44, 195]],      # k=4: lattice point inside one
    [[155, 27], [27, 5]],       # k=5: voronoi_cone_contains is False
    # k=6 and 8: window 4 refused after ~1.5 s, window 16 returns, and
    # voronoi_cone_contains is False
    [[54, 7], [7, 1]],
    [[152, 17], [17, 2]],
)


def skewed_pd2(rng, k):
    """A random_pd2 base sheared by k, with reduction skew <= MAX_SKEW."""
    while True:
        q = shear(random_pd2(rng), k, rng.random() < 0.5)
        if reduction_skew(q) <= MAX_SKEW:
            return q


def reduced_pd3(rng):
    """A reduced positive definite 3x3 form: |q_ij| <= q_ii / 2."""
    while True:
        d = [rng.randint(2, 8) for _ in range(3)]
        q = [[d[i] if i == j else 0 for j in range(3)] for i in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            lim = min(d[i], d[j]) // 2
            q[i][j] = q[j][i] = rng.randint(-lim, lim)
        if O.det(q) > 0 and O.det([row[:2] for row in q[:2]]) > 0:
            return q


class Pave:
    """The build path: a stream of positive definite forms, each taken
    through the window policy and the paving pipeline."""

    name = "pave"
    # Skews of the sheared rank-2 forms in one round of 31 ops, weighted
    # toward small k (see MAX_SKEW for the bases): ~90 ms at k = 0, 1
    # and ~110 ms at k = 2.  The one reduced rank-3 form per round takes
    # ~1 s, a quarter of the round; the p90 lies inside the k = 2 class.
    SKEWS = (0,) * 12 + (1,) * 10 + (2,) * 8
    RANK3_PER_ROUND = 1

    def __init__(self, seed):
        self.seed = seed

    def diagnostics(self):
        """The known-defective forms, as ops."""
        return [(q, _eye(2)) for q in DIAGNOSTIC_FORMS]

    def round(self, i):
        rng = _rng(self.seed, self.name, i)
        ops = []
        for k in self.SKEWS:
            q = skewed_pd2(rng, k)
            ops.append((q, _obj([[rng.randint(1, 3), 0], [0, 1]])))
        for _ in range(self.RANK3_PER_ROUND):
            q = reduced_pd3(rng)
            ops.append((q, _obj([[rng.randint(1, 2), 0, 0], [0, 1, 0],
                                 [0, 0, 1]])))
        rng.shuffle(ops)
        return ops

    def run(self, op, tr):
        qm, phi = op
        r = len(qm)
        q = QuadraticForm(_obj(qm))
        pb = _eye(r)
        pav = None
        for w in WINDOWS[r]:
            try:
                pav = tr.call("quadform_delaunay.delaunay_subdivision",
                              delaunay_subdivision, q, pb, w,
                              attrs={"sites": (2 * w + 1) ** r})
                break
            except WindowTooSmall:
                continue
        if pav is None:
            return None
        sigma = tr.call("pavings_pwl.sigma_section", sigma_section, q, pb,
                        pav.window)
        regions = tr.call("pavings_pwl.affine_region_paving",
                          affine_region_paving, sigma)
        contains = tr.call("quadform_delaunay.voronoi_cone_contains",
                           voronoi_cone_contains, pav, q)
        fiber = tr.call("degeneration_monoids.central_fiber_complex",
                        central_fiber_complex, pav, phi)
        return pav, sigma, regions, contains, fiber

    def check(self, op, out, tr):
        qm, phi = op
        if out is None:
            return "refused at the last window %d" % WINDOWS[len(qm)][-1]
        pav, sigma, regions, contains, fiber = out
        r = len(qm)
        cells = [c.vertices for c in pav.cells]
        why = O.check_delaunay(qm, O.rows(_eye(r)), cells)
        if why is not None:
            tr.count("quadform_delaunay.cert_rejects")
            return "Delaunay oracle: " + why
        if [c.vertices for c in sigma.paving.cells] != cells:
            return "sigma_section used a different paving"
        for c, (lin, const) in zip(sigma.paving.cells, sigma.cell_affines):
            for v in c.vertices:
                if sum(a * x for a, x in zip(lin[0], v)) + const[0] != \
                        O.qval(qm, v) / 2:
                    return "sigma is not Q/2 at vertex %r" % (v,)
        if [c.vertices for c in regions.cells] != cells:
            return "affine regions of sigma differ from the Delaunay cells"
        if contains is not True:
            return "voronoi_cone_contains(Del(q), q) is %r" % (contains,)
        index = abs(O.det(O.rows(phi)))
        if fiber.component_count != len(cells) * index:
            return "central fiber has %d components, expected %d" % (
                fiber.component_count, len(cells) * index)
        return None


# ---------------------------------------------------------------------------
# query: reads on fixed sigma functions
# ---------------------------------------------------------------------------

A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def reduced_pd2(rng):
    a = rng.randint(2, 9)
    c = rng.randint(a, 10)
    b = rng.randint(-(a // 2), a // 2)
    return [[a, b], [b, c]]


class Query:
    """The read path: point location and evaluation on fixed pavings,
    twisted-monoid sums, valuation profiles and a little Legendre."""

    name = "query"
    # (fixture, count) for evaluate ops in one round of 26 ops.  An
    # evaluate op reads sigma at four points: a lattice point, a wall
    # point, a point near the origin and one far out.  One point alone
    # costs 0.4-1.5 ms on a rank-2 fixture depending on its kind, so a
    # p50 read from single points moved with the mix of kinds around it;
    # a fixed set of four per op costs 2.5-3.5 ms.  The 6 "i1" evaluates
    # (~0.6 ms) lie below the p50 and 9 ops above 4 ms lie above it, so
    # it falls among the 2-3.5 ms ops (the rank-2 evaluates, the "i1"
    # triples and profiles and the Legendre op).  The 6 "hex" triples
    # (~9 ms) hold the p90 inside them.
    EVALS = (("i1", 6), ("hex", 2), ("q35", 2), ("basis", 1), ("a3", 1))
    TRIPLES = (("i1", 4), ("hex", 6))
    PROFILES = (("i1", 2), ("hex", 1))
    LEGENDRES = 1

    def __init__(self, seed):
        self.seed = seed
        # The fixtures are the same for every seed, so set-up does the
        # same work in every run; the seed picks only the ops.
        self.specs = {
            "i1": ([[1]], [[1]], 4),
            "hex": ([[2, 1], [1, 2]], [[1, 0], [0, 1]], 4),
            "q35": ([[3, 1], [1, 5]], [[1, 0], [0, 1]], 4),
            "basis": ([[2, 1], [1, 3]], [[2, 1], [0, 1]], 4),
            "a3": (A3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
        }
        self.sigma = {name: sigma_section(QuadraticForm(_obj(q)), _obj(pb), w)
                      for name, (q, pb, w) in self.specs.items()}
        self.phi = {name: HomogenizedFunction(self.sigma[name])
                    for name, _ in self.TRIPLES}
        self.oracle = None

    def prepare_checks(self):
        """Validate the fixture pavings and build the oracles from them."""
        self.oracle = {}
        for name, (q, pb, _) in self.specs.items():
            cells = [c.vertices for c in self.sigma[name].paving.cells]
            why = O.check_delaunay(q, pb, cells)
            if why is not None:
                return "fixture %s: %s" % (name, why)
            self.oracle[name] = O.SigmaOracle(q, pb, cells)
        self.oracle["i1"] = lambda x: O.interp_half_square(x[0])
        return None

    def _point(self, rng, name, kind):
        r = len(self.specs[name][0])
        if kind == 0:    # lattice point
            return tuple(F(rng.randint(-30, 30)) for _ in range(r))
        if kind == 1:    # wall point: midpoint of a cell edge, translated
            cells = self.sigma[name].paving.cells
            verts = rng.choice(cells).vertices
            a, b = rng.sample(verts, 2)
            t = [rng.randint(-10, 10) for _ in range(r)]
            return tuple(F(x + y, 2) + s for x, y, s in zip(a, b, t))
        span = 3 if kind == 2 else 60   # near the origin, or far out
        return tuple(F(rng.randint(-span * 4, span * 4), rng.randint(1, 4))
                     for _ in range(r))

    def _element(self, rng, r):
        return (rng.randint(1, 2), tuple(rng.randint(-4, 4) for _ in range(r)),
                (F(rng.randint(-4, 4), rng.randint(1, 2)),))

    def round(self, i):
        rng = _rng(self.seed, self.name, i)
        ops = []
        for name, n in self.EVALS:
            ops += [("evaluate", name, tuple(self._point(rng, name, kind)
                                             for kind in range(4)))
                    for _ in range(n)]
        for name, n in self.TRIPLES:
            r = len(self.specs[name][0])
            ops += [("assoc", name, tuple(self._element(rng, r)
                                          for _ in range(3)))
                    for _ in range(n)]
        for name, n in self.PROFILES:
            for _ in range(n):
                if name == "i1":
                    spec = ((3,), 6, [[3]], 3)
                else:
                    spec = ((2, 2), 4, [[2, 0], [0, 2]], 1)
                delta, m = spec[0], spec[1]
                exps = {idx: rng.randrange(m) for idx in
                        product(*[range(d) for d in delta])}
                ops.append(("profile", name, spec + (exps,)))
        ops += [("legendre", "i1", rng.randint(1, 3))
                for _ in range(self.LEGENDRES)]
        rng.shuffle(ops)
        return ops

    def run(self, op, tr):
        kind, name, arg = op
        f = self.sigma[name]
        if kind == "evaluate":
            return [tr.call("pavings_pwl.evaluate", f.evaluate, x)
                    for x in arg]
        if kind == "assoc":
            phi = self.phi[name]
            x, y, z = (TwistedMonoidElement(*e) for e in arg)

            def add(a, b):
                return tr.call("degeneration_monoids.twisted_add",
                               twisted_add, a, b, phi)
            return add(add(x, y), z), add(x, add(y, z))
        if kind == "profile":
            delta, m, pm, window, exps = arg
            section = SchrodingerVector(
                PolarizationType(delta), m,
                {idx: CyclotomicInteger.zeta_power(m, e)
                 for idx, e in exps.items()})
            return tr.call("theta_heisenberg.section_valuation_profile",
                           section_valuation_profile, section, f, _obj(pm),
                           window)
        return tr.call("pavings_pwl.legendre_transform", legendre_transform,
                       f, arg)

    def check(self, op, out, tr):
        kind, name, arg = op
        sig = self.oracle[name]
        if kind == "evaluate":
            for x, got in zip(arg, out):
                want = sig(x)
                if got != want:
                    return "sigma(%r) = %s, expected %s" % (x, got, want)
            return None
        if kind == "assoc":
            left, right = out
            if left != right:
                return "twisted_add is not associative on %r" % (arg,)
            d = sum(e[0] for e in arg)
            pt = tuple(sum(c) for c in zip(*(e[1] for e in arg)))
            pay = sum(e[2][0] for e in arg) + sum(
                O.homogenized(sig, e[0], e[1]) for e in arg) - \
                O.homogenized(sig, d, pt)
            if (left.degree, left.point, left.payload) != (d, pt, (pay,)):
                return "x+y+z = %r, expected (%d, %r, %s)" % (
                    left, d, pt, pay)
            return None
        if kind == "profile":
            delta, m, pm, window, exps = arg
            r = len(pm)
            want = {}
            for rep in product(*[range(pm[i][i]) for i in range(r)]):
                want[rep] = min(
                    sig([rep[i] + sum(pm[i][j] * k[j] for j in range(r))
                         for i in range(r)])
                    for k in product(range(-window, window + 1), repeat=r))
            return None if out == want else \
                "profile %r, expected %r" % (out, want)
        want = {(mu,): O.legendre_rank1(mu, arg)
                for mu in range(-arg, arg + 1)}
        return None if out == want else "Legendre %r, expected %r" % (
            out, want)


# ---------------------------------------------------------------------------
# algebra: normal forms, Heisenberg/exponent identities, Siegel space
# ---------------------------------------------------------------------------

def random_int_matrix(rng, n, lo=-9, hi=9):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if O.det(m) != 0:
            return m


def random_alternating(rng, n):
    while True:
        e = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                e[i][j] = rng.randint(-6, 6)
                e[j][i] = -e[i][j]
        if O.det(e) != 0:
            return e


def random_symplectic(rng, g):
    """An integral symplectic 2g x 2g matrix for the principal type: a
    product of unipotent, Levi and J generators."""
    eye = [[int(i == j) for j in range(g)] for i in range(g)]
    zero = [[0] * g for _ in range(g)]

    def block(a, b, c, d):
        return [ra + rb for ra, rb in zip(a, b)] + \
            [rc + rd for rc, rd in zip(c, d)]

    out = block(eye, zero, zero, eye)
    for _ in range(3):
        s = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                s[i][j] = s[j][i] = rng.randint(-2, 2)
        u = [row[:] for row in eye]
        i, j = rng.sample(range(g), 2)
        u[i][j] = rng.randint(-2, 2)
        uinv_t = O.transpose([row[:] for row in eye])
        uinv_t[j][i] = -u[i][j]          # (u^-1)^T for an elementary u
        gens = [block(eye, s, zero, eye), block(u, zero, zero, uinv_t),
                block(zero, eye, [[-x for x in row] for row in eye], zero)]
        out = O.matmul(out, rng.choice(gens))
    return out


def random_tau(rng, g):
    a = np.array([[rng.gauss(0, 1) for _ in range(g)] for _ in range(g)])
    b = np.array([[rng.gauss(0, 1) for _ in range(g)] for _ in range(g)])
    return (a + a.T) / 2 + 1j * (b @ b.T + np.eye(g))


class Algebra:
    """No pavings: exact normal forms, the Heisenberg and exponent
    identities, and the binary64 Siegel-space maps."""

    name = "algebra"
    LINALG = (("hnf", 3), ("hnf", 3), ("hnf", 4), ("snf", 3), ("snf", 3),
              ("snf", 4), ("symplectic", 4), ("symplectic", 4),
              ("symplectic", 6), ("poltype", 4), ("poltype", 6))
    DELTAS = ((2,), (3,), (2, 2), (1, 3), (2, 4))
    HEIS = 8
    EXPONENTS = 6
    TROP = ((2, 1), (3, 1), (3, 2))
    GAMMA = (2, 3, 3)
    # power_map_kernel_check costs ~50 ms against ~0.3 ms for the other
    # ops; once every 8 rounds keeps it near a quarter of the busy time.
    POWER_MAP_EVERY = 8

    def __init__(self, seed):
        self.seed = seed
        rng = _rng(seed, self.name, "cases")
        self.degen = [self._degen_case(rng, t) for t in range(6)]

    @staticmethod
    def _degen_case(rng, trial):
        """A DegenerationData as in acceptance 7: Q = d C d / 2 with C
        symmetric, phi_check = d C, S_xi skew."""
        g = 1 if trial % 2 == 0 else 2
        diag = [(1,), (2,), (3,)][trial % 3] if g == 1 else \
            [(1, 2), (2, 2), (1, 3)][trial % 3]
        dmat = [[diag[i] if i == j else 0 for j in range(g)]
                for i in range(g)]
        core = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                x = rng.randint(-3, 3)
                core[i][j] += x
                core[j][i] += x
        qmat = [[F(x, 2) for x in row]
                for row in O.matmul(O.matmul(dmat, core), dmat)]
        sx = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i + 1, g):
                sx[i][j] = rng.randint(-4, 4)
                sx[j][i] = -sx[i][j]
        data = DegenerationData(QuadraticForm(_obj(qmat)),
                                _obj(O.matmul(dmat, core)),
                                PolarizationType(diag), _obj(sx))
        return data, qmat, dmat, sx

    def round(self, i):
        rng = _rng(self.seed, self.name, i)
        ops = []
        for kind, n in self.LINALG:
            m = random_alternating(rng, n) if kind in ("symplectic",
                                                       "poltype") \
                else random_int_matrix(rng, n)
            ops.append((kind, m))
        for _ in range(self.HEIS):
            diag = rng.choice(self.DELTAS)
            m = 2 * diag[-1]

            def el():
                return (rng.randrange(m),
                        tuple(rng.randrange(d) for d in diag),
                        tuple(rng.randrange(d) for d in diag))
            k = tuple(rng.randrange(d) for d in diag)
            bp = tuple(rng.randrange(d) for d in diag)
            ops.append(("heisenberg", (diag, m, el(), el(), bp, k)))
        for _ in range(self.EXPONENTS):
            case = rng.randrange(len(self.degen))
            g = len(self.degen[case][1])
            lam = tuple(rng.randint(-5, 5) for _ in range(g))
            mu = tuple(rng.randint(-5, 5) for _ in range(g))
            ops.append(("exponents", (case, lam, mu)))
        for g, gp in self.TROP:
            ops.append(("trop", (random_tau(rng, g), gp)))
        for g in self.GAMMA:
            ops.append(("gamma", (random_tau(rng, g),
                                  random_symplectic(rng, g))))
        if i % self.POWER_MAP_EVERY == 0:
            ops.append(("power_map", (2,)))
        rng.shuffle(ops)
        return ops

    def run(self, op, tr):
        kind, arg = op
        if kind in ("hnf", "snf", "symplectic", "poltype"):
            fn = {"hnf": hermite_normal_form, "snf": smith_normal_form,
                  "symplectic": symplectic_normal_form,
                  "poltype": polarization_type}[kind]
            return tr.call("exact_linalg.normal_forms", fn, _obj(arg))
        if kind == "heisenberg":
            diag, m, x, y, bp, k = arg
            delta = PolarizationType(diag)

            def heis(fn, *a):
                return tr.call("theta_heisenberg.heisenberg", fn, *a)
            g = heis(heis_mul, HeisenbergElement(*x, delta, m),
                     HeisenbergElement(*y, delta, m), delta, m)
            v = SchrodingerVector.delta_function(delta, m, k)
            e = heis(character_value_exp, g.w_image(), bp, delta, m)
            lhs = heis(mult_operator, bp, heis(schrodinger_action, g, v))
            rhs = heis(schrodinger_action, g, heis(mult_operator, bp, v))
            rhs = rhs.scaled(CyclotomicInteger.zeta_power(m, e))
            return g, lhs, rhs
        if kind == "exponents":
            case, lam, mu = arg
            data, _, dmat, _ = self.degen[case]
            g = len(lam)
            zero = (0,) * g
            s = tuple(a + b for a, b in zip(lam, mu))
            phi_mu = tuple(dmat[i][i] * mu[i] for i in range(g))

            def ex(fn, *a):
                return tr.call("theta_heisenberg.exponents", fn, data, *a)
            return {"a": [ex(degen_exponents, v, zero)[0]
                          for v in (lam, mu, s)],
                    "b": ex(degen_exponents, lam, phi_mu)[1],
                    "at": [ex(twist_data, v, zero)[0] for v in (lam, mu, s)],
                    "bsym": ex(twist_bilinear_form, lam, mu),
                    "bt": ex(twist_data, lam, phi_mu)[1]}
        if kind == "trop":
            tau, gp = arg
            g = tau.shape[0]
            pt = tr.call("siegel_trop", SiegelPoint, tau)
            return tr.call("siegel_trop", tropicalize, pt,
                           CuspSpec(gp, PolarizationType((1,) * g)))
        if kind == "gamma":
            tau, r = arg
            g = tau.shape[0]
            pt = tr.call("siegel_trop", SiegelPoint, tau)
            return tr.call("siegel_trop", gamma_action, _obj(r), pt,
                           PolarizationType((1,) * g)).tau
        return tr.call("theta_heisenberg.power_map_kernel_check",
                       power_map_kernel_check, PolarizationType(arg),
                       2 * arg[-1])

    def check(self, op, out, tr):
        kind, arg = op
        if kind == "hnf":
            return O.check_hnf(arg, *out)
        if kind == "snf":
            return O.check_snf(arg, *out)
        if kind == "symplectic":
            return O.check_symplectic(arg, out.type.diag, out.basis_change)
        if kind == "poltype":
            return O.check_poltype(arg, list(out.diag))
        if kind == "heisenberg":
            diag, m, x, y, bp, k = arg
            g, lhs, rhs = out
            want = O.heis_product(x, y, diag, m)
            if (g.scalar_exp, g.a, g.b) != want:
                return "heis_mul gave %r, expected %r" % (g, want)
            if lhs != rhs:
                return "T_b S_g != chi(b) S_g T_b"
            idx, e1 = O.schrodinger_on_delta(want, k, diag, m)
            e2 = O.mult_on_delta(bp, idx, diag, m)[1]
            expect = {idx: CyclotomicInteger.zeta_power(m, e1 + e2)}
            return None if lhs.coeffs == expect else \
                "T_b S_g e_k has the wrong coefficients"
        if kind == "exponents":
            case, lam, mu = arg
            _, qmat, dmat, sx = self.degen[case]
            g = len(lam)
            s = tuple(a + b for a, b in zip(lam, mu))
            a = [O.degen_a(qmat, v) for v in (lam, mu, s)]
            b = 2 * sum(lam[i] * qmat[i][j] * mu[j]
                        for i in range(g) for j in range(g))
            sp = [[(sx[i][j] % 2) if i != j else 0 for j in range(g)]
                  for i in range(g)]
            sp = [[sp[min(i, j)][max(i, j)] for j in range(g)]
                  for i in range(g)]
            at = [F(-O.qval(sp, v), 2) % 2 for v in (lam, mu, s)]
            bsym = O.twist_bilinear(sp, lam, mu)
            bt = F(-sum(lam[i] * sx[i][j] * mu[j]
                        for i in range(g) for j in range(g))) % 2
            if out["a"] != a or out["b"] != b:
                return "degen exponents %r, expected a=%r b=%s" % (out, a, b)
            if a[2] != b + a[0] + a[1]:
                return "a(l+m) != b + a(l) + a(m)"
            if out["at"] != at or out["bsym"] != bsym or out["bt"] != bt:
                return "twist exponents %r, expected a'=%r bsym=%s b'=%s" % (
                    out, at, bsym, bt)
            if (at[2] - at[0] - at[1]) % 2 != bsym:
                return "twist quadratic relation fails"
            return None
        if kind == "trop":
            tau, gp = arg
            want = O.trop_full_inverse(tau, gp)
            return None if O.close(out, want) else \
                "tropicalize differs from the full-inverse route"
        if kind == "gamma":
            tau, r = arg
            want = O.gamma_by_solve(r, tau, (1,) * tau.shape[0])
            return None if O.close(out, want, 1e-9) else \
                "gamma_action differs from the solve route"
        return None if out is True else "power_map_kernel_check is False"


# ---------------------------------------------------------------------------
# cli: python -m tropab.cli subprocess calls
# ---------------------------------------------------------------------------

def _dump(doc):
    return json.dumps(doc)


def _cli_cases(rng):
    """(label, stages); a stage is (command, args, input builder, exit
    code).  A builder maps the previous stage's stdout to this stage's
    stdin text, so piped stages consume what the CLI really printed."""
    def const(doc):
        return lambda prev: _dump(doc)

    def small(n, lo=-6, hi=6):
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


    q2 = reduced_pd2(rng)
    q1 = [[rng.randint(1, 3)]]
    sig1 = ("sigma", [], const({"q": q1}), 0)
    del2 = ("delaunay", [], const({"q": q2}), 0)
    diag = rng.choice(((2,), (3,), (2, 2)))
    m = 2 * diag[-1]

    def el():
        return [rng.randrange(m), [rng.randrange(d) for d in diag],
                [rng.randrange(d) for d in diag]]
    degen = {"q": [[1]], "phi_check": [[2]], "d_type": [1], "s_xi": [[0]],
             "lambda": [rng.randint(-4, 4)], "alpha": [rng.randint(-4, 4)]}
    samples = [[[x], "%d/2" % (x * x)] for x in range(-5, 6)]
    scale = rng.randint(1, 3)
    g = rng.choice((2, 3))
    tau = random_tau(rng, g)
    tau_json = [[[float(tau[i, j].real), float(tau[i, j].imag)]
                 for j in range(g)] for i in range(g)]

    def with_function(key, extra):
        return lambda prev: _dump(dict(extra, **{key: json.loads(prev)}))

    def with_paving(extra):
        return with_function("paving", extra)

    return [
        ("hnf", [("hnf", [], const({"matrix": small(3)}), 0)]),
        ("snf", [("snf", [], const({"matrix": small(3)}), 0)]),
        ("symplectic", [("symplectic", [], const(
            {"matrix": random_alternating(rng, 4)}), 0)]),
        ("poltype", [("poltype", [], const({"matrix": [[rng.randint(1, 4), 0],
                                                       [0, rng.randint(1, 6)]]
                                            }), 0)]),
        ("glxy", [("glxy", [], const({"u": [[1, rng.randint(-2, 2)], [0, 1]],
                                      "q": q2, "y_basis": [[1, 0], [0, 1]]}),
                   0)]),
        ("delaunay>voronoi-cone",
         [del2, ("voronoi-cone", [], with_paving({"q": q2}), 0)]),
        ("delaunay>fiber",
         [del2, ("fiber", [], with_paving(
             {"phi_image_basis": [[rng.randint(1, 3), 0], [0, 1]]}), 0)]),
        ("sigma>bend", [sig1, ("bend", [], with_function("function", {}), 0)]),
        ("sigma>legendre",
         [sig1, ("legendre", [], with_function(
             "function", {"window": rng.randint(1, 3)}), 0)]),
        ("sigma>monoid-add",
         [sig1, ("monoid-add", [], with_function("function", {
             "x": {"degree": 1, "point": [rng.randint(-3, 3)],
                   "payload": ["0"]},
             "y": {"degree": 1, "point": [rng.randint(-3, 3)],
                   "payload": ["1/2"]}}), 0)]),
        ("sigma>face",
         [sig1, ("face", [], with_function("function", {
             "monoid": {"rank": 1, "functionals": [[1]]},
             "face_functionals": [[1]]}), 0)]),
        ("delaunay>cy-cone",
         [("delaunay", [], const({"q": [[1]]}), 0),
          ("cy-cone", [], with_paving({"samples": samples,
                                       "period_basis": [[1]]}), 0)]),
        ("qp-decompose", [("qp-decompose", [], const(
            {"samples": [[[x], str(scale * x * x)] for x in range(-4, 5)],
             "period_basis": [[1]]}), 0)]),
        ("fourier", [("fourier", [], const(
            {"rank": 1, "phi_map": [[rng.randint(2, 5)]]}), 0)]),
        ("gamma", [("gamma", [], const(
            {"tau": tau_json, "r": random_symplectic(rng, g),
             "delta": [1] * g}), 0)]),
        ("cayley", [("cayley", [], const({"tau": tau_json}), 0)]),
        ("trop", [("trop", [], const({"tau": tau_json,
                                      "gprime": rng.randint(1, g - 1)}), 0)]),
        ("heis", [("heis", [], const({"delta": list(diag), "modulus": m,
                                      "x": el(), "y": el()}), 0)]),
        ("kw", [("kw", [], const({"delta": list(diag)}), 0)]),
        ("balanced", [("balanced", [], const({"delta": [2], "modulus": 4}),
                       0)]),
        ("degen", [("degen", [], const(degen), 0)]),
        ("twist", [("twist", [], const(degen), 0)]),
        ("profile", [("profile", [], const(
            {"delta": [3], "modulus": 6,
             "section": [[[k], rng.randrange(6)] for k in range(3)],
             "q": [[1]], "phi_map": [[3]]}), 0)]),
        ("delaunay:text", [("delaunay", ["--format", "text"],
                            const({"q": q2}), 0)]),
        ("exit1:symplectic", [("symplectic", [], const(
            {"matrix": [[1, 2], [-2, 0]]}), 1)]),
        ("exit1:delaunay", [("delaunay", [], const(
            {"q": [[1, 2], [2, 1]]}), 1)]),
        ("exit1:gamma", [("gamma", [], const(
            {"tau": [[[0, 1]]], "r": [[1, 1], [1, 1]], "delta": [1]}), 1)]),
        ("exit2:json", [("snf", [], lambda prev: "this is not json", 2)]),
        ("exit2:key", [("snf", [], const({"wrong_key": [[1]]}), 2)]),
        ("exit2:rational", [("delaunay", [], const({"q": [["1/0"]]}), 2)]),
        ("exit2:toplevel", [("hnf", [], lambda prev: "[1, 2, 3]", 2)]),
    ]


class Cli:
    """Process start: each op is one ``python -m tropab.cli`` call."""

    name = "cli"

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cases = _cli_cases(_rng(seed, self.name, "cases"))
        self._prev = None

    def round(self, i):
        """Every case once, in a seeded order; a pipe's stages are
        consecutive ops."""
        cases = self.cases[:]
        _rng(self.seed, self.name, "order", i).shuffle(cases)
        return [(label, s, stage) for label, stages in cases
                for s, stage in enumerate(stages)]

    def _spawn(self, command, args, text):
        p = subprocess.run([sys.executable, "-m", "tropab.cli", command,
                            *args], input=text.encode(), capture_output=True,
                           cwd=str(self.root), env=self.env, timeout=60)
        return p.returncode, p.stdout

    @staticmethod
    def _inproc(command, args, text):
        out, err = io.StringIO(), io.StringIO()
        try:
            code = cli.main([command, *args], stdin=io.StringIO(text),
                            stdout=out, stderr=err)
        except SystemExit as e:
            code = e.code
        return code, out.getvalue().encode()

    def run(self, op, tr):
        _, s, (command, args, build, _) = op
        text = build(self._prev if s else None)
        code, stdout = tr.call("cli.spawn", self._spawn, command, args, text)
        self._prev = stdout.decode()
        return code, stdout, text

    def check(self, op, out, tr):
        label, _, (command, args, _, want_code) = op
        code, stdout, text = out
        if code != want_code:
            return "%s exited %r, expected %d" % (label, code, want_code)
        _, want = tr.call("cli.inproc", self._inproc, command, args, text)
        if stdout != want:
            return "%s stdout differs from in-process tropab.cli.main" % label
        return None
