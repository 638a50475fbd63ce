"""Finite Heisenberg groups, the Schroedinger representation over exact
cyclotomic integers, balanced theta sections and their exact valuation
profiles, and the degeneration/twist exponent data.

Phi_M is built from the radical of M, the balanced set is listed by
exponent pattern, and exponents are integer sums over plain tuples.
Matrices are read once into int rows, arrays built on first access."""

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import prod

from . import _geometry as geom
from .errors import (BadLift, BadModulus, BadTwistPair, EmptyComponent,
                     InconsistentData, RankMismatch, TooLarge)
from .exact_linalg import (MAX_WINDOW_POINTS, ObjectMatrix, PolarizationType,
                           Record, _hnf_rows, coset_representatives,
                           read_matrix)


# ---------------------------------------------------------------------------
# exact cyclotomic integers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int):
    """Coefficients (ascending) of Phi_m(x) = Phi_n(x^(m/n)), n = rad(m).
    For n > 1, Phi_n is the product of the (1 - x^d)^mu(n/d), d | n, as a
    power series cut at degree phi(n) (the signs of (x^d - 1)^mu(n/d)
    agree, as the mu(n/d) sum to 0)."""
    primes, degree = _cyclotomic_degree(m)
    if m == 1:
        return (-1, 1)
    step = m // prod(primes)
    series = [1] + [0] * (degree // step)
    divisors = [(m // step, 1)]          # (d, mu(n / d))
    for p in primes:
        divisors += [(d // p, -mu) for d, mu in divisors]
    for d, mu in divisors:               # times 1 - x^d, or over it
        for i in (range(len(series) - 1, d - 1, -1) if mu > 0
                  else range(d, len(series))):
            series[i] -= mu * series[i - d]
    out = [0] * (degree + 1)
    out[::step] = series
    return tuple(out)


@lru_cache(maxsize=None)
def _cyclotomic_degree(m):
    """(the primes dividing m, phi(m)).  A phi(m) over MAX_WINDOW_POINTS
    is refused, with TooLarge on the field ``modulus``.  Trial division
    stops past MAX_WINDOW_POINTS + 1: a rest whose primes are all larger
    has phi over the limit, and is refused as if it were one prime."""
    primes, rest, p = [], m, 2
    while p * p <= rest and p <= MAX_WINDOW_POINTS + 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    primes += [rest] if rest > 1 else []
    degree = m // prod(primes) * prod(p - 1 for p in primes)
    if degree > MAX_WINDOW_POINTS:
        raise TooLarge("the cyclotomic polynomial of order %d has degree "
                       "phi(%d) > %d" % (m, m, MAX_WINDOW_POINTS),
                       field="modulus")
    return tuple(primes), degree


class CyclotomicInteger:
    """An element of Z[zeta_m], stored reduced modulo the m-th
    cyclotomic polynomial: phi(m) coefficients.  Phi_m is built only
    when there are more coefficients than that to reduce."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        self.m = int(m)
        deg = _cyclotomic_degree(self.m)[1]
        cs = list(map(int, coeffs))
        if len(cs) > deg:
            phi = cyclotomic_polynomial(self.m)
            for i in range(len(cs) - 1, deg - 1, -1):
                c = cs[i]
                if c:
                    for j in range(len(phi)):
                        cs[i - deg + j] -= c * phi[j]
        self.coeffs = tuple(cs[:deg]) + (0,) * (deg - len(cs))

    @staticmethod
    def one(m):
        return CyclotomicInteger(m, [1])

    @staticmethod
    def zeta_power(m, k):
        k = int(k) % m
        return CyclotomicInteger(m, [0] * k + [1])

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def _check_ring(self, other):
        if self.m != other.m:
            raise ValueError("cyclotomic integers of orders %d and %d"
                             % (self.m, other.m))

    def __add__(self, other):
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        return CyclotomicInteger(self.m,
                                 [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return CyclotomicInteger(self.m, [-x for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.m,
                                     [other * x for x in self.coeffs])
        self._check_ring(other)
        out = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return CyclotomicInteger(self.m, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, CyclotomicInteger)
                and self.m == other.m and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __repr__(self):
        return "CyclotomicInteger(%d, %r)" % (self.m, list(self.coeffs))


def _zeta_powers(m):
    """zeta^0 ... zeta^(m-1): zeta^(e+1) is x zeta^e, which the constructor
    reduces in one step modulo Phi_m, so m phi(m) steps in all."""
    power = CyclotomicInteger.one(m)
    for _ in range(m):
        yield power
        power = CyclotomicInteger(m, (0,) + power.coeffs)


# ---------------------------------------------------------------------------
# the finite Heisenberg group
# ---------------------------------------------------------------------------

def _check_modulus(delta: PolarizationType, m: int):
    """Refuse, with BadModulus, an empty delta (field ``delta``) and a
    modulus that is not a positive multiple of 2 d_g (field
    ``modulus``)."""
    if not delta.diag:
        raise BadModulus("delta is empty", field="delta")
    if m <= 0 or m % (2 * delta.diag[-1]) != 0:
        raise BadModulus("modulus %d is not a positive multiple of 2*%d"
                         % (m, delta.diag[-1]), field="modulus")


def _reduce_tuple(vals, delta):
    return tuple(int(v) % d for v, d in zip(vals, delta.diag))


class HeisenbergElement(Record):
    """(zeta-exponent t mod M; a in H(delta); b in the dual, stored as
    an exponent tuple also reduced mod delta)."""

    scalar_exp: int
    a: tuple
    b: tuple
    delta: PolarizationType
    modulus: int

    def __init__(self, scalar_exp, a, b, delta, modulus):
        _check_modulus(delta, modulus)
        g = len(delta.diag)
        if (len(a), len(b)) != (g, g):
            field = "a" if len(a) != g else "b"
            raise RankMismatch("%s must have length %d" % (field, g),
                               field=field)
        self.__dict__["scalar_exp"] = int(scalar_exp) % modulus
        self.__dict__["a"] = _reduce_tuple(a, delta)
        self.__dict__["b"] = _reduce_tuple(b, delta)
        self.__dict__["delta"] = delta
        self.__dict__["modulus"] = modulus

    @staticmethod
    def identity(delta, m):
        g = len(delta.diag)
        return HeisenbergElement(0, (0,) * g, (0,) * g, delta, m)

    def inverse(self):
        t = -self.scalar_exp + _pairing_exp(self.b, self.a, self.delta,
                                            self.modulus)
        return HeisenbergElement(t, tuple(-x for x in self.a),
                                 tuple(-x for x in self.b),
                                 self.delta, self.modulus)

    def w_image(self):
        """The K2-hat class translated by this element."""
        return _reduce_tuple(tuple(-x for x in self.a), self.delta)


def _pairing_exp(b, a, delta, m):
    """<b, a>_M = sum b_i a_i (M / delta_i), the commutator pairing
    exponent scaled into Z/M."""
    return sum(int(bi) * int(ai) * (m // di)
               for bi, ai, di in zip(b, a, delta.diag)) % m


def heis_mul(x: HeisenbergElement, y: HeisenbergElement,
             delta: PolarizationType, m: int) -> HeisenbergElement:
    """(t, a, b)(t', a', b') = (t + t' + <b', a>_M, a + a', b + b').

    This is the cocycle under which the Schroedinger formula
    (S_(t,a,b) f)(x) = zeta^t zeta^(<b,x>) f(x+a) is a homomorphism.
    """
    _check_modulus(delta, m)
    if (x.delta, x.modulus) != (delta, m) or \
            (y.delta, y.modulus) != (delta, m):
        raise ValueError("factors must lie in H(%r) mod %d"
                         % (delta.diag, m))
    t = x.scalar_exp + y.scalar_exp + _pairing_exp(y.b, x.a, delta, m)
    return HeisenbergElement(t, geom.vadd(x.a, y.a), geom.vadd(x.b, y.b),
                             delta, m)


def heis_elements(delta: PolarizationType, m: int):
    _check_modulus(delta, m)
    idx = list(product(*[range(d) for d in delta.diag]))
    for t, a, b in product(range(m), idx, idx):
        yield HeisenbergElement(t, a, b, delta, m)


def heis_pow(g: HeisenbergElement, n: int, delta: PolarizationType,
             m: int) -> HeisenbergElement:
    """g^n for n >= 0 in closed form: the k-th factor of the product
    adds <b, k a>_M, so g^n = (n t + C(n, 2) <b, a>_M, n a, n b)."""
    _check_modulus(delta, m)
    if (g.delta, g.modulus) != (delta, m):
        raise ValueError("element must lie in H(%r) mod %d"
                         % (delta.diag, m))
    t = n * g.scalar_exp + n * (n - 1) // 2 * _pairing_exp(g.b, g.a,
                                                           delta, m)
    return HeisenbergElement(t, tuple(n * x for x in g.a),
                             tuple(n * x for x in g.b), delta, m)


def power_map_kernel_check(delta: PolarizationType, m: int) -> bool:
    """g^M = 1 for every element g of H(delta) mod M, checked on each
    element once.  Products need no pass of their own: every product gh
    is an element, so (gh)^M = 1 too.  A group of more than
    MAX_WINDOW_POINTS elements (M |delta|^2 of them) is refused, with
    TooLarge on the field ``delta``, before any element is built."""
    _check_modulus(delta, m)
    order = m * delta.degree ** 2
    if order > MAX_WINDOW_POINTS:
        raise TooLarge("H(%r) mod %d has %d elements, more than %d"
                       % (delta.diag, m, order, MAX_WINDOW_POINTS),
                       field="delta")
    ident = HeisenbergElement.identity(delta, m)
    return all(heis_pow(g, m, delta, m) == ident
               for g in heis_elements(delta, m))


# ---------------------------------------------------------------------------
# the Schroedinger representation
# ---------------------------------------------------------------------------

class SchrodingerVector:
    """A vector in the d-dimensional representation: finitely many
    cyclotomic coefficients indexed by H(delta)."""

    def __init__(self, delta: PolarizationType, m: int, coeffs=None):
        _check_modulus(delta, m)
        self.delta = delta
        self.modulus = m
        self.coeffs = {}
        for k, v in (coeffs or {}).items():
            if isinstance(v, int):
                v = CyclotomicInteger(m, [v])
            if not v.is_zero():
                self.coeffs[_reduce_tuple(k, delta)] = v

    @staticmethod
    def delta_function(delta, m, index):
        return SchrodingerVector(delta, m, {tuple(index): 1})

    def __add__(self, other):
        out = dict(self.coeffs)      # the constructor drops zero sums
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return SchrodingerVector(self.delta, self.modulus, out)

    def scaled(self, c: CyclotomicInteger):
        return SchrodingerVector(self.delta, self.modulus,
                                 {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, SchrodingerVector)
                and self.delta == other.delta
                and self.modulus == other.modulus
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "SchrodingerVector(%r)" % (sorted(self.coeffs),)


def schrodinger_action(g: HeisenbergElement,
                       v: SchrodingerVector) -> SchrodingerVector:
    """(S_g v)(x) = zeta^t zeta^{<b, x>_M} v(x + a)."""
    if (g.delta, g.modulus) != (v.delta, v.modulus):
        raise ValueError("element and vector of different Heisenberg groups")
    m = v.modulus
    out = {}
    for x, c in v.coeffs.items():
        # contribution lands at index x - a
        y = _reduce_tuple(geom.vsub(x, g.a), g.delta)
        e = (g.scalar_exp + _pairing_exp(g.b, y, g.delta, m)) % m
        z = CyclotomicInteger.zeta_power(m, e) * c
        acc = out.get(y)
        out[y] = z if acc is None else acc + z
    return SchrodingerVector(v.delta, m, out)


def mult_operator(bprime, v: SchrodingerVector) -> SchrodingerVector:
    """The K2-model operator: multiplication by the character
    x -> zeta^{<bprime, x>_M}."""
    m = v.modulus
    out = {x: CyclotomicInteger.zeta_power(
        m, _pairing_exp(bprime, x, v.delta, m)) * c
        for x, c in v.coeffs.items()}
    return SchrodingerVector(v.delta, m, out)


def character_value_exp(alpha, bprime, delta, m):
    """Exponent of chi_alpha(bprime) in the Heisenberg relation
    T_b S_g = chi_{w(g)}(b) S_g T_b."""
    return _pairing_exp(bprime, alpha, delta, m)


def kw_decompose(delta: PolarizationType, m: int):
    """Joint eigenspaces of the multiplication operators of the
    multiplicative K2 model: one line per H(delta) index (the
    maximal-degeneration K2 has d characters, each eigenspace spanned by
    a delta function).  More than MAX_WINDOW_POINTS lines are refused,
    with TooLarge on the field ``delta``, before any is built."""
    _check_modulus(delta, m)
    if delta.degree > MAX_WINDOW_POINTS:
        raise TooLarge("H(%r) has %d indices, more than %d"
                       % (delta.diag, delta.degree, MAX_WINDOW_POINTS),
                       field="delta")
    return [(idx, [SchrodingerVector.delta_function(delta, m, idx)])
            for idx in product(*[range(d) for d in delta.diag])]


# ---------------------------------------------------------------------------
# balanced sections
# ---------------------------------------------------------------------------

def balanced_sections(delta: PolarizationType, m: int, theta0_index,
                      lifts) -> SchrodingerVector:
    """sum over alpha of S_{lifts[alpha]} applied to the delta function
    at theta0_index; lifts[alpha] must translate by alpha."""
    theta0 = _reduce_tuple(theta0_index, delta)
    total = SchrodingerVector(delta, m, {})
    for alpha in product(*[range(d) for d in delta.diag]):
        g = lifts[alpha]
        if g.w_image() != alpha:
            raise BadLift("lift for class %r has w-image %r"
                          % (alpha, g.w_image()), field="lifts")
        total = total + schrodinger_action(
            g, SchrodingerVector.delta_function(delta, m, theta0))
    return total


def enumerate_balanced_set(delta: PolarizationType, m: int):
    """All balanced sections up to a global mu_M scalar, in pattern order.

    Each balanced section has exactly one zeta-power coefficient per
    H(delta) index, and every exponent pattern arises from some choice
    of theta_0 and lifts; so the set is the M^(d-1) normalized exponent
    patterns.  (The scalar exponents of the lifts are free, which makes
    each component's phase independently adjustable.)
    """
    patterns = list(_balanced_patterns(delta, m))
    zeta = list(islice(_zeta_powers(m), m if delta.degree > 1 else 1))
    return [SchrodingerVector(delta, m, {k: zeta[e] for k, e in pattern})
            for pattern in patterns]


def _balanced_patterns(delta: PolarizationType, m: int):
    """The normalized exponent patterns, ascending: (H(delta) index,
    exponent) pairs by index, the first exponent 0.  Refused before the
    first: a bad modulus (BadModulus), over MAX_WINDOW_POINTS sections
    (TooLarge on ``delta``) and a phi(M) over it (on ``modulus``)."""
    _check_modulus(delta, m)
    d = delta.degree
    # M >= 2, so M^(d-1) is over the limit once d - 1 reaches its bit
    # length; testing that first spares a huge d the power
    if (d - 1 >= MAX_WINDOW_POINTS.bit_length()
            or m ** (d - 1) > MAX_WINDOW_POINTS):
        raise TooLarge("H(%r) mod %d has %d^%d balanced sections, more "
                       "than %d" % (delta.diag, m, m, d - 1,
                                    MAX_WINDOW_POINTS), field="delta")
    _cyclotomic_degree(m)
    classes = sorted(product(*[range(x) for x in delta.diag]))
    for rest in product(range(m), repeat=d - 1):
        yield tuple(zip(classes, (0,) + rest))


def normalize_global_scalar(v: SchrodingerVector) -> SchrodingerVector:
    """Divide a single-zeta-power-per-component section by the phase of
    its first component (exponent patterns only)."""
    pattern = section_exponent_pattern(v)
    keys = sorted(v.coeffs)
    base = pattern[keys[0]]
    m = v.modulus
    return SchrodingerVector(
        v.delta, m, {k: CyclotomicInteger.zeta_power(m, pattern[k] - base)
                     for k in keys})


def section_exponent_pattern(v: SchrodingerVector):
    """index -> exponent for a section whose coefficients are single
    zeta powers; raises ValueError if a coefficient is not of that
    shape.  One pass of _zeta_powers looks every coefficient up."""
    m = v.modulus
    todo = {}
    for k, c in v.coeffs.items():
        if c.m == m:
            todo.setdefault(c.coeffs, []).append(k)
    out = {}
    for e, power in enumerate(_zeta_powers(m) if todo else ()):
        for k in todo.pop(power.coeffs, ()):
            out[k] = e
        if not todo:
            break
    for k in v.coeffs:
        if k not in out:
            raise ValueError("coefficient at %r is not a root of unity"
                             % (k,))
    return {k: out[k] for k in v.coeffs}


# ---------------------------------------------------------------------------
# degeneration and twist exponents
# ---------------------------------------------------------------------------

class DegenerationData(Record):
    """The matrices are read once into int rows (``_phi_check_rows``,
    ``_s_xi_rows``, ``_s_prime_rows``); phi_check, s_xi and s_prime are
    object arrays of them, built on first access.  S' defaults to the
    symmetric mod-2 lift of S_xi with zero diagonal."""

    q_form: object      # a QuadraticForm: its rank and rows are read
    phi_check: object = ObjectMatrix()
    d_type: PolarizationType
    s_xi: object = ObjectMatrix()
    s_prime: object = ObjectMatrix()

    def __init__(self, q_form, phi_check, d_type, s_xi, s_prime=None):
        self.__dict__["q_form"] = q_form
        object.__setattr__(self, "phi_check", phi_check)
        self.__dict__["d_type"] = d_type
        object.__setattr__(self, "s_xi", s_xi)
        object.__setattr__(self, "s_prime", s_prime)
        pc = self._phi_check_rows
        g = self.q_form.rank
        d = self.d_type.diag
        if len(d) != g:
            raise ValueError("d_type must have %d entries" % g)
        q = self.q_form._matrix_rows
        # phi_check == 2 Q d^-1, compared column by column as pc d == 2 Q
        if not _is_square(pc, g) or any(
                pc[i][j] * d[j] != 2 * q[i][j]
                for i in range(g) for j in range(g)):
            raise InconsistentData(
                "phi_check must equal 2 Q d^{-1} and be integral",
                field="phi_check")
        sx = self._s_xi_rows
        if not _is_square(sx, g):
            raise ValueError("S_xi must be %d x %d" % (g, g))
        if any(sx[j][i] != -sx[i][j] for i in range(g) for j in range(g)):
            raise BadTwistPair("S_xi must be skew-symmetric", field="s_xi")
        sp = self._s_prime_rows
        if sp is None:
            object.__setattr__(self, "s_prime", [
                [sx[min(i, j)][max(i, j)] % 2 if i != j else 0
                 for j in range(g)] for i in range(g)])
            return
        if not _is_square(sp, g):
            raise ValueError("S' must be %d x %d" % (g, g))
        if any(sp[j][i] != sp[i][j] for i in range(g) for j in range(g)):
            raise BadTwistPair("S' must be symmetric", field="s_prime")
        if any((sp[i][j] - sx[i][j]) % 2 != 0
               for i in range(g) for j in range(g)):
            raise BadTwistPair("S' must be congruent to S_xi mod 2",
                               field="s_prime")


def _is_square(rows, g):
    """Are the rows those of a g x g matrix?"""
    return len(rows) == g and all(len(row) == g for row in rows)


def degen_exponents(data: DegenerationData, lam, alpha):
    """a-exponent Q(lambda) and b-exponent lambda^T (2 Q d^{-1}) alpha
    of the period action on the degenerating family; Q(lambda) is
    taken as 1/2 lambda^T phi_check d lambda, an integer over 2.  A
    vector of the wrong length raises ValueError."""
    lam, alpha = tuple(map(int, lam)), tuple(map(int, alpha))
    pc = data._phi_check_rows
    d_lam = tuple(x * d for x, d in zip(lam, data.d_type.diag, strict=True))
    return (Fraction(geom.bilinear(pc, lam, d_lam), 2),
            Fraction(geom.bilinear(pc, lam, alpha)))


def twist_data(data: DegenerationData, lam, alpha):
    """Exponents (mod 2) of the quadratic twist: a' = exp(pi i *
    (-1/2 lambda^T S' lambda)), b' = exp(pi i * (-lambda^T S_xi d^{-1}
    alpha)); d^{-1} alpha = (alpha_j d_g / d_j) / d_g, as d_j | d_g.
    The integer numerators are reduced mod 4 and mod 2 d_g first."""
    lam, alpha = tuple(map(int, lam)), tuple(map(int, alpha))
    dg = data.d_type.diag[-1]
    scaled = tuple(x * (dg // d)
                   for x, d in zip(alpha, data.d_type.diag, strict=True))
    a = -geom.bilinear(data._s_prime_rows, lam, lam)
    b = -geom.bilinear(data._s_xi_rows, lam, scaled)
    return Fraction(a % 4, 2), Fraction(b % (2 * dg), dg)


def twist_bilinear_form(data: DegenerationData, lam, mu):
    """chi's associated bilinear form: a'(l+m) - a'(l) - a'(m) mod 2,
    which must match -lambda^T S' mu."""
    lam, mu = tuple(map(int, lam)), tuple(map(int, mu))
    return Fraction(-geom.bilinear(data._s_prime_rows, lam, mu) % 2)


# ---------------------------------------------------------------------------
# valuation profiles
# ---------------------------------------------------------------------------

def section_valuation_profile(section: SchrodingerVector, phi, phi_map,
                              window: int):
    """Leading q-exponent of each Fourier class of the Y-symmetrized
    section: the min of phi over rep + phi_map Z^r, one lattice_minimum
    per coset rep + phi_map c + phi_map K, for K = {k : phi_map k in Y}
    (Y the period lattice of phi, so phi_map K are periods of phi) and c
    over the cosets of Z^r / K.  Unbounded unless phi grows; over
    MAX_WINDOW_POINTS cosets, TooLarge on the field ``period_basis``.
    The window is unused.

    The class of rep is the H(delta) index (u rep) mod delta, for the
    Smith form u phi_map v = diag(delta): u maps phi_map Z^r onto
    diag(delta) Z^r, so classes and indices correspond one to one.  A
    section whose delta is not the Smith type of phi_map raises
    InconsistentData on the field ``delta``.  phi is a PwAffineFunction."""
    # the one function of this module that uses the paving layer
    from .degeneration_monoids import _fourier_indices
    from .pavings_pwl import lattice_minimum
    pm_rows = read_matrix(phi_map)
    r = phi.rank
    reps, ptype, u_rows = _fourier_indices(r, pm_rows)
    if ptype != section.delta:
        raise InconsistentData(
            "a section of H(%r) for phi_map of Smith type %r"
            % (section.delta.diag, ptype.diag), field="delta")
    ks = _preimage_basis(pm_rows, phi.paving.lattice)
    minimum = lattice_minimum(
        phi, [[geom.dot(row, k) for k in ks] for row in pm_rows])
    offsets = [tuple(geom.dot(row, c) for row in pm_rows) for c in
               coset_representatives(list(zip(*ks)), "period_basis")]
    out = {}
    for rep in reps:
        idx = tuple(geom.dot(row, rep) % d
                    for row, d in zip(u_rows, ptype.diag))
        if idx not in section.coeffs:
            raise EmptyComponent("class %r has no section component"
                                 % (rep,), field="section")
        out[rep] = min(minimum(geom.vadd(rep, t), (0,) * r)
                       for t in offsets)
    return out


def _preimage_basis(pm_rows, lattice):
    """A basis k_1 ... k_r of K = {k in Z^r : pm k in the lattice}.  With
    C = den B^-1 pm on the lattice's integer rows, K is the projection to
    k of the integer kernel of [C | den I], which the projection maps
    one to one; the kernel is spanned by the last r rows of the
    unimodular u of the Hermite normal form of [C | den I]^T."""
    r = len(pm_rows)
    c_rows = [[geom.dot(row, col) for col in zip(*pm_rows)]
              for row in lattice.inv_rows]
    stacked = [list(col) for col in zip(*c_rows)] + \
        [[lattice.den * (i == j) for j in range(r)] for i in range(r)]
    _, u = _hnf_rows(stacked)
    return [tuple(row[:r]) for row in u[r:]]
