"""Exact integer/rational linear algebra.

One fraction-free row reduction (``row_reduce``, Gauss-Jordan with the
Bareiss update on rows of python ints, each row cleared of its
denominators once) from which the determinant, rank and greedy
independent subsets are derived; normal forms (Hermite, Smith),
saturated quotients, symplectic reduction of integral alternating
forms, polarization types, and the GL(X,Y)-action on quadratic forms.
``LatticeCoordinates`` holds B^-1 as integer rows over one denominator,
from the same elimination: every inverse goes through it (``frac_inv``,
and the u^-1 of the saturated quotient and of ``glxy_act``), and it is
the one reduction of points modulo a lattice.

All arithmetic is exact, on lists of int or Fraction rows.
``read_matrix`` is the one reader of a matrix argument: nested
sequences, or anything with ``.tolist()`` (a numpy array), read through
that method.  The normal forms and the GL(X,Y)-action have row cores
(``_hnf_rows``, ``_snf_rows``, ``_symplectic_rows``, ``_glxy_rows``)
that the package calls.  Numpy object arrays of python ints or
Fractions are only the public boundary: ``_object_matrix`` builds them,
for the public functions that return an array and for the array
attributes of the package's classes (``ObjectMatrix``).  No module of
the package imports numpy when it is imported: numpy is imported inside
the functions that build or compute on arrays, here ``_object_matrix``
alone.

``Record`` is the immutable base of the package's record types (the
polarization type, Heisenberg and twisted-monoid elements, Delaunay
cells, degeneration data, ...), and ``coset_representatives`` lists the
cosets of a lattice from its Hermite form, under the bound
MAX_WINDOW_POINTS that every enumeration of the package keeps.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import attrgetter, mul

from .errors import (Degenerate, NotInGLXY, NotInjective, NotSkew,
                     NotUnimodular, TooLarge)


def _object_matrix(rows, ncols=None, writeable=True):
    """The object array of the int or Fraction rows, ncols wide (the
    length of the first row by default; a matrix without rows needs
    it): the public boundary, and the one numpy import of the exact
    modules."""
    import numpy as np
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    out = np.array(rows, dtype=object).reshape(len(rows), ncols)
    if not writeable:
        out.flags.writeable = False
    return out


def _is_vector(x):
    """Does numpy read x as a sequence: a list, tuple or range, or an
    array of dimension at least 1?  Strings and scalars are entries."""
    return isinstance(x, (list, tuple, range)) or getattr(x, "ndim", 0) > 0


def as_int(x, what="entry"):
    """x as an int; ValueError, naming x as ``what``, unless x is an
    integer (a Fraction or float with a fractional part is refused, not
    truncated)."""
    if type(x) is int:
        return x
    v = Fraction(x)
    if v.denominator != 1:
        raise ValueError("non-integer %s %r" % (what, x))
    return int(v)


def as_frac(x) -> Fraction:
    """x as a Fraction; one already is returned as it is, not rebuilt."""
    return x if type(x) is Fraction else Fraction(x)


def read_matrix(m, entry=as_int):
    """The rows of the 2-d matrix m, as lists of entry(x) (as_int by
    default).  m is a sequence of equally long sequences of entries, or
    has ``.tolist()`` (a numpy array) and is read through it, as is each
    row that has one.  Anything else, a ragged or deeper nesting
    included, raises ValueError("expected a 2-d matrix"): the inputs
    that np.array(m, dtype=object) would not make two-dimensional.
    entry raises on an entry it refuses."""
    if hasattr(m, "tolist"):
        if getattr(m, "ndim", None) == 2 and not len(m):
            return []
        m = m.tolist()
    rows = [r.tolist() if hasattr(r, "tolist") else r for r in m] \
        if _is_vector(m) else ()
    if not rows or any(not _is_vector(r) or len(r) != len(rows[0])
                       for r in rows):
        raise ValueError("expected a 2-d matrix")
    try:
        return [[entry(x) for x in r] for r in rows]
    except TypeError:
        # entries that are sequences nest deeper than two
        if any(_is_vector(x) for r in rows for x in r):
            raise ValueError("expected a 2-d matrix") from None
        raise


def as_int_matrix(m):
    """Copy input into an object-dtype integer matrix, validating entries
    (read_matrix with as_int)."""
    return _object_matrix(read_matrix(m))


def transpose(rows):
    """The columns of a list of rows, as lists."""
    return [list(col) for col in zip(*rows)]


class ObjectMatrix:
    """A public matrix attribute: whatever is assigned to it is read once
    by read_matrix into rows of ``entry`` (as_int or as_frac), kept on
    the instance as ``_<name>_rows``, for the package to compute with,
    and the attribute is the object array of those rows, built on first
    access and then kept, so it is one object per instance.  None is
    kept as it is.  ``writeable`` is the array's flag.

    The attribute can be a field of a Record, assigned through it once
    by the record's constructor."""

    def __init__(self, entry=as_int, writeable=True):
        self.entry, self.writeable = entry, writeable

    def __set_name__(self, owner, name):
        self.name, self.rows = name, "_%s_rows" % name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        cache = obj.__dict__
        if self.name not in cache:
            rows = cache[self.rows]
            cache[self.name] = None if rows is None else _object_matrix(
                rows, writeable=self.writeable)
        return cache[self.name]

    def __set__(self, obj, value):
        obj.__dict__[self.rows] = None if value is None else tuple(
            map(tuple, read_matrix(value, self.entry)))
        obj.__dict__.pop(self.name, None)


class Record:
    """An immutable record.  Its fields are the names annotated in its
    class body, in order; a field whose class attribute is an
    ObjectMatrix is a matrix field.  The record's constructor takes the
    fields as parameters, checks and normalizes them, and assigns each
    once: a plain field straight into the instance's ``__dict__``, a
    matrix field with object.__setattr__, which reads it through its
    ObjectMatrix.

    Assigning or deleting an attribute raises AttributeError.  Records
    are equal when they are of one class and their fields are equal, a
    matrix field compared by its rows and a dict by its items, and
    equal records hash alike.  The repr is ``Name(field=value, ...)``,
    a matrix field printed as its rows, so it builds no array."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        # the attribute each field's value is kept in: a matrix field's
        # rows, never its array
        cls._kept = tuple(own[f].rows if isinstance(own.get(f), ObjectMatrix)
                          else f for f in cls._fields)
        # the values equality compares: a tuple, or one field's value
        cls._values = attrgetter(*cls._kept)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable: cannot assign %r"
                             % (type(self).__qualname__, name))

    def __delattr__(self, name):
        raise AttributeError("%s is immutable: cannot delete %r"
                             % (type(self).__qualname__, name))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        values = self._values(self)
        try:
            return hash(values)
        except TypeError:
            # a dict is hashed by its items; equal dicts have equal items
            if len(self._kept) == 1:
                values = (values,)
            return hash(tuple(frozenset(v.items()) if isinstance(v, dict)
                              else v for v in values))

    def __repr__(self):
        own = vars(self)
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (field, own[kept])
            for field, kept in zip(self._fields, self._kept)))


def clear_denominators(point):
    """Integer numerators of a rational point over their least common
    positive denominator; a point of ints is its own numerators over 1."""
    fs = tuple(point)
    if all(type(x) is int for x in fs):
        return fs, 1
    fs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in fs]
    den = lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (den // f.denominator) for f in fs), den


def row_reduce(rows, ncols=None):
    """Gauss-Jordan elimination over Q: the one exact elimination routine.

    Pivots are sought in the first ``ncols`` columns (all of them by
    default), taking the first nonzero entry at or below the current
    row; the row operations act on whole rows, so trailing columns are
    carried along as an augmented block.  Returns (reduced, pivots, det):
    the nonzero rows of the reduced row echelon form (pivot entries 1,
    zeros above and below them) as lists of Fraction, their pivot
    columns, and the determinant of the leading ncols x ncols block when
    the input has ncols rows (0 if it is singular or not square).

    The elimination is fraction-free (``_eliminate``): each row is
    cleared of its denominators once, and the reduced rows are the
    integer rows left over the last pivot.
    """
    a, scale = _cleared_rows(rows)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots, sign, prev = _eliminate(a, ncols)
    det = Fraction(sign * prev, scale) if len(pivots) == len(a) == ncols \
        else Fraction(0)
    return ([[Fraction(x, prev) for x in row] for row in a[:len(pivots)]],
            pivots, det)


def _cleared_rows(rows):
    """(a, scale): each row cleared of its denominators, and the product
    of those denominators."""
    a, scale = [], 1
    for row in rows:
        num, den = clear_denominators(row)
        a.append(num)
        scale *= den
    return a, scale


def _eliminate(a, ncols):
    """Gauss-Jordan on the integer rows a, in place, without fractions
    (Bareiss, Math. Comp. 22, 1968); pivots as in row_reduce.  With p
    the new pivot and ``prev`` the one before it (1 at the start) every
    other row becomes (p row - f pivot_row) // prev, f its entry in the
    pivot column.  The division is exact, and every pivot row ends as
    ``prev`` times its reduced row.  Returns (pivots, sign, prev): when
    every row has a pivot, sign * prev is the determinant of the leading
    block."""
    pivots, sign, prev = [], 1, 1
    for col in range(ncols):
        lead = len(pivots)
        piv = next((i for i in range(lead, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        if piv != lead:
            a[lead], a[piv] = a[piv], a[lead]
            sign = -sign
        pr = a[lead]
        p = pr[col]
        for i, row in enumerate(a):
            if i != lead:
                f = row[col]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
                else:
                    a[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(col)
    return pivots, sign, prev


def _square_rows(m):
    try:
        rows = [list(row) for row in m]
    except TypeError:
        raise ValueError("expected a square matrix") from None
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("expected a square matrix")
    return rows


def frac_det(m) -> Fraction:
    """Exact determinant of a square rational matrix: row_reduce's, from
    the elimination alone, without its reduced rows."""
    a, scale = _cleared_rows(_square_rows(m))
    pivots, sign, prev = _eliminate(a, len(a))
    return Fraction(sign * prev, scale) if len(pivots) == len(a) \
        else Fraction(0)


def frac_inv(m):
    """Exact inverse as an object array of Fraction, from the integer
    rows of LatticeCoordinates; raises Degenerate if singular."""
    lat = LatticeCoordinates(m)
    return _object_matrix([[Fraction(x, lat.den) for x in row]
                           for row in lat.inv_rows])


def rank(rows) -> int:
    """Rank of a list of rational row vectors."""
    return len(row_reduce(rows)[1])


def independent_rows(rows):
    """Indices of the greedy (lexicographically first) linearly
    independent subset of rows: a row is kept iff it is not in the span
    of the rows before it.  These are the pivot columns of the
    transpose."""
    return row_reduce(list(zip(*rows)), len(rows))[1]


def is_symmetric(m) -> bool:
    rows = read_matrix(m, as_frac)
    return all(len(row) == len(rows) for row in rows) and \
        all(rows[i][j] == rows[j][i] for i in range(len(rows))
            for j in range(i))


def is_positive_definite(m) -> bool:
    """Sylvester criterion, exact: m is symmetric and every leading
    principal minor is positive.  The rows are cleared once (clearing
    row i scales every minor through it by d_i > 0), and each minor is
    one elimination of a leading block."""
    rows = [[as_frac(x) for x in row] for row in m]
    n = len(rows)
    if any(len(row) != n for row in rows) or any(
            rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        return False
    a = _cleared_rows(rows)[0]
    for k in range(1, n + 1):
        pivots, sign, prev = _eliminate([row[:k] for row in a[:k]], k)
        if len(pivots) < k or sign * prev <= 0:
            return False
    return True


class PolarizationType(Record):
    """A divisor chain d_1 | d_2 | ... | d_r of positive integers."""

    diag: tuple[int, ...]

    def __init__(self, diag):
        d = tuple(int(x) for x in diag)
        if any(x <= 0 for x in d):
            raise ValueError("polarization type entries must be positive")
        for a, b in zip(d, d[1:]):
            if b % a != 0:
                raise ValueError("divisibility chain violated: %d | %d" % (a, b))
        self.__dict__["diag"] = d

    @property
    def degree(self) -> int:
        out = 1
        for x in self.diag:
            out *= x
        return out

    def matrix(self):
        """diag(d_1, ..., d_r), an object array."""
        return _object_matrix([[x if i == j else 0 for j in range(
            len(self.diag))] for i, x in enumerate(self.diag)])


class SymplecticDecomposition(Record):
    type: PolarizationType
    basis_change: object = ObjectMatrix()   # B e B^T in standard form

    def __init__(self, type, basis_change):
        self.__dict__["type"] = type
        object.__setattr__(self, "basis_change", basis_change)


def _eye_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _axpy(x, c, y):
    """The row x + c y."""
    return [a + c * b for a, b in zip(x, y)]


def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ m, u unimodular, h in upper echelon form
    with positive pivots and the entries above each pivot reduced into
    [0, pivot).
    """
    a = read_matrix(m)
    h, u = _hnf_rows(a)
    return _object_matrix(h), _object_matrix(u)


def _hnf_rows(a):
    """hermite_normal_form of the int rows a, as rows (h, u)."""
    rows, cols = len(a), len(a[0]) if a else 0
    h, u = [list(row) for row in a], _eye_rows(rows)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # kill everything below position (r, c) by gcd row operations
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(h[i][c]), i))
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
                u[r], u[piv] = u[piv], u[r]
            if all(h[i][c] == 0 for i in range(r + 1, rows)):
                break
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = _axpy(h[i], -q, h[r])
                    u[i] = _axpy(u[i], -q, u[r])
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q != 0:
                h[i] = _axpy(h[i], -q, h[r])
                u[i] = _axpy(u[i], -q, u[r])
        r += 1
    _check(_matmul(u, a) == h, "u m == h")
    return h, u


def _check(holds, identity):
    """The self-check of a normal form: ArithmeticError unless the
    identity it names holds."""
    if not holds:
        raise ArithmeticError("normal form self-check failed: " + identity)


# The most lattice points a box of work may hold: the dual box of
# legendre_transform, the cosets of a lattice (coset_representatives:
# coarser period lattices, Fourier indices, cy-cone and valuation-profile
# cosets) and the elements of a finite Heisenberg group.  Rank 2 at
# window 16 spans 1089 points and rank 3 at window 8 spans 4913.
MAX_WINDOW_POINTS = 100_000


def check_window_points(window, points):
    """Refuse, with TooLarge on the field ``window``, work over a window
    whose box holds more than MAX_WINDOW_POINTS lattice points."""
    if points > MAX_WINDOW_POINTS:
        raise TooLarge("window %d spans %d lattice points, more than %d"
                       % (window, points, MAX_WINDOW_POINTS), field="window")


def coset_representatives(basis, field):
    """One vector per coset of Z^r modulo the column lattice of the
    nonsingular square integer ``basis``, in lexicographic order: the box
    0 <= v_i < h_ii of the pivots of its Hermite normal form, whose
    upper-triangular rows generate the lattice (reducing ascending
    through the pivots leaves one vector of each coset in the box).  An
    index over MAX_WINDOW_POINTS is refused, with TooLarge on ``field``,
    before any vector is listed."""
    h, _ = _hnf_rows(transpose(read_matrix(basis)))
    pivots = [h[i][i] for i in range(len(h))]
    if prod(pivots) > MAX_WINDOW_POINTS:
        raise TooLarge("a lattice of index %d has more than %d cosets"
                       % (prod(pivots), MAX_WINDOW_POINTS), field=field)
    return list(product(*map(range, pivots)))


def smith_normal_form(m):
    """Smith normal form: u @ m @ v = diag(d) with d_i | d_{i+1}, d_i >= 0.

    Zero diagonal entries are sorted last.  u, v are unimodular.
    """
    a = read_matrix(m)
    d, u, v = _snf_rows(a)
    return d, _object_matrix(u), _object_matrix(v)


def _snf_rows(a):
    """smith_normal_form of the int rows a, with u and v as rows."""
    rows, cols = len(a), len(a[0]) if a else 0
    d, u, v = [list(row) for row in a], _eye_rows(rows), _eye_rows(cols)
    n = min(rows, cols)

    def min_entry(s):
        best, least = None, None
        for i in range(s, rows):
            row = d[i]
            for j in range(s, cols):
                x = abs(row[j])
                if x and (best is None or x < least):
                    best, least = (i, j), x
        return best

    def add_column(x, j, c, s):
        """Column j of the rows x plus c times column s."""
        for row in x:
            row[j] += c * row[s]

    for s in range(n):
        while True:
            pos = min_entry(s)
            if pos is None:
                break
            i, j = pos
            if i != s:
                d[s], d[i] = d[i], d[s]
                u[s], u[i] = u[i], u[s]
            if j != s:
                for row in d + v:
                    row[s], row[j] = row[j], row[s]
            p = d[s][s]
            dirty = False
            for i in range(s + 1, rows):
                if d[i][s] != 0:
                    q = d[i][s] // p
                    d[i] = _axpy(d[i], -q, d[s])
                    u[i] = _axpy(u[i], -q, u[s])
                    if d[i][s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if d[s][j] != 0:
                    q = d[s][j] // p
                    add_column(d, j, -q, s)
                    add_column(v, j, -q, s)
                    if d[s][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            offender = next((i for i in range(s + 1, rows)
                             if any(x % p for x in d[i][s + 1:])), None)
            if offender is None:
                break
            d[s] = _axpy(d[s], 1, d[offender])
            u[s] = _axpy(u[s], 1, u[offender])
        if d[s][s] < 0:
            for row in d + v:
                row[s] = -row[s]
    _check(_matmul(_matmul(u, a), v) == d, "u m v == diag(d)")
    return [d[k][k] for k in range(n)], u, v


def saturated_quotient(span):
    """Z^n -> Z^n / S for S the saturation of the lattice spanned by the
    columns of the integer matrix ``span``.

    Returns (pi, sec, sat): the (n-k) x n quotient map pi, an integral
    section sec (n x (n-k), pi @ sec = 1) and a basis sat (n x k) of S,
    with k the rank of span.  All three come from the Smith form
    u @ span @ v: pi is the last n-k rows of u, and sec and sat are the
    last n-k and first k columns of u^-1.
    """
    a = read_matrix(span)
    pi, sec, sat = _saturated_quotient_rows(a)
    return _object_matrix(pi, len(a)), _object_matrix(sec), _object_matrix(sat)


def _saturated_quotient_rows(a):
    """saturated_quotient of the int rows a, as rows (pi, sec, sat)."""
    diag, u, _ = _snf_rows(a)
    k = sum(1 for x in diag if x != 0)
    uinv = LatticeCoordinates(u).inv_rows    # over 1: u is unimodular
    return u[k:], [row[k:] for row in uinv], [row[:k] for row in uinv]


def symplectic_normal_form(e) -> SymplecticDecomposition:
    """Symplectic reduction of a nondegenerate integral alternating form.

    Returns B (unimodular) and the type delta with
    B @ e @ B.T == [[0, diag(delta)], [-diag(delta), 0]].  A degenerate
    form raises Degenerate when the reduction meets an all-zero block.
    """
    rows = read_matrix(e)
    typ, b = _symplectic_rows(rows)
    return SymplecticDecomposition(type=typ, basis_change=b)


def _symplectic_rows(rows):
    """symplectic_normal_form of the int rows of e, as (type, rows of
    B)."""
    n = len(rows)
    if any(len(row) != n for row in rows) or n % 2 != 0:
        raise NotSkew("form must be square of even size")
    if any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(i, n)):
        raise NotSkew("form is not alternating")
    g = n // 2

    m = [list(row) for row in rows]
    b = _eye_rows(n)  # invariant: m == b a b^T

    def congr_swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        b[i], b[j] = b[j], b[i]

    def congr_add(t, src, c):
        """row_t += c*row_src, plus the mirrored column operation."""
        m[t] = _axpy(m[t], c, m[src])
        for row in m:
            row[t] += c * row[src]
        b[t] = _axpy(b[t], c, b[src])

    def congr_neg(i):
        m[i] = [-x for x in m[i]]
        for row in m:
            row[i] = -row[i]
        b[i] = [-x for x in b[i]]

    for s in range(0, n, 2):
        while True:
            # minimal nonzero entry in the remaining block, lowest index ties
            best, least = None, None
            for i in range(s, n):
                for j in range(i + 1, n):
                    x = abs(m[i][j])
                    if x and (best is None or x < least):
                        best, least = (i, j), x
            if best is None:
                raise Degenerate("form is degenerate")
            i, j = best
            if i != s:
                congr_swap(s, i)
            if j != s + 1:
                congr_swap(s + 1, j)
            if m[s][s + 1] < 0:
                congr_neg(s + 1)
            p = m[s][s + 1]
            dirty = False
            for t in range(s + 2, n):
                if m[s][t] != 0:
                    q = m[s][t] // p
                    congr_add(t, s + 1, -q)  # changes m[s][t] by -q*p
                    if m[s][t] != 0:
                        dirty = True
                if m[s + 1][t] != 0:
                    q = m[s + 1][t] // p     # m[s+1][t] - q*p via row s
                    congr_add(t, s, q)       # adds q*m[s+1][s] = -q*p
                    if m[s + 1][t] != 0:
                        dirty = True
            if dirty:
                continue
            offender = next((i2 for i2 in range(s + 2, n)
                             if any(x % p for x in m[i2][i2 + 1:])), None)
            if offender is None:
                break
            congr_add(s, offender, 1)

    # permute basis (x1, y1, x2, y2, ...) -> (x1..xg, y1..yg)
    typ = PolarizationType(tuple(m[2 * k][2 * k + 1] for k in range(g)))
    b = [b[2 * k] for k in range(g)] + [b[2 * k + 1] for k in range(g)]
    _check(_matmul(_matmul(b, rows), transpose(b))
           == _standard_form_rows(typ), "B e B^T == standard form")
    _check(abs(frac_det(b)) == 1, "|det B| == 1")
    return typ, b


def standard_symplectic_form(delta: PolarizationType):
    """[[0, diag(delta)], [-diag(delta), 0]], an object array."""
    return _object_matrix(_standard_form_rows(delta))


def _standard_form_rows(delta):
    g = len(delta.diag)
    e = [[0] * (2 * g) for _ in range(2 * g)]
    for k, d in enumerate(delta.diag):
        e[k][g + k] = d
        e[g + k][k] = -d
    return e


def polarization_type(phi) -> PolarizationType:
    """Type of an injective lattice map: the SNF diagonal of its matrix."""
    diag, u, v = _snf_rows(read_matrix(phi))
    if len(u) != len(v) or 0 in diag:
        raise NotInjective("polarization matrix must be square and injective")
    return PolarizationType(tuple(diag))


class LatticeCoordinates:
    """Coordinates for the lattice spanned by the columns of a square
    basis B (rows in ``basis``): B^-1 is computed once, as the integer
    rows ``inv_rows`` over the least positive ``den``.  Points are int or
    Fraction.  A singular B raises Degenerate, a non-square one
    ValueError."""

    def __init__(self, basis):
        rows = _square_rows(basis)
        r = len(rows)
        # cleared, [B | 1] is [N | D] with N = D B integer and D diagonal;
        # the elimination turns it into [prev 1 | prev N^-1 D], and
        # N^-1 D = B^-1
        aug = _cleared_rows(row + [int(i == j) for j in range(r)]
                            for i, row in enumerate(rows))[0]
        pivots, _, prev = _eliminate(aug, r)
        if len(pivots) < r:
            raise Degenerate("matrix is singular")
        inv = [row[r:] for row in aug]
        g = gcd(prev, *(x for row in inv for x in row))
        if prev < 0:
            g = -g
        self.basis = tuple(tuple(row) for row in rows)
        self.den = prev // g
        self.inv_rows = tuple(tuple(x // g for x in row) for row in inv)

    clear_denominators = staticmethod(clear_denominators)

    def shift(self, point):
        """The lattice vector t = B floor(B^-1 x): x - t lies in the
        half-open fundamental parallelepiped B [0, 1)^r."""
        return self.shift_cleared(*self.clear_denominators(point))

    def shift_cleared(self, num, den):
        """``shift`` of the point num / den (int numerators, den > 0)."""
        d = self.den * den
        return self.vector([_dot(row, num) // d for row in self.inv_rows])

    def vector(self, coords):
        """B k: the point with coordinates k."""
        return tuple(_dot(row, coords) for row in self.basis)

    def coordinates(self, point):
        """B^-1 x, as a tuple of Fraction."""
        num, den = self.clear_denominators(point)
        if len(num) != len(self.inv_rows):
            raise ValueError("point of length %d in rank %d"
                             % (len(num), len(self.inv_rows)))
        return tuple(Fraction(_dot(row, num), self.den * den)
                     for row in self.inv_rows)

    def contains(self, point) -> bool:
        """Is x in the lattice, i.e. are its coordinates integers?"""
        return all(c.denominator == 1 for c in self.coordinates(point))


def _dot(a, b):
    return sum(map(mul, a, b))


def lattice_membership(basis, vec) -> bool:
    """Is vec in the lattice generated by the columns of basis?  vec is
    read flat, entries in row-major order, so a column matrix is one
    too."""
    return LatticeCoordinates(basis).contains(_flat(vec))


def _flat(x):
    """The entries of a nested sequence or array, in row-major order."""
    if hasattr(x, "tolist"):
        x = x.tolist()
    return [y for e in x for y in _flat(e)] if _is_vector(x) else [x]


def glxy_act(u, q, y_basis):
    """Action Q -> (u^T)^{-1} Q u^{-1} of the stabilizer GL(X, Y), as an
    object array.

    u must be unimodular and must map the sublattice spanned by the
    columns of y_basis into itself; otherwise NotInGLXY.
    """
    return _object_matrix(_glxy_rows(u, q, y_basis))


def _glxy_rows(u, q, y_basis):
    """glxy_act, as rows of Fraction."""
    u = read_matrix(u)
    n = len(u)
    if any(len(row) != n for row in u):
        raise NotUnimodular("u must be square")
    if abs(frac_det(u)) != 1:
        raise NotUnimodular("u must have determinant +-1")
    yb = read_matrix(y_basis)
    cols = transpose(yb)
    lat = LatticeCoordinates(yb) if cols else None
    if any(not lat.contains([_dot(row, col) for row in u]) for col in cols):
        raise NotInGLXY("u does not preserve the sublattice Y")
    q = read_matrix(q, as_frac)
    if len(q) != n or any(len(row) != n for row in q):
        raise ValueError("q must be %d x %d, as u is" % (n, n))
    ui = LatticeCoordinates(u).inv_rows      # over 1: u is unimodular
    return _matmul(_matmul(transpose(ui), q), ui)
