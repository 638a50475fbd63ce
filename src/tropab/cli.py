"""Batch JSON front end: one subcommand per library capability.

Input is a JSON document (``--input FILE`` or stdin); output is a
self-describing JSON document on stdout.  Exit codes: 0 success, 1
domain error (structured error object), 2 malformed input.  Rationals
travel as strings "p/q"; complex numbers as [re, im] pairs.

Input matrices are read into lists of int or Fraction rows, and the
exact subcommands print the rows the library computes on.  A JSON
boolean is not a number here: ``true`` where a number belongs exits 2.

A subcommand loads only the modules its handler uses.  This module
imports no library module but ``errors`` when it is imported: each
handler and each reader of an input object imports the modules it
calls, and the ``tropab`` namespace imports none until a name is read
from it.  No subcommand loads numpy: the Siegel subcommands print the
complex and float rows the library computes on.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import DomainError


class MalformedInput(Exception):
    pass


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------

def _frac(x):
    try:
        if isinstance(x, (str, int, float)) and not isinstance(x, bool):
            return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise MalformedInput("bad rational %r: %s" % (x, e))
    raise MalformedInput("bad rational %r" % (x,))


def _frac_matrix(m):
    if not isinstance(m, list) or not m or not all(
            isinstance(r, list) and len(r) == len(m[0]) for r in m):
        raise MalformedInput("expected a rectangular matrix")
    return [[_frac(x) for x in row] for row in m]


def _int_matrix(m):
    f = _frac_matrix(m)
    if any(x.denominator != 1 for row in f for x in row):
        raise MalformedInput("expected an integer matrix")
    return [[int(x) for x in row] for row in f]


def _int(x):
    f = _frac(x)
    if f.denominator != 1:
        raise MalformedInput("expected an integer, got %r" % (x,))
    return int(f)


def _int_vector(v):
    if not isinstance(v, list):
        raise MalformedInput("expected an integer vector")
    return tuple(_int(x) for x in v)


def _complex(e):
    """One complex entry: a JSON number, or an [re, im] pair of them.  A
    string is no number here, though complex() would read one."""
    parts = e if isinstance(e, list) else [e]
    if isinstance(e, list) and len(e) != 2 or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in parts):
        raise MalformedInput("a complex entry is a number or an "
                             "[re, im] pair of numbers")
    return complex(*parts)


def _complex_matrix(m):
    if not isinstance(m, list):
        raise MalformedInput("expected a complex matrix")
    return [[_complex(e) for e in row] for row in m]


def ser(x):
    """Recursive canonical serialization of library values."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (list, tuple)):
        return [ser(v) for v in x]
    if isinstance(x, dict):
        return {str(k): ser(v) for k, v in x.items()}
    raise TypeError("cannot serialize %r" % type(x))


def ser_paving(p):
    return {"kind": "paving", "rank": p.rank,
            "period_basis": ser(p.lattice.basis), "window": p.window,
            "cells": [ser(c.vertices) for c in p.cells]}


def de_paving(obj):
    from . import quadform_delaunay
    try:
        rank = _int(obj["rank"])
        cells = [quadform_delaunay.LatticePolytope(
            tuple(tuple(_frac(x) for x in v) for v in c))
            for c in obj["cells"]]
        if any(not c.vertices or any(len(v) != rank for v in c.vertices)
               for c in cells):
            raise MalformedInput("bad paving: cells must be nonempty lists "
                                 "of points of length %d" % rank)
        return quadform_delaunay.PeriodicPaving(
            rank, _int_matrix(obj["period_basis"]), cells,
            _int(obj.get("window", 4)))
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput("bad paving: %s" % e)


def ser_pwa(f):
    return {"kind": "pw-affine", "rank": f.rank,
            "payload_rank": f.payload_rank,
            "paving": ser_paving(f.paving),
            "cell_affines": [{"linear": ser(list(map(list, lin))),
                              "constant": ser(list(const))}
                             for lin, const in f.cell_affines],
            "quasi_bilinear": [ser(b) for b in f._quasi_bilinear_rows],
            "quasi_linear": ser(list(map(list, f.quasi_linear)))}


def de_pwa(obj):
    from . import pavings_pwl
    try:
        paving = de_paving(obj["paving"])
        k = _int(obj.get("payload_rank", 1))
        affs = [([[_frac(x) for x in row] for row in ca["linear"]],
                 [_frac(x) for x in ca["constant"]])
                for ca in obj["cell_affines"]]
        bil = [_frac_matrix(b) for b in obj["quasi_bilinear"]]
        lin = [[_frac(x) for x in row] for row in obj["quasi_linear"]]
        return pavings_pwl.PwAffineFunction(paving, affs, bil, lin, k)
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput("bad piecewise-affine function: %s" % e)


def _delta(obj):
    from . import exact_linalg
    if not isinstance(obj, list) or not obj:
        raise MalformedInput("delta must be a nonempty list of integers")
    return exact_linalg.PolarizationType(tuple(_int(x) for x in obj))


def _modulus(doc, delta):
    """The modulus M of a Heisenberg input, 2 d_g by default, checked
    before any cyclotomic integer mod M is built."""
    from . import theta_heisenberg
    m = _int(doc.get("modulus", 2 * delta.diag[-1]))
    theta_heisenberg._check_modulus(delta, m)
    return m


def _heis_el(obj, delta, m):
    from . import theta_heisenberg
    try:
        t, a, b = obj
        return theta_heisenberg.HeisenbergElement(
            _int(t), _int_vector(a), _int_vector(b), delta, m)
    except (TypeError, ValueError) as e:
        raise MalformedInput("bad Heisenberg element: %s" % e)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _h_hnf(doc, opts):
    from . import exact_linalg
    h, u = exact_linalg._hnf_rows(_int_matrix(doc["matrix"]))
    return {"kind": "hnf", "h": ser(h), "u": ser(u)}


def _h_snf(doc, opts):
    from . import exact_linalg
    d, u, v = exact_linalg._snf_rows(_int_matrix(doc["matrix"]))
    return {"kind": "snf", "d": d, "u": ser(u), "v": ser(v)}


def _h_symplectic(doc, opts):
    from . import exact_linalg
    typ, b = exact_linalg._symplectic_rows(_int_matrix(doc["matrix"]))
    return {"kind": "symplectic", "type": list(typ.diag),
            "basis_change": ser(b)}


def _h_poltype(doc, opts):
    from . import exact_linalg
    t = exact_linalg.polarization_type(_int_matrix(doc["matrix"]))
    return {"kind": "poltype", "type": list(t.diag)}


def _h_glxy(doc, opts):
    from . import exact_linalg
    q = exact_linalg._glxy_rows(_int_matrix(doc["u"]),
                                _frac_matrix(doc["q"]),
                                _int_matrix(doc["y_basis"]))
    return {"kind": "glxy", "q": ser(q)}


def _h_delaunay(doc, opts):
    from . import quadform_delaunay
    q = quadform_delaunay.QuadraticForm(_frac_matrix(doc["q"]))
    pb = _int_matrix(doc.get("period_basis",
                             _identity_json(q.rank)))
    shift = doc.get("shift")
    if shift is not None:
        shift = [_frac(x) for x in shift]
    pav = quadform_delaunay.delaunay_subdivision(q, pb, opts.window,
                                                 shift=shift)
    return ser_paving(pav)


def _h_voronoi_cone(doc, opts):
    from . import quadform_delaunay
    pav = de_paving(doc["paving"])
    q = quadform_delaunay.QuadraticForm(_frac_matrix(doc["q"]))
    return {"kind": "voronoi-cone",
            "contains": quadform_delaunay.voronoi_cone_contains(pav, q)}


def _h_bend(doc, opts):
    from . import pavings_pwl
    f = de_pwa(doc["function"])
    bends = pavings_pwl.bending_parameters(f)
    walls = [{"vertices": [list(v) for v in key],
              "bending": ser(list(val))}
             for key, val in sorted(bends.items())]
    return {"kind": "bending", "walls": walls}


def _h_qp_decompose(doc, opts):
    from . import pavings_pwl
    samples = {tuple(_int(x) for x in pt): _frac(v)
               for pt, v in doc["samples"]}
    dec = pavings_pwl.quasiperiodic_decompose(
        samples, _int_matrix(doc["period_basis"]))
    return {"kind": "qp-decomposition", "bilinear": ser(dec._bilinear_rows),
            "linear": ser(list(dec.quadratic_linear)),
            "periodic": [[ser(list(k)), ser(v)]
                         for k, v in sorted(dec.periodic.items())]}


def _h_cy_cone(doc, opts):
    from . import pavings_pwl
    samples = {tuple(_int(x) for x in pt): _frac(v)
               for pt, v in doc["samples"]}
    t = de_paving(doc["paving"])
    member = pavings_pwl.cone_cy_membership(
        samples, t, _int_matrix(doc["period_basis"]))
    return {"kind": "cy-cone", "member": member}


def _h_sigma(doc, opts):
    from . import pavings_pwl, quadform_delaunay
    q = quadform_delaunay.QuadraticForm(_frac_matrix(doc["q"]))
    pb = _int_matrix(doc.get("period_basis", _identity_json(q.rank)))
    return ser_pwa(pavings_pwl.sigma_section(q, pb, opts.window))


def _h_legendre(doc, opts):
    from . import pavings_pwl
    f = de_pwa(doc["function"])
    window = _int(doc.get("window", opts.window))
    vals = pavings_pwl.legendre_transform(f, window)
    return {"kind": "legendre",
            "values": [[list(mu), ser(v)]
                       for mu, v in sorted(vals.items())]}


def _de_monoid_element(obj):
    from . import degeneration_monoids
    try:
        return degeneration_monoids.TwistedMonoidElement(
            _int(obj["degree"]), _int_vector(obj["point"]),
            tuple(_frac(x) for x in obj["payload"]))
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput("bad monoid element: %s" % e)


def _h_monoid_add(doc, opts):
    from . import degeneration_monoids
    phi = degeneration_monoids.HomogenizedFunction(de_pwa(doc["function"]))
    z = degeneration_monoids.twisted_add(_de_monoid_element(doc["x"]),
                                         _de_monoid_element(doc["y"]), phi)
    return {"kind": "monoid-element", "degree": z.degree,
            "point": list(z.point), "payload": ser(list(z.payload))}


def _h_fourier(doc, opts):
    from . import degeneration_monoids
    reps, t = degeneration_monoids.fourier_indices(
        _int(doc["rank"]), _int_matrix(doc["phi_map"]))
    return {"kind": "fourier", "reps": [list(r) for r in reps],
            "type": list(t.diag)}


def _h_fiber(doc, opts):
    from . import degeneration_monoids
    pav = de_paving(doc["paving"])
    cfc = degeneration_monoids.central_fiber_complex(
        pav, _int_matrix(doc["phi_image_basis"]))
    return {"kind": "fiber-complex",
            "components": [ser(c.vertices) for c in cfc.components],
            "incidences": [[i, j, ser(w)] for i, j, w in cfc.incidences]}


def _h_face(doc, opts):
    from . import degeneration_monoids, pavings_pwl
    monoid = pavings_pwl.ToricMonoid(
        _int(doc["monoid"]["rank"]),
        [_int_vector(u) for u in doc["monoid"]["functionals"]])
    fq = degeneration_monoids.face_quotient(
        monoid, [_int_vector(u) for u in doc["face_functionals"]],
        de_pwa(doc["function"]))
    return {"kind": "face-quotient",
            "quotient": {"rank": fq.quotient_monoid.rank,
                         "functionals": [list(u) for u in
                                         fq.quotient_monoid.functionals]},
            "admissible": fq.admissible,
            "paving": (ser_paving(fq.coarsened_paving)
                       if fq.coarsened_paving is not None else None)}


def _h_gamma(doc, opts):
    from . import siegel_trop
    tau = siegel_trop.SiegelPoint(_complex_matrix(doc["tau"]), tol=opts.tol)
    out = siegel_trop.gamma_action(_int_matrix(doc["r"]), tau,
                                   _delta(doc["delta"]))
    return {"kind": "siegel-point", "tau": ser(out._rows)}


def _h_cayley(doc, opts):
    from . import siegel_trop
    tau = siegel_trop.SiegelPoint(_complex_matrix(doc["tau"]), tol=opts.tol)
    return {"kind": "matrix", "value": ser(siegel_trop._cayley_rows(tau))}


def _h_trop(doc, opts):
    from . import siegel_trop
    tau = siegel_trop.SiegelPoint(_complex_matrix(doc["tau"]), tol=opts.tol)
    delta = _delta(doc.get("delta", [1] * tau.g))
    cusp = siegel_trop.CuspSpec(_int(doc.get("gprime", 0)), delta)
    return {"kind": "matrix",
            "value": ser(siegel_trop._tropicalize_rows(tau, cusp))}


def _h_heis(doc, opts):
    from . import theta_heisenberg
    delta = _delta(doc["delta"])
    m = _modulus(doc, delta)
    z = theta_heisenberg.heis_mul(_heis_el(doc["x"], delta, m),
                                  _heis_el(doc["y"], delta, m), delta, m)
    return {"kind": "heisenberg-element", "t": z.scalar_exp,
            "a": list(z.a), "b": list(z.b)}


def _h_kw(doc, opts):
    from . import theta_heisenberg
    delta = _delta(doc["delta"])
    m = _modulus(doc, delta)
    spaces = theta_heisenberg.kw_decompose(delta, m)
    return {"kind": "kw",
            "spaces": [{"index": list(idx), "dimension": len(basis)}
                       for idx, basis in spaces]}


def _h_balanced(doc, opts):
    from . import theta_heisenberg
    delta = _delta(doc["delta"])
    m = _modulus(doc, delta)
    pats = [[[list(k), e] for k, e in p]
            for p in theta_heisenberg._balanced_patterns(delta, m)]
    return {"kind": "balanced-set", "count": len(pats), "sections": pats}


def _de_degen(doc):
    from . import quadform_delaunay, theta_heisenberg
    q = quadform_delaunay.QuadraticForm(_frac_matrix(doc["q"]))
    sp = doc.get("s_prime")
    return theta_heisenberg.DegenerationData(
        q, _int_matrix(doc["phi_check"]), _delta(doc["d_type"]),
        _int_matrix(doc["s_xi"]),
        _int_matrix(sp) if sp is not None else None)


def _h_degen(doc, opts):
    from . import theta_heisenberg
    a, b = theta_heisenberg.degen_exponents(
        _de_degen(doc), _int_vector(doc["lambda"]),
        _int_vector(doc["alpha"]))
    return {"kind": "degen-exponents", "a_exp": ser(a), "b_exp": ser(b)}


def _h_twist(doc, opts):
    from . import theta_heisenberg
    a, b = theta_heisenberg.twist_data(
        _de_degen(doc), _int_vector(doc["lambda"]),
        _int_vector(doc["alpha"]))
    return {"kind": "twist-exponents", "a_exp": ser(a), "b_exp": ser(b)}


def _h_profile(doc, opts):
    from . import pavings_pwl, quadform_delaunay, theta_heisenberg
    delta = _delta(doc["delta"])
    m = _modulus(doc, delta)

    def coefficient(e):
        # the profile reads only which indices carry a component, and no
        # zeta power is zero: the exponent is checked, the coefficient 1
        _int(e)
        return theta_heisenberg.CyclotomicInteger.one(m)

    coeffs = {tuple(_int(x) for x in k): coefficient(e)
              for k, e in doc["section"]}
    section = theta_heisenberg.SchrodingerVector(delta, m, coeffs)
    q = quadform_delaunay.QuadraticForm(_frac_matrix(doc["q"]))
    pb = _int_matrix(doc.get("period_basis", _identity_json(q.rank)))
    phi = pavings_pwl.sigma_section(q, pb, opts.window)
    prof = theta_heisenberg.section_valuation_profile(
        section, phi, _int_matrix(doc["phi_map"]), opts.window)
    return {"kind": "valuation-profile",
            "profile": [[list(k), ser(v)] for k, v in sorted(prof.items())]}


def _identity_json(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


HANDLERS = {
    "hnf": _h_hnf, "snf": _h_snf, "symplectic": _h_symplectic,
    "poltype": _h_poltype, "glxy": _h_glxy, "delaunay": _h_delaunay,
    "voronoi-cone": _h_voronoi_cone, "bend": _h_bend,
    "qp-decompose": _h_qp_decompose, "cy-cone": _h_cy_cone,
    "sigma": _h_sigma, "legendre": _h_legendre,
    "monoid-add": _h_monoid_add, "fourier": _h_fourier, "fiber": _h_fiber,
    "face": _h_face, "gamma": _h_gamma, "cayley": _h_cayley,
    "trop": _h_trop, "heis": _h_heis, "kw": _h_kw,
    "balanced": _h_balanced, "degen": _h_degen, "twist": _h_twist,
    "profile": _h_profile,
}


def _emit(doc, opts, stream):
    if opts.format == "json":
        stream.write(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
    else:
        _emit_text(doc, stream, indent=0)


def _emit_text(doc, stream, indent):
    pad = "  " * indent
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                stream.write("%s%s:\n" % (pad, k))
                _emit_text(v, stream, indent + 1)
            else:
                stream.write("%s%s: %s\n" % (pad, k, v))
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                _emit_text(v, stream, indent)
            else:
                stream.write("%s- %s\n" % (pad, v))
    else:
        stream.write("%s%s\n" % (pad, doc))


def build_parser():
    p = argparse.ArgumentParser(
        prog="tropab",
        description="Exact computations for degenerating polarized "
                    "abelian varieties (JSON in, JSON out).")
    p.add_argument("command", choices=sorted(HANDLERS))
    p.add_argument("--input", default="-",
                   help="input JSON file, or - for stdin")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=["json", "text"], default="json")
    return p


def main(argv=None, stdin=None, stdout=None, stderr=None):
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    opts = build_parser().parse_args(argv)
    try:
        if opts.input == "-":
            raw = stdin.read()
        else:
            with open(opts.input) as fh:
                raw = fh.read()
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise MalformedInput("top-level input must be a JSON object")
        out = HANDLERS[opts.command](doc, opts)
    except DomainError as e:
        err = {"kind": "error", "code": e.code, "message": str(e),
               "field": e.field}
        _emit(err, opts, stdout)
        return 1
    except (MalformedInput, KeyError, TypeError, ValueError,
            json.JSONDecodeError, OSError, OverflowError) as e:
        stderr.write("malformed input: %s\n" % e)
        return 2
    _emit(out, opts, stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
