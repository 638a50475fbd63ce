"""The JSON batch front end: output shapes, exit codes, determinism,
and piping one command's output into the next."""

import io
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tropab import errors, exact_linalg, pavings_pwl, quadform_delaunay
from tropab.cli import HANDLERS, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(command, doc=None, args=(), text=None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    payload = text if text is not None else json.dumps(doc or {})
    out, err = io.StringIO(), io.StringIO()
    code = main([command, *args], stdin=io.StringIO(payload),
                stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(command, doc, args=()):
    code, out, err = run(command, doc, args)
    assert code == 0, err or out
    return json.loads(out)


# -- exit codes and determinism ---------------------------------------------

def test_snf_success_is_byte_deterministic():
    doc = {"matrix": [[2, 4], [6, 8]]}
    outs = {run("snf", doc)[1] for _ in range(3)}
    assert len(outs) == 1
    got = json.loads(outs.pop())
    assert got["kind"] == "snf"
    assert got["d"] == [2, 4]


def test_domain_error_is_structured_exit_1():
    code, out, err = run("symplectic", {"matrix": [[1, 2], [-2, 0]]})
    assert code == 1
    assert err == ""
    got = json.loads(out)
    assert got["kind"] == "error"
    assert got["code"] == "NotSkew"
    assert "alternating" in got["message"]


def _domain_errors(cls=errors.DomainError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _domain_errors(sub)


def test_every_error_code_is_its_class_name():
    """The CLI prints ``code``: for each DomainError, the package's and a
    new one alike, it is the class name."""
    package = [c for c in _domain_errors() if c.__module__ == errors.__name__]
    assert len(package) == 27
    assert errors.DomainError.code == "DomainError"

    class NewError(errors.DomainError):
        pass
    for cls in package + [NewError]:
        assert cls.code == cls("message").code == cls.__name__


def test_malformed_input_exit_2():
    code, out, err = run("snf", text="this is not json")
    assert code == 2
    assert out == ""
    assert "malformed" in err


def test_missing_field_exit_2():
    code, _, err = run("snf", {"wrong_key": [[1]]})
    assert code == 2
    assert "malformed" in err


def test_non_object_toplevel_exit_2():
    code, _, _ = run("snf", text="[1, 2, 3]")
    assert code == 2


def test_bad_rational_exit_2():
    code, _, _ = run("delaunay", {"q": [["1/0"]]})
    assert code == 2


def test_input_file(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"matrix": [[0, 3], [-3, 0]]}))
    got = run_json("symplectic", None, args=["--input", str(p)])
    assert got["type"] == [3]


def test_text_format():
    code, out, _ = run("poltype", {"matrix": [[2, 0], [0, 6]]},
                       args=["--format", "text"])
    assert code == 0
    assert "type:" in out and "- 2" in out and "- 6" in out


# -- exact linear algebra commands ------------------------------------------

def test_hnf():
    got = run_json("hnf", {"matrix": [[2, 4], [6, 8]]})
    assert got["kind"] == "hnf"
    assert got["h"][1][0] == 0


def test_glxy():
    got = run_json("glxy", {"u": [[1, 1], [0, 1]],
                            "q": [[2, 0], [0, 2]],
                            "y_basis": [[1, 0], [0, 1]]})
    assert got["q"] == [["2", "-2"], ["-2", "4"]]


# -- pavings and piecewise-affine pipelines ---------------------------------

HEX_Q = {"q": [[2, 1], [1, 2]]}
SHEARED_Q = {"q": [[14, -25], [-25, 45]]}


def test_delaunay_hexagonal():
    got = run_json("delaunay", HEX_Q)
    assert got["kind"] == "paving"
    assert got["cells"] == [[[0, 0], [0, 1], [1, 0]],
                            [[0, 0], [1, -1], [1, 0]]]


def test_delaunay_answers_a_huge_window_at_once(monkeypatch):
    """The window is a label: window 10^9 tests as many lattice points as
    the default window, and prints the same cells."""
    tested = []

    def points(*args):
        for found in ellipsoid_points(*args):
            tested.append(found)
            yield found

    ellipsoid_points = quadform_delaunay._ellipsoid_points
    monkeypatch.setattr(quadform_delaunay, "_ellipsoid_points", points)
    default = run_json("delaunay", SHEARED_Q)
    per_call = len(tested)
    huge = run_json("delaunay", SHEARED_Q, args=("--window", "1000000000"))
    assert len(tested) == 2 * per_call
    assert (huge["window"], default["window"]) == (10 ** 9, 4)
    assert {**huge, "window": 4} == default


@pytest.mark.parametrize("doc, args, want", [
    ({"q": [[1, 2], [2, 1]]}, (), ("NotPositiveDefinite", "q")),
    ({"q": [[1, 3], [3, 10]]}, ("--window", "1"), ("WindowTooSmall", "window")),
    ({"q": [[14, -25], [-25, 45]]}, ("--window", "0"),
     ("WindowTooSmall", "window")),
    ({"q": [[int(i == j) for j in range(4)] for i in range(4)]}, (),
     ("TooLarge", "q")),
], ids=["indefinite", "window", "sheared", "rank4"])
def test_delaunay_refusals_name_their_field(doc, args, want):
    code, out, _ = run("delaunay", doc, args=args)
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == want


def test_delaunay_sheared_form_at_window_5():
    got = run_json("delaunay", SHEARED_Q, args=("--window", "5"))
    assert got["cells"] == [[[0, 0], [2, 1], [5, 3], [7, 4]]]
    assert got["window"] == 5


def test_delaunay_sheared_form_at_the_default_window():
    """No translate of the parallelogram fits in the default window 4;
    the window is a label, and the answer is that of window 5."""
    got = run_json("delaunay", SHEARED_Q)
    assert got["cells"] == [[[0, 0], [2, 1], [5, 3], [7, 4]]]
    assert got["window"] == 4
    cone = run_json("voronoi-cone", {"paving": got, "q": SHEARED_Q["q"]})
    assert cone["contains"] is True


def test_delaunay_with_a_fractional_shift_prints_rationals():
    got = run_json("delaunay", {**HEX_Q, "shift": ["1/2", "1/3"]})
    assert got["cells"] == [
        [["1/2", "1/3"], ["1/2", "4/3"], ["3/2", "1/3"]],
        [["1/2", "1/3"], ["3/2", "-2/3"], ["3/2", "1/3"]]]


def test_a_fractional_paving_pipes_into_voronoi_cone_and_fiber():
    pav = run_json("delaunay", {**HEX_Q, "shift": ["1/2", "1/3"]})
    got = run_json("voronoi-cone", {"paving": pav, "q": HEX_Q["q"]})
    assert got["contains"] is True
    code, out, err = run("fiber", {"paving": pav,
                                   "phi_image_basis": [[1, 0], [0, 1]]})
    assert code == 0, err
    fib = json.loads(out)
    assert fib["components"] == pav["cells"]
    assert len(fib["incidences"]) == 3


@pytest.mark.parametrize("shift", [[1, 2, 3], [1], []],
                         ids=["long", "short", "empty"])
def test_delaunay_refuses_a_shift_of_the_wrong_length(shift):
    code, out, _ = run("delaunay", {**HEX_Q, "shift": shift})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("RankMismatch", "shift")


def test_delaunay_roundtrips_into_voronoi_cone():
    pav = run_json("delaunay", HEX_Q)
    got = run_json("voronoi-cone", {"paving": pav, "q": HEX_Q["q"]})
    assert got["contains"] is True
    got = run_json("voronoi-cone", {"paving": pav,
                                    "q": [[2, -1], [-1, 2]]})
    assert got["contains"] is False


@pytest.mark.parametrize("cells, q, field", [
    ([], HEX_Q["q"], "paving"),
    ([[[0, 0], [0, 1], [1, 0]], [[0, 0], [1, -1], [1, 0]]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "q"),
], ids=["empty", "rank"])
def test_voronoi_cone_refusals_name_their_field(cells, q, field):
    pav = {"rank": 2, "period_basis": [[1, 0], [0, 1]], "cells": cells}
    code, out, _ = run("voronoi-cone", {"paving": pav, "q": q})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("InvalidPaving", field)


def test_sigma_pipes_into_bend_and_legendre():
    sig = run_json("sigma", {"q": [[1]]})
    assert sig["kind"] == "pw-affine"
    bends = run_json("bend", {"function": sig})
    assert bends["walls"] == [{"vertices": [[0]], "bending": ["1"]}]
    leg = run_json("legendre", {"function": sig, "window": 2})
    assert leg["values"] == [[[-2], "2"], [[-1], "1/2"], [[0], "0"],
                             [[1], "1/2"], [[2], "2"]]


def test_legendre_refuses_a_huge_window_before_enumerating(monkeypatch):
    sig = run_json("sigma", {"q": [[1]]})

    def orbits(self):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(quadform_delaunay.PeriodicPaving, "vertex_orbits",
                        orbits)
    code, out, _ = run("legendre", {"function": sig, "window": 10 ** 9})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("TooLarge", "window")


def test_qp_decompose():
    samples = [[[x], str(x * x)] for x in range(-4, 5)]
    got = run_json("qp-decompose", {"samples": samples,
                                    "period_basis": [[1]]})
    assert got["bilinear"] == [["2"]]
    assert got["linear"] == ["0"]
    assert got["periodic"] == [[["0"], "0"]]


def test_cy_cone():
    pav = run_json("delaunay", {"q": [[1]]})
    samples = [[[x], "%d/2" % (x * x)] for x in range(-5, 6)]
    got = run_json("cy-cone", {"samples": samples, "paving": pav,
                               "period_basis": [[1]]})
    assert got["member"] is True


def test_monoid_add():
    sig = run_json("sigma", {"q": [[1]]})
    got = run_json("monoid-add", {
        "function": sig,
        "x": {"degree": 1, "point": [0], "payload": ["0"]},
        "y": {"degree": 1, "point": [3], "payload": ["0"]}})
    assert got == {"kind": "monoid-element", "degree": 2, "point": [3],
                   "payload": ["2"]}


def test_monoid_add_names_the_point_of_a_rank_mismatch():
    sig = run_json("sigma", {"q": [[1]]})
    code, out, _ = run("monoid-add", {
        "function": sig,
        "x": {"degree": 1, "point": [0, 1], "payload": ["0"]},
        "y": {"degree": 1, "point": [0, 1], "payload": ["0"]}})
    assert code == 1
    assert json.loads(out) == {"kind": "error", "code": "OutsideSupport",
                               "message": "rank mismatch", "field": "point"}


def test_fourier_and_fiber():
    got = run_json("fourier", {"rank": 1, "phi_map": [[3]]})
    assert got["reps"] == [[0], [1], [2]]
    assert got["type"] == [3]
    pav = run_json("delaunay", {"q": [[1]]})
    fib = run_json("fiber", {"paving": pav, "phi_image_basis": [[3]]})
    assert len(fib["components"]) == 3
    assert [(i, j) for i, j, _ in fib["incidences"]] == [(0, 1), (0, 2),
                                                        (1, 2)]


@pytest.mark.parametrize("command, doc", [
    ("fourier", {"rank": 1, "phi_map": [[10 ** 12]]}),
    ("fiber", {"phi_image_basis": [[10 ** 12]]}),
    ("profile", {"delta": [3], "modulus": 6,
                 "section": [[[0], 0], [[1], 0], [[2], 0]],
                 "q": [[1]], "phi_map": [[10 ** 12]]}),
])
def test_an_index_over_the_limit_is_refused(command, doc):
    """A lattice of index 10^12 has 10^12 cosets; the refusal comes
    before any of them is listed, and names the field of the input that
    holds the lattice basis."""
    field = {"fourier": "phi_map", "fiber": "phi_image_basis",
             "profile": "phi_map"}[command]
    if command == "fiber":
        doc = dict(doc, paving=run_json("delaunay", {"q": [[1]]}))
    code, out, _ = run(command, doc)
    assert code == 1
    err = json.loads(out)
    assert err["code"] == "TooLarge"
    assert err["field"] == field and field in doc


def test_face():
    sig = run_json("sigma", {"q": [[1]]})
    got = run_json("face", {"monoid": {"rank": 1, "functionals": [[1]]},
                            "face_functionals": [[1]],
                            "function": sig})
    assert got["admissible"] is True
    assert got["quotient"]["rank"] == 1


def _sigma_of_payload_rank_2():
    """Two copies of sigma of [[1]] as one function of payload rank 2."""
    sig = run_json("sigma", {"q": [[1]]})
    sig["payload_rank"] = 2
    for piece in sig["cell_affines"]:
        piece["linear"] *= 2
        piece["constant"] *= 2
    sig["quasi_bilinear"] *= 2
    sig["quasi_linear"] *= 2
    return sig


def test_face_refuses_a_monoid_whose_basis_box_is_too_large():
    """A payload of rank 2 over the monoid {x >= 0, 10^6 y >= x}: its ray
    (10^6, 1) spans a box of more than 10^5 points, refused on the field
    ``monoid`` before the box is listed."""
    code, out, _ = run("face", {
        "monoid": {"rank": 2, "functionals": [[1, 0], [-1, 10 ** 6]]},
        "face_functionals": [[1, 0]], "function": _sigma_of_payload_rank_2()})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("TooLarge", "monoid")


@pytest.mark.parametrize("face", [[1, 0], [0, 0]], ids=["line", "all"])
def test_face_refuses_a_monoid_that_is_not_sharp(face):
    """{x >= 0} in Z^2 holds a line: exit 1 on the field ``monoid``, not
    a quotient of rank 2."""
    code, out, _ = run("face", {
        "monoid": {"rank": 2, "functionals": [[1, 0]]},
        "face_functionals": [face], "function": _sigma_of_payload_rank_2()})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("NotAFace", "monoid")


@pytest.mark.parametrize("edit", [
    lambda f: f["cell_affines"][0].update(linear=[["1/2", "1"]]),
    lambda f: f["cell_affines"][0].update(constant=["0", "1"]),
    lambda f: f.update(quasi_bilinear=[]),
], ids=["linear", "constant", "quasi_bilinear"])
def test_bend_rejects_misshapen_function_exit_2(edit):
    sig = run_json("sigma", {"q": [[1]]})
    edit(sig)
    code, out, err = run("bend", {"function": sig})
    assert code == 2 and out == ""
    assert err.startswith("malformed input")


@pytest.mark.parametrize("functionals, face_functionals", [
    ([[1, 0]], [[1]]),
    ([[1]], [[1, 5]]),
], ids=["monoid", "face"])
def test_face_rejects_functional_of_wrong_length_exit_2(functionals,
                                                         face_functionals):
    sig = run_json("sigma", {"q": [[1]]})
    code, out, err = run("face", {"monoid": {"rank": 1,
                                             "functionals": functionals},
                                  "face_functionals": face_functionals,
                                  "function": sig})
    assert code == 2 and out == ""
    assert err.startswith("malformed input")


def test_fiber_rejects_duplicate_cell_vertices_exit_2():
    code, out, err = run("fiber", {
        "paving": {"rank": 1, "period_basis": [[1]],
                   "cells": [[[0], [0], [1]]]},
        "phi_image_basis": [[2]]})
    assert (code, out) == (2, "")
    assert err.startswith("malformed input")
    assert "duplicate vertices" in err


# -- Siegel commands --------------------------------------------------------

def test_trop_at_the_cusp():
    got = run_json("trop", {"tau": [[[0, 2], [0, 1]], [[0, 1], [0, 2]]],
                            "gprime": 1})
    assert abs(got["value"][0][0] - 1.5) < 1e-12


def test_gamma_rejects_non_symplectic():
    code, out, _ = run("gamma", {"tau": [[[0, 1]]], "r": [[1, 1], [1, 1]],
                                 "delta": [1]})
    assert code == 1
    assert json.loads(out)["code"] == "NotSymplectic"


def test_cayley_center():
    got = run_json("cayley", {"tau": [[[0, 1]]]})
    assert got["value"] == [[[0.0, 0.0]]]


@pytest.mark.parametrize("tau", [[[[1]]], [[[0, 1, 5]]]],
                         ids=["short", "long"])
def test_cayley_rejects_a_complex_entry_that_is_not_a_pair(tau):
    code, out, err = run("cayley", {"tau": tau})
    assert code == 2
    assert out == ""
    assert "malformed" in err


@pytest.mark.parametrize("tau", [[[[1e8, 1e-8]]], [[[1e9, 1e-9]]]],
                         ids=["1e8", "1e9"])
def test_cayley_refuses_a_point_too_close_to_the_boundary(tau):
    """I - Z conj(Z) is not positive definite in binary64: a structured
    error on the field tau, not an AssertionError that -O would skip."""
    code, out, err = run("cayley", {"tau": tau})
    assert (code, err) == (1, "")
    got = json.loads(out)
    assert (got["kind"], got["code"], got["field"]) == (
        "error", "IllConditionedBlock", "tau")


def _far_tau(s):
    """[[s, s], [s, s + 1]] + iI as JSON."""
    return [[[s, 1], [s, 0]], [[s, 0], [s + 1, 1]]]


@pytest.mark.parametrize("command, s, code", [
    ("gamma", 1e8, "IllConditionedBlock"),
    ("gamma", 1e10, "NearSingularDenominator"),
    ("cayley", 1e11, "NearSingularDenominator"),
], ids=["gamma-image", "gamma-denominator", "cayley-denominator"])
def test_siegel_refusals_name_tau(command, s, code):
    """Well-formed input that binary64 cannot carry through exits 1 with
    a structured error on tau (the gamma image used to exit 2 as
    malformed, and the denominators named no field)."""
    doc = {"tau": _far_tau(s)}
    if command == "gamma":
        doc.update(r=[[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0],
                      [0, 1, 0, 0]], delta=[1, 1])
    rc, out, err = run(command, doc)
    assert (rc, err) == (1, "")
    got = json.loads(out)
    assert (got["kind"], got["code"], got["field"]) == ("error", code, "tau")


@pytest.mark.parametrize("command, doc", [
    ("gamma", {"tau": [[[0, 1]]], "r": [[1, 10 ** 340], [0, 1]],
               "delta": [1]}),
    ("cayley", {"tau": [[[10 ** 340, 1]]]}),
    ("trop", {"tau": [[10 ** 340]]}),
], ids=["gamma-r", "cayley-tau", "trop-tau"])
def test_an_integer_beyond_binary64_is_malformed(command, doc):
    """The Siegel maps compute in binary64: an integer entry no float can
    hold exits 2 with a message, not with a traceback."""
    code, out, err = run(command, doc)
    assert (code, out) == (2, "")
    assert err.startswith("malformed input: ")


@pytest.mark.parametrize("command, text", [
    ("trop", '{"tau": [[NaN]]}'),
    ("trop", '{"tau": [[[Infinity, 1]]]}'),
    ("cayley", '{"tau": [[[0, NaN]]]}'),
    ("gamma", '{"tau": [[[-Infinity, 1]]], "r": [[1, 0], [0, 1]], '
              '"delta": [1]}'),
], ids=["trop-nan", "trop-inf", "cayley-nan", "gamma-inf"])
def test_a_non_finite_tau_is_malformed(command, text):
    """json.loads reads NaN and Infinity; a Siegel point refuses them, so
    no subcommand prints a non-JSON NaN or fails inside an SVD."""
    code, out, err = run(command, text=text)
    assert (code, out) == (2, "")
    assert err == "malformed input: tau must have finite entries\n"


@pytest.mark.parametrize("command, tol", [
    ("gamma", "0"), ("cayley", "0"), ("cayley", "-5"), ("trop", "nan"),
    ("trop", "inf")])
def test_a_tolerance_that_is_not_finite_and_positive_is_malformed(command,
                                                                  tol):
    """--tol 0 used to end in a ZeroDivisionError traceback, and a
    negative one called a valid tau asymmetric."""
    doc = {"gamma": {"tau": [[[0, 1]]], "r": [[1, 0], [0, 1]],
                     "delta": [1]},
           "cayley": {"tau": [[[0, 1]]]},
           "trop": {"tau": [[[0, 1]]]}}[command]
    code, out, err = run(command, doc, args=("--tol", tol))
    assert (code, out) == (2, "")
    assert err.startswith("malformed input: tol must be finite and positive")


@pytest.mark.parametrize("command", ["trop", "gamma", "cayley"])
@pytest.mark.parametrize("tau", [[["2j"]], [[["0", "2"]]]],
                         ids=["string", "pair-of-strings"])
def test_a_string_complex_entry_is_malformed(command, tau):
    """complex() reads a string as a Python literal: "2j" was read as 2j
    and a pair of strings failed with Python's own message."""
    doc = {"tau": tau}
    if command == "gamma":
        doc.update(r=[[1, 0], [0, 1]], delta=[1])
    code, out, err = run(command, doc)
    assert (code, out) == (2, "")
    assert err == ("malformed input: a complex entry is a number or an "
                   "[re, im] pair of numbers\n")


@pytest.mark.parametrize("command, text", [
    ("hnf", '{"matrix": [[true, false], [false, true]]}'),
    ("delaunay", '{"q": [[true]]}'),
    ("cayley", '{"tau": [[[false, true]]]}'),
    ("kw", '{"delta": [true, true]}'),
], ids=["hnf", "delaunay", "cayley", "kw"])
def test_a_json_boolean_is_malformed(command, text):
    """bool is an int in Python, but true is no number: each of these
    exited 0, reading true as 1 and false as 0."""
    code, out, err = run(command, text=text)
    assert (code, out) == (2, "")
    assert err.startswith("malformed input: ")


@pytest.mark.parametrize("command", ["delaunay", "sigma"])
@pytest.mark.parametrize("q", [[[1, 2]], [[1], [2]], [[]]],
                         ids=["row", "column", "empty-row"])
def test_a_form_that_is_not_square_is_malformed(command, q):
    """The refusal says what is wrong: such a form used to be called not
    symmetric."""
    code, out, err = run(command, {"q": q})
    assert (code, out) == (2, "")
    assert err == "malformed input: quadratic form matrix must be square\n"


# -- Heisenberg commands ----------------------------------------------------

def test_heis_mul():
    got = run_json("heis", {"delta": [3], "modulus": 6,
                            "x": [0, [1], [0]], "y": [0, [0], [1]]})
    assert got == {"kind": "heisenberg-element", "t": 2, "a": [1],
                   "b": [1]}


@pytest.mark.parametrize("x", [[0.5, [1.7], [0]], [0, [1], ["1/2"]],
                               [float("inf"), [1], [0]]])
def test_heis_rejects_non_integral_numbers(x):
    code, out, err = run("heis", {"delta": [3], "modulus": 6,
                                  "x": x, "y": [0, [0], [1]]})
    assert (code, out) == (2, "")
    assert "malformed" in err


def test_kw_dimensions():
    got = run_json("kw", {"delta": [3]})
    assert got["spaces"] == [{"index": [0], "dimension": 1},
                             {"index": [1], "dimension": 1},
                             {"index": [2], "dimension": 1}]


def test_balanced_count():
    got = run_json("balanced", {"delta": [2], "modulus": 4})
    assert got["count"] == 4


def test_degen_and_twist():
    doc = {"q": [[1]], "phi_check": [[2]], "d_type": [1], "s_xi": [[0]],
           "lambda": [2], "alpha": [3]}
    got = run_json("degen", doc)
    assert got["a_exp"] == "4" and got["b_exp"] == "12"
    got = run_json("twist", doc)
    assert got["a_exp"] == "0" and got["b_exp"] == "0"


@pytest.mark.parametrize("key", ["s_xi", "s_prime"])
def test_degen_refuses_a_twist_matrix_of_the_wrong_size(key):
    """A 1 x 1 S_xi or S' for a rank-2 form is malformed input (exit 2),
    not an IndexError."""
    doc = {"q": [[1, 0], [0, 1]], "phi_check": [[2, 0], [0, 2]],
           "d_type": [1, 1], "s_xi": [[0, 0], [0, 0]], "lambda": [1, 1],
           "alpha": [0, 0], key: [[0]]}
    code, out, err = run("degen", doc)
    assert (code, out) == (2, "")
    assert "must be 2 x 2" in err


def test_profile():
    got = run_json("profile", {
        "delta": [3], "modulus": 6,
        "section": [[[0], 0], [[1], 0], [[2], 0]],
        "q": [[1]], "phi_map": [[3]]})
    assert got["profile"] == [[[0], "0"], [[1], "1/2"], [[2], "1/2"]]


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"], stdin=io.StringIO("{}"),
             stdout=io.StringIO(), stderr=io.StringIO())


# -- the exit-code contract over any JSON document --------------------------

@cache
def _seed_documents():
    """One valid document per subcommand, the start of each fuzzed one."""
    sig = run_json("sigma", {"q": [[1]]})
    pav1 = run_json("delaunay", {"q": [[1]]})
    pav2 = run_json("delaunay", {"q": [[2, 1], [1, 2]]})
    squares = [[[x], str(x * x)] for x in range(-3, 4)]
    degen = {"q": [[1]], "phi_check": [[2]], "d_type": [1], "s_xi": [[0]],
             "lambda": [2], "alpha": [3]}
    return {
        "hnf": {"matrix": [[2, 4], [6, 8]]},
        "snf": {"matrix": [[2, 4], [6, 8]]},
        "symplectic": {"matrix": [[0, 2], [-2, 0]]},
        "poltype": {"matrix": [[1, 0], [0, 2]]},
        "glxy": {"u": [[1, 1], [0, 1]], "q": [[2, 1], [1, 2]],
                 "y_basis": [[1, 0], [0, 1]]},
        "delaunay": {"q": [[2, 1], [1, 2]], "period_basis": [[1, 0], [0, 1]],
                     "shift": ["1/2", 0]},
        "voronoi-cone": {"paving": pav2, "q": [[2, 1], [1, 2]]},
        "bend": {"function": sig},
        "qp-decompose": {"samples": squares, "period_basis": [[1]]},
        "cy-cone": {"samples": squares, "paving": pav1,
                    "period_basis": [[1]]},
        "sigma": {"q": [[2, 1], [1, 2]]},
        "legendre": {"function": sig, "window": 2},
        "monoid-add": {"function": sig,
                       "x": {"degree": 1, "point": [1], "payload": ["0"]},
                       "y": {"degree": 1, "point": [2], "payload": ["1/2"]}},
        "fourier": {"rank": 2, "phi_map": [[2, 1], [0, 3]]},
        "fiber": {"paving": pav2, "phi_image_basis": [[2, 0], [0, 1]]},
        "face": {"monoid": {"rank": 1, "functionals": [[1]]},
                 "face_functionals": [[1]], "function": sig},
        "gamma": {"tau": [[[0, 1]]], "r": [[1, 0], [0, 1]], "delta": [1]},
        "cayley": {"tau": [[[0, 1]]]},
        "trop": {"tau": [[[0, 2], [0, 1]], [[0, 1], [0, 2]]], "gprime": 1},
        "heis": {"delta": [3], "modulus": 6, "x": [0, [1], [0]],
                 "y": [0, [0], [1]]},
        "kw": {"delta": [3]},
        "balanced": {"delta": [2], "modulus": 4},
        "degen": degen,
        "twist": degen,
        "profile": {"delta": [3], "modulus": 6,
                    "section": [[[0], 0], [[1], 0], [[2], 0]],
                    "q": [[1]], "phi_map": [[3]]},
    }


_SMALL = st.integers(-4, 12)
_JUNK = st.one_of(
    st.none(), st.booleans(), _SMALL,
    st.sampled_from(["1/2", "-3", "x", "1/0", "", 0.5, float("nan")]),
    st.lists(_SMALL, max_size=3),
    st.lists(st.lists(_SMALL, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["rank", "cells", "degree"]), _SMALL,
                    max_size=2))


def _paths(value, prefix=()):
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@st.composite
def _documents(draw):
    """A subcommand and its seed document with up to three edits: a
    value replaced by junk, a key or list entry deleted, or a list entry
    repeated."""
    command = draw(st.sampled_from(sorted(HANDLERS)))
    doc = json.loads(json.dumps(_seed_documents()[command]))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_JUNK)
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        edit = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if edit == "replace":
            parent[path[-1]] = draw(_JUNK)
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(parent[path[-1]])
    return command, doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_documents())
@example(("heis", {"delta": [], "x": [0, [], []], "y": [0, [], []]}))
@example(("kw", {"delta": []}))
@example(("cayley", {"tau": [[[1e8, 1e-8]]]}))
@example(("balanced", {"delta": []}))
@example(("profile", {"delta": [], "section": [], "q": [[1]],
                      "phi_map": [[1]]}))
@example(("heis", {"delta": [2], "modulus": 0, "x": [0, [1], [0]],
                   "y": [0, [0], [1]]}))
@example(("heis", {"delta": [2], "modulus": -4, "x": [0, [1], [0]],
                   "y": [0, [0], [1]]}))
@example(("heis", {"delta": [2], "modulus": 4, "x": [1, [1, 1], [1, 5]],
                   "y": [0, [0], [1]]}))
@example(("profile", {"delta": [3], "modulus": False,
                      "section": [[[0], 0], [[1], 0], [[2], 0]],
                      "q": [[1]], "phi_map": [[3]]}))
@example(("fiber", {"paving": {"rank": 2, "period_basis": [[1, 0], [0, 1]],
                               "cells": [[[0, 0], [0, 1], [1, 0]],
                                         [[0, 0, 0], [1, -1], [1, 0]]]},
                    "phi_image_basis": [[2, 0], [0, 1]]}))
@example(("bend", {"function": {
    "paving": {"rank": 1, "period_basis": [[1]], "cells": [[]]},
    "cell_affines": [{"linear": [["1/2"]], "constant": ["0"]}],
    "quasi_bilinear": [[["1"]]], "quasi_linear": [["0"]]}}))
@example(("qp-decompose", {"samples": [[[0, 0], "0"], [[1], "1"]],
                           "period_basis": [[1]]}))
@example(("qp-decompose", {"samples": [[[0], "0"]], "period_basis": [[]]}))
@example(("monoid-add", {"function": {
    "paving": {"rank": 1, "period_basis": [[1]], "cells": [[[0], [1]]]},
    "cell_affines": [{"linear": [["1/2"]], "constant": ["0"]}],
    "quasi_bilinear": [[["1"]]], "quasi_linear": [["0"]]},
    "x": {"degree": 1, "point": [1], "payload": ["0", "1"]},
    "y": {"degree": 1, "point": [2], "payload": ["0", "1"]}}))
def test_every_document_keeps_the_exit_code_contract(case):
    """Any JSON document exits 0, 1 or 2: 0 and 1 print one JSON object
    on stdout (an error object for 1), and 2 prints nothing there."""
    command, doc = case
    code, out, err = run(command, doc)
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert out == "" and err.startswith("malformed input")
    else:
        got = json.loads(out)
        assert (got["kind"] == "error") == (code == 1)


@pytest.mark.parametrize("doc, field", [
    ({"delta": [2], "modulus": 0}, "modulus"),
    ({"delta": [2], "modulus": -4}, "modulus"),
    ({"delta": [2], "modulus": 6}, "modulus"),
])
def test_heis_refuses_a_bad_modulus_naming_its_field(doc, field):
    code, out, _ = run("heis", dict(doc, x=[0, [1], [0]], y=[0, [0], [1]]))
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("BadModulus", field)


@pytest.mark.parametrize("command", ["heis", "kw", "balanced", "profile"])
def test_an_empty_delta_is_malformed(command):
    doc = dict(_seed_documents()[command], delta=[])
    code, out, err = run(command, doc)
    assert (code, out) == (2, "")
    assert "delta" in err


@pytest.mark.parametrize("x, y, field", [
    ([0, [1, 1], [0]], [0, [0], [1]], "a"),
    ([0, [1], [1, 5]], [0, [0], [1]], "b"),
])
def test_heis_refuses_a_vector_of_the_wrong_length(x, y, field):
    code, out, _ = run("heis", {"delta": [2], "modulus": 4, "x": x, "y": y})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("RankMismatch", field)


def test_monoid_add_refuses_a_payload_of_the_wrong_length():
    doc = dict(_seed_documents()["monoid-add"])
    doc["x"] = dict(doc["x"], payload=["0", "1"])
    code, out, _ = run("monoid-add", doc)
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("RankMismatch", "payload")


def test_kw_refuses_too_many_lines_before_building_them():
    code, out, _ = run("kw", {"delta": [10 ** 12]})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("TooLarge", "delta")


def test_balanced_refuses_too_many_sections_before_building_them():
    code, out, _ = run("balanced", {"delta": [2, 4]})
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("TooLarge", "delta")
    assert "8^7" in got["message"]


def test_balanced_refuses_a_modulus_whose_cyclotomic_degree_is_too_large():
    """phi(2 * 10^6) = 800000 is over the limit: refused within 1 s,
    before the cyclotomic polynomial is built, which would not end in
    minutes.  The call runs in a thread, so a regression fails here
    instead of hanging."""
    result = []
    worker = threading.Thread(target=lambda: result.append(run(
        "balanced", {"delta": [1], "modulus": 2_000_000})), daemon=True)
    worker.start()
    worker.join(timeout=1)
    assert not worker.is_alive(), "balanced still runs after 1 s"
    code, out, _ = result[0]
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("TooLarge", "modulus")


def test_balanced_answers_a_modulus_of_large_cyclotomic_degree():
    """phi(510510) = 92160 is within the limit: the one section of
    delta = (1) is printed without building Phi_M or reading an exponent
    back.  The call runs in a thread, so a regression fails here instead
    of hanging."""
    result = []
    worker = threading.Thread(target=lambda: result.append(run(
        "balanced", {"delta": [1], "modulus": 510510})), daemon=True)
    worker.start()
    worker.join(timeout=3)
    assert not worker.is_alive(), "balanced still runs after 3 s"
    code, out, _ = result[0]
    assert code == 0
    assert json.loads(out) == {"kind": "balanced-set", "count": 1,
                               "sections": [[[[0], 0]]]}


@pytest.mark.parametrize("command, doc, limit, want", [
    ("kw", {"delta": [1], "modulus": 510510}, 0.5,
     {"kind": "kw", "spaces": [{"index": [0], "dimension": 1}]}),
    ("profile", {"delta": [1], "modulus": 30030,
                 "section": [[[0], 30029]], "q": [[1]], "phi_map": [[1]]},
     2, {"kind": "valuation-profile", "profile": [[[0], "0"]]}),
], ids=["kw", "profile"])
def test_theta_commands_answer_a_modulus_of_large_cyclotomic_degree(
        command, doc, limit, want):
    """kw prints a delta function per index, and profile reads only which
    indices carry a coefficient: neither builds Phi_M (phi(510510) =
    92160) nor reduces x^30029 modulo Phi_30030.  The call runs in a
    thread, so a regression fails here instead of hanging."""
    result = []
    worker = threading.Thread(target=lambda: result.append(run(
        command, doc)), daemon=True)
    worker.start()
    worker.join(timeout=limit)
    assert not worker.is_alive(), "%s still runs after %s s" % (command,
                                                                limit)
    code, out, _ = result[0]
    assert code == 0
    assert json.loads(out) == want


@pytest.mark.parametrize("exponent", ["1/2", [1], "zeta"])
def test_profile_checks_every_exponent_it_does_not_read(exponent):
    """profile gives every component the coefficient 1, but a malformed
    exponent, even after good ones, still exits 2."""
    doc = dict(_seed_documents()["profile"],
               section=[[[0], 0], [[1], exponent], [[2], 0]])
    code, out, err = run("profile", doc)
    assert (code, out) == (2, "")
    assert err.startswith("malformed input: ")


def test_balanced_prints_every_pattern_in_product_order():
    """delta = (2, 2, 2), M = 4: 4^7 patterns, the first exponent 0 and
    the other seven in itertools.product order over the sorted indices."""
    got = run_json("balanced", {"delta": [2, 2, 2], "modulus": 4})
    indices = [list(k) for k in product(range(2), repeat=3)]
    want = [[[k, e] for k, e in zip(indices, (0,) + rest)]
            for rest in product(range(4), repeat=7)]
    assert got == {"kind": "balanced-set", "count": 16_384,
                   "sections": want}


_DEGEN2 = {"q": [[1, 0], [0, 1]], "phi_check": [[2, 0], [0, 2]],
           "d_type": [1, 1], "s_xi": [[0, 1], [-1, 0]],
           "s_prime": [[0, 1], [1, 0]], "lambda": [1, 1], "alpha": [0, 0]}


@pytest.mark.parametrize("command, edit, code, field", [
    ("degen", {"s_xi": [[1, 1], [-1, 0]]}, "BadTwistPair", "s_xi"),
    ("twist", {"s_prime": [[0, 1], [3, 0]]}, "BadTwistPair", "s_prime"),
    ("degen", {"s_prime": [[0, 2], [2, 0]]}, "BadTwistPair", "s_prime"),
    ("twist", {"phi_check": [[2, 0], [0, 3]]}, "InconsistentData",
     "phi_check"),
    ("profile", {"section": [[[0], 0], [[2], 0]]}, "EmptyComponent",
     "section"),
], ids=["skew", "symmetric", "congruent", "phi-check", "empty-component"])
def test_theta_refusals_name_their_field(command, edit, code, field):
    seed = _DEGEN2 if command != "profile" else _seed_documents()[command]
    out = run(command, dict(seed, **edit))[1]
    got = json.loads(out)
    assert (got["kind"], got["code"], got["field"]) == ("error", code, field)


@pytest.mark.parametrize("command", ["kw", "profile"])
def test_theta_commands_refuse_a_huge_modulus_naming_it(command):
    doc = dict(_seed_documents()[command], modulus=6 * 10 ** 30)
    code, out, _ = run(command, doc)
    assert code == 1
    got = json.loads(out)
    assert (got["code"], got["field"]) == ("TooLarge", "modulus")


def test_heis_needs_no_cyclotomic_polynomial_and_answers_any_modulus():
    got = run_json("heis", {"delta": [3], "modulus": 6 * 10 ** 30,
                            "x": [0, [1], [0]], "y": [0, [0], [1]]})
    assert got == {"kind": "heisenberg-element", "t": 2 * 10 ** 30,
                   "a": [1], "b": [1]}


# -- the Siegel commands print what they printed with numpy arrays ----------

@pytest.mark.parametrize("command, doc, want", [
    ("gamma", {"tau": [[[0.5, 2], [0.25, 0.5]], [[0.25, 0.5], [0, 1.5]]],
               "r": [[1, 0, 1, 1], [0, 1, 1, -2], [0, 0, 1, 0],
                     [0, 0, 0, 1]], "delta": [1, 1]},
     '{"kind":"siegel-point","tau":[[[1.5,2.0],[1.25,0.5]],'
     '[[1.25,0.5],[-2.0,1.5]]]}\n'),
    ("cayley", {"tau": [[[0, 3], [0, 0]], [[0, 0], [0, 3]]]},
     '{"kind":"matrix","value":[[[0.5,0.0],[0.0,0.0]],'
     '[[0.0,0.0],[0.5,0.0]]]}\n'),
    ("trop", {"tau": [[[0, 2], [0, 1], [0.5, 0]], [[0, 1], [0, 2], [0, 1]],
                      [[0.5, 0], [0, 1], [1, 4]]], "gprime": 1},
     '{"kind":"matrix","value":[[1.5,1.0],[1.0,4.0]]}\n'),
], ids=["gamma", "cayley", "trop"])
def test_siegel_output_is_byte_stable(command, doc, want):
    """Complex and float arrays are serialized through .tolist(); the
    bytes are those the numpy branches of ser printed."""
    code, out, err = run(command, doc)
    assert (code, out, err) == (0, want, "")


# -- the exact subcommands print the rows of the public arrays --------------

def _matrix(rng, rows, cols, singular=False):
    """A seeded integer matrix; a singular one repeats a combination of
    its other rows (or is zero, with one row)."""
    m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    if singular:
        c = rng.randint(-2, 2)
        m[-1] = [c * x for x in m[0]] if rows > 1 else [0] * cols
        if rows > 2:
            m[-1] = [x + y for x, y in zip(m[-1], m[1])]
    return m


def _alternating(rng, n, rank):
    """B^T J B for a seeded integer B of the given rank and the standard
    J of size n: alternating, and degenerate when rank < n."""
    g = n // 2
    j = [[(k == l + g) - (l == k + g) for l in range(n)] for k in range(n)]
    b = _matrix(rng, n, n)
    for k in range(rank, n):
        b[k] = [0] * n
    bt = list(map(list, zip(*b)))
    return [[sum(bt[k][p] * j[p][q] * b[q][l] for p in range(n)
                 for q in range(n)) for l in range(n)] for k in range(n)]


def _unimodular(rng, n):
    """A product of seeded elementary integer matrices."""
    u = [[int(k == l) for l in range(n)] for k in range(n)]
    for _ in range(4):
        k, l = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        u[k] = [x + c * y for x, y in zip(u[k], u[l])]
    return u


def _symmetric(rng, n):
    q = [[0] * n for _ in range(n)]
    for k in range(n):
        for l in range(k, n):
            q[k][l] = q[l][k] = "%d/%d" % (rng.randint(-6, 6),
                                           rng.randint(1, 4))
    return q


def _rows_route_cases(rng):
    """(command, document, public call) for square, non-square and
    singular matrices, alternating forms that are nondegenerate,
    degenerate, not alternating or of odd size, and GL(X, Y) elements
    that do or do not preserve Y, or are not unimodular."""
    cases = []
    for shape in ((3, 3), (2, 4), (4, 2), (1, 3)):
        for singular in (False, True):
            m = _matrix(rng, *shape, singular=singular)
            cases.append(("hnf", {"matrix": m},
                          lambda m=m: exact_linalg.hermite_normal_form(m)))
            cases.append(("snf", {"matrix": m},
                          lambda m=m: exact_linalg.smith_normal_form(m)))
    for e in (_alternating(rng, 4, 4), _alternating(rng, 2, 2),
              _alternating(rng, 4, 2), _matrix(rng, 4, 4),
              _matrix(rng, 3, 3), _matrix(rng, 2, 3)):
        cases.append(("symplectic", {"matrix": e},
                      lambda e=e: exact_linalg.symplectic_normal_form(e)))
    y2 = [[2, 0], [0, 1]]
    for u, y in ((_unimodular(rng, 2), [[1, 0], [0, 1]]),
                 (_unimodular(rng, 2), y2), (_unimodular(rng, 3),
                                             _matrix(rng, 3, 3)),
                 ([[1, 1], [0, 1]], y2), ([[1, 0], [1, 1]], y2),
                 (_matrix(rng, 2, 2, singular=True), y2),
                 ([[2, 1], [1, 1]], y2), (_matrix(rng, 2, 3), y2)):
        q = _symmetric(rng, len(u))
        cases.append(("glxy", {"u": u, "q": q, "y_basis": y},
                      lambda u=u, q=q, y=y: exact_linalg.glxy_act(
                          u, [[Fraction(x) for x in row] for row in q], y)))
    scale = rng.randint(1, 5)
    samples = [[[x], str(scale * x * x + rng.randint(0, 1) * x)]
               for x in range(-4, 5)]
    cases.append(("qp-decompose", {"samples": samples,
                                   "period_basis": [[1]]},
                  lambda: pavings_pwl.quasiperiodic_decompose(
                      {(x,): Fraction(v) for (x,), v in samples}, [[1]])))
    return cases


def _public_document(command, value):
    """What the subcommand prints for the public function's value, its
    arrays read through .tolist()."""
    def rat(rows):
        return [[str(x) for x in row] for row in rows]
    if command == "hnf":
        h, u = value
        return {"kind": "hnf", "h": h.tolist(), "u": u.tolist()}
    if command == "snf":
        d, u, v = value
        return {"kind": "snf", "d": d, "u": u.tolist(), "v": v.tolist()}
    if command == "symplectic":
        return {"kind": "symplectic", "type": list(value.type.diag),
                "basis_change": value.basis_change.tolist()}
    if command == "glxy":
        return {"kind": "glxy", "q": rat(value.tolist())}
    return {"kind": "qp-decomposition", "bilinear": rat(
        value.bilinear.tolist()), "linear": [str(x) for x in
                                             value.quadratic_linear],
            "periodic": [[[str(x) for x in k], str(v)]
                         for k, v in sorted(value.periodic.items())]}


@pytest.mark.parametrize("seed", range(12))
def test_the_row_route_prints_the_public_arrays(seed):
    """Each exact subcommand prints the rows the library computes on;
    they are the public function's arrays, and a refusal is the public
    function's, with its code and field."""
    refused = set()
    for command, doc, public in _rows_route_cases(random.Random(seed)):
        code, out, err = run(command, doc)
        try:
            want = (0, _public_document(command, public()))
        except errors.DomainError as e:
            want = (1, {"kind": "error", "code": e.code, "message": str(e),
                        "field": e.field})
            refused.add((command, e.code))
        assert (code, json.loads(out)) == want, (command, doc, err)
    assert refused >= {("symplectic", "NotSkew"), ("symplectic", "Degenerate"),
                       ("glxy", "NotUnimodular"), ("glxy", "NotInGLXY")}


# -- start-up without numpy -------------------------------------------------

NUMPY_FREE = sorted(HANDLERS)

# (command, input, exit code): a malformed input, and a refusal of each
# Siegel subcommand
_REFUSED = [
    ("snf", "this is not json", 2),
    ("gamma", json.dumps({"tau": [[[1e10, 1], [1e10, 0]],
                                  [[1e10, 0], [1e10 + 1, 1]]],
                          "r": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0],
                                [0, 1, 0, 0]], "delta": [1, 1]}), 1),
    ("cayley", json.dumps({"tau": [[[1e8, 1e-8]]]}), 1),
    ("trop", '{"tau": [[NaN]]}', 2),
]

# each step records its label, the value it computed, which of numpy,
# dataclasses and inspect are loaded, and the package's loaded modules,
# sorted
_PROBE = """
import io, json, sys
steps = []
def step(label, code=None):
    steps.append([label, code,
                  [m for m in ("numpy", "dataclasses", "inspect")
                   if m in sys.modules],
                  sorted(m for m in sys.modules
                         if m.partition(".")[0] == "tropab")])
import tropab
step("import tropab")
from tropab.cli import main
step("import tropab.cli")
for command, text in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    step(command, main([command], stdin=io.StringIO(text), stdout=out,
                       stderr=err))
"""

_NUMPY_PROBE = _PROBE + """
step("tropab.SiegelPoint", tropab.SiegelPoint.__name__)
point = tropab.SiegelPoint([[1j]])
step("SiegelPoint([[1j]])", point.g)
moved = tropab.gamma_action([[0, 1], [-1, 0]], point,
                            tropab.PolarizationType((1,)))
step("gamma_action", moved.g)
step("SiegelPoint.tau", moved.tau.shape[0])
"""


def _probe(source, calls):
    """The steps of source, run in a fresh interpreter on the
    (command, input) calls."""
    p = subprocess.run(
        [sys.executable, "-c", source + "print(json.dumps(steps))\n"],
        input=json.dumps(calls), capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


def test_no_subcommand_imports_numpy():
    """In a fresh interpreter, import tropab, import the CLI, run every
    subcommand, a malformed input and a refusal of each Siegel
    subcommand, read the name tropab.SiegelPoint, build a Siegel point
    and act on it: none loads numpy, nor dataclasses or inspect, which
    the package's records do without.  Reading the point's public array
    loads numpy."""
    calls = [(c, json.dumps(_seed_documents()[c])) for c in NUMPY_FREE]
    calls += [(c, text) for c, text, _ in _REFUSED]
    steps = _probe(_NUMPY_PROBE, calls)
    first = next(((label, loaded) for label, _, loaded, _ in steps[:-1]
                  if loaded), None)
    assert first is None, "%s loaded %s" % first
    assert len(NUMPY_FREE) == 25
    assert [code for _, code, _, _ in steps[2:-4]] == \
        [0] * len(NUMPY_FREE) + [code for _, _, code in _REFUSED]
    assert [step[:2] for step in steps[-4:]] == [
        ["tropab.SiegelPoint", "SiegelPoint"],
        ["SiegelPoint([[1j]])", 1],
        ["gamma_action", 1],
        ["SiegelPoint.tau", 1]]
    assert "numpy" in steps[-1][2]


_CLI_MODULES = ["tropab", "tropab.cli", "tropab.errors"]
_PAVING_MODULES = ["tropab._geometry", "tropab.exact_linalg",
                   "tropab.pavings_pwl", "tropab.quadform_delaunay"]
# heis, kw and balanced call theta_heisenberg alone, not the paving layer
_THETA_MODULES = ["tropab._geometry", "tropab.exact_linalg",
                  "tropab.theta_heisenberg"]


@pytest.mark.parametrize("command, loaded", [
    ("hnf", ["tropab.exact_linalg"]),
    ("trop", ["tropab.exact_linalg", "tropab.siegel_trop"]),
    ("sigma", _PAVING_MODULES),
    ("heis", _THETA_MODULES),
    ("kw", _THETA_MODULES),
    ("balanced", _THETA_MODULES),
], ids=["hnf", "trop", "sigma", "heis", "kw", "balanced"])
def test_a_subcommand_loads_only_the_modules_its_handler_uses(command,
                                                              loaded):
    """In a fresh interpreter, import tropab loads no submodule, importing
    the CLI adds only itself and the errors it catches, and a subcommand
    adds the modules its handler calls and what they import."""
    steps = _probe(_PROBE, [(command,
                             json.dumps(_seed_documents()[command]))])
    assert [(label, modules) for label, _, _, modules in steps] == [
        ("import tropab", ["tropab"]),
        ("import tropab.cli", _CLI_MODULES),
        (command, sorted(_CLI_MODULES + loaded))]
    assert steps[2][1] == 0
