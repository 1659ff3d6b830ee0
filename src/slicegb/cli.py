"""Batch command line front end.

One subcommand per pipeline, reading the file formats of the library
and writing deterministic text (or JSON, with ``--json``) to stdout.
Diagnostics go to stderr.  Exit codes: 0 for success, 1 when an input
cannot be read or parsed, 2 when a mathematical precondition fails
(the typed errors), 3 when a time or retry budget runs out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import ResourceLimit, RetryLimitExceeded, SliceGBError
from .families import (
    coefficient_scheme,
    family_basis,
    family_section,
    nonconstant_coefficients,
    parameters_independent,
    parse_family_json,
    parse_family_text,
)
from .groebner import Ideal, colon_ideal, dimension, eliminate, groebner_basis, normal_form
from .hough import detect, generic_hough_dimension, hough_ideal, load_detection_file
from .orders import DegRevLex, order_by_name
from .parsing import (
    format_polynomial,
    format_rational,
    parse_ideal_json,
    parse_ideal_text,
    parse_polynomial,
    read_rational,
)
from .rings import Ring
from .sections import (
    LinearForm,
    common_lifting,
    implicitize,
    load_map_file,
    load_slice_file,
    reconstruct_basis,
    section_basis,
    verify_lifting,
)
from .hough import reconstruct_surface

ORDER_HELP = "term ordering: lex, deglex, degrevlex, degrev:<var>, elim:<v1>,<v2>,..."


# about 31 years; the interval timer overflows a 32-bit time_t past 2**31 s
_TIMEOUT_MAX = 10**9


def _seconds(text: str) -> float:
    """A ``--timeout`` value: a finite number of seconds from 0 (no
    limit) to ``_TIMEOUT_MAX``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value <= _TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(f"expected seconds from 0 to {_TIMEOUT_MAX:g}, got {text!r}")
    return value


@contextmanager
def _deadline(seconds: Optional[float]):
    """Abort the wrapped computation after a wall-clock budget."""
    if not seconds:
        yield
        return

    def expire(signum, frame):
        raise ResourceLimit(f"timed out after {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- input plumbing --------------------------------------------------


def _read(path: str) -> str:
    return Path(path).read_text()


def _load(path: str, from_json, from_text):
    """A file in its JSON spelling when the name ends in ``.json``."""
    text = _read(path)
    return from_json(json.loads(text)) if path.endswith(".json") else from_text(text)


_load_ideal = functools.partial(_load, from_json=parse_ideal_json, from_text=parse_ideal_text)
_load_family = functools.partial(_load, from_json=parse_family_json, from_text=parse_family_text)


def _resolve_order(ring: Ring, flag: Optional[str], file_name: Optional[str]):
    return order_by_name(ring, flag or file_name or "degrevlex")


def _parse_point(text: str) -> List[Fraction]:
    return [read_rational(v.strip(), "coordinate") for v in text.split(",")]


def _parse_points(text: str) -> List[List[Fraction]]:
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise ValueError("no points given")
    return [_parse_point(c) for c in chunks]


# -- output plumbing -------------------------------------------------


def _emit(args, payload: dict, lines: Sequence[str]) -> int:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def _poly_lines(order, polys) -> List[str]:
    polys = list(polys)
    if not polys:
        return ["0"]
    return [format_polynomial(order, g) for g in polys]


# -- plain ideal commands --------------------------------------------


def _cmd_gb(args) -> int:
    idf = _load_ideal(args.file)
    order = _resolve_order(idf.ring, args.order, idf.order_name)
    gens = [g for g in idf.generators if g]
    if not gens:
        return _emit(args, {"ring": list(idf.ring.names), "generators": []}, ["0"])
    basis = groebner_basis(order, gens)
    strs = _poly_lines(order, basis)
    payload = {
        "ring": list(idf.ring.names),
        "order": args.order or idf.order_name or "degrevlex",
        "generators": strs,
        "minimal": basis.is_minimal,
        "reduced": basis.is_reduced,
    }
    return _emit(args, payload, strs)


def _cmd_nf(args) -> int:
    idf = _load_ideal(args.file)
    order = _resolve_order(idf.ring, args.order, idf.order_name)
    f = parse_polynomial(idf.ring, args.polynomial)
    gens = [g for g in idf.generators if g]
    reducers = groebner_basis(order, gens).elements if gens else []
    remainder = normal_form(order, f, reducers)
    text = format_polynomial(order, remainder)
    return _emit(args, {"normal_form": text}, [text])


def _cmd_eliminate(args) -> int:
    idf = _load_ideal(args.file)
    names = [v.strip() for v in args.drop.split(",") if v.strip()]
    if not names:
        raise ValueError("nothing to eliminate")
    drop = sorted({idf.ring.index(v) for v in names})
    out = eliminate(Ideal.of(idf.ring, idf.generators), drop)
    order = order_by_name(out.ring, args.order or "degrevlex")
    strs = _poly_lines(order, out.generators)
    return _emit(args, {"ring": list(out.ring.names), "generators": strs}, strs)


def _cmd_dim(args) -> int:
    idf = _load_ideal(args.file)
    order = _resolve_order(idf.ring, args.order, idf.order_name)
    d = dimension(Ideal.of(idf.ring, idf.generators), order)
    return _emit(args, {"dimension": d}, [str(d)])


def _cmd_colon(args) -> int:
    idf = _load_ideal(args.file)
    order = _resolve_order(idf.ring, args.order, idf.order_name)
    f = parse_polynomial(idf.ring, args.polynomial)
    out = colon_ideal(Ideal.of(idf.ring, idf.generators), f)
    gens = list(out.generators)
    if gens:
        gens = list(groebner_basis(order, gens))
    strs = _poly_lines(order, gens)
    return _emit(args, {"ring": list(idf.ring.names), "generators": strs}, strs)


# -- slicing and lifting ---------------------------------------------


def _cmd_section(args) -> int:
    idf = _load_ideal(args.file)
    order = _resolve_order(idf.ring, args.order, idf.order_name)
    gens = [g for g in idf.generators if g]
    if not gens:
        raise ValueError("the zero ideal has nothing to slice")
    basis = groebner_basis(order, gens)
    form = LinearForm.from_polynomial(parse_polynomial(idf.ring, args.cut))
    sliced = section_basis(basis, form)
    strs = _poly_lines(sliced.order, sliced)
    payload = {
        "ring": list(form.sub_ring().names),
        "generators": strs,
        "nonzerodivisor": True,
    }
    return _emit(args, payload, strs)


def _cmd_lift(args) -> int:
    idf = _load_ideal(args.ideal)
    cdf = _load_ideal(args.candidate)
    if cdf.ring != idf.ring:
        raise ValueError("candidate and ideal files use different rings")
    order = _resolve_order(idf.ring, args.order, idf.order_name or cdf.order_name)
    form = LinearForm.from_polynomial(parse_polynomial(idf.ring, args.cut))
    candidate = [g.monic(order) for g in cdf.generators if g]
    basis = verify_lifting(Ideal.of(idf.ring, idf.generators), candidate, form, order)
    strs = _poly_lines(order, basis)
    payload = {
        "ring": list(idf.ring.names),
        "generators": strs,
        "minimal": basis.is_minimal,
        "reduced": basis.is_reduced,
    }
    return _emit(args, payload, strs)


def _cmd_common_lift(args) -> int:
    sf = load_slice_file(_read(args.file))
    order = order_by_name(sf.family.ring, args.order) if args.order else sf.order
    values = []
    for k, base in enumerate(sf.slice_bases):
        good = [g for g in base if g]
        if len(good) != 1:
            raise ValueError(f"slice {k + 1} must carry exactly one polynomial")
        values.append(good[0])
    lifted = common_lifting(sf.family, values)
    text = format_polynomial(order, lifted)
    return _emit(args, {"polynomial": text}, [text])


def _cmd_reconstruct(args) -> int:
    sf = load_slice_file(_read(args.file))
    order = order_by_name(sf.family.ring, args.order) if args.order else sf.order
    basis = reconstruct_basis(sf.family, sf.slice_bases, order)
    print("note: lifted basis not membership-checked", file=sys.stderr)
    strs = _poly_lines(order, basis)
    payload = {
        "ring": list(sf.family.ring.names),
        "generators": strs,
        "certified": False,
    }
    return _emit(args, payload, strs)


def _cmd_implicitize(args) -> int:
    mf = load_map_file(_read(args.file))
    name = args.order or mf.order_name
    order = order_by_name(mf.coord_ring, name) if name else None
    f = implicitize(
        mf.param_ring,
        mf.coord_ring,
        mf.images,
        mode=args.mode,
        pivot=args.pivot or mf.pivot,
        order=order,
        jobs=args.jobs,
    )
    display = order if order is not None else DegRevLex(mf.coord_ring.arity)
    text = format_polynomial(display, f)
    return _emit(args, {"polynomial": text}, [text])


# -- parametric families ---------------------------------------------


def _family_basis(args):
    ff = _load_family(args.file)
    order = _resolve_order(ff.family.ring, args.order, ff.order_name)
    return ff, order, family_basis(ff.family, order)


def _cmd_family_gb(args) -> int:
    ff, order, basis = _family_basis(args)
    strs = _poly_lines(order, basis)
    payload = {
        "params": list(ff.family.params.names),
        "vars": list(ff.family.ring.names),
        "generators": strs,
    }
    return _emit(args, payload, strs)


def _cmd_ncc(args) -> int:
    _, _, basis = _family_basis(args)
    strs = [str(c) for c in nonconstant_coefficients(basis)]
    return _emit(args, {"coefficients": strs}, strs)


def _cmd_sigma_scheme(args) -> int:
    ff, _, basis = _family_basis(args)
    scheme = coefficient_scheme(ff.family.params, nonconstant_coefficients(basis))
    yring = scheme.ideal.ring
    strs = _poly_lines(DegRevLex(yring.arity), scheme.ideal.generators)
    lines = [str(yring)] + strs + [f"dimension: {scheme.dimension}"]
    payload = {
        "ring": list(yring.names),
        "generators": strs,
        "dimension": scheme.dimension,
    }
    return _emit(args, payload, lines)


def _cmd_independent(args) -> int:
    ff = _load_family(args.file)
    report = parameters_independent(ff.family)
    if report.independent:
        return _emit(args, {"independent": True, "witness": None}, ["independent"])
    w = format_polynomial(DegRevLex(ff.family.params.arity), report.witness)
    return _emit(args, {"independent": False, "witness": w}, [f"dependent: {w}"])


def _cmd_family_section(args) -> int:
    ff, order, basis = _family_basis(args)
    form = LinearForm.from_polynomial(parse_polynomial(ff.family.ring, args.cut))
    report = family_section(ff.family, basis, form)
    sub = report.basis.order
    strs = _poly_lines(sub, report.basis)
    if report.independent:
        tail, w = "parameters: independent", None
    else:
        w = format_polynomial(DegRevLex(ff.family.params.arity), report.witness)
        tail = f"parameters: dependent ({w})"
    payload = {
        "params": list(ff.family.params.names),
        "vars": list(report.family.ring.names),
        "generators": strs,
        "independent": report.independent,
        "witness": w,
    }
    return _emit(args, payload, strs + [tail])


# -- parameter detection ---------------------------------------------


def _emit_locus(args, fam, res, report_empty: bool) -> int:
    """A parameter locus: its generators, dimension and solution, and
    with ``report_empty`` whether it is empty."""
    strs = _poly_lines(DegRevLex(fam.params.arity), res.ideal.generators)
    solution = None if res.solution is None else [format_rational(c) for c in res.solution]
    lines = strs + [f"dimension: {res.dimension}"]
    if report_empty and res.empty:
        lines.append("inconsistent")
    elif solution is not None:
        lines.append(f"solution: {', '.join(solution)}")
    payload = {"generators": strs, "dimension": res.dimension, "solution": solution or None}
    if report_empty:
        payload["inconsistent"] = res.empty
    return _emit(args, payload, lines)


def _cmd_hough(args) -> int:
    fam = _load_family(args.file).family
    if args.point is None:
        d = generic_hough_dimension(fam)
        return _emit(args, {"dimension": d}, [str(d)])
    return _emit_locus(args, fam, hough_ideal(fam, _parse_point(args.point)), False)


def _cmd_detect(args) -> int:
    fam = _load_family(args.file).family
    return _emit_locus(args, fam, detect(fam, _parse_points(args.points)), True)


def _cmd_reconstruct_surface(args) -> int:
    df = load_detection_file(_read(args.file))
    full = Ring(df.template.ring.names + (df.pivot,))
    name = args.order or df.order_name
    order = order_by_name(full, name) if name else None
    f = reconstruct_surface(df.template, df.pivot, df.slices, order=order, jobs=args.jobs)
    display = order if order is not None else DegRevLex(full.arity)
    text = format_polynomial(display, f)
    return _emit(args, {"polynomial": text}, [text])


# -- wiring ----------------------------------------------------------


@functools.cache
def _build() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use; parsing leaves
    it as it was, so one serves every ``main`` call of a process."""
    top = argparse.ArgumentParser(
        prog="slicegb",
        description="Exact Groebner bases, hyperplane slicing, and slice-wise "
        "reconstruction over the rationals.",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name: str, handler, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--timeout", type=_seconds, default=None, metavar="S",
                       help="abort after S seconds with exit code 3")
        p.set_defaults(handler=handler)
        return p

    def with_order(p):
        p.add_argument("--order", default=None, metavar="NAME", help=ORDER_HELP)
        return p

    p = with_order(cmd("gb", _cmd_gb, "reduced basis of an ideal file"))
    p.add_argument("file")

    p = with_order(cmd("nf", _cmd_nf, "normal form of a polynomial modulo an ideal"))
    p.add_argument("file")
    p.add_argument("polynomial")

    p = cmd("eliminate", _cmd_eliminate, "project an ideal away from some variables")
    p.add_argument("--order", default=None, metavar="NAME",
                   help="display ordering on the remaining variables")
    p.add_argument("--drop", required=True, metavar="VARS",
                   help="comma-separated variables to eliminate")
    p.add_argument("file")

    p = with_order(cmd("dim", _cmd_dim, "Krull dimension of the quotient"))
    p.add_argument("file")

    p = with_order(cmd("colon", _cmd_colon, "colon ideal by one polynomial"))
    p.add_argument("file")
    p.add_argument("polynomial")

    p = with_order(cmd("section", _cmd_section, "slice a basis along a hyperplane cut"))
    p.add_argument("--cut", required=True, metavar="POLY",
                   help="degree-one polynomial defining the cut")
    p.add_argument("file")

    p = with_order(cmd("lift", _cmd_lift,
                       "certify a candidate basis upstairs from one slice"))
    p.add_argument("--cut", required=True, metavar="POLY")
    p.add_argument("ideal")
    p.add_argument("candidate")

    p = with_order(cmd("common-lift", _cmd_common_lift,
                       "interpolate one polynomial through parallel slice values"))
    p.add_argument("file")

    p = with_order(cmd("reconstruct", _cmd_reconstruct,
                       "rebuild a basis from reduced bases of parallel slices"))
    p.add_argument("file")

    p = with_order(cmd("implicitize", _cmd_implicitize,
                       "implicit equation of a parametrized hypersurface"))
    p.add_argument("--mode", choices=("eliminate", "slice"), default="eliminate")
    p.add_argument("--pivot", default=None, metavar="VAR",
                   help="coordinate the slices stack along (slice mode)")
    p.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="parallel slice computations (slice mode)")
    p.add_argument("file")

    p = with_order(cmd("family-gb", _cmd_family_gb,
                       "universal reduced basis of a parametric family"))
    p.add_argument("file")

    p = with_order(cmd("ncc", _cmd_ncc,
                       "nonconstant basis coefficients of a family"))
    p.add_argument("file")

    p = with_order(cmd("sigma-scheme", _cmd_sigma_scheme,
                       "scheme traced by the nonconstant basis coefficients"))
    p.add_argument("file")

    p = cmd("independent", _cmd_independent,
            "check the parameters of a family for algebraic relations")
    p.add_argument("file")

    p = with_order(cmd("family-section", _cmd_family_section,
                       "slice every member of a family with one hyperplane"))
    p.add_argument("--cut", required=True, metavar="POLY")
    p.add_argument("file")

    p = cmd("hough", _cmd_hough,
            "parameter locus of one point, or the generic locus dimension")
    p.add_argument("--point", default=None, metavar="COORDS",
                   help="comma-separated coordinates; omit for the generic dimension")
    p.add_argument("file")

    p = cmd("detect", _cmd_detect, "parameters of the member through several points")
    p.add_argument("--points", required=True, metavar="P1;P2",
                   help="semicolon-separated points, comma-separated coordinates")
    p.add_argument("file")

    p = with_order(cmd("reconstruct-surface", _cmd_reconstruct_surface,
                       "rebuild a surface from detected curves on parallel slices"))
    p.add_argument("--jobs", type=int, default=1, metavar="K")
    p.add_argument("file")

    return top


def _describe(err: SliceGBError) -> List[str]:
    lines = [f"error: {type(err).__name__}: {err}"]
    offending = getattr(err, "offending", None)
    for g in offending or []:
        lines.append(f"  blocking: {g!r}")
    for label in ("witness", "dependence"):
        value = getattr(err, label, None)
        if value is not None:
            lines.append(f"  {label}: {value!r}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on usage errors; bad flags are input errors here
        return 0 if not stop.code else 1
    try:
        with _deadline(args.timeout):
            return args.handler(args)
    except (ResourceLimit, RetryLimitExceeded) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except SliceGBError as err:
        for line in _describe(err):
            print(line, file=sys.stderr)
        return 2
    except (ValueError, OSError, ZeroDivisionError, RecursionError) as err:
        # covers ParseError, json.JSONDecodeError and JSON nested too deep to decode
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (KeyError, TypeError) as err:
        print(f"error: malformed input: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
