"""Command-line front end.

Subcommands:
    analyze    classification, contact data, Krein companion, translation
    normalize  canonical quintuple and composition-sum form of an expression
    spectrum   essential-spectrum point cloud as CSV (re, im, source)
    norm       essential norm with grid accuracy
    verify     built-in claim battery over the reference map, JSON report

Outputs are deterministic for a fixed configuration; files are written
atomically.  Exit status: 0 on success (for verify: all claims pass),
2 when the map is rejected for the calculus, 1 on any other error.
"""

import argparse
import json
import os
import sys
import tempfile

from .moebius import MapKind, MoebiusMap, classify, parabolic_translation
from . import rewriter, symbol, verify
from .rewriter import ExpressionSyntaxError
from .symbol import InvalidContactError


def _cpx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tcalgebra-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_map(path: str) -> MoebiusMap:
    with open(path) as handle:
        return MoebiusMap.from_json_dict(json.load(handle))


def _require_contact(m: MoebiusMap):
    """Contact data of an admissible map, or a clean nonzero exit."""
    cls = classify(m)
    if cls.kind == MapKind.NOT_SELF_MAP:
        raise SystemExit(_fail(2, "map does not send the disk into itself"))
    if cls.kind == MapKind.AUTOMORPHISM:
        raise SystemExit(_fail(2, "map is an automorphism; outside this calculus"))
    if cls.kind == MapKind.STRICT_CONTRACTION:
        raise SystemExit(_fail(2, "no boundary contact"))
    return cls


def _fail(code: int, message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _algebra_contact(m: MoebiusMap):
    cls = _require_contact(m)
    if abs(cls.contact.zeta - cls.contact.eta) <= 1e-9:
        raise SystemExit(
            _fail(2, "contact point is fixed (zeta = eta); the quotient calculus needs zeta != eta")
        )
    return cls.contact


def cmd_analyze(args) -> int:
    m = _load_map(args.map)
    cls = _require_contact(m)
    contact = cls.contact
    sigma = m.krein_adjoint
    tau = m.compose(sigma)
    report = {
        "class": "contact",
        "parabolic": cls.parabolic,
        "zeta": _cpx(contact.zeta),
        "eta": _cpx(contact.eta),
        "dphi": _cpx(contact.dphi),
        "s": contact.s,
        "sigma_coeffs": sigma.to_json_dict(),
        "tau_translation": _cpx(parabolic_translation(tau)),
        "krein_commutes": m.commutes_with(sigma),
    }
    _write_out(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_normalize(args) -> int:
    contact = _algebra_contact(_load_map(args.map))
    element = rewriter.normalize(rewriter.parse(args.expr), contact)
    try:
        expression = rewriter.to_composition_sum(element)
        canonical = rewriter.composition_sum_pretty(element)
    except rewriter.NotInGeneratorRingError:
        expression = None
        canonical = rewriter.render(element)
    payload = {
        "canonical": canonical,
        "expression": expression,
        "quintuple": element.to_json_dict(),
    }
    if args.out is None:
        sys.stdout.write(canonical + "\n")
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(canonical + "\n")
        _write_out(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_spectrum(args) -> int:
    contact = _algebra_contact(_load_map(args.map))
    element = rewriter.normalize(rewriter.parse(args.expr), contact)
    rows = symbol.spectrum_samples(element, args.resolution)
    lines = ["re,im,source"]
    lines.extend(f"{z.real!r},{z.imag!r},{src}" for z, src in rows)
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_norm(args) -> int:
    contact = _algebra_contact(_load_map(args.map))
    element = rewriter.normalize(rewriter.parse(args.expr), contact)
    report = symbol.essential_norm_report(element, args.resolution)
    sys.stdout.write(f"{report.value!r}\n")
    payload = {
        "norm": report.value,
        "where": report.where,
        "at": report.at,
        "grid_spacing": report.grid_spacing,
        "derivative_bound": report.derivative_bound,
        "accuracy": report.accuracy,
    }
    if args.out is not None:
        _write_out(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_claims(n=args.N, window=args.window, resolution=args.resolution)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        value = "" if res.measured is None else f"  measured={res.measured:.6g}"
        thresh = "" if res.threshold is None else f" threshold={res.threshold:.6g}"
        sys.stdout.write(f"{status} {res.claim}{value}{thresh}\n")
    payload = [res.to_json_dict() for res in results]
    if args.out is not None:
        _write_out(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    failures = sum(1 for res in results if not res.passed)
    sys.stdout.write(f"{len(results) - failures}/{len(results)} claims passed\n")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcalgebra",
        description="shift + composition-operator C*-algebra calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_map=True, need_expr=False):
        if need_map:
            p.add_argument("--map", required=True, help="JSON file with coefficients a, b, c, d")
        if need_expr:
            p.add_argument("--expr", required=True, help="expression in I, C, S, T{...}")
        p.add_argument("--resolution", type=int, default=1000)
        p.add_argument("--N", type=int, default=512)
        p.add_argument("--window", type=int, default=64)
        p.add_argument("--out", default=None)

    common(sub.add_parser("analyze", help="classify a map and report its contact data"))
    common(sub.add_parser("normalize", help="canonical form of an expression"), need_expr=True)
    common(sub.add_parser("spectrum", help="essential spectrum as CSV"), need_expr=True)
    common(sub.add_parser("norm", help="essential norm"), need_expr=True)
    common(sub.add_parser("verify", help="run the built-in claim battery"), need_map=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.resolution < 2:
        return _fail(1, "resolution must be at least 2")
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "normalize":
            return cmd_normalize(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "norm":
            return cmd_norm(args)
        if args.command == "verify":
            return cmd_verify(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 1
    except ExpressionSyntaxError as exc:
        return _fail(1, f"syntax: {exc}")
    except InvalidContactError as exc:
        return _fail(2, str(exc))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return _fail(1, str(exc))
    return _fail(1, f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
