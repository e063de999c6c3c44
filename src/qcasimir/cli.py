"""Command line front end.

Subcommands construct the package's objects and render them as JSON (the
machine contract), plain text, or display-only LaTeX where they have it;
``verify`` runs the identity suites, prints the JSON report and exits 0 only
if every case passes.  All results go to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .casimir import (
    DegenerateEvaluation,
    ch_g_via_antisym,
    ch_g_via_hooks,
    eigenvalue_direct,
    eigenvalue_via_hc,
    hc_image,
)
from .chars import GAElem, weyl_character
from .ebasis import expected_leading_coeff, generation_certificate, triangular_solve
from .exact import ExactArithmeticError, QLaurent
from .roots import (
    LieType,
    RootDataError,
    RootSystem,
    Weight,
    build_root_system,
    hook_weight,
)
from .verify import SUITES, run_suite


class UsageError(Exception):
    pass


def _parse_coords(text: str | None) -> Weight:
    if text is None:
        raise UsageError("--lambda is required")
    try:
        return Weight.from_coords([Fraction(p) for p in text.split(",")])
    except (ValueError, ZeroDivisionError, RootDataError) as exc:
        raise UsageError(f"bad weight {text!r}: {exc}") from None


def _system(args) -> RootSystem:
    if args.type is None or args.rank is None:
        raise UsageError("--type and --rank are required")
    return build_root_system(LieType(args.type), args.rank)


# -- rendering ----------------------------------------------------------------


def _ql_latex(c: QLaurent) -> str:
    if not c.terms:
        return "0"
    parts = []
    for (e,), v in sorted(c.terms.items()):
        coeff = "" if v == 1 and e != 0 else ("-" if v == -1 and e != 0 else str(v))
        if e == 0:
            parts.append(str(v))
        else:
            exp = e // 4 if e % 4 == 0 else Fraction(e, 4)
            parts.append(f"{coeff}q^{{{exp}}}")
    return " + ".join(parts).replace("+ -", "- ")


def _weight_latex(w: Weight) -> str:
    return (
        "("
        + ", ".join(
            str(c) if c.denominator == 1 else f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"
            for c in w.coords
        )
        + ")"
    )


def _ga_latex(x: GAElem) -> str:
    if not x.terms:
        return "0"
    parts = []
    for key, c in sorted(x._per_weight().items()):
        c = _ql_latex(c)
        if " " in c:
            c = f"\\left({c}\\right)"
        mono = "e^{" + _weight_latex(Weight(key)) + "}" if any(key) else ""
        parts.append(f"{c} {mono}".strip())
    return " + ".join(parts)


def _emit(args, payload, text, latex=None) -> None:
    """Print the rendering that --format names.  Each rendering is passed as
    a zero-argument callable, so those not asked for are never built; a
    subcommand without ``latex`` does not offer it."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
    elif args.format == "latex":
        print(latex())
    else:
        print(text())


# -- subcommands ----------------------------------------------------------------


def cmd_roots(args) -> int:
    rs = _system(args)

    def payload():
        return rs.to_json() | {
            "positive_roots": [w.to_json() for w in rs.positive_roots],
            "fundamental_weights": [w.to_json() for w in rs.fundamental_weights],
        }

    def text():
        return (
            f"{rs.lie_type.value}{rs.rank}: rho = {rs.rho}, c_n = {rs.c_n}, "
            f"kappa_n = {rs.kappa_n}, dim V = {rs.dim_natural}, "
            f"{len(rs.positive_roots)} positive roots"
        )

    def latex():
        rows = " \\\\\n".join(_weight_latex(w) for w in rs.positive_roots)
        return (
            f"% positive roots of {rs.lie_type.value}_{rs.rank}\n"
            f"\\begin{{array}}{{c}}\n{rows}\n\\end{{array}}"
        )

    _emit(args, payload, text, latex)
    return 0


def cmd_char(args) -> int:
    rs = _system(args)
    lam = _parse_coords(args.lam)
    chi = weyl_character(rs, lam)
    _emit(
        args,
        lambda: {
            "type": rs.lie_type.value,
            "rank": rs.rank,
            "highest_weight": lam.to_json(),
            "dimension": str(chi.evaluate(1, [1] * rs.rank)),
            "terms": chi.to_json(),
        },
        lambda: f"character of {lam}: {chi.format()}",
        lambda: _ga_latex(chi),
    )
    return 0


def cmd_gnk(args) -> int:
    rs = _system(args)
    if args.k is None:
        raise UsageError("--k is required")
    builder = ch_g_via_hooks if args.route == "hooks" else ch_g_via_antisym
    img = builder(rs, args.k)
    _emit(args, img.to_json, img.body.format, lambda: _ga_latex(img.body))
    return 0


def cmd_hc(args) -> int:
    rs = _system(args)
    if args.ell is None:
        raise UsageError("--ell is required")
    img = hc_image(rs, args.ell)
    _emit(
        args,
        img.to_json,
        lambda: f"({img.body.format()}) / ({img.denominator})",
        lambda: f"\\frac{{{_ga_latex(img.body)}}}{{{_ql_latex(img.denominator)}}}",
    )
    return 0


def cmd_eig(args) -> int:
    rs = _system(args)
    if args.ell is None:
        raise UsageError("--ell is required")
    lam = _parse_coords(args.lam)
    try:
        s = Fraction(args.s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --s {args.s!r}: {exc}") from None
    direct = eigenvalue_direct(rs, lam, args.ell, s)
    via_hc = eigenvalue_via_hc(rs, lam, args.ell, s)
    payload = {
        "type": rs.lie_type.value,
        "rank": rs.rank,
        "highest_weight": lam.to_json(),
        "ell": args.ell,
        "s": str(s),
        "direct": str(direct),
        "via_hc": str(via_hc),
        "equal": direct == via_hc,
    }
    text = f"direct = {direct}, via torus image = {via_hc}, equal = {direct == via_hc}"
    _emit(args, lambda: payload, lambda: text)
    return 0 if direct == via_hc else 1


def cmd_hook(args) -> int:
    rs = _system(args)
    if args.k is None or args.r is None:
        raise UsageError("--k and --r are required")
    w = hook_weight(rs, args.k, args.r, bar=args.bar)
    payload = {
        "type": rs.lie_type.value,
        "rank": rs.rank,
        "k": args.k,
        "r": args.r,
        "bar": args.bar,
        "weight": w.to_json(),
        "dominant": rs.is_dominant(w),
    }
    text = f"hook weight k={args.k} r={args.r}{' bar' if args.bar else ''}: {w}"
    _emit(args, lambda: payload, lambda: text, lambda: _weight_latex(w))
    return 0


def cmd_solve_basis(args) -> int:
    rs = _system(args)
    cert = generation_certificate(rs)
    # E_k = c_k G_k + (lower terms) with c_k = 1/b_k = c_unit / c_denom
    rows = [
        (k, (-1) ** (k + 1), expected_leading_coeff(rs, k) * (-1) ** (k + 1), num, den)
        for k, (num, den) in enumerate(triangular_solve(rs), 1)
    ]

    def payload():
        return {
            "type": rs.lie_type.value,
            "rank": rs.rank,
            "solution": [
                {
                    "k": k,
                    "c_unit": c_unit,
                    "c_denominator": c_denom.to_json(),
                    "numerator": num.to_json(),
                    "denominator": den.to_json(),
                }
                for k, c_unit, c_denom, num, den in rows
            ],
            "certificate": cert,
        }

    def text():
        lines = [
            f"E{k} = ({c_unit:+d}/({c_denom})) G{k} + "
            f"(lower terms; {len(num._per_weight())} numerator terms over denominator {den})"
            for k, c_unit, c_denom, num, den in rows
        ]
        return "\n".join(
            lines
            + [
                f"certificate: solved through k={cert['solved_range']}, "
                f"extra generators {[g['index'] for g in cert['extra_generators']]}"
            ]
        )

    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    lie = LieType(args.type) if args.type else None
    report = run_suite(
        args.suite,
        lie=lie,
        rank=args.rank,
        points=args.points,
        seed=args.seed,
        max_rank=args.max_rank,
    )
    failed = [c for c in report["cases"] if c["status"] != "pass"]
    print(json.dumps(report, indent=2))
    if failed:
        print(
            f"{len(failed)}/{len(report['cases'])} cases failed", file=sys.stderr
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcasimir",
        description=(
            "Exact higher-order quantum Casimir invariants for types B, C, D: "
            "construct root data, characters, block characters and torus "
            "images, and verify the identities relating them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lam=False, k=False, ell=False, formats=("json", "latex", "text")):
        p.add_argument("--type", choices=[t.value for t in LieType])
        p.add_argument("--rank", type=int)
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        if lam:
            p.add_argument(
                "--lambda",
                dest="lam",
                help="weight coordinates, comma separated; halves as p/2",
            )
        if k:
            p.add_argument("--k", type=int)
        if ell:
            p.add_argument("--ell", type=int)
        return p

    common(sub.add_parser("roots", help="root system data"))
    common(sub.add_parser("char", help="irreducible character"), lam=True)
    p = common(sub.add_parser("gnk", help="block character G_{n,k}"), k=True)
    p.add_argument("--route", choices=("antisym", "hooks"), default="antisym")
    common(sub.add_parser("hc", help="order-ell torus image"), ell=True)
    p = common(
        sub.add_parser("eig", help="eigenvalue two ways"),
        lam=True,
        ell=True,
        formats=("json", "text"),
    )
    p.add_argument("--s", default="2", help="rational value for q^(1/4)")
    p = common(sub.add_parser("hook", help="hook weight"), k=True)
    p.add_argument("--r", type=int)
    p.add_argument("--bar", action="store_true")
    common(
        sub.add_parser("solve-basis", help="triangular change of basis"),
        formats=("json", "text"),
    )
    p = common(sub.add_parser("verify", help="run an identity suite"), formats=())
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rank", type=int, default=None)
    return parser


_COMMANDS = {
    "roots": cmd_roots,
    "char": cmd_char,
    "gnk": cmd_gnk,
    "hc": cmd_hc,
    "eig": cmd_eig,
    "hook": cmd_hook,
    "solve-basis": cmd_solve_basis,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        UsageError, RootDataError, ValueError, DegenerateEvaluation, ExactArithmeticError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
