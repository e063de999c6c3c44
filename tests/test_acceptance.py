"""Acceptance suite: every identity, exact (tolerance zero), over the full
desk-scale matrix {B2, B3, B4, C3, C4, D4, D5}.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see them as they complete).  Two criteria check the true
form of an identity whose naive form is false:

* criterion 6: the binomial combination is not divisible by (q^{-1} - q)^ell
  coefficient by coefficient (at q = 1 it equals sum_a (1 - e^{eps_a})^ell,
  which is checked); specialised at dominant weights it is divisible
  exactly, by (q^{-1} - q)^ell on the integral grid and by
  (q^{-1/2} - q^{1/2})^ell on the spin grid.
* criterion 8: for type D partitions with exactly n nonzero parts the
  determinant is the sum of the character and its mirror, which is what
  those cases expect.

README.md carries the full analysis of both.
"""

import sys
from time import perf_counter
from typing import Callable

import pytest

from qcasimir.verify import (
    basis_cases,
    block_identity_cases,
    certificate_cases,
    closed_form_cases,
    denominator_cases,
    eigen_cases,
    hc_cases,
    in_scope_systems,
    jt_cases,
    oracle_cases,
    property_cases,
    route_cases,
    stability_cases,
)

SEED = 0
SYSTEMS = in_scope_systems()


def _report(number: int, title: str, check: Callable[[], list[dict]]):
    """Run one criterion and print its line with the wall time; the case
    records themselves carry no timing, so reports stay deterministic."""
    t0 = perf_counter()
    cases = check()
    seconds = perf_counter() - t0
    failed = [c for c in cases if c["status"] != "pass"]
    verdict = "PASS" if not failed else "FAIL"
    line = (
        f"criterion {number:2d} [{verdict}] {title} "
        f"({len(cases) - len(failed)}/{len(cases)} cases, {seconds:.1f} s)"
    )
    print(line, file=sys.stderr)
    if failed:
        details = "; ".join(
            f"{c['id']}{': ' + c['detail'] if c['detail'] else ''}"
            for c in failed[:12]
        )
        pytest.fail(f"{line}\nfailing cases: {details}", pytrace=False)


def test_criterion_01_denominator_formula():
    _report(
        1,
        "denominator product form = alternant form",
        lambda: denominator_cases(SYSTEMS),
    )


def test_criterion_02_block_identity():
    _report(
        2,
        "Delta * block = q^-k Delta [B] + q^(c_n-1) * antisymmetrized auxiliary "
        "(dominant chamber, block W-invariant)",
        lambda: block_identity_cases(SYSTEMS),
    )


def test_criterion_03_route_equality():
    _report(
        3,
        "antisymmetrizer route = hook route, k = 0..n+2",
        lambda: route_cases(SYSTEMS),
    )


def test_criterion_04_closed_forms():
    _report(
        4,
        "k = 0, 1 blocks match displayed closed forms",
        lambda: closed_form_cases(SYSTEMS),
    )


def test_criterion_05_rational_oracle():
    _report(
        5,
        "rational forms = symbolic forms at 20 random points each",
        lambda: oracle_cases(SYSTEMS, points=20, seed=SEED),
    )


def test_criterion_06_hc_divisibility():
    _report(
        6,
        "torus image divisible at dominant weights, classical limit "
        "+ invariance + integral support",
        lambda: hc_cases(SYSTEMS),
    )


def test_criterion_07_eigenvalue_consistency():
    _report(
        7,
        "explicit eigenvalue sum = torus image evaluation, 10 random weights",
        lambda: eigen_cases(SYSTEMS, samples=10, seed=SEED),
    )


def test_criterion_08_determinantal_characters():
    _report(
        8,
        "determinant form = Weyl character (mirror sum for type D full length)",
        lambda: jt_cases(SYSTEMS),
    )


def test_criterion_09_triangular_solve():
    _report(
        9,
        "triangular change of basis solves with exact round trips",
        lambda: basis_cases(SYSTEMS),
    )


def test_criterion_10_generation_certificates():
    _report(
        10,
        "generation certificates with the printed extra generators",
        lambda: certificate_cases(SYSTEMS),
    )


def test_criterion_11_stability():
    _report(
        11,
        "normalized constituents agree across ranks, k <= 4",
        stability_cases,
    )


def test_criterion_12_property_bundle():
    _report(
        12,
        "module invariants (alternating, wall vanishing, homomorphisms, "
        "determinant agreement, coset tiling) at fixed seed",
        lambda: property_cases(seed=SEED),
    )
