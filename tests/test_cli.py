"""Command line interface: rendering, exit codes, determinism."""

import json

import pytest

from qcasimir.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "B", "--rank", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == ["3/2", "1/2"]
    assert payload["c_n"] == 4


def test_roots_rank_too_small_is_usage_error(capsys):
    code, out, err = run(capsys, "roots", "--type", "D", "--rank", "3")
    assert code == 2
    assert "rank" in err


def test_roots_latex_table(capsys):
    code, out, _ = run(
        capsys, "roots", "--type", "C", "--rank", "3", "--format", "latex"
    )
    assert code == 0
    assert "\\begin{array}" in out


def test_missing_type_is_usage_error(capsys):
    code, _, err = run(capsys, "roots", "--rank", "2")
    assert code == 2


def test_char_json(capsys):
    code, out, _ = run(
        capsys, "char", "--type", "B", "--rank", "2", "--lambda", "1,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == "5"
    assert len(payload["terms"]) == 5


def test_char_spin_weight_with_halves(capsys):
    code, out, _ = run(
        capsys, "char", "--type", "B", "--rank", "2", "--lambda", "1/2,1/2"
    )
    assert code == 0
    assert json.loads(out)["dimension"] == "4"


def test_char_rejects_non_dominant(capsys):
    code, _, err = run(
        capsys, "char", "--type", "B", "--rank", "2", "--lambda", "0,1"
    )
    assert code == 2


def test_char_off_the_weight_lattice_is_usage_error(capsys):
    code, out, err = run(
        capsys, "char", "--type", "C", "--rank", "3", "--lambda", "1/2,1/2,1/2"
    )
    assert code == 2
    assert out == ""
    assert "not on the weight lattice of C3" in err


def test_eig_off_the_weight_lattice_is_usage_error(capsys):
    code, out, err = run(
        capsys, "eig", "--type", "C", "--rank", "3", "--lambda", "1/2,1/2,1/2",
        "--ell", "1",
    )
    assert code == 2
    assert out == ""
    assert "not on the weight lattice" in err


@pytest.mark.parametrize("s", ["1/0", "two"], ids=("zero-denominator", "not-a-number"))
def test_eig_bad_s_is_usage_error(capsys, s):
    code, out, err = run(
        capsys, "eig", "--type", "B", "--rank", "2", "--lambda", "1,1",
        "--ell", "1", "--s", s,
    )
    assert code == 2
    assert out == ""
    assert f"bad --s {s!r}" in err


@pytest.mark.parametrize("ell", ["0", "1"])
def test_eig_at_q_zero_is_a_degenerate_point(capsys, ell):
    # exit 1 means "the two routes disagree"; q = 0 is an invalid point
    code, out, err = run(
        capsys, "eig", "--type", "B", "--rank", "2", "--lambda", "1,1",
        "--ell", ell, "--s", "0",
    )
    assert code == 2
    assert out == ""
    assert "q must avoid 0" in err


def test_gnk_routes_agree(capsys):
    code, out_a, _ = run(
        capsys, "gnk", "--type", "C", "--rank", "3", "--k", "2"
    )
    assert code == 0
    code, out_h, _ = run(
        capsys, "gnk", "--type", "C", "--rank", "3", "--k", "2", "--route", "hooks"
    )
    assert code == 0
    a, h = json.loads(out_a), json.loads(out_h)
    assert a["body"] == h["body"]
    assert a["provenance"] == "prop4_3"
    assert h["provenance"] == "hook_expansion"


def test_hc_payload(capsys):
    code, out, _ = run(capsys, "hc", "--type", "B", "--rank", "2", "--ell", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["k_or_ell"] == 1
    assert payload["provenance"] == "binomial_transform"
    assert payload["denominator"] == [{"e": -4, "c": "1"}, {"e": 4, "c": "-1"}]


def test_eig_agreement(capsys):
    code, out, _ = run(
        capsys,
        "eig", "--type", "C", "--rank", "3", "--lambda", "2,1,0",
        "--ell", "2", "--s", "2",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_hook_command(capsys):
    code, out, _ = run(
        capsys, "hook", "--type", "C", "--rank", "3", "--k", "5", "--r", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == ["1", "1", "1"]
    code, out, _ = run(
        capsys,
        "hook", "--type", "D", "--rank", "4", "--k", "4", "--r", "3", "--bar",
    )
    assert json.loads(out)["weight"] == ["1", "1", "1", "-1"]


def test_hook_bar_misuse_is_usage_error(capsys):
    code, _, err = run(
        capsys, "hook", "--type", "B", "--rank", "2", "--k", "3", "--r", "1", "--bar"
    )
    assert code == 2


def test_solve_basis(capsys):
    code, out, _ = run(capsys, "solve-basis", "--type", "C", "--rank", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["solved_range"] == 3
    assert payload["certificate"]["extra_generators"] == []
    assert [e["k"] for e in payload["solution"]] == [1, 2, 3]


def test_verify_denominator_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "denominator", "--type", "B", "--rank", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "denominator"
    assert all(c["status"] == "pass" for c in report["cases"])


def test_verify_block_suite_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "thm45", "--type", "C", "--rank", "3"
    )
    assert code == 0
    report = json.loads(out)
    # closed forms for k = 0, 1 and the two identities for k = 0..n+2
    ids = [c["id"] for c in report["cases"]]
    assert "routes-C3-k5" in ids
    assert all(c["status"] == "pass" for c in report["cases"])


@pytest.mark.parametrize(
    "suite, other", [("thm44", "C"), ("thm45", "B"), ("thm46", "B")]
)
def test_verify_theorem_suite_rejects_another_type(capsys, suite, other):
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--type", other, "--rank", "4"
    )
    assert code == 2
    assert out == ""
    assert "covers type" in err and f"not {other}" in err


def test_verify_all_keeps_the_type_filter(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--type", "B", "--rank", "2")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["cases"]]
    blocks = [i for i in ids if i.startswith(("closed-form-", "block-identity-", "routes-"))]
    assert "block-identity-B2-k4" in blocks and "routes-B2-k4" in blocks
    assert all("-B2-" in i for i in blocks)


def test_verify_torus_suite(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "torus", "--type", "B", "--rank", "2"
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    ids = [c["id"] for c in report["cases"]]
    for kind in ("divisible", "classical", "invariant"):
        assert [f"hc-{kind}-B2-ell{ell}" for ell in (1, 2)] == [
            i for i in ids if i.startswith(f"hc-{kind}-")
        ]
    assert all(c["status"] == "pass" for c in report["cases"])
    # --suite all runs the same cases
    code, out, _ = run(capsys, "verify", "--suite", "all", "--type", "B", "--rank", "2")
    assert code == 0
    all_cases = json.loads(out)["cases"]
    assert [c for c in all_cases if c["id"].startswith("hc-")] == report["cases"]


def test_verify_reports_are_deterministic(capsys):
    args = (
        "verify", "--suite", "oracle", "--type", "B", "--rank", "2",
        "--points", "4", "--seed", "7",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_recorded(capsys):
    _, out, _ = run(
        capsys, "verify", "--suite", "stability", "--seed", "11",
    )
    assert json.loads(out)["seed"] == 11


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "thm44", "--type", "B", "--rank", "2", "--format", "text"),
        ("eig", "--type", "C", "--rank", "3", "--lambda", "2,1,0", "--ell", "2",
         "--format", "latex"),
        ("solve-basis", "--type", "B", "--rank", "2", "--format", "latex"),
    ],
    ids=lambda a: a[0],
)
def test_format_without_that_rendering_is_usage_error(capsys, argv):
    # verify prints its JSON report only; eig and solve-basis have no LaTeX
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", "nope")
    assert exc.value.code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a report with one failing case must exit 1, say so on stderr and
    # carry the failing id in the JSON
    def one_failure(suite, **kwargs):
        return {
            "suite": suite,
            "seed": kwargs["seed"],
            "cases": [
                {"id": "jt-D4-1", "status": "pass", "detail": ""},
                {"id": "jt-D4-1,1,1,1", "status": "fail", "detail": "injected"},
            ],
        }

    monkeypatch.setattr("qcasimir.cli.run_suite", one_failure)
    code, out, err = run(
        capsys, "verify", "--suite", "jt", "--type", "D", "--rank", "4"
    )
    assert code == 1
    assert "1/2 cases failed" in err
    report = json.loads(out)
    failing = {c["id"] for c in report["cases"] if c["status"] == "fail"}
    assert failing == {"jt-D4-1,1,1,1"}


def test_verify_jt_type_d_passes(capsys):
    # the type D full-length cases expect the mirror sum and pass
    code, out, err = run(
        capsys, "verify", "--suite", "jt", "--type", "D", "--rank", "4"
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    ids = {c["id"] for c in report["cases"]}
    assert {"jt-D4-1,1,1,1", "jt-D4-2,1,1,1", "jt-D4-3,1,1,1"} <= ids
    assert all(c["status"] == "pass" for c in report["cases"])


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "--type", "B", "--rank", "2"),
        ("eig", "--type", "B", "--rank", "2", "--ell", "2"),
    ],
    ids=("char", "eig"),
)
def test_missing_lambda_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--lambda is required" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--suite", "oracle", "--points", "0"), "points must be >= 1"),
        (("--suite", "oracle", "--points", "-3"), "points must be >= 1"),
        (("--suite", "thm44", "--rank", "7"), "no in-scope system"),
        (("--suite", "all", "--type", "B", "--rank", "5"), "no in-scope system"),
        (("--suite", "thm44", "--rank", "5"), "selects no cases"),
        (("--suite", "stability", "--max-rank", "1"), "selects no cases"),
        (("--suite", "thm45", "--max-rank", "1"), "--max-rank"),
        (("--suite", "eigen", "--points", "5"), "--points"),
    ],
    ids=(
        "points-0", "points-neg", "rank-7", "B5", "thm44-rank-5",
        "stability-max-rank-1", "thm45-max-rank-1", "eigen-points",
    ),
)
def test_verify_selection_without_cases_is_usage_error(capsys, argv, message):
    # each of these used to report success without checking anything, or
    # while ignoring the filter that was asked for
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "stability", "--type", "B"),
        ("--suite", "all", "--type", "C", "--points", "1"),
    ],
    ids=("stability", "all"),
)
def test_verify_stability_honours_type(capsys, argv):
    lie = argv[argv.index("--type") + 1]
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["cases"] if c["id"].startswith("stability-")]
    assert ids == [f"stability-{lie}-k{k}" for k in range(1, 5)]


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "stability", "--type", "B", "--rank", "2"),
        ("--suite", "stability", "--rank", "3", "--max-rank", "4"),
    ],
    ids=("type-and-rank", "rank-and-max-rank"),
)
def test_verify_stability_rejects_rank(capsys, argv):
    # the suite compares ranks; --max-rank bounds them, --rank cannot apply
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "--max-rank" in err


def test_verify_all_with_rank_leaves_out_stability(capsys):
    # a single rank has nothing to compare across ranks
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--type", "B", "--rank", "2", "--points", "1"
    )
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["cases"]]
    assert ids and not any(i.startswith("stability-") for i in ids)
