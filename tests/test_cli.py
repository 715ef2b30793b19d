"""End-to-end command-line tests, run in process through main().

Each test drives a full subcommand invocation and checks the exit code,
the JSON payload on stdout, and (for render) the bytes on disk.  Exit
convention: 0 the property holds, 1 violated on samples, 2 bad input or
inconclusive.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harmonicmaps import HarmonicMap, cli, sunflower_points
from harmonicmaps.cli import EXIT_HOLDS, EXIT_INPUT, EXIT_VIOLATED, main
from harmonicmaps.criteria import DEFAULT_N_EPSILON, DEFAULT_N_GAMMA
from harmonicmaps.mappings import DEFAULT_GRID, AnalyticFunction

H0_SAFE_BUDGET = 0.99 * 0.5 * (80.0 / 2916.0)
H0_RAW_BUDGET = 0.5 * (80.0 / 2916.0)
DATA = Path(__file__).parent / "data"
DOUBLE_ZERO_G = ('{"type":"series","h":[1],'
                 '"g":[0,[-0.008,-0.0192],[0,0.104],[0.21,-0.36],[-0.6,0.4],1]}')


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, expect):
    code, out, err = run_cli(capsys, argv)
    assert code == expect, f"argv={argv!r} stderr={err!r}"
    return json.loads(out)


# ---------------------------------------------------------------------------
# check

def test_check_corollary1_identity_holds(capsys):
    payload = run_json(
        capsys,
        ["check", "--named", "identity", "--criterion", "corollary1"],
        EXIT_HOLDS)
    assert payload["verdict"] == "holds-on-samples"
    assert payload["margin"] == pytest.approx(1.0, abs=1e-12)
    assert payload["invocation"]["named"] == "identity"
    assert payload["invocation"]["criterion"] == "corollary1"


def test_check_theorem1_identity_holds(capsys):
    payload = run_json(
        capsys,
        ["check", "--named", "identity", "--criterion", "theorem1"],
        EXIT_HOLDS)
    assert payload["margin"] == pytest.approx(math.pi / 2, abs=1e-9)
    assert payload["invocation"]["n_epsilon"] == 64


def test_check_theorem1_h1_inverse_converges_on_fine_grid(capsys):
    # |h1| reaches ~2000 on this grid, where an absolute 1e-12 residual is
    # below one ulp; the inverse must still converge everywhere.
    payload = run_json(
        capsys,
        ["check", "--named", "h1", "--criterion", "theorem1",
         "--n-radial", "160", "--n-angular", "384", "--r-max", "0.9"],
        EXIT_HOLDS)
    assert payload["margin"] >= math.pi / 2 - 1e-3


def test_check_theorem1_linear_phi_vanishing_direction(capsys):
    # phi(w, wbar) = w + wbar on the identity: the epsilon = -1 direction
    # kills W entirely, which the scan must flag.
    payload = run_json(
        capsys,
        ["check", "--named", "identity", "--criterion", "theorem1",
         "--phi", "linear", "--phi-a", "1,0", "--phi-b", "1,0"],
        EXIT_VIOLATED)
    assert payload["verdict"] == "violated"
    assert payload["meta"]["failure"] == "W vanishes"
    assert payload["witness"] == [0.0, 0.0]
    assert payload["meta"]["epsilon"] == math.pi


def test_check_theorem1_f_k_report_bytes(capsys):
    # The whole report is pinned: a change to the argument gap may not move
    # the verdict, margin, witness or gamma.
    code, out, _ = run_cli(
        capsys,
        ["check", "--named", "f_k", "--param", "k=0.5", "--criterion", "theorem1",
         "--phi", "linear", "--phi-a", "2", "--phi-b", "-1",
         "--n-radial", "160", "--n-angular", "384", "--r-max", "0.99"])
    assert code == EXIT_HOLDS
    assert out == (DATA / "check_theorem1_f_k_linear_160x384.json").read_text(encoding="utf-8")


def test_check_theorem1_verdict_ignores_scale(capsys):
    # "W vanishes" is relative to the size of Psi's partials, so z and
    # 1e-16 z get the same report apart from the spec.
    reports = [run_json(capsys,
                        ["check", "--spec", json.dumps({"type": "series", "h": [a]}),
                         "--criterion", "theorem1", "--phi", "linear",
                         "--phi-a", "2", "--phi-b", "-1"], EXIT_HOLDS)
               for a in (1.0, 1e-16)]
    for key in ("verdict", "margin", "witness", "gamma", "meta"):
        assert reports[0][key] == reports[1][key]


def test_check_philike_verdict_ignores_scale(capsys):
    # "Phi(f(z)) vanishes" is relative to the largest |Phi(f(z))| on the grid,
    # and the origin takes the ratio's limit 1/Phi'(0) for any f'(0) != 0.
    margins = {}
    for a in (1.0, 1e-16, 0.5):
        payload = run_json(
            capsys,
            ["check", "--spec", json.dumps({"type": "series", "h": [a]}),
             "--criterion", "philike"],
            EXIT_HOLDS)
        assert payload["verdict"] == "holds-on-samples"
        margins[a] = payload["margin"]
    for a in (1e-16, 0.5):
        assert abs(margins[a] - margins[1.0]) <= 1e-12


def test_check_theoremA_f_k_near_boundary_violated(capsys):
    payload = run_json(
        capsys,
        ["check", "--named", "f_k", "--param", "k=0.5",
         "--criterion", "theoremA", "--r-max", "0.99"],
        EXIT_VIOLATED)
    assert payload["margin"] < 0.0
    assert payload["invocation"]["r_max"] == pytest.approx(0.99)


def test_check_theoremB_identity_comparison(capsys):
    payload = run_json(
        capsys,
        ["check", "--named", "h0", "--criterion", "theoremB",
         "--G-named", "identity"],
        EXIT_HOLDS)
    # h0'(z) = 1 + z and the default grid reaches -0.95.
    assert payload["margin"] == pytest.approx(0.05, abs=1e-12)
    assert payload["invocation"]["G_named"] == "identity"


def test_check_philike_koebe(capsys):
    payload = run_json(
        capsys,
        ["check", "--named", "koebe", "--criterion", "philike"],
        EXIT_HOLDS)
    assert payload["margin"] > 0.0


def test_check_philike_rejects_nonanalytic_map(capsys):
    code, _, err = run_cli(
        capsys, ["check", "--named", "f_k", "--param", "k=0.5",
                 "--criterion", "philike"])
    assert code == EXIT_INPUT
    assert "analytic" in err


def test_check_oracle_identity(capsys):
    payload = run_json(
        capsys,
        ["check", "--named", "identity", "--criterion", "oracle"],
        EXIT_HOLDS)
    assert payload["criterion"] == "oracle"
    assert payload["verdict"] == "holds-on-samples"
    assert len(payload["reports"]) == 3
    kinds = [r["criterion"] for r in payload["reports"]]
    assert kinds == ["injectivity", "jacobian-positivity", "curve-simplicity"]


def test_check_oracle_h1(capsys):
    payload = run_json(
        capsys,
        ["check", "--named", "h1", "--criterion", "oracle", "--n", "400"],
        EXIT_HOLDS)
    assert all(r["verdict"] == "holds-on-samples" for r in payload["reports"])


def test_check_oracle_holds_on_a_tiny_copy_of_the_identity(capsys):
    # 1e-8 z is univalent; its injectivity ratio 1e-8 is judged against the
    # image radius over the sample radius, not against tol alone.
    payload = run_json(
        capsys,
        ["check", "--spec", '{"type":"series","h":[1e-8]}', "--criterion", "oracle"],
        EXIT_HOLDS)
    assert payload["reports"][0]["margin"] == pytest.approx(1e-8)


def test_check_oracle_flags_noninjective_series(capsys):
    # h(z) = z + 2 z^2 folds the disk over itself.
    spec = json.dumps({"type": "series", "h": [1.0, 2.0], "label": "fold"})
    payload = run_json(
        capsys,
        ["check", "--spec", spec, "--criterion", "oracle"],
        EXIT_VIOLATED)
    assert payload["verdict"] == "violated"
    assert payload["margin"] < 1e-6


def test_check_oracle_nonfinite_image_is_inconclusive(capsys, monkeypatch):
    # z/(z - pole) is univalent, but its pole sits on the first injectivity
    # sample: that scan is inconclusive and no scan is violated.
    pole = complex(sunflower_points(100, 0.9)[0])

    def ev(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return z / (z - pole)

    f = HarmonicMap.from_analytic(AnalyticFunction(
        eval=ev, deriv=lambda z: -pole / (np.asarray(z) - pole) ** 2))
    monkeypatch.setattr(cli, "_map_from_args", lambda args: f)
    payload = run_json(
        capsys,
        ["check", "--named", "identity", "--criterion", "oracle",
         "--n", "100", "--r-max", "0.9"],
        EXIT_INPUT)
    assert payload["verdict"] == "inconclusive"
    assert payload["margin"] is None
    verdicts = [r["verdict"] for r in payload["reports"]]
    assert verdicts == ["inconclusive", "holds-on-samples", "holds-on-samples"]


# ---------------------------------------------------------------------------
# bound

def test_bound_h0_conjugate_perturbation(capsys):
    payload = run_json(
        capsys,
        ["bound", "--named", "h0", "--r", "0.5", "--alpha", "2"],
        EXIT_HOLDS)
    assert payload["epsilon0"] == pytest.approx(H0_SAFE_BUDGET, rel=1e-9)
    assert payload["epsilon0_raw"] == pytest.approx(H0_RAW_BUDGET, rel=1e-9)
    assert payload["C_r"] == pytest.approx(80.0 / 2916.0, rel=1e-12)
    assert payload["m_r"] == pytest.approx(0.5, abs=1e-12)
    assert payload["m_0"] == 1.0
    assert payload["A"] == 1.0
    assert payload["alpha"] == 2.0
    assert "grid minima" in payload["rigor_note"]
    assert set(payload) == {"A", "C_r", "alpha", "epsilon0", "epsilon0_raw", "invocation",
                            "m_0", "m_r", "rigor_note", "schema_version"}


@pytest.mark.parametrize("argv", [
    ["bound", "--named", "h0", "--r", "0.5"],
    ["construct", "--named", "h0", "--r", "0.5", "--eps", "0.001"],
])
def test_alpha_provenance(capsys, argv):
    default = run_json(capsys, argv, EXIT_HOLDS)
    given = run_json(capsys, [*argv, "--alpha", "3"], EXIT_HOLDS)
    assert "alpha=3 (harmonic-default)" in default["rigor_note"]
    assert "alpha=3 (user)" in given["rigor_note"]
    # Only the provenance differs; the invocation records the order used.
    assert default["invocation"]["alpha"] == given["invocation"]["alpha"] == 3.0
    del default["rigor_note"], given["rigor_note"]
    assert default == given


def test_bound_identity_alpha3(capsys):
    payload = run_json(
        capsys,
        ["bound", "--named", "identity", "--r", "0.5"],
        EXIT_HOLDS)
    raw = 0.5 * (728.0 / 118098.0)
    assert payload["alpha"] == 3.0
    assert payload["epsilon0_raw"] == pytest.approx(raw, rel=1e-9)
    assert payload["epsilon0"] == pytest.approx(0.99 * raw, rel=1e-9)


def test_bound_rejects_degenerate_radius(capsys):
    code, _, err = run_cli(
        capsys, ["bound", "--named", "h0", "--r", "0", "--alpha", "2"])
    assert code == EXIT_INPUT
    assert "error:" in err


def test_bound_series_perturbation_with_claimed_sup(capsys):
    # phi(z) = z^2 / 2 + conj(z) / 4, sup |p'| + |q'| = 1.25 on the disk.
    pert = json.dumps({"p": [0.0, 0.5], "q": [0.25], "A": 1.25})
    payload = run_json(
        capsys,
        ["bound", "--named", "identity", "--r", "0.5", "--alpha", "2",
         "--pert", "series", "--pert-spec", pert],
        EXIT_HOLDS)
    assert payload["A"] == pytest.approx(1.25, rel=1e-12)
    raw = (0.5 / 1.25) * (80.0 / 2916.0)
    assert payload["epsilon0_raw"] == pytest.approx(raw, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["--pert", "series", "--pert-spec", "[1,2]"],
    ["--pert", "series", "--pert-spec", '{"p":[[1,2,3]]}'],
    ["--pert", "series", "--pert-spec", '{"p":[null]}'],
    ["--pert", "series", "--pert-spec", '{"q":[1.0],"A":0}'],
    ["--spec", '{"type":"series","h":5}'],
    ["--pert", "series", "--pert-spec", '{"p":[1],"A":[2]}'],
    ["--pert", "series", "--pert-spec", '{"p":[1],"A":Infinity}'],
    ["--pert", "series", "--pert-spec", '{"p":[[1,NaN]]}'],
    ["--spec", '{"type":"series","h":[1],"radius":null}'],
], ids=["spec-not-object", "coefficient-triple", "coefficient-null", "nonpositive-sup",
        "series-not-list", "sup-list", "sup-infinite", "coefficient-nan", "radius-null"])
def test_bound_malformed_spec_is_input_error(capsys, argv):
    if "--spec" not in argv:
        argv = ["--named", "identity", *argv]
    code, out, err = run_cli(capsys, ["bound", *argv, "--r", "0.5"])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:")


def test_bound_series_without_spec_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, ["bound", "--named", "identity", "--r", "0.5",
                 "--pert", "series"])
    assert code == EXIT_INPUT
    assert "--pert-spec" in err


# ---------------------------------------------------------------------------
# construct

def test_construct_within_budget(capsys):
    payload = run_json(
        capsys,
        ["construct", "--named", "h0", "--r", "0.5", "--eps", "0.01",
         "--alpha", "2"],
        EXIT_HOLDS)
    assert payload["label"] == "h0(0.5z) + 0.01*phi"
    assert payload["epsilon_used"] == 0.01
    assert payload["epsilon_budget"] == pytest.approx(H0_SAFE_BUDGET, rel=1e-9)
    assert payload["local_univalence_margin"] > 0.0
    assert "unsafe" not in payload["rigor_note"]


def test_construct_beyond_budget_refused(capsys):
    code, _, err = run_cli(
        capsys, ["construct", "--named", "h0", "--r", "0.5",
                 "--eps", "0.0136", "--alpha", "2"])
    assert code == EXIT_INPUT
    assert "not below the safe budget" in err


def test_construct_unsafe_override(capsys):
    payload = run_json(
        capsys,
        ["construct", "--named", "h0", "--r", "0.5", "--eps", "0.0136",
         "--alpha", "2", "--unsafe"],
        EXIT_HOLDS)
    assert "unsafe override" in payload["rigor_note"]
    assert payload["epsilon_used"] > payload["epsilon_budget"]
    # The pointwise certificate is still comfortably positive here.
    assert payload["local_univalence_margin"] > 0.1


def test_construct_negative_eps_is_input_error(capsys):
    for eps in ("-0.01", "nan"):
        code, _, err = run_cli(
            capsys, ["construct", "--named", "h0", "--r", "0.5",
                     "--eps", eps, "--alpha", "2"])
        assert code == EXIT_INPUT
        assert "nonnegative" in err


# ---------------------------------------------------------------------------
# herglotz

def test_herglotz_identity_point_mass(capsys):
    payload = run_json(
        capsys,
        ["herglotz", "--named", "identity",
         "--measure", '{"atoms": [[0.0, 1.0]]}'],
        EXIT_HOLDS)
    assert payload["max_identity_deviation"] <= 1e-8
    assert payload["tolerance"] == 1e-5
    assert len(payload["phi_samples"]) == 8
    # First sample sits at w = 0.5 where phi = 2 ln 2 - 1/2.
    first = payload["phi_samples"][0]
    assert first["w"] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert first["phi"] == pytest.approx([2.0 * math.log(2.0) - 0.5, 0.0],
                                         abs=1e-9)
    assert payload["measure"] == {"atoms": [[0.0, 1.0]]}


def test_herglotz_cayley_three_atoms(capsys):
    measure = json.dumps({"atoms": [[0.0, 0.5], [1.0, 0.3], [4.0, 0.2]]})
    payload = run_json(
        capsys,
        ["herglotz", "--named", "cayley", "--measure", measure],
        EXIT_HOLDS)
    assert payload["max_identity_deviation"] <= 1e-5


def test_herglotz_dilated_h1(capsys):
    measure = json.dumps({"atoms": [[0.0, 0.5], [2.0, 0.3], [4.5, 0.2]]})
    payload = run_json(
        capsys,
        ["herglotz", "--named", "h_r", "--param", "r=0.5", "--measure", measure],
        EXIT_HOLDS)
    assert payload["max_identity_deviation"] <= 1e-5


def test_herglotz_nonstandard_params(capsys):
    payload = run_json(
        capsys,
        ["herglotz", "--named", "identity",
         "--measure", '{"atoms": [[0.0, 1.0]]}',
         "--params", '{"c": 2.0, "c1": -0.5, "c0": [1.0, 0.25]}'],
        EXIT_HOLDS)
    assert payload["params"]["c"] == 2.0
    assert payload["params"]["c1"] == -0.5
    assert payload["params"]["c0"] == [1.0, 0.25]


def test_herglotz_rejects_deficient_measure(capsys):
    code, _, err = run_cli(
        capsys, ["herglotz", "--named", "identity",
                 "--measure", '{"atoms": [[0.0, 0.9]]}'])
    assert code == EXIT_INPUT
    assert "error:" in err


# ---------------------------------------------------------------------------
# render

def test_render_writes_named_file(capsys, tmp_path):
    out = tmp_path / "disk.svg"
    code, stdout, _ = run_cli(
        capsys, ["render", "--named", "h0", "--out", str(out)])
    assert code == EXIT_HOLDS
    assert stdout == str(out) + "\n"
    text = out.read_text(encoding="utf-8")
    assert text.startswith('<?xml version="1.0"')
    assert "<title>h0</title>" in text
    assert 'stroke="#000000"' not in text


def test_render_is_byte_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(capsys, ["render", "--named", "f_k", "--param", "k=0.5",
                     "--out", str(a)])
    run_cli(capsys, ["render", "--named", "f_k", "--param", "k=0.5",
                     "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_render_default_filename_and_auto_slit(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(capsys, ["render", "--named", "h1"])
    assert code == EXIT_HOLDS
    assert stdout == "h1.svg\n"
    text = (tmp_path / "h1.svg").read_text(encoding="utf-8")
    # The reference ray is drawn automatically for the slit-domain maps.
    assert 'stroke="#000000"' in text


def test_render_spec_map_uses_fallback_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = json.dumps({"type": "series", "h": [1.0], "g": [[0.0, 0.25]],
                       "label": "tilted"})
    code, stdout, _ = run_cli(capsys, ["render", "--spec", spec])
    assert code == EXIT_HOLDS
    assert stdout == "map.svg\n"
    assert (tmp_path / "map.svg").exists()


def test_render_rejects_rho_outside_domain(capsys):
    code, _, err = run_cli(
        capsys, ["render", "--named", "h0", "--rho-max", "1.5"])
    assert code == EXIT_INPUT
    assert "error:" in err


def test_render_unwritable_path(capsys, tmp_path):
    out = tmp_path / "missing_dir" / "x.svg"
    code, _, err = run_cli(capsys, ["render", "--named", "h0",
                                    "--out", str(out)])
    assert code == EXIT_INPUT
    assert "cannot write" in err


# ---------------------------------------------------------------------------
# gallery-list and input handling

def test_gallery_list_names_in_order(capsys):
    payload = run_json(capsys, ["gallery-list"], EXIT_HOLDS)
    names = [entry["name"] for entry in payload["gallery"]]
    assert names == ["identity", "cayley", "koebe", "h0", "f_k",
                     "h1", "h_r", "F_eps", "f_eps"]
    assert all("notes" in entry for entry in payload["gallery"])
    assert set(payload) == {"gallery", "schema_version"}  # no invocation


def test_spec_file_indirection(capsys, tmp_path):
    spec_path = tmp_path / "map.json"
    spec_path.write_text(json.dumps({"type": "series", "h": [1.0],
                                     "g": [0.25], "label": "affine"}),
                         encoding="utf-8")
    payload = run_json(
        capsys,
        ["check", "--spec", f"@{spec_path}", "--criterion", "oracle"],
        EXIT_HOLDS)
    assert payload["verdict"] == "holds-on-samples"


@pytest.mark.parametrize("argv, needle", [
    (["check", "--criterion", "oracle"], "--named or --spec"),
    (["check", "--named", "nope", "--criterion", "theoremA"], "nope"),
    (["check", "--named", "f_k", "--param", "k", "--criterion", "theoremA"],
     "name=value"),
    (["check", "--named", "f_k", "--param", "k=oops",
      "--criterion", "theoremA"], "real value"),
    (["check", "--spec", "{broken", "--criterion", "oracle"], "malformed"),
    (["check", "--spec", "@/no/such/file.json", "--criterion", "oracle"],
     "cannot read"),
    (["check", "--named", "h0", "--criterion", "theoremB",
      "--G-named", "nope"], ""),
    (["check", "--spec", '{"type":"series","h":[1],"radius":null}',
      "--criterion", "theoremA"], "'radius'"),
    (["check", "--spec", '{"type":"named","name":"f_k","params":{"k":null}}',
      "--criterion", "theoremA"], "parameter 'k'"),
    (["bound", "--named", "h0", "--r", "0.5", "--pert", "series",
      "--pert-spec", '{"p":[1],"A":[2]}'], "'A'"),
    (["herglotz", "--named", "cayley", "--measure", '{"atoms":[[0,null]]}'],
     "atom weight"),
    (["herglotz", "--named", "cayley", "--measure", '{"atoms":[[0,NaN]]}'],
     "atom weight"),
    (["herglotz", "--named", "cayley", "--measure", '{"atoms":[[0,1]]}',
      "--params", '{"c":null}'], "'c'"),
    (["herglotz", "--named", "cayley", "--measure", '{"atoms":[[0,1]]}',
      "--params", '{"c1":Infinity}'], "'c1'"),
    (["bound", "--named", "h0", "--r", "0.5", "--alpha", "nan"], "alpha"),
    (["check", "--named", "h0", "--criterion", "oracle", "--n", "50", "--tol", "nan"],
     "tol"),
    (["check", "--named", "h0", "--criterion", "oracle", "--n", "50", "--tol", "-1"],
     "tol"),
    (["check", "--named", "h0", "--criterion", "oracle", "--n", "20"], "50 sample points"),
    (["check", "--named", "h0", "--criterion", "oracle", "--rho", "0"], "rho"),
    (["check", "--named", "h0", "--criterion", "theorem1", "--phi", "linear",
      "--n-epsilon", "2"], "unimodular directions"),
    (["check", "--named", "h0", "--criterion", "theoremA", "--n-gamma", "4"],
     "rotation candidates"),
    (["check", "--named", "h0", "--criterion", "theoremB", "--n-gamma", "4"],
     "rotation candidates"),
    (["bound", "--named", "h0", "--r", "0.5", "--alpha", "inf"], "alpha must be finite"),
    (["bound", "--named", "h1", "--r", "0.9995"], "radius must lie in [0, 0.999), got 0.9995"),
    (["construct", "--named", "h1", "--r", "0.9995", "--eps", "0"],
     "radius must lie in [0, 0.999), got 0.9995"),
    (["check", "--named", "h0", "--criterion", "theorem1", "--phi", "linear",
      "--phi-a", "nan"], "--phi-a must be a finite real number"),
    (["check", "--named", "h0", "--criterion", "theorem1", "--phi", "linear",
      "--phi-a", "1,inf"], "--phi-a must be a finite real number"),
    (["check", "--named", "h0", "--criterion", "corollary1", "--phi", "linear",
      "--phi-b", "inf"], "--phi-b must be a finite real number"),
    (["check", "--named", "h0", "--criterion", "theorem1", "--phi", "linear",
      "--phi-a", "x"], "--phi-a expects re[,im], got 'x'"),
    (["check", "--named", "koebe", "--criterion", "philike", "--spiral-alpha", "nan"],
     "--spiral-alpha must be a finite real number"),
    (["check", "--named", "h0", "--criterion", "oracle", "--rho", "inf"],
     "--rho must be a finite real number"),
    (["check", "--named", "f_k", "--param", "k=1.5", "--criterion", "theoremA"],
     "error: f_k needs k in [0, 1), got 1.5\n"),
    (["check", "--named", "f_k", "--param", "k=nan", "--criterion", "theoremA"],
     "finite real parameters"),
    (["check", "--named", "h_r", "--param", "r=inf", "--criterion", "theoremA"],
     "finite real parameters"),
    (["check", "--named", "F_eps", "--param", "r=0.5", "--param", "eps=-inf",
      "--criterion", "theoremA"], "finite real parameters"),
    (["check", "--spec", '{"type":"named","name":"f_k","params":[0.5]}',
      "--criterion", "theoremA"], "'params' must be an object"),
    (["herglotz", "--named", "cayley", "--measure", '{"atoms":[[0,1]]}',
      "--params", "[1]"], "structural params must be a JSON object"),
    # Only gallery maps without parameters can be named as G.
    (["check", "--named", "h0", "--criterion", "theoremB",
      "--G-named", "f_k"], "invalid choice: 'f_k'"),
    # g is judged against the scale of h, so a small map keeps its g.
    (["check", "--spec", '{"type":"series","h":[1e-12],"g":[5e-13]}',
      "--criterion", "philike"], "needs an analytic map"),
    (["herglotz", "--spec", '{"type":"series","h":[1e-12],"g":[5e-13]}',
      "--measure", '{"atoms":[[0,1]]}'], "needs an analytic map"),
    # g = z^2 (z - 0.3 - 0.2i)^2 (z + 0.4i)^2 has double zeros where a few fixed
    # probes would look; the grid's outer circle sees it.
    (["check", "--spec", DOUBLE_ZERO_G, "--criterion", "philike"],
     "error: the ratio test needs an analytic map"),
    (["herglotz", "--spec", DOUBLE_ZERO_G, "--measure", '{"atoms":[[0,1]]}'],
     "error: the structural identity needs an analytic map"),
])
def test_input_errors_exit_two(capsys, argv, needle):
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT
    assert needle in err


def test_bad_flags_exit_two(capsys):
    assert main(["check", "--named", "identity",
                 "--criterion", "nonsense"]) == EXIT_INPUT
    capsys.readouterr()
    assert main([]) == EXIT_INPUT
    capsys.readouterr()


def test_main_builds_its_parser_once(capsys):
    # One parser serves every call in a process: an argparse error leaves
    # nothing behind, and each call's --param list is its own.
    grid = ["--criterion", "corollary1", "--n-radial", "10", "--n-angular", "24"]
    calls = [["check", "--named", "h_r", "--param", "r=0.5", *grid],
             ["check", "--named", "f_k", "--param", "k=0.5", *grid]]
    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run_cli(capsys, argv))
    assert [code for code, _, _ in first] == [EXIT_HOLDS, EXIT_HOLDS]
    assert cli._parser() is cli._parser()
    assert run_cli(capsys, ["check", "--named", "h0", "--criterion", "nonsense"])[0] == EXIT_INPUT
    assert [run_cli(capsys, argv) for argv in calls] == first
    a, b = (cli._parser().parse_args(argv) for argv in calls)
    assert (a.param, b.param) == (["r=0.5"], ["k=0.5"])


def test_parser_defaults_are_the_library_defaults():
    args = cli._parser().parse_args(["check", "--named", "h0", "--criterion", "theorem1"])
    assert (args.n_radial, args.n_angular, args.r_max) == (
        DEFAULT_GRID.n_radial, DEFAULT_GRID.n_angular, DEFAULT_GRID.r_max)
    assert (args.n_epsilon, args.n_gamma) == (DEFAULT_N_EPSILON, DEFAULT_N_GAMMA)


def test_cli_import_leaves_out_the_xml_stack():
    # xml.sax.saxutils would load urllib.request, http.client, ssl and email
    # at every CLI start.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, harmonicmaps.cli; print('xml.sax' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "False\n"


def test_cli_import_does_not_build_the_parser():
    # The parser is built at the first call, so a bare import stays cheap.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import harmonicmaps.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "0\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "check" in out and "gallery-list" in out
    for command in ("check", "bound", "construct", "herglotz", "render", "gallery-list"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: harmonicmaps {command} ")
        assert ('"A":sup' in out) == (command in ("bound", "construct"))


# ---------------------------------------------------------------------------
# the report envelope

CHECK_KEYS = {"named", "criterion", "n_radial", "n_angular", "r_max",
              "n_epsilon", "n_gamma", "phi", "G_named", "spiral_alpha"}


@pytest.mark.parametrize("argv, keys", [
    (["check", "--named", "identity", "--criterion", "theoremA"], CHECK_KEYS),
    (["check", "--named", "identity", "--criterion", "corollary1"], CHECK_KEYS),
    (["check", "--named", "identity", "--criterion", "oracle", "--n", "100"],
     {"named", "criterion", "n", "r_max", "tol", "rho"}),
    (["bound", "--named", "h0", "--r", "0.5"],
     {"named", "r", "alpha", "pert", "n_radial", "n_angular", "r_max"}),
    (["construct", "--named", "h0", "--r", "0.5", "--eps", "0.001"],
     {"named", "r", "eps", "alpha", "pert", "unsafe"}),
    (["herglotz", "--named", "identity", "--measure", '{"atoms": [[0.0, 1.0]]}'],
     {"named", "n_radial", "n_angular", "r_max"}),
    # an unset flag is left out
    (["bound", "--spec", '{"type": "series", "h": [1.0]}', "--r", "0.5"],
     {"r", "alpha", "pert", "n_radial", "n_angular", "r_max"}),
])
def test_invocation_keys(capsys, argv, keys):
    payload = run_json(capsys, argv, EXIT_HOLDS)
    assert payload["schema_version"] == 1
    assert set(payload["invocation"]) == keys
