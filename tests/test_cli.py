import argparse
import json
import re
import threading
from pathlib import Path

import pytest

from drinfeld import cli
from drinfeld.errors import InternalConsistencyError


CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "catalogue.json"

INTEGER_OPTIONS = {"--q", "--prec", "--k1", "--k2", "--max-n", "--steps",
                   "--ext", "--ext-degree", "--threads", "--q-modulus"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_eisenstein(self, capsys):
        code, out, _ = run(capsys, "carlitz", "eisenstein", "--q", "2",
                           "--wp", "t^2+t+1")
        assert code == 0
        doc = json.loads(out)
        assert doc["eisenstein"] is True
        assert doc["reduction"] == "Z^4"

    def test_p_poly_alias(self, capsys):
        code, out, _ = run(capsys, "carlitz", "eisenstein", "--q", "2",
                           "--p-poly", "t")
        assert code == 0
        assert json.loads(out)["reduction"] == "Z^2"

    def test_carlitz_phi(self, capsys):
        code, out, _ = run(capsys, "carlitz", "phi", "--q", "2", "--a", "t")
        assert code == 0
        assert json.loads(out)["tau_coeffs"] == ["[0,1]", "[1]"]

    def test_cyclotomic(self, capsys):
        code, out, _ = run(capsys, "carlitz", "cyclotomic", "--q", "2",
                           "--factors", "t,t")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 2

    def test_cyclotomic_factors_in_bracket_form(self, capsys, tmp_path):
        # bracket form, the CLI's own output form, holds commas of its own
        def cyclotomic(factors):
            code, out, err = run(capsys, "carlitz", "cyclotomic", "--q", "4",
                                 "--factors", factors)
            return code, json.loads(out or err)

        code, doc = cyclotomic("[u,1]")
        assert code == 0 and doc["degree"] == 3
        assert doc["coeffs"] == ["[u,1]", "[]", "[]", "[1]"]
        code, doc = cyclotomic("[1,1],[u,1]")
        assert code == 0 and doc["degree"] == 9
        assert cyclotomic("[1,1]") == cyclotomic("t+1")
        code, doc = cyclotomic("[u,1")
        assert code == 1 and "unterminated" in doc["error"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": [
            {"command": "carlitz cyclotomic", "q": 4,
             "factors": "[1,1],[u,1]"}]}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["passed"] == 1
        assert doc["jobs"][0]["result"]["degree"] == 9

    def test_drinfeld_dual_and_classify(self, capsys):
        code, out, _ = run(capsys, "drinfeld", "dual", "--q", "2",
                           "--wp", "t^2+t+1", "--a1", "t", "--a2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["j"] == doc["j_dual"]
        code, out, _ = run(capsys, "drinfeld", "classify", "--q", "2",
                           "--wp", "t^2+t+1", "--a1", "t", "--a2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] in ("ordinary", "supersingular")
        assert doc["class"] == doc["dual_class"]

    def test_vsheaf_pipeline(self, capsys):
        args = ["--q", "2", "--wp", "t", "--a1", "1", "--a2", "1"]
        code, out, _ = run(capsys, "vsheaf", "kernel", *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["rank"] == 2
        code, out, _ = run(capsys, "vsheaf", "dual", *args)
        assert code == 0
        assert json.loads(out)["double_dual_is_identity"] is True
        code, out, _ = run(capsys, "vsheaf", "points", *args, "--u", "tau^d")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_tate_expand_checks(self, capsys):
        code, out, _ = run(capsys, "tate", "expand", "--q", "2", "--wp", "t",
                           "--f", "1", "--prec", "8")
        assert code == 0
        doc = json.loads(out)
        assert all(doc["checks"].values()) or doc["checks"]["a2_valuation"] == 1
        assert doc["a1"]["coeffs"][0] == "[1]"

    def test_tate_canonical(self, capsys):
        code, out, _ = run(capsys, "tate", "canonical", "--q", "2", "--wp", "t",
                           "--f", "1", "--prec", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["c0_is_wp"] and doc["tdquot_ok"] and doc["ordinary"]
        assert doc["expp_residuals_vanish"] and doc["rho_exists"]

    def test_tate_ks(self, capsys):
        code, out, _ = run(capsys, "tate", "ks", "--q", "2", "--wp", "t",
                           "--f", "1", "--prec", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["val"] == -1 and doc["residue"] == "[1]"

    def test_forms_pipeline(self, capsys):
        code, out, _ = run(capsys, "forms", "hasse", "--q", "2", "--wp", "t",
                           "--prec", "8")
        assert code == 0
        assert json.loads(out)["weight"] == 1
        code, out, _ = run(capsys, "forms", "audit", "--q", "2", "--wp", "t",
                           "--prec", "12", "--f1", "a1^2*a2",
                           "--f2", "a1^2*a2*g^4", "--max-n", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True and doc["depth"] == 4
        code, out, _ = run(capsys, "forms", "limit", "--q", "2", "--wp", "t",
                           "--prec", "10", "--chi", "0,3", "--steps", "3")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["weights"]) == 3


    def test_vsheaf_kernel_of_a_t_polynomial(self, capsys):
        # --u names an element a of A and takes the kernel of Phi_a; at
        # wp = t, --u t is the default --u wp
        args = ["--q", "2", "--wp", "t", "--a1", "1", "--a2", "1"]
        _, default, _ = run(capsys, "vsheaf", "kernel", *args)
        assert run(capsys, "vsheaf", "kernel", *args, "--u", "t") \
            == (0, default, "")
        code, out, _ = run(capsys, "vsheaf", "kernel", *args, "--u", "t^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["rank"] == 4

    def test_forms_audit_weight_overrides(self, capsys):
        # --k1/--k2 replace the weight tags of f1/f2: with k1 = 0 the
        # difference is -w2, with k2 = 0 it is w1, and w1 - w2 is the default
        args = ["forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
                "--f1", "a1^2*a2", "--f2", "a1^2*a2*g^4", "--max-n", "6"]

        def audit(*extra):
            code, out, _ = run(capsys, *args, *extra)
            assert code == 0
            return json.loads(out)

        default = audit()
        minus_w2 = audit("--k1", "0")
        w1 = audit("--k2", "0")
        assert w1["delta_k"] + minus_w2["delta_k"] == default["delta_k"]
        both = audit("--k1", "7", "--k2", "6")
        assert both["delta_k"] == 1
        assert both["depth"] == default["depth"] > 1
        assert both["modulus"] == default["modulus"] > 1
        assert both["pass"] is False
        assert audit("--k1", "6", "--k2", "6")["pass"] is True


class TestExitCodes:
    def test_domain_error_is_1(self, capsys):
        code, out, err = run(capsys, "carlitz", "eisenstein", "--q", "2",
                             "--wp", "t^2")
        assert code == 1
        assert json.loads(err)["kind"] == "domain"

    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["carlitz", "phi", "--q", "2"])  # missing --a
        assert exc.value.code == 64

    def test_missing_required_param_is_domain(self, capsys):
        code, _, err = run(capsys, "carlitz", "eisenstein", "--q", "2")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("carlitz", "phi", "--q", "abc", "--a", "t"),
        ("carlitz", "phi", "--q", "2", "--a", "t*t"),
        ("carlitz", "phi", "--q", "2", "--a", "x^2"),
        ("carlitz", "phi", "--q", "4", "--q-modulus", "1,x", "--a", "t"),
        ("vsheaf", "points", "--q", "2", "--wp", "t", "--a1", "1", "--a2", "1",
         "--ext-degree", "0"),
        ("vsheaf", "points", "--q", "2", "--wp", "t", "--a1", "1", "--a2", "1",
         "--ext-degree", "-1"),
        ("suite", "--manifest", "{manifest}", "--threads", "abc"),
        # monomial exponents are non-negative decimal integers
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f1", "a2^-1", "--f2", "a2^-1*g^2"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "0,0", "--steps", "2", "--monomial", "a1^-2"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "0,0", "--steps", "2", "--monomial", "a1^"),
        # monomial factors are joined by single "*"s, and none is empty
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f2", "a1*a2*g^2", "--f1", "a1**a2"),
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f1", "a1*a2", "--f2", "*a1*a2*"),
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f2", "g", "--f1", ""),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "0,0", "--steps", "2", "--monomial", ""),
        # --chi is exactly two integers
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "1", "--steps", "2"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "1,2,3", "--steps", "2"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "a,b", "--steps", "2"),
        # entries are plain decimal: no digit separators, ASCII digits only
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "8",
         "--chi", "1_0,7", "--steps", "2"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "8",
         "--chi", "\u0663,7", "--steps", "2"),
        # an empty lattice scale is malformed; only an absent one means 1
        ("tate", "expand", "--q", "2", "--wp", "t", "--prec", "6", "--f", ""),
        ("tate", "canonical", "--q", "2", "--wp", "t", "--prec", "6",
         "--f", ""),
        ("tate", "ks", "--q", "2", "--wp", "t", "--prec", "6", "--f", ""),
        # integer options: malformed or below their minimum (the last two
        # arguments), each named in the error
        ("tate", "expand", "--q", "2", "--wp", "t", "--prec", "abc"),
        ("tate", "expand", "--q", "2", "--wp", "t", "--prec", "0"),
        ("tate", "canonical", "--wp", "t", "--prec", "8", "--q", "x"),
        ("forms", "hasse", "--q", "2", "--wp", "t", "--prec", "-4"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "0,7", "--steps", "x"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "12",
         "--chi", "0,7", "--steps", "0"),
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f1", "a1", "--f2", "a1*g^2", "--k1", "x"),
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f1", "a1", "--f2", "a1*g^2", "--k2", "1.5"),
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f1", "a1", "--f2", "a1*g^2", "--max-n", "0"),
        ("forms", "audit", "--q", "2", "--wp", "t", "--prec", "12",
         "--f1", "a1", "--f2", "a1*g^2", "--max-n", "-3"),
        ("drinfeld", "dual", "--q", "2", "--wp", "t", "--a1", "1",
         "--a2", "1", "--ext", "x"),
        ("drinfeld", "classify", "--q", "2", "--wp", "t", "--a1", "1",
         "--a2", "1", "--ext", "0"),
        ("vsheaf", "points", "--q", "2", "--wp", "t", "--a1", "1", "--a2", "1",
         "--ext-degree", "2.0"),
        ("carlitz", "phi", "--q", "4", "--a", "t", "--q-modulus", "1,x"),
        ("carlitz", "phi", "--q", "4", "--a", "t", "--q-modulus", ""),
        ("carlitz", "phi", "--q", "4", "--a", "t", "--q-modulus", "1,,1"),
        ("carlitz", "phi", "--q", "4", "--a", "t", "--q-modulus", "1.5,1,1"),
        ("carlitz", "phi", "--q", "4", "--a", "t", "--q-modulus", "1,1,1,1"),
        ("carlitz", "phi", "--q", "4", "--a", "t", "--q-modulus", "1,1,2"),
    ])
    def test_malformed_input_is_1(self, tmp_path, capsys, argv):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(MANIFEST))
        code, out, err = run(capsys, *(a.replace("{manifest}", str(path))
                                       for a in argv))
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "domain"
        error = json.loads(err)["error"]
        chi = dict(zip(argv, argv[1:])).get("--chi", "0,0")
        if not re.fullmatch(r"[0-9]+,[0-9]+", chi):
            assert "--chi" in error
        elif argv[-2] in INTEGER_OPTIONS:
            assert argv[-2] in error

    def test_constant_monomial_is_a1_to_the_zero(self, capsys):
        code, out, _ = run(capsys, "forms", "audit", "--q", "2", "--wp", "t",
                           "--prec", "8", "--f1", "a1^0", "--f2", "g^2")
        assert code == 0
        assert json.loads(out)["delta_k"] == -2

    def test_limit_steps_at_bound_is_0(self, capsys):
        # 65 is refused in test_input_degree_above_bound_is_1
        code, out, _ = run(capsys, "forms", "limit", "--q", "2", "--wp", "t",
                           "--prec", "8", "--chi", "0,3", "--steps", "64")
        assert code == 0
        assert len(json.loads(out)["weights"]) == 64

    def test_q_modulus_of_wrong_length_gives_the_degree(self, capsys):
        code, _, err = run(capsys, "carlitz", "phi", "--q", "4", "--a", "t",
                           "--q-modulus", "1,1,1,1")
        assert code == 1
        assert json.loads(err)["error"] == (
            "--q-modulus for q = 4 must be 3 integers (monic of degree 2, "
            "low first), got 1,1,1,1")

    def test_reducible_q_modulus_names_the_option(self, capsys):
        code, _, err = run(capsys, "carlitz", "phi", "--q", "4", "--a", "t",
                           "--q-modulus", "1,0,1")
        assert code == 1
        assert json.loads(err)["error"] == (
            "--q-modulus 1,0,1 is reducible over F_2")

    @pytest.mark.parametrize("q,f,prec", [(3, "1", 2), (4, "1", 3),
                                          (2, "t", 2)])
    def test_tate_precision_at_or_below_a2_valuation_is_1(self, capsys, q, f,
                                                          prec):
        code, _, err = run(capsys, "tate", "expand", "--q", str(q), "--wp",
                           "t", "--f", f, "--prec", str(prec))
        assert code == 1
        assert json.loads(err)["kind"] == "domain"

    def test_tate_precision_just_above_a2_valuation_is_0(self, capsys):
        code, out, _ = run(capsys, "tate", "expand", "--q", "3", "--wp", "t",
                           "--prec", "3")
        assert code == 0
        assert json.loads(out)["checks"]["functional_equation_ok"] is True

    @pytest.mark.parametrize("argv", [
        ("carlitz", "phi", "--q", "2", "--a", "t^40"),
        ("carlitz", "phi", "--q", "2", "--a", "t^999999999+1"),
        ("carlitz", "phi", "--q", "3", "--a", "[1,0,0,0,0,0,0,0,0,0,0,1]"),
        ("carlitz", "eisenstein", "--q", "7", "--wp", "t^6+3"),
        ("carlitz", "cyclotomic", "--q", "2", "--factors", "t,t^17+t+1"),
        ("drinfeld", "dual", "--q", "2", "--wp", "t", "--a1", "1",
         "--a2", "t^20"),
        ("vsheaf", "kernel", "--q", "2", "--wp", "t", "--a1", "1",
         "--a2", "1", "--u", "t^17"),
        ("tate", "expand", "--q", "2", "--wp", "t", "--f", "t^17",
         "--prec", "8"),
        ("forms", "hasse", "--q", "4", "--wp", "t^9", "--prec", "8"),
        ("drinfeld", "dual", "--q", "7", "--wp", "t^2+1", "--a1", "1",
         "--a2", "1", "--ext", "4"),
        ("vsheaf", "points", "--q", "7", "--wp", "t^2+1", "--a1", "1",
         "--a2", "1", "--ext-degree", "4"),
        ("forms", "limit", "--q", "2", "--wp", "t", "--prec", "8",
         "--chi", "0,3", "--steps", "65"),
    ])
    def test_input_degree_above_bound_is_1(self, capsys, argv):
        # q^deg > 2^16: the work of Phi^C_a grows like q^deg a, and an
        # extension field of order 7^8 would be searched element by element;
        # forms limit costs one Hasse-lift power per step, up to 64 steps
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "input bound" in json.loads(err)["error"]

    def test_internal_error_is_2(self, capsys, monkeypatch):
        def broken(params):
            raise InternalConsistencyError("identity violated")
        monkeypatch.setitem(cli.HANDLERS, "carlitz phi", broken)
        code, _, err = run(capsys, "carlitz", "phi", "--q", "2", "--a", "t")
        assert code == 2
        assert json.loads(err)["kind"] == "internal-consistency"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "tate", "expand", "--q", "2", "--wp", "t",
                         "--f", "1", "--prec", "8")
        _, out2, _ = run(capsys, "tate", "expand", "--q", "2", "--wp", "t",
                         "--f", "1", "--prec", "8")
        assert out1 == out2


MANIFEST = {
    "jobs": [
        {"command": "carlitz eisenstein", "q": 2, "wp": "t"},
        {"command": "tate expand", "q": 2, "wp": "t", "f": "1", "prec": 6},
        {"command": "forms hasse", "q": 3, "wp": "t", "prec": 6},
        {"command": "vsheaf points", "q": 2, "wp": "t", "a1": "1", "a2": "1",
         "u": "tau^d"},
    ]
}


class TestSuite:
    def test_manifest_runs(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(MANIFEST))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] == 4 and doc["failed"] == 0
        assert [j["index"] for j in doc["jobs"]] == [0, 1, 2, 3]

    def test_thread_count_does_not_change_bytes(self, tmp_path, capsys,
                                                monkeypatch):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(MANIFEST))
        _, out1, _ = run(capsys, "suite", "--manifest", str(path))

        def no_threads(self):
            raise AssertionError("suite jobs run on the calling thread")
        monkeypatch.setattr(threading.Thread, "start", no_threads)
        _, out4, _ = run(capsys, "suite", "--manifest", str(path),
                         "--threads", "4")
        assert out1 == out4

    def test_bad_job_reported(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        bad = {"jobs": [{"command": "carlitz eisenstein", "q": 2, "wp": "t^2"}]}
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["failed"] == 1
        assert doc["jobs"][0]["code"] == 1

    def test_unknown_command_is_job_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        jobs = [{"command": "carlitz nope", "q": 2}, {"q": 2},
                {"command": "carlitz phi", "q": 2, "a": "t"}]
        path.write_text(json.dumps({"jobs": jobs}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        doc = json.loads(out)
        assert code == 1 and doc["exit_code"] == 1
        assert [j["ok"] for j in doc["jobs"]] == [False, False, True]
        assert doc["jobs"][0] == {"index": 0, "ok": False, "code": 1,
                                  "error": "unknown command 'carlitz nope'"}
        assert doc["jobs"][1]["error"] == "unknown command None"

    def test_internal_error_job_is_2(self, tmp_path, capsys, monkeypatch):
        def broken(params):
            raise InternalConsistencyError("identity violated")
        monkeypatch.setitem(cli.HANDLERS, "carlitz phi", broken)
        path = tmp_path / "manifest.json"
        jobs = [{"command": "carlitz phi", "q": 2, "a": "t"},
                {"command": "carlitz eisenstein", "q": 2, "wp": "t^2"},
                {"command": "carlitz eisenstein", "q": 2, "wp": "t"}]
        path.write_text(json.dumps({"jobs": jobs}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        doc = json.loads(out)
        assert code == 2 and doc["exit_code"] == 2
        assert doc["jobs"][0] == {"index": 0, "ok": False, "code": 2,
                                  "error": "identity violated"}
        assert doc["jobs"][1]["code"] == 1 and doc["jobs"][2]["ok"]

    def test_output_key_writes_stdout(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(dict(MANIFEST, output=str(target))))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        assert code == 0
        assert target.read_text() == out

    def test_bad_job_isolated(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        jobs = {"jobs": [{"command": "carlitz phi", "q": "zz", "a": "t"},
                         {"command": "carlitz phi", "q": 2, "a": "t"}]}
        path.write_text(json.dumps(jobs))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["jobs"][0]["code"] == 1 and not doc["jobs"][0]["ok"]
        assert doc["jobs"][1]["ok"]
        assert doc["passed"] == 1 and doc["failed"] == 1

    @pytest.mark.parametrize("prec,error", [
        (6, None), ("6", None), (True, "--prec must be an integer"),
        (6.0, "--prec must be an integer"), ("", "--prec must be an integer"),
        (" 6", "--prec must be an integer"), (0, "--prec must be at least 1")])
    def test_integer_job_values(self, tmp_path, capsys, prec, error):
        # a JSON int or a decimal string, never a bool, float or padded text
        path = tmp_path / "manifest.json"
        job = {"command": "tate expand", "q": 2, "wp": "t", "prec": prec}
        path.write_text(json.dumps({"jobs": [job]}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        entry = json.loads(out)["jobs"][0]
        if error is None:
            assert code == 0 and entry["ok"]
            assert entry["result"]["a1"]["prec"] == 6
        else:
            assert code == 1 and entry["code"] == 1
            assert entry["error"].startswith(error)

    def test_q_modulus_forms(self, tmp_path, capsys):
        # comma-separated, in brackets, or a manifest's JSON int list
        expected = run(capsys, "carlitz", "phi", "--q", "4", "--a", "t^2")[1]
        for text in ["1,1,1", "[1,1,1]"]:
            assert run(capsys, "carlitz", "phi", "--q", "4", "--a", "t^2",
                       "--q-modulus", text) == (0, expected, "")
        job = {"command": "carlitz phi", "q": 4, "a": "t^2",
               "q_modulus": [1, 1, 1]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"jobs": [job]}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        assert code == 0
        assert json.loads(out)["jobs"][0]["result"] == json.loads(expected)

    def test_input_degree_above_bound_is_job_error(self, tmp_path, capsys):
        jobs = [{"command": "carlitz phi", "q": 2, "a": "t^40"},
                {"command": "carlitz phi", "q": 2, "a": "t"}]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"jobs": jobs}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        doc = json.loads(out)
        assert code == 1 and doc["passed"] == 1
        assert doc["jobs"][0]["code"] == 1
        assert "input bound" in doc["jobs"][0]["error"]

    @pytest.mark.parametrize("text", ["[1,2]", '{"jobs": [1]}',
                                      '{"jobs": {}}', "not json"])
    def test_malformed_manifest_is_1(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        code, out, err = run(capsys, "suite", "--manifest", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "domain"

    def test_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(MANIFEST, sort_keys=True))
        loaded = json.loads(path.read_text())
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            MANIFEST, sort_keys=True)


class TestParameterTable:
    """cli.COMMANDS declares each command's parameters once; the parser,
    the required check and the suite's key check all read it."""

    P_POLY = {"carlitz eisenstein", "tate expand", "tate canonical",
              "tate ks"}

    @staticmethod
    def flags():
        """command -> {option string: dest} as the parser builds them."""
        out = {}

        def walk(parser, prefix):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        walk(child, prefix + [name])
                elif action.dest != "help":
                    for option in action.option_strings:
                        out.setdefault(" ".join(prefix), {})[option] = action.dest
        walk(cli.build_parser(), [])
        return out

    def test_parser_flags_are_the_table(self):
        flags = self.flags()
        assert set(flags) == set(cli.COMMANDS)
        assert set(cli.HANDLERS) == set(cli.COMMANDS) - {"suite"}
        for command, (_, required, optional) in cli.COMMANDS.items():
            expected = {"--" + n.replace("_", "-"): n
                        for n in required + optional}
            if command != "suite":
                expected["--q-modulus"] = "q_modulus"
            if command in self.P_POLY:
                expected["--p-poly"] = "wp"
            assert flags[command] == expected, command
        assert set(cli.P_POLY_COMMANDS) == self.P_POLY

    def test_p_poly_with_missing_wp_is_checked_after_parsing(self, capsys):
        for command in sorted(self.P_POLY):
            prec = ("--prec", "6") if command.startswith("tate") else ()
            code, out, err = run(capsys, *command.split(), "--q", "2", *prec)
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == (
                "missing required parameter --wp")

    def test_unknown_job_key_is_job_error(self, tmp_path, capsys):
        audit = {"command": "forms audit", "q": 2, "wp": "t", "prec": 12,
                 "f1": "a1^2*a2", "f2": "a1^2*a2*g^4"}
        jobs = [dict(audit, maxn=2),
                {"command": "tate expand", "q": 2, "wp": "t", "prec": 6,
                 "F": "t"},
                {"command": "carlitz eisenstein", "q": 2, "p_poly": "t"},
                {"command": "carlitz phi", "q": 2, "a": "t", "wp": "t",
                 "threads": 1},
                dict(audit, max_n=6, q_modulus=[0, 1])]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"jobs": jobs}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        doc = json.loads(out)
        assert code == 1 and doc["passed"] == 1 and doc["failed"] == 4
        errors = [j.get("error") for j in doc["jobs"]]
        assert errors[:4] == [
            "forms audit takes no parameter 'maxn'",
            "tate expand takes no parameter 'F'",
            "missing required parameter --wp",
            "carlitz phi takes no parameter 'threads', 'wp'"]
        assert [j.get("code") for j in doc["jobs"]] == [1, 1, 1, 1, None]
        assert doc["jobs"][4]["result"]["depth"] == 4

    def test_lattice_scale_job_values(self, tmp_path, capsys):
        # absent or null means f = 1; empty, 0 and [] are the zero scale
        base = {"command": "tate ks", "q": 2, "wp": "t", "prec": 6}
        jobs = [base, dict(base, f=None), dict(base, f="1"),
                dict(base, f=""), dict(base, f=0), dict(base, f=[])]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"jobs": jobs}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        doc = json.loads(out)["jobs"]
        assert code == 1
        assert doc[0]["result"] == doc[1]["result"] == doc[2]["result"]
        assert [j.get("code") for j in doc] == [None, None, None, 1, 1, 1]

    @pytest.mark.parametrize("base, key", [
        ({"command": "vsheaf kernel", "q": 2, "wp": "t+1", "a1": "0",
          "a2": "1"}, "u"),
        ({"command": "vsheaf points", "q": 3, "wp": "t+1", "a1": "0",
          "a2": "1"}, "u"),
        ({"command": "forms limit", "q": 2, "wp": "t", "prec": 10,
          "chi": "0,3", "steps": 2}, "monomial"),
    ])
    def test_null_optional_text_is_absent(self, tmp_path, capsys, base, key):
        # JSON null for u or monomial means the default (wp, g), as for
        # every other optional parameter
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"jobs": [base, dict(base, **{key: None})]}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        absent, null = json.loads(out)["jobs"]
        assert code == 0
        assert null["ok"] and null["result"] == absent["result"]

    def test_every_catalogued_job_passes_the_check(self):
        catalogue = json.loads(CATALOGUE.read_text())
        jobs = (catalogue["tate"] + catalogue["suite"]["manifest"]
                + [j for cell in catalogue["suite"]["cells"]
                   for j in cell["jobs"]])
        assert jobs
        for job in jobs:
            cli.check_params(job["command"], job)


class TestWpCheck:
    """Every command that takes --wp refuses a wp that is not monic
    irreducible of positive degree with one message, naming the option and
    the value as given, before any other module sees it."""

    VALUES = {"a1": "1", "a2": "1", "prec": "8", "f1": "a1", "f2": "a1",
              "chi": "0,0", "steps": "1"}
    WP_COMMANDS = [c for c, (_, required, _) in cli.COMMANDS.items()
                   if "wp" in required]

    CASES = [("2*t", "--wp must be monic, got 2*t"),
             ("0", "--wp must have positive degree, got 0"),
             ("1", "--wp must have positive degree, got 1"),
             ("t^2", "--wp t^2 is reducible over F_3"),
             ("t^2+2*t+1", "--wp t^2+2*t+1 is reducible over F_3")]

    @pytest.mark.parametrize("wp,error", CASES)
    @pytest.mark.parametrize("command", WP_COMMANDS)
    def test_message_names_the_option(self, capsys, command, wp, error):
        _, required, _ = cli.COMMANDS[command]
        argv = command.split() + ["--q", "3", "--wp", wp]
        for name in required:
            if name not in ("q", "wp"):
                argv += ["--" + name.replace("_", "-"), self.VALUES[name]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": error, "kind": "domain"}

    def test_p_poly_spelling_and_suite_job(self, tmp_path, capsys):
        error = "--wp t^2 is reducible over F_3"
        code, _, err = run(capsys, "tate", "canonical", "--q", "3",
                           "--p-poly", "t^2", "--prec", "8")
        assert code == 1 and json.loads(err)["error"] == error
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": [
            {"command": "forms hasse", "q": 3, "wp": "t^2", "prec": 8}]}))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        assert code == 1
        assert json.loads(out)["jobs"][0]["error"] == error
