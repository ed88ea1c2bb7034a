"""Command-line interface: outputs, exit codes, reproducibility."""

import time

import pytest

from agodel.cli import main

SIG0 = "pred P/0\npred Q/0\n"
SIGRE = "pred rho/0\npred eps/0\n"
STRUCT_P2 = "backend rat\nuniverse m1\npred P = 2\npred Q = 3\n"
STRUCT_PINF = "backend rat\nuniverse m1\npred P = inf\npred Q = 3\n"
STRUCT_PS = "backend rat\nuniverse m1\npred P = 2\npred S = 3\n"
SIM_OK = (
    "backend rat\nuniverse a b\n"
    "pred e a a = inf\npred e b b = inf\n"
    "pred e a b = 2\npred e b a = 2\n"
)
SIM_BAD = (
    "backend rat\nuniverse a b\n"
    "pred e a a = inf\npred e b b = inf\n"
    "pred e a b = 2\npred e b a = 3\n"
)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_crisp_projection_prints_zero(self, files, capsys):
        struct = files("m.struct", STRUCT_P2)
        code, out, _ = run(capsys, "eval", "--formula", "delta(P)",
                           "--structure", struct)
        assert code == 0
        assert out.strip() == "0"

    def test_value_syntax(self, files, capsys):
        struct = files("m.struct", STRUCT_P2)
        code, out, _ = run(capsys, "eval", "--formula", "P * Q^-1",
                           "--structure", struct)
        assert code == 0
        assert out.strip() == "2/3"

    def test_parse_error_exits_2(self, files, capsys):
        struct = files("m.struct", STRUCT_P2)
        code, _, err = run(capsys, "eval", "--formula", "P /\\",
                           "--structure", struct)
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--formula", "P",
                           "--structure", "/nonexistent.struct")
        assert code == 2


class TestCheckModel:
    def test_all_pass(self, files, capsys):
        struct = files("m.struct", STRUCT_PINF)
        theory = files("t.txt", "P\n~delta(Q)\n")
        code, out, _ = run(capsys, "check-model", "--theory", theory,
                           "--structure", struct)
        assert code == 0
        assert out.count("ok") == 2

    def test_failing_sentence_named(self, files, capsys):
        struct = files("m.struct", STRUCT_P2)
        theory = files("t.txt", "~delta(P)\nP\n")
        code, out, _ = run(capsys, "check-model", "--theory", theory,
                           "--structure", struct)
        assert code == 1
        assert "FAIL P" in out


class TestSolve:
    def test_sat_output_reloads_and_checks(self, files, capsys, tmp_path):
        theory = files("t.txt", "one ==> rho\neps ==> top\nrho^3 ==> eps\n")
        sig = files("s.txt", SIGRE)
        out_path = str(tmp_path / "model.struct")
        code, _, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                           "--max-domain", "2", "--out", out_path)
        assert code == 0
        assert "branches=" in err
        code2, out2, _ = run(capsys, "check-model", "--theory", theory,
                             "--structure", out_path, "--sig", sig)
        assert code2 == 0
        assert "FAIL" not in out2

    def test_unsat_up_to(self, files, capsys):
        theory = files("t.txt", "delta(P)\n~delta(P)\n")
        sig = files("s.txt", SIG0)
        code, out, _ = run(capsys, "solve", "--theory", theory, "--sig", sig,
                           "--max-domain", "3")
        assert code == 1
        assert out.strip().endswith("UNSAT-up-to(3)")

    def test_resource_limit_exits_3(self, files, capsys):
        names = [f"A{i}" for i in range(12)]
        sig = files("s.txt", "".join(f"pred {n}/0\n" for n in names))
        big = " \\/ ".join(f"(A{i} ==> A{(i + 1) % 12})" for i in range(12))
        theory = files("t.txt", big + "\n")
        code, _, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                           "--max-domain", "1", "--branch-budget", "5")
        assert code == 3
        assert "resource" in err

    def test_lex2_backend_rejected(self, files, capsys):
        theory = files("t.txt", "P\n")
        sig = files("s.txt", "pred P/0\n")
        code, _, _ = run(capsys, "solve", "--theory", theory, "--sig", sig,
                         "--backend", "lex2")
        assert code == 2


class TestTranslate:
    def test_emits_prefix_form(self, files, capsys):
        sig = files("s.txt", SIG0)
        code, out, _ = run(capsys, "translate", "--formula", "P * Q",
                           "--sig", sig)
        assert code == 0
        assert out.startswith("(exists-val g ")
        assert "(mul g1 g2)" in out

    def test_check_against_structure(self, files, capsys):
        struct = files("m.struct", STRUCT_P2)
        code, out, _ = run(capsys, "translate", "--formula", "P ==> Q",
                           "--structure", struct, "--check")
        assert code == 0
        assert "translation-agrees" in out

    def test_check_translation_command(self, files, capsys):
        struct = files("m.struct", STRUCT_PINF)
        code, out, _ = run(capsys, "check-translation", "--formula",
                           "delta(P)", "--structure", struct)
        assert code == 0
        assert out.strip() == "translation-agrees"


class TestResourceLimits:
    @pytest.mark.parametrize("formula", [
        "(" * 120 + "S" + ")" * 120,
        " * ".join(["P"] * 3000),
    ], ids=["nested-parentheses", "long-product"])
    def test_deep_nesting_exits_3(self, files, capsys, formula):
        struct = files("m.struct", STRUCT_PS)
        code, _, err = run(capsys, "eval", "--formula", formula,
                           "--structure", struct)
        assert code == 3
        assert "nesting exceeds the recursion limit" in err
        assert "Traceback" not in err

    def test_oversize_derived_expansion_exits_3(self, files, capsys):
        struct = files("m.struct", STRUCT_PS)
        start = time.perf_counter()
        code, _, err = run(capsys, "check-translation", "--formula",
                           "P" + " ==> S" * 5, "--structure", struct)
        assert code == 3
        assert "expansion exceeds" in err
        assert time.perf_counter() - start < 5


class TestEntails:
    def test_pool_relativized_entailment(self, files, capsys):
        pool = [files("a.struct", STRUCT_P2), files("b.struct", STRUCT_PINF),
                files("c.struct", "backend rat\nuniverse m1\npred P = 3\npred Q = 2\n")]
        theory = files("t.txt", "P ==> Q\n")
        code, out, _ = run(capsys, "entails", "--theory", theory,
                           "--formula", "P -> Q", "--pool", *pool)
        assert code == 0
        assert "entails-over-pool(3): yes" in out

    def test_countermodel_in_pool(self, files, capsys):
        pool = [files("a.struct", STRUCT_P2)]
        theory = files("t.txt", "P ==> Q\n")
        code, out, _ = run(capsys, "entails", "--theory", theory,
                           "--formula", "Q ==> P", "--pool", *pool)
        assert code == 1
        assert "no" in out


class TestSimilarityUltrametric:
    def test_similarity_yes(self, files, capsys):
        struct = files("m.struct", SIM_OK)
        code, out, _ = run(capsys, "similarity", "--structure", struct)
        assert code == 0 and "yes" in out

    def test_similarity_no(self, files, capsys):
        struct = files("m.struct", SIM_BAD)
        code, out, _ = run(capsys, "similarity", "--structure", struct)
        assert code == 1 and "no" in out

    def test_ultrametric_reports_triples(self, files, capsys):
        text = (
            "backend rat\nuniverse a b\n"
            "pred e a a = inf\npred e b b = inf\n"
            "pred e a b = inf\npred e b a = inf\n"
        )
        struct = files("m.struct", text)
        code, out, _ = run(capsys, "ultrametric", "--structure", struct)
        assert code == 1
        assert "identity violated at (a, b)" in out


class TestModelTheoryCommands:
    def test_embed_finds_scaling(self, files, capsys):
        a = files("a.struct", "backend rat\nuniverse m1\npred P = 2\n")
        b = files("b.struct", "backend rat\nuniverse m1\npred P = 4\n")
        code, out, _ = run(capsys, "embed", "--from", a, "--to", b,
                           "--depth", "2")
        assert code == 0
        assert "T: g^2" in out

    def test_embed_none(self, files, capsys):
        a = files("a.struct", "backend rat\nuniverse m1\npred P = 2\npred Q = 3\n")
        b = files("b.struct", "backend rat\nuniverse m1\npred P = 3\npred Q = 2\n")
        code, out, _ = run(capsys, "embed", "--from", a, "--to", b,
                           "--depth", "1")
        assert code == 1
        assert out.strip() == "none"

    def test_equiv_separator(self, files, capsys):
        a = files("a.struct", "backend rat\nuniverse m1\npred P = 2\n")
        b = files("b.struct", "backend rat\nuniverse m1\npred P = inf\n")
        code, out, _ = run(capsys, "equiv", "--from", a, "--to", b,
                           "--depth", "1")
        assert code == 1
        assert out.startswith("separated-by ")
        code2, out2, _ = run(capsys, "equiv", "--from", a, "--to", a,
                             "--depth", "2")
        assert code2 == 0
        assert "equivalent-at-depth(2)" in out2

    def test_ediag_lists_sentences(self, files, capsys):
        a = files("a.struct", "backend rat\nuniverse m1\npred P m1 = inf\n")
        code, out, _ = run(capsys, "ediag", "--structure", a, "--depth", "0")
        assert code == 0
        assert "P(c_m1)" in out.splitlines()


class TestRemarkLab:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "remark-lab", "--n", "25")
        assert code == 0
        assert "standard model (rho=2, eps=2^26): validated" in out
        assert "lex model (rho=(1, 2), eps=(2, 1)): validated" in out


class TestHarness:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("agodel ")
        assert "format" in out

    def test_reproducible_output(self, files, capsys, tmp_path):
        theory = files("t.txt", "one ==> rho\neps ==> top\nrho^2 ==> eps\n")
        sig = files("s.txt", SIGRE)
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, "solve", "--theory", theory,
                               "--sig", sig, "--max-domain", "2")
            runs.append((code, out))
        assert runs[0] == runs[1]

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
