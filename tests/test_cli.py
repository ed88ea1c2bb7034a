"""Command-line interface: outputs, exit codes, reproducibility."""

import ast
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import agodel
from agodel import cli, modeltheory, solver, translation
from agodel.cli import COMMANDS, main

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
    def test_unbound_variable_exits_2_before_evaluation(self, files, capsys):
        # Q^300000 alone exits 3 (power limit); the unbound x is refused first
        struct = files("m.struct", "backend rat\nuniverse m1\npred P m1 = 2\npred Q = 2\n")
        code, _, err = run(capsys, "eval", "--formula", "Q^300000 /\\ P(x)",
                           "--structure", struct)
        assert code == 2
        assert "unbound" in err
        code, _, _ = run(capsys, "eval", "--formula", "Q^300000", "--structure", struct)
        assert code == 3

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

    def test_duplicate_backend_line_exits_2(self, files, capsys):
        struct = files("m.struct", "backend rat\nbackend lex2\nuniverse m1\npred P = 2\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", "--formula", "P", "--structure", struct)
        assert code == 2
        assert "structure line 2: duplicate 'backend' line" in err
        assert time.perf_counter() - start < 1

    def test_non_total_table_exits_2_at_once(self, files, capsys):
        # one line of P/20 over {a, b}: the first missing entries are found
        # from the keys, without building the 2^20 tuples of the product
        sig = files("s.txt", "pred P/20\n")
        struct = files("m.struct", "backend rat\nuniverse a b\npred P" + " a" * 20 + " = 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--formula", "one", "--sig", sig,
                             "--structure", struct)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert f"missing entries e.g. [{('a',) * 19 + ('b',)}, " in err
        # a key of another arity: no power 2^100000 and no missing entry is computed
        sig = files("s.txt", "pred P/100000\n")
        struct = files("m.struct", "backend rat\nuniverse a b\npred P = 1\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", "--formula", "one", "--sig", sig,
                           "--structure", struct)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert err.endswith("table for 'P' is not total: unknown entries e.g. [()]\n")

    def test_small_power(self, files, capsys):
        struct = files("m.struct", STRUCT_P2)
        code, out, _ = run(capsys, "eval", "--formula", "P^3", "--structure", struct)
        assert code == 0
        assert out == "8\n"

    @pytest.mark.parametrize("formula, value", [
        ("P^" + "9" * 5000, "2"),
        ("P", "1e30000000"),
        ("P", "1e-30000000"),
    ], ids=["exponent-digits", "value-exponent", "value-negative-exponent"])
    def test_over_long_number_exits_2_at_once(self, files, capsys, formula, value):
        struct = files("m.struct", f"backend rat\nuniverse m1\npred P = {value}\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", "--formula", formula, "--structure", struct)
        assert code == 2
        assert "digit" in err
        assert time.perf_counter() - start < 1


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
        assert err.startswith("domains=1 branches=")  # the model's size, not --max-domain
        code2, out2, _ = run(capsys, "check-model", "--theory", theory,
                             "--structure", out_path, "--sig", sig)
        assert code2 == 0
        assert "FAIL" not in out2

    def test_unsat_up_to(self, files, capsys):
        theory = files("t.txt", "delta(P)\n~delta(P)\n")
        sig = files("s.txt", SIG0)
        code, out, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                             "--max-domain", "3")
        assert code == 1
        assert out.strip().endswith("UNSAT-up-to(3)")
        assert err == "domains=3 branches=0 fm-calls=0\n"

    def test_resource_limit_exits_3(self, files, capsys, monkeypatch):
        names = [f"A{i}" for i in range(12)]
        sig = files("s.txt", "".join(f"pred {n}/0\n" for n in names))
        big = " \\/ ".join(f"(A{i} ==> A{(i + 1) % 12})" for i in range(12))
        theory = files("t.txt", big + "\n")
        monkeypatch.setattr(solver, "MAX_BRANCHES", 5)
        code, out, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                             "--max-domain", "1")
        assert code == 3
        assert out == ""
        assert err == ("resource limit: case-branch count exceeds budget 5: "
                       "DDArrow with 9 operand pairs (domain size 1, no constants)\n")

    def test_combined_branch_budget_exits_3(self, files, capsys, monkeypatch):
        # each sentence fits the budget, their 15 combined branches do not
        sig = files("s.txt", "pred P/0\npred Q/0\npred R/0\n")
        theory = files("t.txt", "P -> Q\nQ -> R\n")
        monkeypatch.setattr(solver, "MAX_BRANCHES", 14)
        code, out, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                             "--max-domain", "1")
        assert code == 3
        assert out == ""
        assert err == ("resource limit: combined case-branch count exceeds "
                       "budget 14: 15 branch pairs (domain size 1, no constants)\n")
        monkeypatch.setattr(solver, "MAX_BRANCHES", 15)
        code, _, _ = run(capsys, "solve", "--theory", theory, "--sig", sig,
                         "--max-domain", "1")
        assert code == 0

    @pytest.mark.parametrize("n, code", [(40, 0), (60, 3)])
    def test_witness_exponent_bound(self, files, capsys, monkeypatch, n, code):
        # the witness sets Q = 2^(2n + 1): 2^81 fits 100 bits, 2^121 does not
        sig = files("s.txt", SIG0)
        theory = files("t.txt", f"one ==> P^{n}\nP^{n} ==> Q\nQ ==> P^{n + 1}\n")
        monkeypatch.setattr(solver, "MAX_POWER_BITS", 100)
        got, out, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                            "--max-domain", "1")
        assert got == code
        if code:
            assert out == ""
            assert err == "resource limit: witness exponent 121 would exceed 100 bits\n"
        else:
            assert f"pred Q = {2 ** (2 * n + 1)}\n" in out

    def test_unwritable_out_exits_2(self, files, capsys, tmp_path):
        theory = files("t.txt", "P\n")
        sig = files("s.txt", "pred P/0\n")
        out_path = str(tmp_path / "missing" / "m.struct")
        code, out, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                             "--out", out_path)
        assert code == 2
        assert out == ""
        assert "cannot write" in err
        assert "Traceback" not in err

    def test_domain_above_the_bound_exits_3(self, files, capsys, monkeypatch):
        theory = files("t.txt", "P /\\ ~P\n")
        sig = files("s.txt", SIG0)
        monkeypatch.setattr(solver, "MAX_DOMAIN", 5)
        code, out, err = run(capsys, "solve", "--theory", theory, "--sig", sig,
                             "--max-domain", "6")
        assert (code, out) == (3, "")
        assert "domain size 6 exceeds the bound 5" in err

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

    def test_check_reads_the_structure_once(self, files, capsys, monkeypatch):
        calls = []
        load_structure = cli.load_structure

        def counting_load(*args):
            calls.append(args)
            return load_structure(*args)

        monkeypatch.setattr(cli, "load_structure", counting_load)
        struct = files("m.struct", STRUCT_P2)
        code, out, _ = run(capsys, "translate", "--formula", "P ==> Q",
                           "--structure", struct, "--check")
        assert code == 0
        assert "translation-agrees" in out
        assert len(calls) == 1

    def test_check_translation_command(self, files, capsys):
        struct = files("m.struct", STRUCT_PINF)
        code, out, _ = run(capsys, "check-translation", "--formula",
                           "delta(P)", "--structure", struct)
        assert code == 0
        assert out.strip() == "translation-agrees"

    @pytest.mark.parametrize("formula, flag, message", [
        ("P(c)", "--sig", "--check needs --structure"),
        ("P(x)", "--structure", "not a sentence"),
    ], ids=["no-structure", "not-a-sentence"])
    def test_refused_check_prints_nothing(self, files, capsys, formula, flag, message):
        path = files("s.sig", "fn c/0\npred P/1\n") if flag == "--sig" else \
            files("a.struct", "backend rat\nuniverse m1\nfn c -> m1\npred P m1 = 2\n")
        code, out, err = run(capsys, "translate", "--formula", formula, flag, path, "--check")
        assert code == 2
        assert out == ""
        assert message in err


class TestResourceLimits:
    @pytest.mark.parametrize("formula", [
        "(" * 1000 + "S" + ")" * 1000,
        " * ".join(["P"] * 3000),
    ], ids=["nested-parentheses", "long-product"])
    def test_deep_nesting_exits_3(self, files, capsys, formula):
        struct = files("m.struct", STRUCT_PS)
        code, _, err = run(capsys, "eval", "--formula", formula,
                           "--structure", struct)
        assert code == 3
        assert "nesting exceeds the recursion limit" in err
        assert "Traceback" not in err

    def test_nested_parentheses_within_the_limit(self, files, capsys):
        # the parser takes three frames per parenthesis: 120 levels fit
        struct = files("m.struct", STRUCT_PS)
        code, out, err = run(capsys, "eval", "--formula", "(" * 120 + "S" + ")" * 120,
                             "--structure", struct)
        assert (code, out.strip(), err) == (0, "3", "")

    @pytest.mark.parametrize("depth,code", [(50, 0), (150, 0), (400, 3)])
    def test_deep_translation_check(self, files, capsys, depth, code):
        # the alternating chain S /\ (S -> (S /\ ... P)): 150 levels fit under
        # the test runner's recursion limit, 400 exceed it and exit 3
        formula = "P"
        for k in range(depth):
            formula = f"S /\\ ({formula})" if k % 2 == 0 else f"S -> ({formula})"
        struct = files("m.struct", STRUCT_PS)
        result, out, err = run(capsys, "check-translation", "--formula", formula,
                               "--structure", struct)
        assert result == code
        if code == 3:
            assert out == ""
            assert "nesting exceeds the recursion limit" in err
            assert "Traceback" not in err
        else:
            assert err == ""

    @pytest.mark.parametrize("formula", ["P^99999", "P^99999999"])
    def test_huge_power_exits_3(self, files, capsys, formula):
        struct = files("m.struct", STRUCT_PS)
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", "--formula", formula, "--structure", struct)
        assert code == 3
        assert "resource limit" in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("formula", ["P^250", "P^1000"])
    def test_large_power_translates(self, files, capsys, formula):
        # P^n expands to a balanced product, ceil(log2 n) deep
        struct = files("m.struct", STRUCT_PINF)
        code, out, _ = run(capsys, "translate", "--formula", formula,
                           "--structure", struct)
        assert code == 0
        assert out.startswith("(exists-val g ")
        code, out, _ = run(capsys, "check-translation", "--formula", formula,
                           "--structure", struct)
        assert code == 0
        assert out.strip() == "translation-agrees"

    @pytest.mark.parametrize("formula", ["P^250", "P^1000"])
    def test_large_power_checks_at_a_finite_value(self, files, capsys, formula):
        # at P = 2 the value sort holds every power 2^k the balanced product needs
        struct = files("m.struct", STRUCT_PS)
        start = time.perf_counter()
        code, out, _ = run(capsys, "check-translation", "--formula", formula,
                           "--structure", struct)
        assert code == 0
        assert out.strip() == "translation-agrees"
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("arrows", [3, 4])
    def test_nested_derived_arrows_check(self, files, capsys, arrows):
        # the expansion shares its repeated operands, and so does the companion
        struct = files("m.struct", STRUCT_PS)
        code, out, _ = run(capsys, "check-translation", "--formula",
                           "P" + " ==> S" * arrows, "--structure", struct)
        assert code == 0
        assert out.strip() == "translation-agrees"

    @pytest.mark.parametrize("depth, length", [(8, 40_805), (12, 665_189)])
    def test_companion_text_bound(self, files, capsys, monkeypatch, depth, length):
        # the text doubles with each nested quantifier: refused before any is printed
        monkeypatch.setattr(translation, "MAX_PRINTED_CHARS", 100_000)
        sig = files("s.txt", "pred P/1\n")
        formula = "".join(f"forall x{i}. " for i in range(depth)) + "P(x0)"
        code, out, err = run(capsys, "translate", "--formula", formula, "--sig", sig)
        if length <= 100_000:
            assert (code, len(out), err) == (0, length + 1, "")
        else:
            assert (code, out) == (3, "")
            assert "companion text exceeds 100000 characters" in err

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
        assert out == "h: m1->m1; T: g^2\n"

    def test_embed_quantifier_separates_a_proper_extension(self, files, capsys):
        # a -> a passes the atomic step (P(a) = 1/2 on both sides, exponent 1),
        # but exists x. P(x) is 1/2 in the source and 2 in the target
        a = files("a.struct", "backend rat\nuniverse a\npred P a = 1/2\n")
        b = files("b.struct", "backend rat\nuniverse a b\npred P a = 1/2\npred P b = 2\n")
        assert run(capsys, "embed", "--from", a, "--to", b, "--depth", "0") == \
            (0, "h: a->a; T: g^1\n", "")
        code, out, _ = run(capsys, "embed", "--from", a, "--to", b, "--depth", "1")
        assert code == 1
        assert out == "none\n"

    def test_embed_over_too_many_injections_exits_3_at_once(self, files, capsys):
        # 9 * 8 * ... * 3 = 181,440 injections of 7 elements into 9
        def struct(n):
            names = [f"m{i}" for i in range(n)]
            return "backend rat\nuniverse " + " ".join(names) + "\n" + "".join(
                f"pred P {m} = 2\n" for m in names)
        a, b = files("a.struct", struct(7)), files("b.struct", struct(9))
        start = time.perf_counter()
        code, out, err = run(capsys, "embed", "--from", a, "--to", b, "--depth", "1")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert f"181440 injections exceeds {modeltheory.MAX_INJECTIONS}" in err

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

    def test_equiv_budget_above_the_bound_exits_3_at_once(self, files, capsys):
        a = files("a.struct", "backend rat\nuniverse m1 m2\npred P m1 = 2\npred P m2 = inf\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "equiv", "--from", a, "--to", a, "--depth", "1",
                             "--budget", str(modeltheory.MAX_FAMILY_BUDGET + 1))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("direction", ["a-to-b", "b-to-a"])
    def test_equiv_needs_common_signature(self, files, capsys, direction):
        a = files("a.struct", "backend rat\nuniverse m1\npred P = 2\n")
        b = files("b.struct", STRUCT_P2)
        ends = [a, b] if direction == "a-to-b" else [b, a]
        code, out, err = run(capsys, "equiv", "--from", ends[0], "--to", ends[1])
        assert code == 2
        assert out == ""
        assert "equivalence needs a common signature" in err

    @pytest.mark.parametrize("direction", ["a-to-b", "b-to-a"])
    def test_embed_needs_common_signature(self, files, capsys, direction):
        a = files("a.struct", "backend rat\nuniverse m1\npred P = 2\n")
        b = files("b.struct", STRUCT_P2)
        ends = [a, b] if direction == "a-to-b" else [b, a]
        code, out, err = run(capsys, "embed", "--from", ends[0], "--to", ends[1])
        assert code == 2
        assert out == ""
        assert "embedding checks need a common signature" in err

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

    @pytest.mark.parametrize("n", ["99999999", "9" * 100], ids=["8-digits", "100-digits"])
    def test_huge_n_exits_3_at_once(self, capsys, n):
        # rho^n has n bits, past values.MAX_POWER_BITS
        start = time.perf_counter()
        code, _, err = run(capsys, "remark-lab", "--n", n)
        assert code == 3
        assert "resource limit" in err
        assert time.perf_counter() - start < 1


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

    def test_output_does_not_depend_on_the_hash_seed(self, files):
        sig = files("s.txt", "pred R/2\npred P/1\nfn c/0\n")
        theory = files("t.txt", "exists x. exists y. P(x) ==> R(x, y) * P(c)\n"
                                "forall x. R(x, x) -> P(x)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        runs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "agodel.cli", "solve", "--theory", theory,
                 "--sig", sig, "--max-domain", "3"],
                capture_output=True, env=env, timeout=120)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0][1]
        assert runs[0] == runs[1]

    def test_import_leaves_pathlib_out(self):
        # files are read and written with open(); -S skips the site .pth
        # files, which may import pathlib themselves
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, agodel.cli; print('pathlib' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("argv", [
        ["eval", "--formula", "P", "--structure", "m.struct", "--sig", "BAD"],
        ["eval", "--formula", "P", "--structure", "BAD"],
        ["solve", "--theory", "BAD", "--sig", "s.txt"],
        ["entails", "--theory", "t.txt", "--formula", "P", "--pool", "m.struct", "BAD"],
        ["embed", "--from", "BAD", "--to", "m.struct"],
        ["embed", "--from", "m.struct", "--to", "BAD"],
    ], ids=["sig", "structure", "theory", "pool", "from", "to"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, argv):
        texts = {"m.struct": STRUCT_P2.encode(), "s.txt": SIG0.encode(), "t.txt": b"P\n",
                 "BAD": b"pred P = 2 \xff\xe9\n"}
        for name, data in texts.items():
            (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, *[str(tmp_path / a) if a in texts else a for a in argv])
        assert code == 2
        assert err.startswith(f"error: cannot read {tmp_path / 'BAD'}: ")
        assert out == ""

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_internal_error_exits_4(self, capsys, monkeypatch):
        def broken(ns):
            raise KeyError("m9")

        monkeypatch.setitem(COMMANDS, "remark-lab", (broken, COMMANDS["remark-lab"][1]))
        code, out, err = run(capsys, "remark-lab", "--n", "1")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: KeyError: 'm9'\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--theory", "t.txt", "--sig", "s.txt", "--max-domain", "0"],
        ["embed", "--from", "a.struct", "--to", "b.struct", "--budget", "0"],
        ["remark-lab", "--n", "0"],
        ["ediag", "--structure", "a.struct", "--depth", "-1"],
    ], ids=["max-domain", "budget", "n", "depth"])
    def test_out_of_range_value_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert argv[-2] in err  # refused for the value, before any file is read
        assert "Traceback" not in err

    def test_readme_names_every_limit(self):
        # the exit-3 paragraph names each module-level MAX_* limit as module.NAME
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = next(p for p in readme.split("\n\n") if p.startswith("Exit codes:"))
        named = set(re.findall(r"`(\w+\.MAX_\w+)`", paragraph))
        declared = set()
        for path in Path(agodel.__file__).parent.glob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else []
                declared.update(f"{path.stem}.{t.id}" for t in targets
                                if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
        assert declared and named == declared

    def test_readme_lists_every_command(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```")[1]
        listed = [line.split()[1] for line in block.splitlines()
                  if line.startswith("agodel ") and not line.startswith("agodel --")]
        assert listed == list(COMMANDS)


# Formula text for the exit-code property: mostly well-formed over the
# structure below, with integer literals of up to 5000 digits as exponents,
# and some plain token strings of the formula grammar.
EXIT_CODE_STRUCT = (
    "backend rat\nuniverse m1 m2\npred P = 2\npred Q = inf\n"
    "pred R m1 = 1\npred R m2 = 1/2\n"
)
INTEGER_LITERALS = st.one_of(
    st.integers(0, 20).map(str),
    # lengths on both sides of the interpreter's 4300-digit conversion limit
    st.builds(lambda digit, n: digit * n, st.sampled_from("0179"),
              st.sampled_from([2, 50, 4300, 4301, 5000])),
)
BINARY_TOKENS = ["==>", "<->", "->l", "->", "=>", "/\\", "\\/", "*"]
GRAMMAR_TOKENS = BINARY_TOKENS + [
    "^-1", "~", "(", ")", ".", ",", "^",
    "bot", "one", "top", "forall", "exists", "delta", "P", "Q", "R", "x",
]


def _compound(inner):
    return st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from(BINARY_TOKENS), inner),
        st.builds("~{}".format, inner),
        st.builds("delta({})".format, inner),
        st.builds("({})^-1".format, inner),
        st.builds("({})^{}".format, inner, INTEGER_LITERALS),
        st.builds("{} x. {}".format, st.sampled_from(["forall", "exists"]), inner),
    )


FORMULA_TEXT = st.one_of(
    st.recursive(st.sampled_from(["P", "Q", "R(x)", "bot", "one", "top"]),
                 _compound, max_leaves=3),
    st.lists(st.one_of(st.sampled_from(GRAMMAR_TOKENS), INTEGER_LITERALS),
             max_size=8).map(" ".join),
)


@pytest.fixture(scope="module")
def exit_code_structure(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit-codes") / "m.struct"
    path.write_text(EXIT_CODE_STRUCT)
    return str(path)


# File text for the exit-code property: a valid file with up to three
# edits (a word replaced, dropped or added; a line dropped or repeated; a
# line of one word inserted); a few hundred characters at most.
FUZZ_STRUCTS = [
    ["backend rat", "universe m1 m2", "fn c -> m1", "pred P m1 = 2", "pred P m2 = inf",
     "pred Q = 1/2", "pred e m1 m1 = inf", "pred e m1 m2 = 0", "pred e m2 m1 = 0",
     "pred e m2 m2 = inf  # comment"],
    ["backend lex2", "universe m1", "fn c -> m1", "pred P m1 = (1, 2)",
     "pred Q = (2/3, 5)", "pred e m1 m1 = inf"],
]
FUZZ_STRUCT_WORDS = [
    "backend", "universe", "fn", "pred", "rat", "lex2", "m1", "m2", "m3", "c",
    "f", "P", "Q", "e", "=", "->", "0", "inf", "2", "-1", "1/0", "1e99999",
    "(1,", "2)", "(1, 2)", "#", "9" * 60,
]
FUZZ_SIG = ["fn c/0", "pred P/1", "pred Q/0", "pred e/2", "equality e"]
FUZZ_SIG_WORDS = [
    "fn", "pred", "equality", "c/0", "f/1", "P/1", "Q/0", "e/2", "e", "P/-1",
    "P/", "/1", "delta/1", "c/0/1", "P/99999", "#",
]
FUZZ_THEORY = [
    "forall x. P(x) ==> Q", "exists x. e(x, c)", "P(c) -> Q", "Q * Q^-1",
    "delta(P(c))", "forall x. exists y. e(x, y) /\\ P(y)",
]
FUZZ_THEORY_WORDS = GRAMMAR_TOKENS + ["c", "f(c)", "e(x, c)", "P(x)", "y", "2"]


def _edited(line, at, word):
    words = line.split()
    at %= len(words) + 1
    words[at:at + 1] = [word] if word else []
    return " ".join(words)


def _apply(lines, edits):
    out = list(lines)
    for kind, row, at, word in edits:
        row %= len(out) + 1
        if kind == 0 and row < len(out):
            out[row] = _edited(out[row], at, word)
        elif kind == 1 and row < len(out):
            del out[row]
        elif kind == 2 and row < len(out):
            out.insert(row, out[row])
        else:
            out.insert(row, word)
    return "\n".join(out)


def _file_text(bases, words):
    edit = st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 8),
                     st.sampled_from(words + [""]))
    return st.builds(_apply, st.sampled_from(bases), st.lists(edit, max_size=3))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestExitCodeProperty:
    @settings(max_examples=150)
    @given(command=st.sampled_from(["eval", "check-translation"]), formula=FORMULA_TEXT)
    def test_every_formula_exits_0_to_3(self, exit_code_structure, command, formula):
        code = main([command, "--formula", formula, "--structure", exit_code_structure])
        assert code in (0, 1, 2, 3)

    @settings(max_examples=300)
    @given(command=st.sampled_from(["eval", "check-model", "solve"]),
           structure=_file_text(FUZZ_STRUCTS, FUZZ_STRUCT_WORDS),
           signature=_file_text([FUZZ_SIG], FUZZ_SIG_WORDS),
           theory=_file_text([FUZZ_THEORY], FUZZ_THEORY_WORDS),
           with_sig=st.booleans())
    def test_every_file_exits_0_to_3(self, fuzz_dir, command, structure, signature,
                                     theory, with_sig):
        paths = {}
        for flag, text in (("--structure", structure), ("--sig", signature),
                           ("--theory", theory)):
            paths[flag] = str(fuzz_dir / flag.strip("-"))
            Path(paths[flag]).write_text(text)
        argv = {
            "eval": ["eval", "--formula", "exists x. P(x) /\\ Q", "--structure",
                     paths["--structure"]],
            "check-model": ["check-model", "--theory", paths["--theory"],
                            "--structure", paths["--structure"]],
            "solve": ["solve", "--theory", paths["--theory"], "--sig", paths["--sig"],
                      "--max-domain", "1"],
        }[command]
        if with_sig and command != "solve":
            argv += ["--sig", paths["--sig"]]
        assert main(argv) in (0, 1, 2, 3)

    @settings(max_examples=300)
    @given(command=st.sampled_from(["similarity", "ultrametric", "embed", "equiv", "ediag",
                                    "translate", "entails"]),
           structure=_file_text(FUZZ_STRUCTS, FUZZ_STRUCT_WORDS),
           other=_file_text(FUZZ_STRUCTS, FUZZ_STRUCT_WORDS),
           signature=_file_text([FUZZ_SIG], FUZZ_SIG_WORDS),
           theory=_file_text([FUZZ_THEORY], FUZZ_THEORY_WORDS),
           formula=st.sampled_from(FUZZ_THEORY), depth=st.integers(0, 2),
           with_sig=st.booleans())
    def test_every_file_exits_0_to_3_on_the_other_commands(
            self, fuzz_dir, command, structure, other, signature, theory, formula, depth,
            with_sig):
        paths = {}
        for flag, text in (("--structure", structure), ("--other", other),
                           ("--sig", signature), ("--theory", theory)):
            paths[flag] = str(fuzz_dir / flag.strip("-"))
            Path(paths[flag]).write_text(text)
        one, two = paths["--structure"], paths["--other"]
        argv = {
            "similarity": ["similarity", "--structure", one],
            "ultrametric": ["ultrametric", "--structure", one],
            "embed": ["embed", "--from", one, "--to", two, "--depth", str(depth)],
            "equiv": ["equiv", "--from", one, "--to", two, "--depth", str(depth)],
            "ediag": ["ediag", "--structure", one, "--depth", str(depth)],
            "translate": ["translate", "--formula", formula, "--structure", one, "--check"],
            "entails": ["entails", "--theory", paths["--theory"], "--formula", formula,
                        "--pool", one, two],
        }[command]
        if with_sig:
            argv += ["--sig", paths["--sig"]]
        assert main(argv) in (0, 1, 2, 3)
