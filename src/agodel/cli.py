"""Command-line entry point.

Exit codes: 0 affirmative/success, 1 negative verdict (not a model,
unsatisfiable-up-to, no embedding, ...), 2 usage or parse error,
3 resource limit, 4 internal error (any other exception: a defect).
Results go to stdout, diagnostics to stderr.
All file formats are line-oriented plain text, documented in README.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .errors import ResourceLimitError, UsageError
from .modeltheory import (
    DEFAULT_FAMILY_BUDGET, bounded_ediag, search_embeddings, separating_sentence,
)
from .semantics import (
    Structure, check_similarity, check_ultrametric, dump_structure,
    entails_over, eval_formula, load_structure, satisfies,
)
from .solver import find_model, remark_lab
from .syntax import expand_derived, parse, parse_signature, parse_theory, print_formula
from .translation import check_translation, holds_sentence, print_classical, translate
from .values import format_truth_value

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _structure(ns: argparse.Namespace, path: str) -> Structure:
    return load_structure(_read(path), ns.signature)


def _verdict(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Command handlers: each reads the parsed command line, where ``signature``
# is the parsed --sig file (None without one), and returns an exit code.
# A structure loaded under --sig carries that signature.


def _cmd_eval(ns: argparse.Namespace) -> int:
    struct = _structure(ns, ns.structure)
    value = eval_formula(parse(ns.formula, struct.signature), struct)
    print(format_truth_value(value))
    return EXIT_OK


def _cmd_check_model(ns: argparse.Namespace) -> int:
    struct = _structure(ns, ns.structure)
    theory = parse_theory(_read(ns.theory), struct.signature)
    all_ok = True
    for phi in theory:
        ok = satisfies(struct, phi)
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {print_formula(phi)}")
    return _verdict(all_ok)


def _cmd_solve(ns: argparse.Namespace) -> int:
    theory = parse_theory(_read(ns.theory), ns.signature)
    result = find_model(ns.signature, theory, ns.max_domain)
    # each examined branch is one FM call; the search stops at the model's size
    domains = ns.max_domain if result.structure is None else len(result.structure.universe)
    branches = result.stats.branches_examined
    print(f"domains={domains} branches={branches} fm-calls={branches}", file=sys.stderr)
    if result.structure is None:
        print(f"UNSAT-up-to({ns.max_domain})")
        return EXIT_NEGATIVE
    text = dump_structure(result.structure)
    if ns.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(ns.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {ns.out}: {exc}") from None
    return EXIT_OK


def _agreement(agrees: bool) -> int:
    print("translation-agrees" if agrees else "translation-disagrees")
    return _verdict(agrees)


def _cmd_translate(ns: argparse.Namespace) -> int:
    sig, struct = ns.signature, None
    if sig is None:
        if ns.structure is None:
            raise UsageError("translate needs --sig or --structure")
        struct = _structure(ns, ns.structure)
        sig = struct.signature
    phi = expand_derived(parse(ns.formula, sig))
    if ns.check:  # decided before anything is printed, so a refusal prints nothing
        if ns.structure is None:
            raise UsageError("--check needs --structure")
        agrees = check_translation(phi, struct or _structure(ns, ns.structure))
    print(print_classical(holds_sentence(translate(phi))))
    return _agreement(agrees) if ns.check else EXIT_OK


def _cmd_check_translation(ns: argparse.Namespace) -> int:
    struct = _structure(ns, ns.structure)
    return _agreement(check_translation(parse(ns.formula, struct.signature), struct))


def _cmd_entails(ns: argparse.Namespace) -> int:
    pool = [_structure(ns, p) for p in ns.pool]
    sig = pool[0].signature
    theory = parse_theory(_read(ns.theory), sig)
    holds = entails_over(pool, theory, parse(ns.formula, sig))
    print(f"entails-over-pool({len(pool)}): {'yes' if holds else 'no'}")
    return _verdict(holds)


def _cmd_similarity(ns: argparse.Namespace) -> int:
    ok = check_similarity(_structure(ns, ns.structure))
    print("similarity: yes" if ok else "similarity: no")
    return _verdict(ok)


def _cmd_ultrametric(ns: argparse.Namespace) -> int:
    report = check_ultrametric(_structure(ns, ns.structure))
    print(f"ultrametric: {'yes' if report.ok else 'no'}")
    for a, b in report.identity_violations:
        print(f"identity violated at ({a}, {b})")
    for a, b in report.symmetry_violations:
        print(f"symmetry violated at ({a}, {b})")
    for a, b, c in report.triangle_violations:
        print(f"strong triangle violated at ({a}, {b}, {c})")
    return _verdict(report.ok)


def _cmd_embed(ns: argparse.Namespace) -> int:
    source = _structure(ns, ns.structure_from)
    target = _structure(ns, ns.structure_to)
    found = search_embeddings(source, target, ns.depth, ns.budget)
    for cand in found:
        pairs = ", ".join(f"{a}->{b}" for a, b in cand.mapping)
        print(f"h: {pairs}; T: g^{cand.exponent}")
    if not found:
        print("none")
    return _verdict(bool(found))


def _cmd_equiv(ns: argparse.Namespace) -> int:
    a = _structure(ns, ns.structure_from)
    b = _structure(ns, ns.structure_to)
    witness = separating_sentence(a, b, ns.depth, ns.budget)
    if witness is None:
        print(f"equivalent-at-depth({ns.depth})")
        return EXIT_OK
    print(f"separated-by {print_formula(witness)}")
    return EXIT_NEGATIVE


def _cmd_ediag(ns: argparse.Namespace) -> int:
    for phi in bounded_ediag(_structure(ns, ns.structure), ns.depth, ns.budget):
        print(print_formula(phi))
    return EXIT_OK


def _cmd_remark_lab(ns: argparse.Namespace) -> int:
    report = remark_lab(ns.n)
    print(f"fragment axioms: {ns.n + 2}")
    print(f"standard model (rho=2, eps=2^{ns.n + 1}): "
          f"{'validated' if report.standard_ok else 'FAILED'}")
    print(f"lex model (rho=(1, 2), eps=(2, 1)): "
          f"{'validated' if report.lex_ok else 'FAILED'}")
    for line in report.failures:
        print(line, file=sys.stderr)
    return _verdict(report.standard_ok and report.lex_ok)


# ---------------------------------------------------------------------------
# The command table: subcommand -> (handler, flags)


def _int_at_least(low: int):
    """An argparse type: an integer >= low; anything else exits 2."""
    def convert(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return convert


_POSITIVE = _int_at_least(1)
_SIG = {"--sig": {}}
_STRUCTURE = {"--structure": dict(required=True)}
_FORMULA = {"--formula": dict(required=True)}
_THEORY = {"--theory": dict(required=True)}
_FROM_TO = {"--from": dict(required=True, dest="structure_from"),
            "--to": dict(required=True, dest="structure_to")}
_BUDGET = {"--budget": dict(type=_POSITIVE, default=DEFAULT_FAMILY_BUDGET)}


def _depth(default: int) -> dict:
    return {"--depth": dict(type=_int_at_least(0), default=default)}


COMMANDS = {
    "eval": (_cmd_eval, {**_FORMULA, **_STRUCTURE, **_SIG}),
    "check-model": (_cmd_check_model, {**_THEORY, **_STRUCTURE, **_SIG}),
    "solve": (_cmd_solve, {
        **_THEORY, "--sig": dict(required=True),
        "--max-domain": dict(type=_POSITIVE, default=4),
        "--out": {}}),
    "translate": (_cmd_translate, {
        **_FORMULA, **_SIG, "--structure": {},
        "--check": dict(action="store_true")}),
    "check-translation": (_cmd_check_translation, {**_FORMULA, **_STRUCTURE, **_SIG}),
    "entails": (_cmd_entails, {
        **_THEORY, **_FORMULA, "--pool": dict(required=True, nargs="+"), **_SIG}),
    "similarity": (_cmd_similarity, {**_STRUCTURE, **_SIG}),
    "ultrametric": (_cmd_ultrametric, {**_STRUCTURE, **_SIG}),
    "embed": (_cmd_embed, {**_FROM_TO, **_depth(2), **_BUDGET, **_SIG}),
    "equiv": (_cmd_equiv, {**_FROM_TO, **_depth(2), **_BUDGET, **_SIG}),
    "ediag": (_cmd_ediag, {**_STRUCTURE, **_depth(1), **_BUDGET, **_SIG}),
    "remark-lab": (_cmd_remark_lab, {"--n": dict(type=_POSITIVE, required=True)}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agodel",
        description="additive Goedel logic toolkit",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"agodel {__version__} format {FORMAT_VERSION}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        command = sub.add_parser(name)
        for flag, kwargs in flags.items():
            command.add_argument(flag, **kwargs)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --version/--help, 2 for bad usage
        return int(exc.code or 0)
    handler, _ = COMMANDS[ns.command]
    try:
        sig = getattr(ns, "sig", None)  # remark-lab takes no --sig
        ns.signature = None if sig is None else parse_signature(_read(sig))
        return handler(ns)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource limit: formula nesting exceeds the recursion limit", file=sys.stderr)
        return EXIT_RESOURCE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
