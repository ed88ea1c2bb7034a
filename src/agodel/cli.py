"""Command-line entry point.

Exit codes: 0 affirmative/success, 1 negative verdict (not a model,
unsatisfiable-up-to, no embedding, ...), 2 usage or parse error,
3 resource limit.  Results go to stdout, diagnostics to stderr.
All file formats are line-oriented plain text, documented in README.md.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from . import __version__
from .errors import ResourceLimitError, UsageError
from .modeltheory import bounded_ediag, search_embeddings, separating_sentence
from .semantics import (
    Structure, check_similarity, check_ultrametric, dump_structure,
    entails_over, eval_formula, load_structure, satisfies,
)
from .solver import find_model, remark_lab
from .syntax import Signature, expand_derived, parse, parse_signature, parse_theory, print_formula
from .translation import check_translation, holds_sentence, print_classical, translate
from .values import format_truth_value

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    """One resolved invocation: command, inputs, limits."""

    command: str
    formula: Optional[str] = None
    theory: Optional[Path] = None
    structure: Optional[Path] = None
    structure_from: Optional[Path] = None
    structure_to: Optional[Path] = None
    pool: List[Path] = field(default_factory=list)
    sig: Optional[Path] = None
    backend: str = "rat"
    max_domain: int = 4
    depth: int = 2
    budget: int = 600
    branch_budget: int = 20000
    n: int = 10
    check: bool = False
    out: Optional[Path] = None

    def __post_init__(self):
        for name in ("max_domain", "budget", "branch_budget", "n"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise UsageError(f"--{name.replace('_', '-')} must be positive")
        if self.depth is not None and self.depth < 0:
            raise UsageError("--depth must be >= 0")


def _read(path: Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_signature(config: RunConfig) -> Optional[Signature]:
    if config.sig is None:
        return None
    return parse_signature(_read(config.sig))


def _load_structure(config: RunConfig, path: Path) -> Structure:
    return load_structure(_read(path), _load_signature(config))


def _require_signature(config: RunConfig, struct: Structure) -> Signature:
    explicit = _load_signature(config)
    return explicit if explicit is not None else struct.signature


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# Command handlers (each returns an exit code)


def _cmd_eval(config: RunConfig) -> int:
    struct = _load_structure(config, config.structure)
    phi = parse(config.formula, _require_signature(config, struct))
    value = eval_formula(phi, struct)
    print(format_truth_value(value))
    return EXIT_OK


def _cmd_check_model(config: RunConfig) -> int:
    struct = _load_structure(config, config.structure)
    sig = _require_signature(config, struct)
    theory = parse_theory(_read(config.theory), sig)
    all_ok = True
    for phi in theory:
        ok = satisfies(struct, phi)
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {print_formula(phi)}")
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def _cmd_solve(config: RunConfig) -> int:
    if config.backend != "rat":
        raise UsageError("the solver searches rat-backend models only")
    sig = _load_signature(config)
    if sig is None:
        raise UsageError("solve needs an explicit signature (--sig)")
    theory = parse_theory(_read(config.theory), sig)
    result = find_model(sig, theory, config.max_domain,
                        branch_budget=config.branch_budget)
    stats = result.stats
    print(
        f"domains={stats.domains_tried} branches={stats.branches_examined} "
        f"fm-calls={stats.fm_calls}",
        file=sys.stderr,
    )
    if result.structure is None:
        print(f"UNSAT-up-to({config.max_domain})")
        return EXIT_NEGATIVE
    _emit(dump_structure(result.structure), config.out)
    return EXIT_OK


def _cmd_translate(config: RunConfig) -> int:
    sig = _load_signature(config)
    if sig is None:
        if config.structure is None:
            raise UsageError("translate needs --sig or --structure")
        sig = _load_structure(config, config.structure).signature
    phi = expand_derived(parse(config.formula, sig))
    trans = translate(phi)
    print(print_classical(holds_sentence(trans)))
    if config.check:
        if config.structure is None:
            raise UsageError("--check needs --structure")
        struct = _load_structure(config, config.structure)
        agrees = check_translation(phi, struct)
        print("translation-agrees" if agrees else "translation-disagrees")
        return EXIT_OK if agrees else EXIT_NEGATIVE
    return EXIT_OK


def _cmd_check_translation(config: RunConfig) -> int:
    struct = _load_structure(config, config.structure)
    phi = parse(config.formula, _require_signature(config, struct))
    agrees = check_translation(phi, struct)
    print("translation-agrees" if agrees else "translation-disagrees")
    return EXIT_OK if agrees else EXIT_NEGATIVE


def _cmd_entails(config: RunConfig) -> int:
    if not config.pool:
        raise UsageError("entails needs at least one --pool structure")
    pool = [_load_structure(config, p) for p in config.pool]
    sig = _load_signature(config) or pool[0].signature
    theory = parse_theory(_read(config.theory), sig)
    chi = parse(config.formula, sig)
    holds = entails_over(pool, theory, chi)
    print(f"entails-over-pool({len(pool)}): {'yes' if holds else 'no'}")
    return EXIT_OK if holds else EXIT_NEGATIVE


def _cmd_similarity(config: RunConfig) -> int:
    struct = _load_structure(config, config.structure)
    ok = check_similarity(struct)
    print("similarity: yes" if ok else "similarity: no")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_ultrametric(config: RunConfig) -> int:
    struct = _load_structure(config, config.structure)
    report = check_ultrametric(struct)
    print(f"ultrametric: {'yes' if report.ok else 'no'}")
    for a, b in report.identity_violations:
        print(f"identity violated at ({a}, {b})")
    for a, b in report.symmetry_violations:
        print(f"symmetry violated at ({a}, {b})")
    for a, b, c in report.triangle_violations:
        print(f"strong triangle violated at ({a}, {b}, {c})")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_embed(config: RunConfig) -> int:
    source = _load_structure(config, config.structure_from)
    target = _load_structure(config, config.structure_to)
    found = search_embeddings(source, target, config.depth, config.budget)
    for cand in found:
        pairs = ", ".join(f"{a}->{b}" for a, b in cand.mapping)
        print(f"h: {pairs}; T: g^{cand.exponent}")
    if not found:
        print("none")
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_equiv(config: RunConfig) -> int:
    a = _load_structure(config, config.structure_from)
    b = _load_structure(config, config.structure_to)
    witness = separating_sentence(a, b, config.depth, config.budget)
    if witness is None:
        print(f"equivalent-at-depth({config.depth})")
        return EXIT_OK
    print(f"separated-by {print_formula(witness)}")
    return EXIT_NEGATIVE


def _cmd_ediag(config: RunConfig) -> int:
    struct = _load_structure(config, config.structure)
    for phi in bounded_ediag(struct, config.depth, config.budget):
        print(print_formula(phi))
    return EXIT_OK


def _cmd_remark_lab(config: RunConfig) -> int:
    report = remark_lab(config.n)
    print(f"fragment axioms: {config.n + 2}")
    print(f"standard model (rho=2, eps=2^{config.n + 1}): "
          f"{'validated' if report.standard_ok else 'FAILED'}")
    print(f"lex model (rho=(1, 2), eps=(2, 1)): "
          f"{'validated' if report.lex_ok else 'FAILED'}")
    for line in report.failures:
        print(line, file=sys.stderr)
    return EXIT_OK if report.standard_ok and report.lex_ok else EXIT_NEGATIVE


_HANDLERS = {
    "eval": _cmd_eval,
    "check-model": _cmd_check_model,
    "solve": _cmd_solve,
    "translate": _cmd_translate,
    "check-translation": _cmd_check_translation,
    "entails": _cmd_entails,
    "similarity": _cmd_similarity,
    "ultrametric": _cmd_ultrametric,
    "embed": _cmd_embed,
    "equiv": _cmd_equiv,
    "ediag": _cmd_ediag,
    "remark-lab": _cmd_remark_lab,
}


def run(config: RunConfig) -> int:
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    return handler(config)


# ---------------------------------------------------------------------------
# Argument parsing


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

    def add(name, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("eval",
        **{"--formula": dict(required=True),
           "--structure": dict(required=True, type=Path),
           "--sig": dict(type=Path)})
    add("check-model",
        **{"--theory": dict(required=True, type=Path),
           "--structure": dict(required=True, type=Path),
           "--sig": dict(type=Path)})
    add("solve",
        **{"--theory": dict(required=True, type=Path),
           "--sig": dict(required=True, type=Path),
           "--max-domain": dict(type=int, default=4),
           "--backend": dict(default="rat"),
           "--branch-budget": dict(type=int, default=20000),
           "--out": dict(type=Path)})
    add("translate",
        **{"--formula": dict(required=True),
           "--sig": dict(type=Path),
           "--structure": dict(type=Path),
           "--check": dict(action="store_true")})
    add("check-translation",
        **{"--formula": dict(required=True),
           "--structure": dict(required=True, type=Path),
           "--sig": dict(type=Path)})
    add("entails",
        **{"--theory": dict(required=True, type=Path),
           "--formula": dict(required=True),
           "--pool": dict(required=True, type=Path, nargs="+"),
           "--sig": dict(type=Path)})
    add("similarity", **{"--structure": dict(required=True, type=Path),
                         "--sig": dict(type=Path)})
    add("ultrametric", **{"--structure": dict(required=True, type=Path),
                          "--sig": dict(type=Path)})
    add("embed",
        **{"--from": dict(required=True, type=Path, dest="structure_from"),
           "--to": dict(required=True, type=Path, dest="structure_to"),
           "--depth": dict(type=int, default=2),
           "--budget": dict(type=int, default=600),
           "--sig": dict(type=Path)})
    add("equiv",
        **{"--from": dict(required=True, type=Path, dest="structure_from"),
           "--to": dict(required=True, type=Path, dest="structure_to"),
           "--depth": dict(type=int, default=2),
           "--budget": dict(type=int, default=600),
           "--sig": dict(type=Path)})
    add("ediag",
        **{"--structure": dict(required=True, type=Path),
           "--depth": dict(type=int, default=1),
           "--budget": dict(type=int, default=600),
           "--sig": dict(type=Path)})
    add("remark-lab", **{"--n": dict(type=int, required=True)})
    return parser


def _to_config(ns: argparse.Namespace) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    return RunConfig(**{n: v for n, v in vars(ns).items() if n in fields})


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --version/--help, 2 for bad usage
        return int(exc.code or 0)
    try:
        return run(_to_config(ns))
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource limit: formula nesting exceeds the recursion limit", file=sys.stderr)
        return EXIT_RESOURCE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
