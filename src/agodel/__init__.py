"""Toolkit for first-order additive Goedel logic (AG-forall).

Truth values live in {0} u G u {inf} for a totally ordered abelian
group G.  The package provides exact evaluation over finite structures,
a grounded-fragment satisfiability solver, a machine-checked
translation into classical two-sorted first-order logic, and
desk-scale model-theoretic checks.
"""

from .errors import (
    AgodelError, ArityError, FormulaSyntaxError, ParseError, ResourceLimitError,
    UnknownSymbolError, UsageError,
)
from .values import (
    INF, LEX2, RAT, ZERO, GroupBackend, TruthValue, backend_by_name,
    format_truth_value, lex2, one, parse_truth_value, rat, tv_compare, tv_inv,
    tv_max, tv_min, tv_mul, tv_power, tv_resid,
)
from .syntax import (
    And, App, Atom, Bot, DArrow, DDArrow, Delta, Exists, Forall, Formula, Iff,
    Imp, Inv, LukImp, Not, One, Or, Power, Signature, Tensor, Term, Top, Var,
    expand_derived, free_vars, parse, parse_signature,
    parse_theory, print_formula, substitute,
)
from .semantics import (
    Structure, check_similarity, check_ultrametric, dump_structure,
    entails_over, eval_formula, eval_term, load_structure, models_theory,
    satisfies, similarity_axioms,
)
from .translation import (
    ClassicalStructure, Translation, check_translation, eval_classical,
    holds_sentence, print_classical, to_classical, translate,
)
from .solver import (
    ConstraintSystem, Constraint, FMResult, FindResult, compile_inf,
    find_model, fm_solve, ground_sentence, remark_lab,
    remark_theory_fragment,
)
from .modeltheory import (
    EmbeddingCandidate, GeneratedSubgroup, bounded_ediag,
    bounded_elementary_equiv, check_embedding, factor_positive,
    formula_family, generated_subgroup, is_exhaustive, search_embeddings,
    sentence_family,
)

__version__ = "0.1.0"
