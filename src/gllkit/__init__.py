"""Generalized-LL parsing with parameterized nonterminals and BSR forests."""

from .core import (
    Applied,
    BSRElement,
    Commencement,
    ContinuationId,
    Descriptor,
    Slot,
    SymbolId,
    TokenName,
    render_id,
    render_slot,
)
from .dsl import Elaborator, GrammarAst, parse_grammar, render_grammar, validate
from .engine import (
    AltPlan,
    Nonterminal,
    Symbol,
    Token,
    TokenPattern,
    char_token,
    lazy_nonterminal,
    nonterminal_symbol,
    run_prefix,
    run_recognize,
    token_symbol,
)
from .forest import (
    DerivationCount,
    ErrorReport,
    Leaf,
    PrecedenceFilter,
    TreeNode,
    count_derivations,
    enumerate_splits,
    evaluate,
    extract_errors,
    extract_trees,
)
from .naive import NaiveInterpreter, naive_run, naive_token
from .state import ParseState, ResourceExhausted

__all__ = [
    "AltPlan", "Applied", "BSRElement", "Commencement", "ContinuationId",
    "Descriptor", "DerivationCount", "Elaborator", "ErrorReport", "GrammarAst",
    "Leaf", "NaiveInterpreter", "Nonterminal", "ParseState",
    "PrecedenceFilter", "ResourceExhausted", "Slot", "Symbol", "SymbolId",
    "Token", "TokenName", "TokenPattern", "TreeNode", "char_token",
    "count_derivations", "enumerate_splits", "evaluate",
    "extract_errors", "extract_trees", "lazy_nonterminal",
    "naive_run", "naive_token", "nonterminal_symbol", "parse_grammar",
    "render_grammar", "render_id", "render_slot", "run_prefix",
    "run_recognize", "token_symbol", "validate",
]
