"""arithlab: a workbench for first-order arithmetic.

Modules:
  syntax    terms, formulas, parser, printer, substitution, tarski
  proofs    Hilbert-style proof objects and the proof checker
  corpus    a small library of checked proofs
  godel     symbol numbering and sequence codes, with code-level
            metafunctions (Num, Neg, Sub, Pf)
  primrec   primitive recursive functions, the beta function, and
            representing formulas
  diagonal  the fixed-point (diagonalisation) construction
  models    finite interpretations, two satisfaction modes, and
            property sweeps over enumerated models
  cli       the arithlab command line tool
"""

__version__ = "0.1.0"
