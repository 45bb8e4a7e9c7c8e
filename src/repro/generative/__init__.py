"""Generative MiniC fuzzing: program synthesis, reduction, and banking.

Where :mod:`repro.fuzzing` mutates *byte inputs* against a fixed program
(the paper's Algorithm 1), this package mutates the *program* axis — the
direction the ROADMAP's first open item and the generative-fuzzing
literature (PAPERS.md) identify as where the interesting divergences
live:

* :mod:`repro.generative.generator` — a seeded, grammar-driven MiniC
  program generator emitting well-typed, checker-clean, fuel-bounded
  programs, with profiles biasing toward UB-adjacent shapes;
* :mod:`repro.generative.reducer` — an AST-level delta-debugging
  reducer with a pluggable interestingness predicate ("still
  diverges", optionally with the same implementation partition);
* :mod:`repro.generative.bank` — the versioned on-disk repro corpus,
  deduped by diagnostic fingerprint + culprit pass, consumable by the
  precision scoreboard (``repro precision --corpus``);
* :mod:`repro.generative.campaign` — the generate→diff→reduce→bank
  driver behind ``repro generate``, with checkpoint/resume and fault
  tolerance riding on the supervised pool.

See docs/GENERATIVE.md for the grammar, predicates, and corpus format.
"""

from repro.generative.generator import (
    PROFILES,
    GeneratedProgram,
    GeneratorProfile,
    generate_program,
)
from repro.generative.reducer import Candidate, ReductionResult, Reducer, StillDiverges
from repro.generative.bank import BankedRepro, CorpusBank
from repro.generative.campaign import (
    GenerativeCampaign,
    GenerativeOptions,
    GenerativeResult,
)

__all__ = [
    "PROFILES",
    "GeneratedProgram",
    "GeneratorProfile",
    "generate_program",
    "Candidate",
    "Reducer",
    "ReductionResult",
    "StillDiverges",
    "CorpusBank",
    "BankedRepro",
    "GenerativeCampaign",
    "GenerativeOptions",
    "GenerativeResult",
]
