"""Oracle-validated precision scoreboard for the UB oracle's checkers.

The differential engine is the ground-truth instrument: a Juliet-style
*bad* variant whose output actually diverges across implementations is a
real, observable instability, so a checker that flags it scores a true
positive; a *good* variant is bug-free by construction, so any finding
on one is a false positive.  Scoring both analysis modes over the same
corpus turns the intra→interprocedural upgrade into a measurable
per-checker delta rather than an anecdote.

Tallies, per checker and per mode:

* **TP** — fired on a bad variant whose execution diverged, when the
  checker's Table 5 category is plausible for the case's CWE group
  (:data:`~repro.evaluation.juliet_eval.GROUP_EXPECTED_CATEGORY`);
* **FN** — eligible, divergent, and silent;
* **FP** — fired on a good variant (*any* checker: good variants have
  no bug, so even a category-mismatched finding is noise);
* **unconfirmed** — fired on a bad variant the engine could not confirm
  (no divergence).  Excluded from precision: the planted bug is real,
  but the oracle has no executable evidence either way.

The corpus is the standard seeded suite at a small scale plus the
interprocedural extension corpus
(:func:`repro.juliet.templates.interproc.interproc_cases`), whose flaws
only become visible across call boundaries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.compdiff import CompDiff
from repro.evaluation.juliet_eval import GROUP_EXPECTED_CATEGORY
from repro.juliet.suite import build_suite
from repro.juliet.templates.interproc import interproc_cases
from repro.minic import load
from repro.static_analysis.ub_oracle import CHECKER_CATEGORY, UBOracle

#: Analysis modes scored side by side.
MODES = ("intra", "interproc")

#: Precision-report JSON format version.
PRECISION_SCHEMA_VERSION = 1


@dataclass
class CheckerScore:
    """One checker's tallies in one analysis mode."""

    checker: str
    tp: int = 0
    fp: int = 0
    fn: int = 0
    unconfirmed: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f1(self) -> float:
        denom = self.precision + self.recall
        return 2 * self.precision * self.recall / denom if denom else 0.0

    def to_json(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "unconfirmed": self.unconfirmed,
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
        }

    @staticmethod
    def from_json(checker: str, data: dict) -> "CheckerScore":
        return CheckerScore(
            checker=checker,
            tp=data["tp"],
            fp=data["fp"],
            fn=data["fn"],
            unconfirmed=data["unconfirmed"],
        )


@dataclass
class PrecisionReport:
    """Per-mode, per-checker scoreboard over one corpus run."""

    #: mode -> checker -> score.
    scores: dict[str, dict[str, CheckerScore]] = field(default_factory=dict)
    cases: int = 0
    divergent: int = 0

    def score(self, mode: str, checker: str) -> CheckerScore:
        table = self.scores.setdefault(mode, {})
        if checker not in table:
            table[checker] = CheckerScore(checker=checker)
        return table[checker]

    def to_json(self) -> dict:
        return {
            "version": PRECISION_SCHEMA_VERSION,
            "cases": self.cases,
            "divergent": self.divergent,
            "modes": {
                mode: {
                    checker: self.scores[mode][checker].to_json()
                    for checker in sorted(self.scores[mode])
                }
                for mode in sorted(self.scores)
            },
        }

    @staticmethod
    def from_json(data: dict) -> "PrecisionReport":
        if data.get("version") != PRECISION_SCHEMA_VERSION:
            raise ValueError(
                f"precision report version {data.get('version')!r}; "
                f"expected {PRECISION_SCHEMA_VERSION}"
            )
        report = PrecisionReport(cases=data["cases"], divergent=data["divergent"])
        for mode, table in data["modes"].items():
            report.scores[mode] = {
                checker: CheckerScore.from_json(checker, row)
                for checker, row in table.items()
            }
        return report

    @staticmethod
    def load(path: str | os.PathLike) -> "PrecisionReport":
        return PrecisionReport.from_json(json.loads(Path(path).read_text()))

    def save(self, path: str | os.PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    def render(self) -> str:
        """Side-by-side scoreboard with the interprocedural delta."""
        lines = [
            f"precision scoreboard over {self.cases} cases "
            f"({self.divergent} divergent bad variants)",
            f"{'checker':<18} {'mode':<10} {'TP':>4} {'FP':>4} {'FN':>4} "
            f"{'unc':>4} {'prec':>7} {'recall':>7} {'F1':>7}",
        ]
        checkers = sorted(
            {c for table in self.scores.values() for c in table}
        )
        for checker in checkers:
            for mode in MODES:
                score = self.scores.get(mode, {}).get(checker)
                if score is None:
                    continue
                lines.append(
                    f"{checker:<18} {mode:<10} {score.tp:>4} {score.fp:>4} "
                    f"{score.fn:>4} {score.unconfirmed:>4} "
                    f"{score.precision:>7.2%} {score.recall:>7.2%} "
                    f"{score.f1:>7.2%}"
                )
            intra = self.scores.get("intra", {}).get(checker)
            inter = self.scores.get("interproc", {}).get(checker)
            if intra and inter and (intra.tp, intra.fp) != (inter.tp, inter.fp):
                lines.append(
                    f"{'':<18} {'delta':<10} "
                    f"{inter.tp - intra.tp:>+4} {inter.fp - intra.fp:>+4}"
                )
        return "\n".join(lines)


def regressions(baseline: PrecisionReport, current: PrecisionReport) -> list[str]:
    """Checkers whose F1 dropped below the committed baseline (CI gate)."""
    problems: list[str] = []
    for mode, table in baseline.scores.items():
        for checker, old in table.items():
            new = current.scores.get(mode, {}).get(checker)
            if new is None:
                problems.append(f"{mode}/{checker}: missing from current run")
            elif new.f1 < old.f1 - 1e-9:
                problems.append(
                    f"{mode}/{checker}: F1 {old.f1:.4f} -> {new.f1:.4f}"
                )
    return problems


def precision_corpus(
    scale: float = 0.002,
    seed: int = 20230325,
    per_shape: int = 3,
    corpus=None,
) -> list:
    """The scored corpus: seeded standard suite + interproc extension.

    *corpus* (a :class:`~repro.generative.bank.CorpusBank` or a corpus
    directory path) appends the banked generative repros: each reduced
    divergent program scores as a bad variant whose divergence the
    engine re-confirms, with its stabilized twin as the good variant.
    Repros banked with group ``unclassified`` (no surviving diagnostic)
    have no eligible checkers and contribute divergence counts only.
    """
    cases = list(build_suite(scale=scale, seed=seed).cases) + interproc_cases(
        per_shape=per_shape
    )
    if corpus is not None:
        from repro.generative.bank import CorpusBank

        bank = corpus if isinstance(corpus, CorpusBank) else CorpusBank(corpus)
        cases += bank.test_cases()
    return cases


def evaluate_precision(
    cases,
    modes: tuple[str, ...] = MODES,
    engine: CompDiff | None = None,
    summary_cache=None,
) -> PrecisionReport:
    """Score every oracle checker in every *mode* against the engine.

    *summary_cache* (a
    :class:`~repro.static_analysis.summary_cache.SummaryCache`) is
    threaded into the interprocedural oracle so a campaign both
    exercises and benefits from the incremental summaries.
    """
    engine = engine if engine is not None else CompDiff()
    oracles = {
        mode: UBOracle(
            mode=mode,
            summary_cache=summary_cache if mode == "interproc" else None,
        )
        for mode in modes
    }
    report = PrecisionReport()
    for case in cases:
        report.cases += 1
        bad = load(case.bad_source)
        good = load(case.good_source)
        divergent = engine.diverges(bad, case.inputs, name=case.uid)
        if divergent:
            report.divergent += 1
        eligible = {
            checker
            for checker, category in CHECKER_CATEGORY.items()
            if category in GROUP_EXPECTED_CATEGORY.get(case.group, set())
        }
        for mode, oracle in oracles.items():
            # Named reports give each program distinct summary-cache keys.
            fired_bad = {
                f.checker for f in oracle.report(bad, name=case.uid).findings
            }
            fired_good = {
                f.checker
                for f in oracle.report(good, name=f"{case.uid}_good").findings
            }
            for checker in fired_good:
                report.score(mode, checker).fp += 1
            for checker in eligible:
                if checker in fired_bad:
                    if divergent:
                        report.score(mode, checker).tp += 1
                    else:
                        report.score(mode, checker).unconfirmed += 1
                elif divergent:
                    report.score(mode, checker).fn += 1
    return report
