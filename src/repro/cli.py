"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check FILE``     — CompDiff a MiniC program (exit 1 on divergence);
* ``run FILE``       — run one binary and print its output;
* ``fuzz FILE``      — a CompDiff-AFL++ campaign;
* ``generate``       — a generative campaign: synthesize, reduce, bank;
* ``sancheck``       — sanitizer validation: relocate UB sites, judge, bank;
* ``localize FILE``  — trace-alignment fault localization;
* ``minimize FILE``  — shrink a diff-triggering input (afl-tmin style);
* ``analyze FILE``   — IR-level UB findings plus divergence triage;
* ``precision``      — per-checker TP/FP/FN scoreboard vs the oracle;
* ``bisect FILE``    — attribute a divergence to one pass application;
* ``bank fsck DIR``  — salvage a corrupted corpus bank;
* ``bank merge DST SRC...`` — fold banks of one kind into one;
* ``impls``          — list the compiler implementations;
* ``targets``        — print the Table 4 target inventory.

Bank directories are the only store of banked classes: campaigns that
share one ``--corpus``/``--bank`` directory dedupe against each other,
and ``bank merge`` folds banks written elsewhere into one.
"""

from __future__ import annotations

import argparse
import binascii
import sys
from pathlib import Path

from repro.bank import MANIFEST, open_bank
from repro.compiler import (
    DEFAULT_IMPLEMENTATIONS,
    compile_source,
    implementation,
    implementation_names,
)
from repro.core.compdiff import CompDiff
from repro.core.localize import localize
from repro.core.normalize import OutputNormalizer
from repro.core.report import make_report
from repro.errors import EngineConfigError, ReproError
from repro.fuzzing import CompDiffFuzzer, FuzzerOptions
from repro.vm import run_binary


def _read_input(args: argparse.Namespace) -> bytes:
    if args.input_file:
        with open(args.input_file, "rb") as handle:
            return handle.read()
    if args.input_hex:
        return binascii.unhexlify(args.input_hex)
    return args.input.encode("latin-1") if args.input else b""


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", default=None, help="input as a latin-1 string")
    parser.add_argument("--input-hex", default=None, help="input as hex bytes")
    parser.add_argument("--input-file", default=None, help="read input from a file")


def _input_given(args: argparse.Namespace) -> bool:
    """True when any input flag was passed — `--input ""` counts."""
    return (
        args.input is not None
        or args.input_hex is not None
        or args.input_file is not None
    )


def _select_impls(names: str | None):
    if not names:
        return DEFAULT_IMPLEMENTATIONS
    return tuple(implementation(name.strip()) for name in names.split(","))


def cmd_check(args: argparse.Namespace) -> int:
    """`repro check`: differential-test one file; exit 1 on divergence."""
    source = open(args.file).read()
    engine = CompDiff(
        implementations=_select_impls(args.impls),
        normalizer=OutputNormalizer.standard() if args.normalize else None,
    )
    outcome = engine.check_source(source, [_read_input(args)], name=args.file)
    if args.stats:
        print(engine.stats.render(), file=sys.stderr)
    if not outcome.divergent:
        print("stable: all implementations agree")
        return 0
    print(make_report(args.file, outcome.diffs[0]).render())
    return 1


def cmd_run(args: argparse.Namespace) -> int:
    """`repro run`: execute one binary and forward its output."""
    source = open(args.file).read()
    binary = compile_source(source, implementation(args.impl), name=args.file)
    result = run_binary(binary, _read_input(args))
    sys.stdout.write(result.stdout.decode("latin-1"))
    sys.stderr.write(result.stderr.decode("latin-1"))
    print(f"[{args.impl}] status={result.status.value} exit={result.exit_code}", file=sys.stderr)
    return result.exit_code if result.status.value == "ok" else 128


def cmd_fuzz(args: argparse.Namespace) -> int:
    """`repro fuzz`: a CompDiff-AFL++ campaign with stats output.

    ``--checkpoint-dir`` journals the campaign periodically (and on
    Ctrl-C); ``--resume DIR`` continues a killed campaign from its last
    checkpoint, reproducing the uninterrupted campaign's verdicts.
    """
    source = open(args.file).read()
    seeds = [_read_input(args)] if _input_given(args) else [b""]
    # Resuming keeps journaling into the same directory unless overridden.
    checkpoint_dir = args.checkpoint_dir or args.resume
    options = FuzzerOptions(
        max_executions=args.execs,
        compdiff_stride=args.stride,
        rng_seed=args.seed,
        divergence_feedback=args.divergence_feedback,
        normalizer=OutputNormalizer.standard() if args.normalize else None,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    fuzzer = CompDiffFuzzer(source, seeds, options, name=args.file)
    try:
        result = fuzzer.run(resume_from=args.resume)
    except KeyboardInterrupt:
        if checkpoint_dir:
            print(
                f"interrupted: checkpoint flushed to {checkpoint_dir}; "
                f"continue with `repro fuzz {args.file} --resume {checkpoint_dir}`",
                file=sys.stderr,
            )
        else:
            print("interrupted (no --checkpoint-dir; progress lost)", file=sys.stderr)
        return 130
    if args.stats and fuzzer.oracle_stats is not None:
        print(fuzzer.oracle_stats.render(), file=sys.stderr)
    from repro.fuzzing import render_stats

    print(render_stats(result, name=args.file))
    for signature, count in result.signatures().items():
        print(f"  cluster {signature} x{count}")
    if result.diffs:
        print()
        print(make_report(args.file, result.diffs[0]).render())
    return 1 if result.diffs_found else 0


def _shard_policy(args: argparse.Namespace):
    """The shard policy the flags give; a flag left out keeps its default."""
    from repro.campaigns.runtime import ShardPolicy

    given = {
        field: getattr(args, field)
        for field in ("seed_deadline", "max_seed_attempts")
        if getattr(args, field) is not None
    }
    return ShardPolicy(**given)


def _print_shard_summary(runtime) -> None:
    shards = runtime.stats.snapshot()["shards"]
    print(
        f"shards: {runtime.shards} workers, {shards['restarts']} restarts, "
        f"{shards['adoptions']} ranges adopted, "
        f"{shards['seeds_quarantined']} seeds quarantined"
    )
    for entry in runtime.quarantine:
        print(f"  quarantined offset {entry.seq} ({entry.label}): {entry.reason}")


def _run_campaign(args, command, campaign, options, bank_dir, resume, report) -> int:
    """Run a seed-list campaign serially or under ``--shards``, then report.

    Shared by ``generate`` and ``sancheck``: the serial/sharded choice,
    the Ctrl-C message (*resume* is the command that continues the run)
    and ``--stats`` (the engine's metrics; a sharded run's are its
    shards' engine counters plus the supervisor's recovery counters).  *report* is called as
    ``report(args, result, runtime, bank)`` (``runtime`` is None for a
    serial run) and returns the exit code.
    """
    if args.shards < 1:
        raise EngineConfigError(f"--shards must be >= 1, got {args.shards}")
    checkpoint_dir = options.checkpoint_dir
    if args.shards > 1 and not checkpoint_dir:
        print(
            f"{command}: --shards needs --checkpoint-dir (shard state lives there)",
            file=sys.stderr,
        )
        return 2
    bank = campaign.bank_type(bank_dir) if bank_dir else None
    runtime = None
    try:
        if args.shards > 1:
            from repro.campaigns.runtime import CampaignRuntime

            runtime = CampaignRuntime(
                campaign,
                options,
                bank,
                root=checkpoint_dir,
                shards=args.shards,
                policy=_shard_policy(args),
            )
            result = runtime.run()
            stats = runtime.stats
        else:
            with campaign(options, bank) as walk:
                result = walk.run()
            stats = walk.engine.stats
    except KeyboardInterrupt:
        if checkpoint_dir:
            print(
                f"interrupted: checkpoint in {checkpoint_dir}; continue with {resume}",
                file=sys.stderr,
            )
        else:
            print("interrupted (no --checkpoint-dir; progress lost)", file=sys.stderr)
        return 130
    if args.stats:
        print(stats.render(), file=sys.stderr)
    return report(args, result, runtime, bank)


def cmd_generate(args: argparse.Namespace) -> int:
    """`repro generate`: a generative fuzzing campaign.

    Walks ``--budget`` generator seeds starting at ``--seed`` through
    generate→diff→reduce→bank (docs/GENERATIVE.md), appending reduced
    repros to the ``--corpus`` directory.  Deterministic: the same seed
    range and options always produce the same banked set — including
    under ``--shards N``, which partitions the range across N supervised
    worker processes (docs/ROBUSTNESS.md) and merges their bank shards
    byte-identically to a serial run.  Exit 0 when the run banked at
    least one new repro (or found no divergence but completed), 1 when
    ``--min-banked`` was requested and not reached.
    """
    from repro.generative import GenerativeCampaign, GenerativeOptions

    if args.shards > 1 and args.min_banked is not None:
        print(
            "generate: --min-banked is discovery-order-dependent and "
            "incompatible with --shards",
            file=sys.stderr,
        )
        return 2
    checkpoint_dir = args.checkpoint_dir or args.resume
    options = GenerativeOptions(
        seed=args.seed,
        budget=args.budget,
        profile=args.profile,
        inputs=[_read_input(args)] if _input_given(args) else [b""],
        reduce=not args.no_reduce,
        step_budget=args.step_budget,
        min_banked=args.min_banked,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        workers=args.workers,
    )
    resume = f"`repro generate --corpus {args.corpus} --resume {checkpoint_dir}`"
    return _run_campaign(
        args, "generate", GenerativeCampaign, options, args.corpus, resume,
        _report_generate,
    )


def _report_generate(args, result, runtime, bank) -> int:
    print(result.render())
    if runtime is not None:
        _print_shard_summary(runtime)
    for repro in bank:
        if repro.key in result.keys:
            drift = " [culprit drift]" if repro.culprit_drifted else ""
            print(
                f"  {repro.key} seed={repro.seed} group={repro.group} "
                f"culprit={repro.culprit_original} "
                f"nodes {repro.original_nodes}->{repro.reduced_nodes}{drift}"
            )
    if args.min_banked is not None and result.banked_new < args.min_banked:
        return 1
    return 0


def cmd_sancheck(args: argparse.Namespace) -> int:
    """`repro sancheck`: the sanitizer-validation campaign.

    Sweeps UB seeds (planted fixtures, the generative corpus bank,
    and/or fresh generator seeds) through relocation × sanitizer
    classification against the interprocedural UB oracle and the
    ten-implementation differential verdict (docs/SANVAL.md).  Confirmed
    FNs/FPs are reduced and banked into ``--bank`` with their evidence
    chains.  Deterministic: the same options produce byte-identical
    verdicts at any worker count.  Exit 1 when ``--min-fn``/``--min-fp``
    was requested and not reached.
    """
    from repro.sanval import RELOCATION_KINDS, SancheckCampaign, SancheckOptions

    if not (args.fixtures or args.corpus or args.budget > 0):
        print(
            "sancheck: no seed source; pass --fixtures, --corpus, or --budget N",
            file=sys.stderr,
        )
        return 2
    relocations = RELOCATION_KINDS
    if args.relocations is not None:
        relocations = tuple(k.strip() for k in args.relocations.split(",") if k.strip())
        unknown = [k for k in relocations if k not in RELOCATION_KINDS]
        if unknown:
            print(f"sancheck: unknown relocation(s) {','.join(unknown)}", file=sys.stderr)
            return 2
    checkpoint_dir = args.checkpoint_dir or args.resume
    options = SancheckOptions(
        fixtures=args.fixtures,
        corpus=args.corpus,
        seed=args.seed,
        budget=args.budget,
        profile=args.profile,
        inputs=[_read_input(args)] if _input_given(args) else [b""],
        relocations=relocations,
        reduce=not args.no_reduce,
        step_budget=args.step_budget,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        workers=args.workers,
    )
    resume = f"`repro sancheck --resume {checkpoint_dir}` plus the original flags"
    return _run_campaign(
        args, "sancheck", SancheckCampaign, options, args.bank, resume,
        _report_sancheck,
    )


def _report_sancheck(args, result, runtime, bank) -> int:
    import json

    from repro.static_analysis import Baseline, to_sarif

    diagnostics = [d for v in result.findings() for d in v.reported]
    suppressed = 0
    if args.baseline:
        baseline = Baseline.load(args.baseline)
        suppressed = len(baseline.suppressed(diagnostics))
        diagnostics = baseline.filter(diagnostics)
    if args.sarif:
        sarif_doc = to_sarif(diagnostics, artifact_uri="sanval")
        with open(args.sarif, "w") as handle:
            handle.write(json.dumps(sarif_doc, indent=2) + "\n")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n")

    counts = result.counts()
    fn_found = sum(row["FN"] for row in counts.values())
    fp_found = sum(row["FP"] for row in counts.values())
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.render())
        if runtime is not None:
            _print_shard_summary(runtime)
        if suppressed:
            print(f"{suppressed} sanitizer report(s) baseline-suppressed")
        findings = result.findings()
        if findings:
            print("findings:")
            for verdict in findings:
                print("  " + verdict.render())
    if args.min_fn is not None and fn_found < args.min_fn:
        return 1
    if args.min_fp is not None and fp_found < args.min_fp:
        return 1
    return 0


def cmd_bank_fsck(args: argparse.Namespace) -> int:
    """`repro bank fsck`: salvage a corrupted corpus bank.

    Quarantines unloadable manifest entries, key mismatches, duplicate
    keys, and orphaned program files into a ``corrupt/`` sidecar (with a
    ledger recording why), then rewrites the manifest over the
    survivors so the bank loads cleanly again (docs/ROBUSTNESS.md).
    Exit 0 when the bank was already clean, 1 when something was
    salvaged, 2 when the directory is not a bank at all.
    """
    import json

    from repro.campaigns.fsck import fsck_bank

    report = fsck_bank(args.dir, kind=args.kind)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.clean else 1


def cmd_bank_merge(args: argparse.Namespace) -> int:
    """`repro bank merge`: fold the SRC banks into the DST bank.

    Every source loads strictly and names its kind in its manifest; the
    sources and DST (when it already holds a bank) must all be one kind,
    or the command exits 2.  Entries go in source by source through
    :meth:`~repro.bank.Bank.add`, so a key DST already holds stays as
    it is and otherwise the first source holding a key wins.
    """
    dst = open_bank(args.dst) if (Path(args.dst) / MANIFEST).exists() else None
    sources = [open_bank(root) for root in args.sources]
    kinds = sorted({bank.entry_type.KIND for bank in [*sources, dst] if bank is not None})
    if len(kinds) > 1:
        raise ReproError(f"bank merge: cannot mix {' and '.join(kinds)} banks")
    if dst is None:
        dst = type(sources[0])(args.dst)
    merged = sum(dst.add(entry) for source in sources for entry in source)
    print(f"merged {merged} new {kinds[0]} class(es) into {args.dst}")
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    """`repro localize`: trace-alignment fault localization."""
    source = open(args.file).read()
    outcome = localize(source, _read_input(args), args.impl_a, args.impl_b)
    print(outcome.render(source))
    return 0 if outcome.diverged else 1


def cmd_minimize(args: argparse.Namespace) -> int:
    """`repro minimize`: shrink a diff-triggering input."""
    from repro.core.minimize import minimize_input

    source = open(args.file).read()
    result = minimize_input(source, _read_input(args))
    print(f"original:  {len(result.original)} bytes "
          f"({binascii.hexlify(result.original).decode()})")
    print(f"minimized: {len(result.minimized)} bytes "
          f"({binascii.hexlify(result.minimized).decode()})")
    print(f"reduction: {100 * result.reduction:.0f}% "
          f"in {result.executions} oracle executions")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """`repro analyze`: IR-level UB findings, plus divergence triage.

    Without an input, reports the static findings.  With an input, also
    localizes the divergence between ``--impl-a`` and ``--impl-b`` on
    that input and labels it with a Table 5 category (exit 1 when the
    input diverges).  ``--interproc`` upgrades the checkers to
    summary-based interprocedural mode (``--summary-cache DIR`` makes
    the summaries incremental across runs); ``--refine`` additionally
    pass-bisects a diverging input and re-analyzes the culprit slice
    path-sensitively.  ``--json`` emits the schema documented in
    docs/ANALYSIS.md, ``--sarif`` a SARIF 2.1.0 log, and
    ``--baseline``/``--write-baseline`` suppress known findings.
    """
    import json

    from repro.minic import load
    from repro.static_analysis import Baseline, SummaryCache, UBOracle, to_sarif
    from repro.static_analysis.diagnostics import (
        ANALYZE_SCHEMA_VERSION,
        diagnostic_sort_key,
        to_diagnostics,
    )
    from repro.static_analysis.triage import triage_divergence

    if args.refine and not args.interproc:
        print("analyze: --refine requires --interproc", file=sys.stderr)
        return 2
    if args.refine and not _input_given(args):
        print("analyze: --refine needs an input to bisect", file=sys.stderr)
        return 2

    source = open(args.file).read()
    program = load(source)
    cache = SummaryCache(args.summary_cache) if args.summary_cache else None
    mode = "interproc" if args.interproc else "intra"
    oracle = UBOracle(mode=mode, summary_cache=cache)

    refine_report = None
    interproc_ctx = None
    gcc_module = None
    if args.refine:
        # Refinement needs the lowered module and summary context the
        # report was produced from, so build the pieces explicitly.
        from repro.compiler.binary import compile_module
        from repro.static_analysis.interproc import summarize_module
        from repro.static_analysis.ub_oracle import analyze_modules

        gcc_module = compile_module(program, implementation("gcc-O0"), name=args.file)
        clang_module = compile_module(
            program, implementation("clang-O0"), name=args.file
        )
        interproc_ctx = summarize_module(gcc_module, cache=cache)
        report = analyze_modules(gcc_module, clang_module, interproc=interproc_ctx)
    else:
        report = oracle.report(program, name=args.file)

    localization = None
    label = None
    divergent = False
    if _input_given(args):
        input_bytes = _read_input(args)
        localization = localize(program, input_bytes, args.impl_a, args.impl_b)
        # The trace alignment alone cannot see value-only divergences
        # (identical paths, different output), so the divergence verdict
        # comes from the differential oracle itself.
        engine = CompDiff(
            implementations=(
                implementation(args.impl_a),
                implementation(args.impl_b),
            )
        )
        divergent = engine.check(program, [input_bytes], name=args.file).divergent
        if divergent and args.refine:
            from repro.core.bisect import bisect_divergence
            from repro.static_analysis.refine import refine_findings

            bisection = bisect_divergence(
                source,
                input_bytes,
                impl_ref=args.impl_a,
                impl_target=args.impl_b,
                name=args.file,
            )
            if bisection.attributed and bisection.culprit.target:
                findings, refine_report = refine_findings(
                    gcc_module,
                    interproc_ctx,
                    report.findings,
                    bisection.culprit.target,
                )
                report.findings[:] = findings
        if divergent:
            label = triage_divergence(report.findings, localization, window=args.window)

    diagnostics = to_diagnostics(report.findings)
    suppressed = 0
    if args.baseline:
        baseline = Baseline.load(args.baseline)
        suppressed = len(baseline.suppressed(diagnostics))
        diagnostics = baseline.filter(diagnostics)
    if args.write_baseline:
        Baseline.from_diagnostics(diagnostics).save(args.write_baseline)

    sarif_to_stdout = args.sarif == "-"
    if args.sarif:
        sarif_doc = to_sarif(diagnostics, artifact_uri=args.file)
        rendered = json.dumps(sarif_doc, indent=2)
        if sarif_to_stdout:
            print(rendered)
        else:
            with open(args.sarif, "w") as handle:
                handle.write(rendered + "\n")

    if cache is not None:
        cache.save()
        if args.stats:
            snap = cache.stats.snapshot()
            print(
                f"summary cache: {snap['hits']} hits / {snap['misses']} misses "
                f"({snap['invalidations']} invalidated)",
                file=sys.stderr,
            )

    # `--sarif -` owns stdout: the SARIF log must stay parseable as one
    # JSON document, so the human/JSON report is skipped.
    if sarif_to_stdout:
        return 1 if label is not None else 0

    if args.json:
        payload = {
            "schema_version": ANALYZE_SCHEMA_VERSION,
            "file": args.file,
            "tool": "ub-oracle",
            "mode": mode,
            "converged": report.converged,
            "suppressed": suppressed,
            "findings": [
                {
                    "checker": d.checker,
                    "category": d.category,
                    "severity": d.severity,
                    "line": d.line,
                    "function": d.function,
                    "message": d.message,
                    "trace": list(d.trace),
                    "fingerprint": d.fingerprint,
                }
                for d in sorted(diagnostics, key=diagnostic_sort_key)
            ],
        }
        if refine_report is not None:
            payload["refined"] = refine_report
        if localization is not None:
            payload["triage"] = {
                "impl_a": localization.impl_a,
                "impl_b": localization.impl_b,
                "diverged": divergent,
                "last_common_line": localization.last_common_line,
                "next_line_a": localization.next_line_a,
                "next_line_b": localization.next_line_b,
            }
            if label is not None:
                payload["triage"].update(
                    {
                        "category": label.category,
                        "confidence": label.confidence,
                        "line": label.line,
                        "rationale": label.rationale,
                        "explained": label.explained,
                    }
                )
        print(json.dumps(payload, indent=2))
    else:
        errors = sum(1 for d in diagnostics if d.severity == "error")
        suffix = f", {suppressed} baseline-suppressed" if suppressed else ""
        print(
            f"ub-oracle[{mode}]: {len(diagnostics)} findings "
            f"({errors} confirmed{suffix}) in {args.file}"
        )
        for d in sorted(diagnostics, key=diagnostic_sort_key):
            print("  " + d.render())
        if not report.converged:
            print(f"  warning: solver budget exhausted in: {report.nonconverged}")
        if refine_report is not None:
            for func, counts in sorted(refine_report.items()):
                print(
                    f"  refined {func}: {counts['dropped']} dropped, "
                    f"{counts['upgraded']} upgraded, {counts['kept']} kept"
                )
        if localization is not None:
            if label is None:
                print(f"input: no divergence between "
                      f"{localization.impl_a} and {localization.impl_b}")
            else:
                print(f"divergence at line {label.line} "
                      f"({localization.impl_a} vs {localization.impl_b}): "
                      f"{label.category} [{label.confidence}]")
                print(f"  {label.rationale}")
    return 1 if label is not None else 0


def cmd_precision(args: argparse.Namespace) -> int:
    """`repro precision`: the oracle-validated per-checker scoreboard.

    Runs both analysis modes (intra and interprocedural) over the seeded
    standard suite plus the interprocedural extension corpus, scoring
    TP/FP/FN per checker against the differential engine's divergence
    verdicts.  See docs/ANALYSIS.md for the tally rules.
    """
    import json

    from repro.evaluation.precision_eval import evaluate_precision, precision_corpus
    from repro.static_analysis import SummaryCache

    cache = SummaryCache(args.summary_cache) if args.summary_cache else None
    cases = precision_corpus(
        scale=args.scale, seed=args.seed, per_shape=args.per_shape, corpus=args.corpus
    )
    report = evaluate_precision(cases, summary_cache=cache)
    if cache is not None:
        cache.save()
    if args.out:
        report.save(args.out)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0


def cmd_bisect(args: argparse.Namespace) -> int:
    """`repro bisect`: name the pass application that flips the output.

    Like LLVM's ``-opt-bisect-limit``, but automated: binary-search the
    target implementation's pass-application count for the first prefix
    whose output departs from the reference.  Exit 0 when a culprit
    application is attributed, 1 when the pair does not diverge on the
    input, 2 when the divergence exists with zero passes applied (layout
    or front-end, not pass-attributable).
    """
    import json

    from repro.core.bisect import bisect_divergence

    source = open(args.file).read()
    result = bisect_divergence(
        source,
        _read_input(args),
        impl_ref=args.impl_a,
        impl_target=args.impl_b,
        normalizer=OutputNormalizer.standard() if args.normalize else None,
        name=args.file,
    )
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render())
    if result.attributed:
        return 0
    return 1 if result.status == "no_divergence" else 2


def cmd_ir(args: argparse.Namespace) -> int:
    """`repro ir`: dump verified IR for one implementation."""
    from repro.ir.printer import format_module
    from repro.ir.verify import verify_module

    source = open(args.file).read()
    binary = compile_source(source, implementation(args.impl), name=args.file)
    verify_module(binary.module)
    print(format_module(binary.module))
    return 0


def cmd_impls(args: argparse.Namespace) -> int:
    """`repro impls`: list the compiler implementations and traits.

    ``--pipelines`` additionally prints each implementation's declarative
    pass schedule and cache digest (see docs/PASSES.md).
    """
    for config in DEFAULT_IMPLEMENTATIONS:
        flags = []
        if config.exploit_ub:
            flags.append("exploit-ub")
        if config.inline_small:
            flags.append("inline")
        if config.widen_int_mul:
            flags.append("widen-mul")
        if config.miscompile_patterns:
            flags.append(f"miscompiles={','.join(config.miscompile_patterns)}")
        print(f"{config.name:<10} {' '.join(flags)}")
        if args.pipelines:
            print(f"           {config.pipeline_summary()}")
    return 0


def cmd_targets(args: argparse.Namespace) -> int:
    """`repro targets`: Table 4 inventory."""
    from repro.evaluation import render_table4

    print(render_table4())
    return 0


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    # The two policy flags default to None so their defaults live in
    # ShardPolicy alone (see _shard_policy); reading them here would
    # import the campaign runtime whenever the parser is built.
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the seed range across this many "
                             "supervised worker processes (needs "
                             "--checkpoint-dir; merged corpus is "
                             "byte-identical to a serial run)")
    parser.add_argument("--seed-deadline", type=float, default=None,
                        help="seconds a shard may sit on one seed before "
                             "it is declared hung and restarted "
                             "(default: the shard policy's)")
    parser.add_argument("--max-seed-attempts", type=int, default=None,
                        help="blamed failures before a seed is quarantined "
                             "as poison and skipped (default: the shard "
                             "policy's)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CompDiff (ASPLOS 2023) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="differential-test a MiniC program")
    check.add_argument("file")
    check.add_argument("--impls", help=f"comma list from: {', '.join(implementation_names())}")
    check.add_argument("--normalize", action="store_true", help="scrub timestamps (RQ5)")
    check.add_argument("--stats", action="store_true",
                       help="print execution metrics to stderr")
    _add_input_flags(check)
    check.set_defaults(func=cmd_check)

    run = sub.add_parser("run", help="run one binary")
    run.add_argument("file")
    run.add_argument("--impl", default="gcc-O0", choices=implementation_names())
    _add_input_flags(run)
    run.set_defaults(func=cmd_run)

    fuzz = sub.add_parser("fuzz", help="CompDiff-AFL++ campaign")
    fuzz.add_argument("file")
    fuzz.add_argument("--execs", type=int, default=5000)
    fuzz.add_argument("--stride", type=int, default=3)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--divergence-feedback", action="store_true")
    fuzz.add_argument("--normalize", action="store_true")
    fuzz.add_argument("--stats", action="store_true",
                      help="print oracle execution metrics to stderr")
    fuzz.add_argument("--checkpoint-dir", default=None,
                      help="journal the campaign into this directory "
                           "(atomic, crash-safe; flushed on Ctrl-C)")
    fuzz.add_argument("--checkpoint-every", type=int, default=1000,
                      help="executions between periodic checkpoints")
    fuzz.add_argument("--resume", default=None, metavar="DIR",
                      help="resume a killed campaign from its checkpoint "
                           "directory (pass the original flags)")
    _add_input_flags(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)

    generate = sub.add_parser(
        "generate", help="generative campaign: synthesize, reduce, bank repros"
    )
    generate.add_argument("--corpus", required=True, metavar="DIR",
                          help="repro corpus directory (created/extended)")
    generate.add_argument("--seed", type=int, default=0,
                          help="first generator seed of the campaign range")
    generate.add_argument("--budget", type=int, default=20,
                          help="number of generator seeds to process")
    generate.add_argument("--profile", default="ub",
                          help="generator profile: plain, ub, or interproc")
    generate.add_argument("--no-reduce", action="store_true",
                          help="bank raw divergent programs without reduction")
    generate.add_argument("--step-budget", type=int, default=200,
                          help="max accepted reduction steps per program")
    generate.add_argument("--min-banked", type=int, default=None,
                          help="stop early after this many new repros "
                               "(exit 1 if not reached)")
    generate.add_argument("--workers", type=int, default=1,
                          help="worker processes for the CompDiff oracle")
    generate.add_argument("--stats", action="store_true",
                          help="print engine metrics to stderr (under "
                               "--shards, the shard supervisor's)")
    generate.add_argument("--checkpoint-dir", default=None,
                          help="journal campaign progress into this directory")
    generate.add_argument("--checkpoint-every", type=int, default=5,
                          help="processed seeds between periodic checkpoints")
    generate.add_argument("--resume", default=None, metavar="DIR",
                          help="resume a killed campaign from its checkpoint "
                               "directory (pass the original flags)")
    _add_shard_flags(generate)
    _add_input_flags(generate)
    generate.set_defaults(func=cmd_generate)

    sancheck = sub.add_parser(
        "sancheck", help="sanitizer-validation campaign: relocate, judge, bank"
    )
    sancheck.add_argument("--fixtures", default=None, metavar="DIR",
                          help="planted fixture corpus (manifest.json + programs)")
    sancheck.add_argument("--corpus", default=None, metavar="DIR",
                          help="generative corpus bank to pull seeds from")
    sancheck.add_argument("--seed", type=int, default=0,
                          help="first generator seed (with --budget)")
    sancheck.add_argument("--budget", type=int, default=0,
                          help="generator seeds to draw (0 = none)")
    sancheck.add_argument("--profile", default="ub",
                          help="generator profile for --budget seeds")
    sancheck.add_argument("--bank", default=None, metavar="DIR",
                          help="finding bank directory (created/extended)")
    sancheck.add_argument("--relocations", default=None,
                          help="comma-separated relocation kinds "
                               "(default: outline,loop_shift,carry)")
    sancheck.add_argument("--no-reduce", action="store_true",
                          help="bank raw FN/FP programs without reduction")
    sancheck.add_argument("--step-budget", type=int, default=200,
                          help="max accepted reduction steps per finding")
    sancheck.add_argument("--min-fn", type=int, default=None,
                          help="exit 1 unless at least this many FNs found")
    sancheck.add_argument("--min-fp", type=int, default=None,
                          help="exit 1 unless at least this many FPs found")
    sancheck.add_argument("--json", action="store_true",
                          help="print the scoreboard as JSON")
    sancheck.add_argument("--out", default=None, metavar="FILE",
                          help="also write the scoreboard JSON to FILE")
    sancheck.add_argument("--sarif", default=None, metavar="FILE",
                          help="write fired sanitizer reports as SARIF 2.1.0")
    sancheck.add_argument("--baseline", default=None, metavar="FILE",
                          help="suppress sanitizer reports by fingerprint")
    sancheck.add_argument("--workers", type=int, default=1,
                          help="worker processes for the CompDiff oracle")
    sancheck.add_argument("--stats", action="store_true",
                          help="print engine metrics to stderr (under "
                               "--shards, the shard supervisor's)")
    sancheck.add_argument("--checkpoint-dir", default=None,
                          help="journal campaign progress into this directory")
    sancheck.add_argument("--checkpoint-every", type=int, default=1,
                          help="processed seeds between periodic checkpoints")
    sancheck.add_argument("--resume", default=None, metavar="DIR",
                          help="resume a killed campaign from its checkpoint "
                               "directory (pass the original flags)")
    _add_shard_flags(sancheck)
    _add_input_flags(sancheck)
    sancheck.set_defaults(func=cmd_sancheck)

    loc = sub.add_parser("localize", help="trace-alignment fault localization")
    loc.add_argument("file")
    loc.add_argument("--impl-a", default="gcc-O0", choices=implementation_names())
    loc.add_argument("--impl-b", default="gcc-O2", choices=implementation_names())
    _add_input_flags(loc)
    loc.set_defaults(func=cmd_localize)

    mini = sub.add_parser("minimize", help="shrink a diff-triggering input")
    mini.add_argument("file")
    _add_input_flags(mini)
    mini.set_defaults(func=cmd_minimize)

    analyze = sub.add_parser("analyze", help="IR-level UB findings + divergence triage")
    analyze.add_argument("file")
    analyze.add_argument("--json", action="store_true", help="machine-readable report")
    analyze.add_argument("--impl-a", default="gcc-O0", choices=implementation_names())
    analyze.add_argument("--impl-b", default="gcc-O2", choices=implementation_names())
    analyze.add_argument("--window", type=int, default=2,
                         help="max line distance between divergence site and finding")
    analyze.add_argument("--interproc", action="store_true",
                         help="summary-based interprocedural checkers")
    analyze.add_argument("--summary-cache", default=None, metavar="DIR",
                         help="persist function summaries (incremental re-analysis)")
    analyze.add_argument("--refine", action="store_true",
                         help="pass-bisect a diverging input and re-analyze the "
                              "culprit slice path-sensitively (needs --interproc)")
    analyze.add_argument("--sarif", default=None, metavar="PATH",
                         help="write a SARIF 2.1.0 log ('-' for stdout)")
    analyze.add_argument("--baseline", default=None, metavar="FILE",
                         help="suppress findings fingerprinted in this baseline")
    analyze.add_argument("--write-baseline", default=None, metavar="FILE",
                         help="write the (post-suppression) findings as a baseline")
    analyze.add_argument("--stats", action="store_true",
                         help="print summary-cache metrics to stderr")
    _add_input_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    precision = sub.add_parser(
        "precision",
        help="score every UB-oracle checker against the differential oracle",
    )
    precision.add_argument("--scale", type=float, default=0.002,
                           help="standard-suite scale fed to the corpus")
    precision.add_argument("--seed", type=int, default=20230325)
    precision.add_argument("--per-shape", type=int, default=3,
                           help="interprocedural extension cases per shape")
    precision.add_argument("--json", action="store_true", help="machine-readable report")
    precision.add_argument("--out", default=None, metavar="FILE",
                           help="also write the JSON report to FILE")
    precision.add_argument("--summary-cache", default=None, metavar="DIR",
                           help="persist interprocedural summaries across runs")
    precision.add_argument("--corpus", default=None, metavar="DIR",
                           help="also score the banked generative repro corpus")
    precision.set_defaults(func=cmd_precision)

    bisect = sub.add_parser(
        "bisect", help="attribute a divergence to one pass application"
    )
    bisect.add_argument("file")
    bisect.add_argument("--impl-a", default="gcc-O0", choices=implementation_names(),
                        help="reference implementation (built in full)")
    bisect.add_argument("--impl-b", default="gcc-O2", choices=implementation_names(),
                        help="target implementation (prefix-bisected)")
    bisect.add_argument("--normalize", action="store_true",
                        help="scrub timestamps before comparing (RQ5)")
    bisect.add_argument("--json", action="store_true", help="machine-readable result")
    _add_input_flags(bisect)
    bisect.set_defaults(func=cmd_bisect)

    ir = sub.add_parser("ir", help="dump verified IR for one implementation")
    ir.add_argument("file")
    ir.add_argument("--impl", default="gcc-O2", choices=implementation_names())
    ir.set_defaults(func=cmd_ir)

    bank = sub.add_parser("bank", help="corpus bank maintenance")
    bank_sub = bank.add_subparsers(dest="bank_command", required=True)
    fsck = bank_sub.add_parser(
        "fsck", help="salvage a corrupted bank into a corrupt/ sidecar"
    )
    fsck.add_argument("dir", help="bank directory to salvage")
    fsck.add_argument("--kind", default="auto",
                      help="bank kind when the manifest is too damaged "
                           "to detect it from")
    fsck.add_argument("--json", action="store_true",
                      help="print the salvage report as JSON")
    fsck.set_defaults(func=cmd_bank_fsck)
    merge = bank_sub.add_parser(
        "merge", help="fold banks of one kind into one bank"
    )
    merge.add_argument("dst", help="bank directory to merge into (created/extended)")
    merge.add_argument("sources", nargs="+", metavar="src",
                       help="bank directory to merge from; the first source "
                            "holding a key wins")
    merge.set_defaults(func=cmd_bank_merge)

    impls = sub.add_parser("impls", help="list compiler implementations")
    impls.add_argument("--pipelines", action="store_true",
                       help="show each implementation's pass schedule + digest")
    impls.set_defaults(func=cmd_impls)
    sub.add_parser("targets", help="Table 4 target inventory").set_defaults(func=cmd_targets)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`ReproError` the command does not handle exits 2, the
    usage-error code, so a broken input never reads as a finding (1).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
