"""Command-line front end: classify vectors, emit family constructions,
run verifications and characteristic sweeps, write reports.

One parser, one handler per subcommand and one emitter: each subparser
registers its handler, which builds the report from the parsed arguments
and hands ``_emit`` one rendering for each format it offers; ``_emit``
renders only the one ``--format`` names and writes it to ``--out`` or
stdout.  ``verify`` is a ``sweep`` over the one characteristic its
``--field`` names: both commands share one grammar and one handler, which
runs every job through ``sweep_characteristics``.  ``main`` builds only
the subparser its first argument names (every one when that names none),
so a command pays for no other command's grammar.  The CLI only parses:
the library refuses each value it cannot use, with one text for every
command.

Exit codes: 0 success (or match), 1 verification mismatch, 2 invalid
input, 3 inconclusive verification (trials short of a cap over QQ, or in
a field too small to bound a miss) with no mismatch.
JSON output is canonical (sorted keys, no floats) so that reruns with the
same seed are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
from typing import Callable, Optional, Sequence

from . import families, sequences
from .exact import FieldSpec
from .inverse_systems import VerificationReport, sweep_characteristics
from .sequences import HVector, Violation
from .version import VERSION

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

DEFAULT_FIELD = 32003
DEFAULT_SEED = 0
DEFAULT_TRIALS = 5
DEFAULT_SWEEP_CHARS = (0, 101, 1009, 32003)

PASS_MARK = "✓"
FAIL_MARK = "✗"

_VIOLATION_TEXT = {
    "growth": "growth from degree {i} to {j} exceeds the Macaulay bound",
    "asymmetry": "entry {i} differs from its mirror entry",
    "rise-after-fall": "strict increase at degree {i} after a strict decrease",
    "negative-difference": "first difference is negative at degree {i}",
    "internal-zero": "first difference has an internal zero at degree {i}",
    "difference-growth": "violation at difference step {i}->{j}",
}


class UsageError(Exception):
    """A command line the CLI cannot parse.  Values it parses but cannot
    use, such as a parameter with no construction, the library refuses."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The subcommands, in the order the top-level help lists them.
_COMMANDS = ("check", "construct", "verify", "sweep")


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser with only ``command``'s subparser, or with all of them
    when ``command`` names none, so that the top-level help and the
    invalid-choice error still list every subcommand.  A subcommand's
    help, usage and errors do not depend on its siblings."""
    chosen = (command,) if command in _COMMANDS else _COMMANDS
    parser = _Parser(
        prog="hvectors",
        description="h-vector calculus, Gorenstein family constructions, "
                    "and inverse-system verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, formats):
        p.add_argument("--format", choices=formats, default="plain")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the report to a file instead of stdout")

    if "check" in chosen:
        p_check = sub.add_parser(
            "check", help="classify a comma-separated h-vector")
        p_check.add_argument("vector", help="for example 1,10,14,20,14,10,1")
        add_output(p_check, ("plain", "json"))
        p_check.set_defaults(handler=_cmd_check)

    if "construct" in chosen:
        p_construct = sub.add_parser(
            "construct", help="emit a constructed family member")
        p_construct.add_argument("kind", choices=("thm-e", "thm-r"))
        p_construct.add_argument("--e", type=int, help="socle degree (thm-e)")
        p_construct.add_argument("--d", type=int, help="half degree (thm-r)")
        p_construct.add_argument("--parity", choices=("odd", "even"))
        p_construct.add_argument(
            "--a", type=int, default=0,
            help="lift every interior entry by this amount")
        add_output(p_construct, ("plain", "json", "csv"))
        p_construct.set_defaults(handler=_cmd_construct)

    # verify and sweep differ only in how they name the characteristics;
    # both store the tuple in ``chars``.
    for name, help_text, flag, parse, default, flag_help in (
            ("verify", "recompute a family's Hilbert function from random "
                       "inverse-system witnesses",
             "--field", _parse_field, (DEFAULT_FIELD,),
             "0 for the rationals or a prime"),
            ("sweep", "verify one construction across characteristics",
             "--chars", _parse_chars, DEFAULT_SWEEP_CHARS,
             "comma-separated characteristics (0 or primes)")):
        if name not in chosen:
            continue
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("kind", choices=("thm-e", "thm-r"))
        p_run.add_argument("--e", help="socle degree or range, e.g. 6..10")
        p_run.add_argument("--d", help="half degree or range, e.g. 10..12")
        p_run.add_argument("--parity", choices=("odd", "even"),
                           help="thm-r only; both parities when omitted")
        p_run.add_argument(flag, dest="chars", type=parse, default=default,
                           help=flag_help)
        p_run.add_argument("--seed", default=str(DEFAULT_SEED))
        p_run.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        add_output(p_run, ("plain", "json", "csv"))
        p_run.set_defaults(handler=_cmd_verify)
    return parser


def _parse_vector(text: str) -> HVector:
    cleaned = text.strip().strip("()[]")
    parts = [p.strip() for p in cleaned.split(",") if p.strip()]
    try:
        entries = [int(p) for p in parts]
        return HVector(tuple(entries))
    except ValueError as err:
        raise UsageError(f"malformed h-vector literal {text!r}: {err}") from None


def _parse_values(text: str, flag: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise UsageError(f"empty range {text!r} for {flag}")
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise UsageError(f"cannot parse {flag} value {text!r}") from None


def _parse_chars(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(",") if c.strip())
    except ValueError:
        raise UsageError(f"cannot parse characteristics {text!r}") from None


def _parse_field(text: str) -> tuple[int, ...]:
    if "," in text:
        raise UsageError(f"--field takes one characteristic, got {text!r}")
    return _parse_chars(text)


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise UsageError(f"cannot parse seed {text!r}") from None


# CLI kind -> (its parameter flag, the flags it rejects, its library kind
# for each --parity).  The library refuses a parameter with no
# construction (`families.family`) and a seed outside [0, 2**64).
_KIND_RULES = {
    "thm-e": ("e", ("d", "parity"), {None: families.KIND_SOCLE_DEGREE}),
    "thm-r": ("d", ("e",), {"odd": families.KIND_CODIM5_ODD,
                            "even": families.KIND_CODIM5_EVEN}),
}


def _jobs(args: argparse.Namespace) -> list[tuple[str, int]]:
    """The (library kind, parameter) pairs the command names, in report
    order."""
    kind = args.kind
    flag, rejected, library_kinds = _KIND_RULES[kind]
    for name in rejected:
        if getattr(args, name) is not None:
            raise UsageError(f"{kind} does not take --{name}")
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"--{flag} is required")
    # Without --parity, thm-r runs both variants; thm-e has just one.
    chosen = ([library_kinds[args.parity]] if args.parity in library_kinds
              else list(library_kinds.values()))
    if args.command == "construct":
        if len(chosen) > 1:
            raise UsageError(f"{kind} needs --parity")
        return [(chosen[0], value)]
    # Jobs run in ascending parameter order with shared trials, seed and
    # fields, so a value the library refuses stops the first job unsampled.
    return [(k, p) for p in _parse_values(value, f"--{flag}") for k in chosen]


def _violation_text(violation: Violation) -> str:
    return _VIOLATION_TEXT[violation.kind].format(
        i=violation.index, j=violation.index + 1
    )


def _command_text(arguments: Sequence[str]) -> str:
    return " ".join(["hvectors", *arguments])


def _emit(args: argparse.Namespace, **render: Callable[[], object]) -> None:
    """Write the report in ``--format`` to ``--out`` or stdout.  ``render``
    maps each format the command offers to a function that builds it: a
    JSON payload, CSV rows or plain lines; only the chosen one runs."""
    report = render[args.format]()
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(report)
        text = buffer.getvalue()
    else:
        text = "\n".join(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args: argparse.Namespace, arguments: Sequence[str]) -> int:
    h = _parse_vector(args.vector)
    results = (
        ("O-sequence", "o_sequence", sequences.o_sequence_violation(h)),
        ("symmetric", "symmetric", sequences.symmetry_violation(h)),
        ("unimodal", "unimodal", sequences.unimodality_violation(h)),
        ("differentiable", "differentiable",
         sequences.differentiability_violation(h)),
        ("SI-sequence", "si_sequence", sequences.si_violation(h)),
    )
    _emit(args, json=lambda: {
        "command": _command_text(arguments),
        "version": VERSION,
        "vector": list(h.entries),
        "socle_degree": h.socle_degree,
        "codimension": h.codimension if len(h) > 1 else None,
        "violations": {
            key: {"kind": v.kind, "index": v.index}
            for _, key, v in results if v is not None
        },
        **{key: violation is None for _, key, violation in results},
    }, plain=lambda: [
        f"h-vector       {h}",
        f"socle degree   {h.socle_degree}",
        f"codimension    {h.codimension if len(h) > 1 else '-'}",
        *(f"{name:<15}{PASS_MARK}" if violation is None
          else f"{name:<15}{FAIL_MARK} ({_violation_text(violation)})"
          for name, _, violation in results),
    ])
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace, arguments: Sequence[str]) -> int:
    ((kind, parameter),) = _jobs(args)
    outcome = families.family(kind, parameter)
    gorenstein = outcome.gorenstein
    level: Optional[HVector] = outcome.level
    if args.a:
        gorenstein = families.lift_codimension(gorenstein, args.a)
        level = None  # the lifted vector has no level companion
    vectors = [("level", level)] if level is not None else []
    vectors.append(("gorenstein", gorenstein))
    _emit(args, json=lambda: {
        "command": _command_text(arguments),
        "version": VERSION,
        "kind": outcome.kind,
        "parameter": outcome.parameter,
        "lift": args.a,
        "level": list(level.entries) if level is not None else None,
        "gorenstein": list(gorenstein.entries),
        "codimension": gorenstein.codimension,
        "socle_degree": gorenstein.socle_degree,
        "violation_step": list(outcome.violation_step),
    }, csv=lambda: [
        [outcome.kind, outcome.parameter, name, *h.entries]
        for name, h in vectors
    ], plain=lambda: [
        f"kind           {outcome.kind}",
        f"parameter      {outcome.parameter}",
        *([f"lift           {args.a}"] if args.a else []),
        *(f"{name:<15}{h}" for name, h in vectors),
        f"codimension    {gorenstein.codimension}",
        f"socle degree   {gorenstein.socle_degree}",
        "predicted SI violation: difference step "
        f"{outcome.violation_step[0]}->{outcome.violation_step[1]}",
    ])
    return EXIT_OK


def _report_plain(report: VerificationReport) -> list[str]:
    lines = [
        f"{report.kind} parameter={report.parameter} "
        f"field={FieldSpec(report.characteristic)} seed={report.seed} "
        f"trials={report.trials} generator={report.generator}",
        f"  target  {','.join(str(v) for v in report.target)}",
    ]
    for k, (trial_seed, vec) in enumerate(
            zip(report.trial_seeds, report.per_trial)):
        lines.append(
            f"  trial {k} {','.join(str(v) for v in vec)} (seed {trial_seed})"
        )
    if report.best:
        lines.append(f"  best    {','.join(str(v) for v in report.best)}")
    lines.append(f"  verdict {report.verdict}")
    if report.detail:
        lines.append(f"  detail  {report.detail}")
    if report.degree_seconds:
        lines.append("  seconds per degree: "
                     + " ".join(f"{s:.3f}" for s in report.degree_seconds))
    return lines


def _report_csv_rows(report: VerificationReport) -> list[list]:
    rows = [[report.kind, report.parameter, "target", *report.target]]
    for k, vec in enumerate(report.per_trial):
        rows.append([report.kind, report.parameter, f"trial{k}", *vec])
    if report.best:
        rows.append([report.kind, report.parameter, "best", *report.best])
    return rows


def _cmd_verify(args: argparse.Namespace, arguments: Sequence[str]) -> int:
    jobs = _jobs(args)
    seed = _parse_seed(args.seed)
    reports = [
        report
        for kind, parameter in jobs
        for report in sweep_characteristics(kind, parameter, args.chars,
                                            seed, args.trials)
    ]
    command = _command_text(arguments)
    _emit(args, json=lambda: {
        "command": command,
        "version": VERSION,
        "reports": [r.to_json_dict(command) for r in reports],
    }, csv=lambda: [row for r in reports for row in _report_csv_rows(r)],
       plain=lambda: [line for r in reports for line in _report_plain(r)])
    if any(r.verdict == "mismatch" for r in reports):
        return EXIT_MISMATCH
    if any(r.verdict == "inconclusive" for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  The objects alive when it starts (the modules and
    the exponent caches) are frozen out of the garbage collector until it
    returns, unless a caller froze some already: a collection during the
    command then walks only what the command made, not the thousands of
    import-time objects, so it costs microseconds wherever the command's
    allocations happen to trigger it, instead of a millisecond."""
    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        parser = _build_parser(arguments[0] if arguments else None)
        args = parser.parse_args(arguments)
        return args.handler(args, arguments)
    except (UsageError, ValueError, OSError) as err:
        print(f"hvectors: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    raise SystemExit(main())
