"""Command-line surface: check, construct, twist, derive, lemmas, examples, info.

Exit codes: 0 all checks passed, 1 an identity or construction precondition
failed (the report names the suite, identity, counterexample tuple, and
residue), 2 input or usage error, 3 internal error (an unexpected exception,
reported on stderr without a traceback).

The module imports only the standard library.  Each command imports the
superbol modules it runs when it runs, so ``examples`` loads no engine and
``check`` no constructions.
"""

from __future__ import annotations

import argparse
import json
import sys

class UsageError(ValueError):
    """Bad command usage or bad input; maps to exit code 2."""


def _report_json(report: SuiteReport) -> dict:
    results = []
    for check in report.reports:
        entry = {
            "identity": check.name,
            "verdict": "pass" if check.passed else "fail",
            "tuples_checked": check.tuples_checked,
        }
        if check.detail:
            entry["detail"] = check.detail
        if not check.passed and check.counterexample is not None:
            residue = {}
            if check.residue is not None:
                space = check.residue.space
                residue = {space.names[i]: str(c) for i, c in check.residue.coords.items()}
            entry["counterexample"] = {"vars": list(check.counterexample), "residue": residue}
        results.append(entry)
    return {"suite": report.suite, "results": results}


def _emit_report(report: SuiteReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(_report_json(report), indent=2))
    else:
        print(report.describe())
    return 0 if report.passed else 1


def _load(path: str) -> AlgebraDocument:
    from .storage import load

    try:
        return load(path)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None


def _write_derived(source: AlgebraDocument, name: str, structure, path: str) -> int:
    """Save ``structure`` with the source file's maps and convention."""
    from .storage import AlgebraDocument, save

    save(AlgebraDocument(name=name, structure=structure, maps=source.maps, convention=source.convention), path)
    print(f"wrote {path}")
    return 0


def _require_kind(document: AlgebraDocument, kinds: tuple[str, ...], action: str) -> None:
    if document.kind not in kinds:
        raise UsageError(f"{action} needs a file of kind {' or '.join(kinds)}, got {document.kind}")


def cmd_check(args) -> int:
    from .suites import run_suite, suite

    document = _load(args.file)
    try:
        spec = suite(args.suite)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    try:
        report = run_suite(document.structure, spec.name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _emit_report(report, args.json)


# storage.KIND_BINARY and storage.KIND_TERNARY, spelled out so that building
# the parser loads no storage.
_KIND_BINARY, _KIND_TERNARY = "hom_superalgebra", "hom_triple"

# name -> (the file kind it reads, builder(constructions module, structure,
# convention, checked)).  Each builder looks its function up on the module
# when it runs, so a wrapper set on that name (as bench/spans.py sets one)
# sees the call.
_CONSTRUCTIONS = {
    "minus": (_KIND_BINARY, lambda C, structure, conv, checked: C.minus_algebra(structure, conv)),
    "plus": (_KIND_BINARY, lambda C, structure, conv, checked: C.plus_algebra(structure, conv)),
    "jordan_lts": (
        _KIND_BINARY,
        lambda C, structure, conv, checked: C.jordan_lts_bracket(structure, checked=checked),
    ),
    "bol": (
        _KIND_BINARY,
        lambda C, structure, conv, checked: C.bol_from_right_alternative(structure, conv, checked=checked),
    ),
    "hom_jordan_triple": (
        _KIND_BINARY,
        lambda C, structure, conv, checked: C.hom_jordan_triple(structure, checked=checked),
    ),
    "hom_bol": (
        _KIND_BINARY,
        lambda C, structure, conv, checked: C.hom_bol_from_right_hom_alternative(structure, conv, checked=checked),
    ),
    "lie_triple": (
        _KIND_TERNARY,
        lambda C, structure, conv, checked: C.lie_triple_from_jordan_triple(structure, checked=checked),
    ),
}


def cmd_construct(args) -> int:
    if args.name not in _CONSTRUCTIONS:
        raise UsageError(
            f"unknown construction {args.name!r}; available: {', '.join(sorted(_CONSTRUCTIONS))}"
        )
    from . import constructions

    kind, build = _CONSTRUCTIONS[args.name]
    document = _load(args.file)
    _require_kind(document, (kind,), f"construct {args.name}")
    built = build(constructions, document.structure, document.convention, not args.unchecked)
    return _write_derived(document, f"{args.name}({document.name})", built, args.output)


def cmd_twist(args) -> int:
    from .constructions import yau_twist_algebra, yau_twist_bol, yau_twist_triple
    from .storage import KIND_BOTH, KIND_TERNARY

    document = _load(args.file)
    if args.map not in document.maps:
        available = ", ".join(sorted(document.maps)) or "none"
        raise UsageError(f"map {args.map!r} not defined in file (available: {available})")
    beta = document.maps[args.map]
    if args.n < 1:
        raise UsageError("twisting exponent -n must be positive")
    if document.kind == KIND_BOTH:
        built = yau_twist_bol(document.structure, beta, args.n)
    elif document.kind == KIND_TERNARY:
        built = yau_twist_triple(document.structure, beta, args.n)
    else:
        built = yau_twist_algebra(document.structure, beta, args.n)
    return _write_derived(document, f"twist({document.name},{args.map},{args.n})", built, args.output)


def cmd_derive(args) -> int:
    from .constructions import nth_derived
    from .storage import KIND_BOTH

    document = _load(args.file)
    _require_kind(document, (KIND_BOTH,), "derive")
    if args.n < 0:
        raise UsageError("derivation index -n must be nonnegative")
    built = nth_derived(document.structure, args.n)
    return _write_derived(document, f"derived({document.name},{args.n})", built, args.output)


def cmd_lemmas(args) -> int:
    from .operators import verify_operator_lemmas
    from .storage import KIND_BINARY

    document = _load(args.file)
    _require_kind(document, (KIND_BINARY,), "lemmas")
    try:
        report = verify_operator_lemmas(document.structure)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return _emit_report(report, args.json)


def cmd_examples(args) -> int:
    from .catalog import example_document, example_names

    if args.list or not args.emit:
        for name in example_names():
            print(name)
        return 0
    if not args.output:
        raise UsageError("--emit requires -o OUT")
    try:
        document = example_document(args.emit)
    except (KeyError, ValueError) as exc:
        raise UsageError(exc.args[0]) from exc
    from .storage import save

    save(document, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_info(args) -> int:
    from .structures import grading_check, is_multiplicative

    document = _load(args.file)
    structure = document.structure
    space = document.space
    print(f"name: {document.name}")
    print(f"kind: {document.kind}")
    print(f"convention: {document.convention.value}")
    print(f"dimension: {space.dim} (even {space.dim_even} | odd {space.dim_odd})")
    print("basis: " + ", ".join(f"{n}[{p}]" for n, p in space.basis))
    for label, tensor in (("binary", structure.binary), ("ternary", structure.ternary)):
        if tensor is not None:
            print(f"{label} constants: {len(tensor.constants)} nonzero")
            print(f"{label} grading: {'ok' if grading_check(tensor).passed else 'VIOLATED'}")
    print(f"twist: {'identity' if structure.twist.is_identity() else 'nontrivial'}")
    print(f"multiplicative: {'yes' if is_multiplicative(structure).passed else 'no'}")
    if document.maps:
        print("maps: " + ", ".join(sorted(document.maps)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .suites import SUITE_NAMES

    parser = argparse.ArgumentParser(
        prog="superbol",
        description="Verify and construct graded binary-ternary algebra models by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run an identity suite against a file")
    p_check.add_argument("file")
    p_check.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(handler=cmd_check)

    p_construct = sub.add_parser("construct", help="build a derived structure")
    p_construct.add_argument("name", help=f"one of: {', '.join(sorted(_CONSTRUCTIONS))}")
    p_construct.add_argument("file")
    p_construct.add_argument("-o", "--output", required=True)
    p_construct.add_argument(
        "--unchecked", action="store_true", help="skip precondition suites (experimentation only)"
    )
    p_construct.set_defaults(handler=cmd_construct)

    p_twist = sub.add_parser("twist", help="twist products by a power of a named self-morphism")
    p_twist.add_argument("file")
    p_twist.add_argument("--map", required=True)
    p_twist.add_argument("-n", type=int, default=1)
    p_twist.add_argument("-o", "--output", required=True)
    p_twist.set_defaults(handler=cmd_twist)

    p_derive = sub.add_parser("derive", help="n-th derived structure (twist-power composed products)")
    p_derive.add_argument("file")
    p_derive.add_argument("-n", type=int, default=1)
    p_derive.add_argument("-o", "--output", required=True)
    p_derive.set_defaults(handler=cmd_derive)

    p_lemmas = sub.add_parser("lemmas", help="verify the operator lemmas on a Jordan-product file")
    p_lemmas.add_argument("file")
    p_lemmas.add_argument("--json", action="store_true")
    p_lemmas.set_defaults(handler=cmd_lemmas)

    p_examples = sub.add_parser("examples", help="list or emit the built-in fixtures")
    p_examples.add_argument("--list", action="store_true")
    p_examples.add_argument("--emit", metavar="NAME")
    p_examples.add_argument("-o", "--output")
    p_examples.set_defaults(handler=cmd_examples)

    p_info = sub.add_parser("info", help="summarize a file")
    p_info.add_argument("file")
    p_info.set_defaults(handler=cmd_info)

    return parser


# (module, exception class, exit code, stderr prefix) of the library errors a
# command may let through.  Only a module the command loaded can have raised one.
_LIBRARY_ERRORS = (
    ("storage", "AlgebraFileError", 2, "error"),
    ("constructions", "ConstructionError", 1, "precondition failed"),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        for module, name, code, prefix in _LIBRARY_ERRORS:
            loaded = sys.modules.get(f"{__package__}.{module}")
            if loaded is not None and isinstance(exc, getattr(loaded, name)):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
