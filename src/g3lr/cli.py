"""Command line front end.

Exit codes: 0 success with all checks clean, 2 axiom violations found,
3 input or output error (a file that does not parse or cannot be read,
an output path that cannot be written, an output stream whose reader
has closed it), 4 internal invariant failure (always a bug).
"""

import argparse
import os
import sys
from functools import cache

from .axioms import run_all
from .catalog import BUILTIN_NAMES, builtin
from .connections import compute_supports, lambda_classes, sigma_classes
from .decompose import check_gr_simple_A, check_gr_simple_L, decompose
from .instio import (ParseError, canonical_json, instance_digest,
                     instance_to_dict, load_instance, REPORT_SCHEMA)

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


def _load(path, out):
    """The instance at path, its axiom report and the exit code of the
    axiom gate: EXIT_VIOLATIONS, after a summary, or EXIT_OK."""
    alg = load_instance(path)
    report = run_all(alg)
    if not report.passed:
        print("axiom violations in %s:" % path, file=out)
        capped = report.capped()
        for axiom, count in sorted(report.counts.items()):
            if count:
                print("  %-24s %d violation(s)" % (axiom, count), file=out)
                for v in capped[axiom][:3]:
                    print("    witness %r" % (v.witness,), file=out)
        return alg, report, EXIT_VIOLATIONS
    return alg, report, EXIT_OK


def _cmd_validate(alg, report, args, out):
    print("ok: %d axiom group(s) checked, no violations"
          % len(report.counts), file=out)
    for note in report.notes:
        print("note: %s" % note, file=out)
    return EXIT_OK


def _cmd_classes(alg, report, args, out):
    sup = compute_supports(alg)
    print(canonical_json({"supports": sup, "sigma_classes": sigma_classes(sup),
                          "lambda_classes": lambda_classes(sup)}), file=out)
    return EXIT_OK


def _cmd_decompose(alg, report, args, out):
    rep = decompose(alg)
    if args.json:
        print(canonical_json(rep), file=out)
        return EXIT_OK
    print("sigma classes: %d, lambda classes: %d"
          % (len(rep.sigma_classes), len(rep.lambda_classes)), file=out)
    for I in rep.L_ideals:
        print("L-ideal [%r]: dim %d, graded ideal: %s, gr-simple: %s"
              % (I.source_class.representative.coords, I.subspace.dim,
                 I.is_graded_ideal, I.is_gr_simple if rep.fine_attempted
                 else "not attempted"), file=out)
    for J in rep.A_ideals:
        print("A-ideal [%r]: dim %d, graded ideal: %s"
              % (J.source_class.representative.coords, J.subspace.dim,
                 J.is_graded_ideal), file=out)
    print("complement dims: U=%d V=%d; L covers: %s direct: %s; "
          "A covers: %s direct: %s"
          % (rep.U_complement.dim, rep.V_complement.dim, rep.L_covers,
             rep.L_direct, rep.A_covers, rep.A_direct), file=out)
    print("tight: %s, maximal length: %s, symmetric supports: %s, "
          "multiplicative supports: %s"
          % (rep.tightness.tight, rep.maximal_length, rep.supports_symmetric,
             rep.g_multiplicative), file=out)
    failing = [name for name, ok in vars(rep.tightness).items() if not ok]
    if failing:
        print("tightness clauses failing: %s" % ", ".join(failing), file=out)
    print("fine decomposition attempted: %s (%d L and %d A component(s))"
          % (rep.fine_attempted, len(rep.fine_components),
             len(rep.fine_components_A)), file=out)
    for note in rep.notes:
        print("note: %s" % note, file=out)
    return EXIT_OK


def _cmd_simple(alg, report, args, out):
    vL, vA = check_gr_simple_L(alg), check_gr_simple_A(alg)
    for side, v in (("L", vL), ("A", vA)):
        line = "%s graded-simple: %s" % (side, v.verdict)
        if v.verdict == "undetermined":
            # the whole space's fibers are the basis fibers; name the wide ones
            fibers = alg.basis(side).fibers
            line += " (fibers over one dimension at %s)" % ", ".join(
                str(list(g.coords)) for g in sorted(fibers)
                if len(fibers[g]) > 1 and not g.is_identity())
        print(line, file=out)
    print(canonical_json({"L": vL, "A": vA}), file=out)
    return EXIT_OK


def _build_report_doc(alg, report):
    doc = {"schema": REPORT_SCHEMA, "instance_digest": instance_digest(alg),
           "axioms": report}
    if report.passed:
        doc["decomposition"] = decompose(alg)
        doc["interpretation_notes"] = [
            "the annihilator of A inside L is {x : Ax = 0}; the dual "
            "notion {a : aL = 0} is reported separately",
            "the kernel of the representation is one-sided: "
            "{x : rho(x, L) = 0}",
            "multiplicative-support bracket clause ranges over pairwise "
            "distinct degree triples",
            "connection chains additionally keep even partial products "
            "inside the supports, which blocks degenerate "
            "identity-cancelling chains",
        ]
    return doc


def _write(text, path, out):
    """Write text to the file at path, or to out when no path is given.
    Returns EXIT_OK, or EXIT_PARSE with a message naming the path when
    the file cannot be written."""
    if not path:
        out.write(text)
        return EXIT_OK
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        print("cannot write %s: %s" % (path, e.strerror), file=sys.stderr)
        return EXIT_PARSE
    print("wrote %s" % path, file=out)
    return EXIT_OK


def _cmd_report(alg, report, args, out):
    doc = _build_report_doc(alg, report)
    return _write(canonical_json(doc) + "\n", args.out, out)


def _cmd_builtin(args, out):
    alg = builtin(args.name)
    return _write(canonical_json(instance_to_dict(alg)) + "\n", args.emit,
                  out)


# name, help, handler, and (name or flag, options) per argument; a file
# command gets (alg, report, args, out) from the axiom gate in `main`.
_FILE = ("file", {})
_SUBCOMMANDS = (
    ("validate", "run the axiom suite", _cmd_validate, [_FILE]),
    ("classes", "supports and connection classes", _cmd_classes, [_FILE]),
    ("decompose", "ideal decomposition report", _cmd_decompose,
     [_FILE, ("--json", {"action": "store_true"})]),
    ("simple", "graded simplicity verdicts", _cmd_simple, [_FILE]),
    ("report", "full JSON report", _cmd_report, [_FILE, ("--out", {})]),
    ("builtin", "emit a catalog instance", _cmd_builtin,
     [("name", {"choices": list(BUILTIN_NAMES)}), ("--emit", {})]),
)


@cache
def build_parser():
    """The argument parser, built once per process: it holds no state
    between calls, since `parse_args` returns a new namespace.  The
    cache serves the in-process benchmark and the tests, which run `main`
    once per operation: a build costs about 0.6 ms, against about 2 ms
    for a warm report."""
    p = argparse.ArgumentParser(
        prog="g3lr",
        description="analyze graded 3-Lie-Rinehart algebra instances")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_, fn, arguments in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_)
        for arg, options in arguments:
            sp.add_argument(arg, **options)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if "file" not in args:
            code = args.fn(args, out)
        else:
            alg, report, code = _load(args.file, out)
            if code == EXIT_OK or args.fn is _cmd_report:
                # a failed write outranks the verdict of the axiom suite
                code = args.fn(alg, report, args, out) or code
        out.flush()
        return code
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # the reader closed the output early (`g3lr report F | head`):
        # an output error, not a bug.  What standard output still holds
        # goes to the null device, so the flush at interpreter exit
        # raises nothing.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_PARSE
    except Exception as e:                      # noqa: BLE001
        print("internal error: %r" % (e,), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
