"""Command line surface: parse inputs, dispatch computations, render reports.

Each subcommand accepts exactly the flags its handler reads: ``--json``
everywhere, ``--vars`` wherever there is an input polynomial,
``--max-level`` on analyze, ``--seed`` on counterexample, ``--ideal`` on
membership and jk, ``--k`` on jk and descent, and ``--order`` on gb only;
every other computation runs in grevlex.  No flag bounds a
computation: every Milnor and Tjurina number is exact, infinite when the
origin is not an isolated singular point.  A positional input is a
polynomial expression; gb reads comma-separated generators, and analyze
also takes a path to a corpus file with one polynomial per line,
annotated with expected verdicts:

    <polynomial> ; key=value,key=value,...     ('#' starts a comment)

Exit codes are a stable contract: 0 for success, 1 for a failed
certificate, failed expectation, or computation that cannot run on the
given input, 2 for usage and syntax errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .analyzer import (
    AnalysisReport,
    analyze,
    counterexample_suite,
    qh_verdict,
)
from .genus import classify, compute_genus
from .ideals import INFINITE, ExponentOverflow, Ideal, InfiniteColengthError, maximal_ideal
from .invariants import Germ, find_weights, milnor_number, tjurina_number
from .polyring import GREVLEX, MonomialOrder, ParseError, Polynomial, RingContext, parse
from .sections import generation_descent, jk_ideal

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singulens",
        description=(
            "Invariants of hypersurface singularities: Milnor and Tjurina "
            "numbers, quasi-homogeneity, reduced genus, and certified "
            "length bounds for the localization module."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        sp: argparse.ArgumentParser,
        needs_input: bool = True,
        reads: tuple[str, str] = ("POLY", "polynomial expression"),
        max_level: bool = False,
        seed: bool = False,
    ) -> None:
        # Each command gets only the flags its handler reads; --vars names
        # the ring of the input, so it comes with the input.
        if needs_input:
            sp.add_argument(
                "--vars",
                default="x,y,z",
                help="comma-separated variable names (default x,y,z)",
            )
        if max_level:
            sp.add_argument(
                "--max-level",
                type=int,
                default=3,
                help="deepest equality level to test (default 3, minimum 1)",
            )
        sp.add_argument("--json", action="store_true", help="emit a JSON document")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="shuffle seed")
        if needs_input:
            sp.add_argument("input", metavar=reads[0], help=reads[1])

    add_common(
        sub.add_parser("analyze", help="full analysis report"),
        reads=("POLY_OR_FILE", "polynomial expression, or path to a corpus file"),
        max_level=True,
    )
    add_common(
        sub.add_parser(
            "counterexample",
            help="run the bundled strict-inequality witness suite",
        ),
        needs_input=False,
        seed=True,
    )
    add_common(sub.add_parser("invariants", help="Milnor, Tjurina, quasi-homogeneity"))
    add_common(sub.add_parser("genus", help="classification and reduced genus"))
    gb = sub.add_parser("gb", help="reduced Groebner basis of comma-separated generators")
    gb.add_argument(
        "--order",
        choices=("grevlex", "lex", "grlex"),
        default="grevlex",
        help="monomial order (default grevlex)",
    )
    add_common(gb, reads=("GENERATORS", "comma-separated generators"))
    membership = sub.add_parser(
        "membership", help="ideal membership, global and local at the origin"
    )
    membership.add_argument(
        "--ideal", required=True, help="comma-separated ideal generators"
    )
    add_common(membership)
    jk = sub.add_parser("jk", help="order-k numerator ideal generators")
    jk.add_argument("--k", type=int, default=1, help="derivative order bound (default 1)")
    jk.add_argument(
        "--ideal",
        default=None,
        help="comma-separated ideal generators (default: all variables)",
    )
    add_common(jk)
    descent = sub.add_parser(
        "descent", help="certified weighted homogeneous rewriting chain"
    )
    descent.add_argument("--k", type=int, default=0, help="level (default 0)")
    add_common(descent)
    return parser


def _check_args(args, parser: argparse.ArgumentParser) -> None:
    """Validate the flags the chosen subcommand has, normalizing in place.

    ``--vars`` becomes a tuple of distinct identifiers.
    """
    if "vars" in args:
        names = tuple(v.strip() for v in args.vars.split(","))
        if not names or any(not v for v in names):
            parser.error("--vars needs a nonempty comma-separated list of names")
        if len(set(names)) != len(names):
            parser.error("--vars names must be distinct")
        for v in names:
            if not v.isidentifier():
                parser.error(f"--vars name {v!r} is not an identifier")
        args.vars = names
    if "max_level" in args and args.max_level < 1:
        parser.error("--max-level must be at least 1")
    if "k" in args and args.k < 0:
        parser.error("--k must be nonnegative")


def _parse_generators(text: str, ring: RingContext) -> list[Polynomial]:
    parts = [p.strip() for p in text.split(",")]
    if not any(parts):
        raise ParseError("empty generator list", 0)
    return [parse(p, ring) for p in parts if p]


def _emit(document: dict, json_output: bool, text: str) -> None:
    if json_output:
        print(json.dumps(document, indent=2, sort_keys=False))
    else:
        print(text)


# ---------------------------------------------------------------------------
# corpus handling


def load_corpus(text: str) -> list[tuple[str, dict[str, str]]]:
    """Parse corpus lines into (polynomial text, annotation map) pairs."""
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        poly_text, _, annotation_text = line.partition(";")
        annotations: dict[str, str] = {}
        for item in annotation_text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad corpus annotation {item!r}")
            annotations[key.strip()] = value.strip()
        entries.append((poly_text.strip(), annotations))
    return entries


def bundled_corpus_text() -> str:
    from importlib import resources

    return (
        resources.files("singulens").joinpath("data/corpus.txt").read_text()
    )


_KNOWN_ANNOTATIONS = {
    "name", "mu", "tau", "qh", "class", "g", "lc", "bound", "level", "refuted1",
}


def _number_str(v) -> str:
    if v is None:
        return "none"
    return "infinite" if v == INFINITE else str(int(v))


def _bool_str(v) -> str:
    if v is None:
        return "none"
    return "true" if v else "false"


def check_annotations(report: AnalysisReport, annotations: dict[str, str]) -> list[str]:
    """Compare a report against corpus expectations; return mismatch texts."""
    mismatches: list[str] = []

    def expect(key: str, actual: str) -> None:
        stated = annotations.get(key)
        if stated is not None and stated != actual:
            mismatches.append(f"{key}: expected {stated}, computed {actual}")

    for key in annotations:
        if key not in _KNOWN_ANNOTATIONS:
            mismatches.append(f"unknown annotation key {key!r}")
    expect("mu", _number_str(report.mu))
    expect("tau", _number_str(report.tau))
    expect("qh", _bool_str(None if report.qh is None else report.qh.quasi_homogeneous))
    cls = report.singularity_class
    expect("class", "none" if cls is None else cls.tag)
    expect("g", "none" if report.genus is None else str(report.genus.g))
    expect("lc", _bool_str(None if report.genus is None else report.genus.log_canonical))
    expect("bound", "none" if report.bound is None else str(report.bound))
    if report.equality is None:
        level = "none"
    elif report.equality.status == "proven_at_level":
        level = str(report.equality.level)
    elif report.equality.status == "proven_by_descent":
        level = "descent"
    else:
        level = "unknown"
    expect("level", level)
    expect(
        "refuted1",
        _bool_str(None if report.equality is None else report.equality.refuted_at_level_one),
    )
    return mismatches


# ---------------------------------------------------------------------------
# rendering


def _render_report(report: AnalysisReport) -> str:
    lines = [f"input: {report.input_text}"]
    lines.append(
        "ring: Q[" + ",".join(report.variables) + "] (grevlex)"
    )
    lines.append(
        "screen: isolated="
        + _bool_str(report.screen.isolated)
        + " jacobian-m-primary="
        + _bool_str(report.screen.jacobian_m_primary)
    )
    qh = report.qh
    lines.append(
        f"invariants: mu={_number_str(report.mu)} tau={_number_str(report.tau)}"
        + (
            ""
            if qh is None
            else f" quasi-homogeneous={_bool_str(qh.quasi_homogeneous)}"
        )
    )
    if qh is not None and qh.witness is not None:
        lines.append(f"  weights: {qh.witness}")
    if qh is not None and qh.obstruction is not None:
        lines.append(f"  obstruction: {qh.obstruction}")
    cls = report.singularity_class
    if cls is not None:
        extra = ""
        if cls.is_ordinary:
            extra = f" (multiplicity {cls.ordinary_multiplicity})"
        lines.append(f"class: {cls.tag}{extra}")
        if cls.weights is not None:
            lines.append(f"  weights: {cls.weights}")
    if report.genus is not None:
        genus = report.genus
        lines.append(
            f"genus: g={genus.g} log-canonical={_bool_str(genus.log_canonical)}"
            f" [{genus.provenance}]"
        )
        lines.append(
            "  i0  = (" + ", ".join(str(p) for p in genus.multiplier.generators) + ")"
        )
        lines.append(
            "  adj = (" + ", ".join(str(p) for p in genus.adjoint.generators) + ")"
        )
    if report.bound is not None:
        lines.append(f"length: lower bound {report.bound}; {report.equality.label()}")
    for cert in report.certificates:
        mark = "PASS" if cert.verdict else "FAIL"
        lines.append(f"certificate {cert.name}: {mark}  {cert.statement}")
    lines.append(f"conclusion: {report.conclusion}")
    if report.citations:
        lines.append("citations: " + "; ".join(report.citations))
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    ring = RingContext(args.vars)
    if os.path.isfile(args.input):
        with open(args.input, encoding="utf-8") as handle:
            entries = load_corpus(handle.read())
        documents = []
        blocks = []
        failures = 0
        for poly_text, annotations in entries:
            f = parse(poly_text, ring)
            report = analyze(f, args.max_level)
            mismatches = check_annotations(report, annotations)
            failures += bool(mismatches)
            name = annotations.get("name", poly_text)
            documents.append(
                {
                    "name": name,
                    "report": report.to_dict(),
                    "expected": annotations,
                    "mismatches": mismatches,
                }
            )
            status = "ok" if not mismatches else "MISMATCH"
            block = [f"[{status}] {name}: {poly_text}"]
            block.extend(f"    {m}" for m in mismatches)
            blocks.append("\n".join(block))
        summary = f"{len(entries) - failures}/{len(entries)} corpus entries match"
        _emit(
            {"entries": documents, "summary": summary},
            args.json,
            "\n".join(blocks + [summary]),
        )
        return EXIT_FAIL if failures else EXIT_OK
    f = parse(args.input, ring)
    report = analyze(f, args.max_level)
    _emit(report.to_dict(), args.json, _render_report(report))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    report = counterexample_suite(seed=args.seed)
    _emit(report.to_dict(), args.json, _render_report(report))
    return EXIT_OK if report.all_certificates_pass() else EXIT_FAIL


def cmd_invariants(args) -> int:
    ring = RingContext(args.vars)
    germ = Germ(parse(args.input, ring))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mu = milnor_number(germ)
        tau = tjurina_number(germ)
        qh = qh_verdict(germ, mu)
    document = {
        "input": str(germ.f),
        "ring": {"variables": list(args.vars), "order": GREVLEX.name},
        "invariants": {
            "mu": "infinite" if mu == INFINITE else int(mu),
            "tau": "infinite" if tau == INFINITE else int(tau),
            "qh": None if qh is None else qh.to_dict(),
        },
    }
    lines = [f"mu = {_number_str(mu)}", f"tau = {_number_str(tau)}"]
    if qh is not None:
        lines.append(f"quasi-homogeneous: {_bool_str(qh.quasi_homogeneous)}")
        if qh.witness is not None:
            lines.append(f"weights: {qh.witness}")
        if qh.obstruction is not None:
            lines.append(f"obstruction: {qh.obstruction}")
    _emit(document, args.json, "\n".join(lines))
    return EXIT_OK


def cmd_genus(args) -> int:
    ring = RingContext(args.vars)
    germ = Germ(parse(args.input, ring))
    cls = classify(germ)
    result = compute_genus(germ)
    if result is None:
        print(
            "no genus route applies: germ is neither ordinary nor recognizably "
            "weighted homogeneous",
            file=sys.stderr,
        )
        return EXIT_FAIL
    document = {
        "input": str(germ.f),
        "ring": {"variables": list(args.vars), "order": GREVLEX.name},
        "class": cls.to_dict(),
        "genus": result.to_dict(),
    }
    lines = [
        f"class: {cls.tag}",
        f"g = {result.g}",
        f"log canonical: {_bool_str(result.log_canonical)}",
        "i0  = (" + ", ".join(str(p) for p in result.multiplier.generators) + ")",
        "adj = (" + ", ".join(str(p) for p in result.adjoint.generators) + ")",
    ]
    _emit(document, args.json, "\n".join(lines))
    return EXIT_OK


def cmd_gb(args) -> int:
    ring = RingContext(args.vars)
    generators = _parse_generators(args.input, ring)
    ideal = Ideal(ring, generators)
    order = MonomialOrder.by_name(args.order)
    basis = ideal.groebner_basis(order)
    document = {
        "generators": [str(p) for p in generators],
        "order": order.name,
        "basis": [str(p) for p in basis],
    }
    _emit(document, args.json, "\n".join(str(p) for p in basis))
    return EXIT_OK


def cmd_membership(args) -> int:
    ring = RingContext(args.vars)
    target = parse(args.input, ring)
    ideal = Ideal(ring, _parse_generators(args.ideal, ring))
    member = ideal.member(target)
    local = member or ideal.local_member(target)
    document = {
        "target": str(target),
        "ideal": [str(p) for p in ideal.generators],
        "member": member,
        "local_member": local,
    }
    text = f"member: {_bool_str(member)}\nlocal member at origin: {_bool_str(local)}"
    _emit(document, args.json, text)
    return EXIT_OK


def cmd_jk(args) -> int:
    ring = RingContext(args.vars)
    f = parse(args.input, ring)
    if args.ideal is None:
        ideal = maximal_ideal(ring)
    else:
        ideal = Ideal(ring, _parse_generators(args.ideal, ring))
    result = jk_ideal(f, ideal, args.k)
    document = {
        "input": str(f),
        "k": args.k,
        "ideal": [str(p) for p in ideal.generators],
        "generators": [str(p) for p in result.generators],
    }
    _emit(document, args.json, "\n".join(str(p) for p in result.generators))
    return EXIT_OK


def cmd_descent(args) -> int:
    ring = RingContext(args.vars)
    f = parse(args.input, ring)
    weights = find_weights(f)
    if weights is None:
        print(
            "no weight system found: polynomial is not weighted homogeneous "
            "in these coordinates",
            file=sys.stderr,
        )
        return EXIT_FAIL
    # generation_descent replays the whole chain before it returns it
    chain = generation_descent(f, weights, args.k)
    document = dict(chain.to_dict(), verified=True)
    lines = [f"weights: {weights}", f"level: {args.k}", f"steps: {len(chain)}"]
    for step in chain.steps:
        pole = f"/f^{step.level + 1}"
        terms = [
            f"{step.scale * w}*d_{name}({Polynomial.monomial(ring, v)}{pole})"
            for name, w, v in zip(ring.names, step.weights, step.inputs())
        ]
        lines.append(f"  {Polynomial.monomial(ring, step.u)}{pole} = " + " + ".join(terms))
    lines.append("verified: true")
    _emit(document, args.json, "\n".join(lines))
    return EXIT_OK


_HANDLERS = {
    "analyze": cmd_analyze,
    "counterexample": cmd_counterexample,
    "invariants": cmd_invariants,
    "genus": cmd_genus,
    "gb": cmd_gb,
    "membership": cmd_membership,
    "jk": cmd_jk,
    "descent": cmd_descent,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(args, parser)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ParseError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ExponentOverflow, InfiniteColengthError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
