"""Command line contract: exit codes, output shapes, corpus checking."""

import argparse
import json
from importlib import resources

import jsonschema
import pytest

import singulens.analyzer as analyzer_module
from singulens.genus import classify
from singulens.ideals import DegreeCapExceeded
from singulens.invariants import Germ, milnor_number
from singulens.sections import DescentChain
from singulens.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    _HANDLERS,
    _check_args,
    build_parser,
    bundled_corpus_text,
    check_annotations,
    load_corpus,
    main,
)


@pytest.fixture(scope="module")
def schema():
    text = resources.files("singulens").joinpath("data/report_schema.json").read_text()
    return json.loads(text)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_output(capsys):
    code, out, err = run(capsys, ["analyze", "x^3 + y^3 + z^3"])
    assert code == EXIT_OK
    assert "invariants: mu=8 tau=8 quasi-homogeneous=true" in out
    assert "class: ordinary+weighted" in out
    assert "genus: g=1 log-canonical=true" in out
    assert "length: lower bound 3; equality proven at level 0" in out
    assert "conclusion) module" not in out


def test_analyze_json_schema_for_corpus(capsys, schema):
    for poly_text, notes in load_corpus(bundled_corpus_text()):
        code, out, err = run(capsys, ["analyze", "--json", poly_text])
        assert code == EXIT_OK, notes.get("name")
        document = json.loads(out)
        jsonschema.validate(document, schema)
        assert document["input"]
        assert document["ring"]["order"] == "grevlex"


def test_counterexample_json_schema(capsys, schema):
    code, out, err = run(capsys, ["counterexample", "--json"])
    assert code == EXIT_OK
    document = json.loads(out)
    jsonschema.validate(document, schema)
    assert len(document["certificates"]) == 7
    assert all(c["verdict"] for c in document["certificates"])
    assert document["length"]["strict"] is True


def test_counterexample_text(capsys):
    code, out, err = run(capsys, ["counterexample"])
    assert code == EXIT_OK
    for name in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        assert f"certificate {name}: PASS" in out
    assert "strictly exceeds the lower bound 5" in out


def test_counterexample_tamper(capsys, monkeypatch):
    monkeypatch.setattr(analyzer_module, "COUNTEREXAMPLE_TEXT", "x^4 + y^4 + z^4")
    code, out, err = run(capsys, ["counterexample"])
    assert code == EXIT_FAIL
    assert "certificate C7: FAIL" in out
    assert "strict inequality not established" in out


def test_text_and_json_agree(capsys):
    code, text_out, _ = run(capsys, ["analyze", "x^4 + y^4 + z^4"])
    assert code == EXIT_OK
    code, json_out, _ = run(capsys, ["analyze", "--json", "x^4 + y^4 + z^4"])
    assert code == EXIT_OK
    document = json.loads(json_out)
    assert document["invariants"]["mu"] == 27
    assert "mu=27" in text_out
    assert document["length"]["lower_bound"] == 5
    assert "lower bound 5" in text_out
    assert document["conclusion"] in text_out


def test_corpus_file_mode(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(bundled_corpus_text())
    code, out, err = run(capsys, ["analyze", str(corpus)])
    assert code == EXIT_OK
    assert "10/10 corpus entries match" in out
    assert out.count("[ok]") == 10


def test_corpus_file_mode_detects_mismatch(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("x^2 + y^2 + z^2 ; name=A1, mu=2\n")
    code, out, err = run(capsys, ["analyze", str(corpus)])
    assert code == EXIT_FAIL
    assert "[MISMATCH] A1" in out
    assert "mu: expected 2, computed 1" in out
    assert "0/1 corpus entries match" in out


def test_corpus_file_mode_json(capsys, tmp_path, schema):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("x^3 + y^3 + z^3 ; name=fermat3, g=1, level=0\n")
    code, out, err = run(capsys, ["analyze", "--json", str(corpus)])
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["summary"] == "1/1 corpus entries match"
    entry = document["entries"][0]
    assert entry["name"] == "fermat3"
    assert entry["mismatches"] == []
    jsonschema.validate(entry["report"], schema)


def test_corpus_rejects_bad_annotation(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("x^2 + y^2 + z^2 ; name\n")
    code, out, err = run(capsys, ["analyze", str(corpus)])
    assert code == EXIT_FAIL
    assert "bad corpus annotation" in err


def test_unknown_annotation_key_is_mismatch(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("x^2 + y^2 + z^2 ; name=A1, shiny=yes\n")
    code, out, err = run(capsys, ["analyze", str(corpus)])
    assert code == EXIT_FAIL
    assert "unknown annotation key 'shiny'" in out


def test_invariants_command(capsys):
    code, out, err = run(capsys, ["invariants", "x^4 + y^4 + z^4 + x*y^2*z^2"])
    assert code == EXIT_OK
    assert "mu = 27" in out
    assert "tau = 25" in out
    assert "quasi-homogeneous: false" in out
    assert "obstruction: x*y^2*z^2" in out
    code, out, err = run(capsys, ["invariants", "--json", "x*y"])
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["invariants"]["mu"] == "infinite"
    assert document["invariants"]["qh"] is None


@pytest.mark.parametrize(
    "text", ["x", "x + y^2 + z^2", "1 + x^2 + y^2 + z^2", analyzer_module.COUNTEREXAMPLE_TEXT]
)
def test_invariants_block_matches_analyze(capsys, text):
    """invariants reports a qh verdict exactly where analyze does.

    Two smooth points and a germ with f(0) != 0 have no singularity, so
    both give qh null; the witness gets the same negative verdict.
    """
    code, out, err = run(capsys, ["invariants", "--json", text])
    assert code == EXIT_OK
    block = json.loads(out)["invariants"]
    code, out, err = run(capsys, ["analyze", "--json", text])
    assert code == EXIT_OK
    assert block == json.loads(out)["invariants"]
    assert (block["qh"] is None) == (text != analyzer_module.COUNTEREXAMPLE_TEXT)


def test_refusal_names_the_stage_and_the_ideal(capsys, P):
    """x*y + x^3 + x^2*y, singular along the z-axis, is decided; a guard's refusal is named.

    No flag sets a guard: the commands decide the germ (mu = tau = infinite,
    no genus), and only a guard set on a library ``Germ`` refuses, naming
    the stage and the ideal.
    """
    code, out, err = run(capsys, ["invariants", "x*y + x^3 + x^2*y"])
    assert (code, out, err) == (EXIT_OK, "mu = infinite\ntau = infinite\n", "")
    code, out, err = run(capsys, ["genus", "x*y + x^3 + x^2*y"])
    assert (code, out, err) == (EXIT_FAIL, "", "error: non-isolated singularity\n")
    f = P("x^4 + y^4 + z^4 + x^3*y*z")  # N = 7 for the Jacobian, 6 for the Tjurina ideal
    for stage, ideal, count in ((milnor_number, "Jacobian", 3), (classify, "Tjurina", 4)):
        with pytest.raises(DegreeCapExceeded) as exc:
            stage(Germ(f, degree_cap=5))
        assert str(exc.value) == (
            f"{stage.__name__} on the {ideal} ideal ({count} generators): "
            "colength at the origin not stabilized by degree 5"
        )


def test_exponent_limit_is_a_computation_failure(capsys):
    """An exponent the exact kernel cannot pack is refused with exit 1, named."""
    code, out, err = run(capsys, ["invariants", "x^40000 + y^2 + z^2"])
    assert code == EXIT_FAIL
    assert err == (
        "computation failed: milnor_number on the Jacobian ideal (3 generators): "
        "exponent 39999 reached the kernel limit 32768\n"
    )


def test_genus_command(capsys):
    code, out, err = run(capsys, ["genus", "x^4 + y^4 + z^4"])
    assert code == EXIT_OK
    assert "g = 3" in out
    assert "log canonical: false" in out
    assert "i0  = (x, y, z)" in out
    code, out, err = run(capsys, ["genus", "--json", "x^2 + y^3 + z^5"])
    document = json.loads(out)
    assert document["genus"]["g"] == 0
    assert document["genus"]["log_canonical"] is True


def test_genus_command_no_route(capsys):
    code, out, err = run(capsys, ["genus", "x^2*y + y^3 + z^4 + x^4"])
    assert code == EXIT_FAIL
    assert "no genus route applies" in err


def test_genus_command_smooth_input(capsys):
    code, out, err = run(capsys, ["genus", "x + y^2"])
    assert code == EXIT_FAIL
    assert "smooth point" in err


def test_gb_command(capsys):
    code, out, err = run(
        capsys, ["gb", "--order", "lex", "x^2 + y^2 - 1, x*y - 1"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["y^4 - y^2 + 1", "y^3 + x - y"]
    code, out, err = run(
        capsys, ["gb", "--json", "--order", "lex", "x^2 + y^2 - 1, x*y - 1"]
    )
    document = json.loads(out)
    assert document["basis"] == ["y^4 - y^2 + 1", "y^3 + x - y"]
    assert document["order"] == "lex"


def test_membership_command(capsys):
    code, out, err = run(
        capsys, ["membership", "--ideal", "x + x^2", "x"]
    )
    assert code == EXIT_OK
    assert "member: false" in out
    assert "local member at origin: true" in out
    code, out, err = run(
        capsys, ["membership", "--json", "--ideal", "x^3, y^3, z^3", "x^4"]
    )
    document = json.loads(out)
    assert document["member"] is True and document["local_member"] is True


def test_jk_command(capsys):
    code, out, err = run(
        capsys, ["jk", "--k", "1", "x^4 + y^4 + z^4 + x*y^2*z^2"]
    )
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 12
    code, out, err = run(
        capsys,
        ["jk", "--json", "--k", "0", "--ideal", "x, y, z", "x^4 + y^4 + z^4"],
    )
    document = json.loads(out)
    assert document["generators"] == ["x", "y", "z"]
    assert document["k"] == 0


def test_jk_rejects_negative_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jk", "--k", "-1", "x^4 + y^4 + z^4"])
    assert exc.value.code == EXIT_USAGE
    assert "--k must be nonnegative" in capsys.readouterr().err


def test_descent_command(capsys):
    code, out, err = run(capsys, ["descent", "x^4 + y^4 + z^4"])
    assert code == EXIT_OK
    assert "weights: (1/4, 1/4, 1/4)" in out
    assert "steps: 1" in out
    assert "1/f^1 = -1*d_x(x/f^1) + -1*d_y(y/f^1) + -1*d_z(z/f^1)" in out
    assert "verified: true" in out


def test_descent_command_json(capsys):
    code, out, err = run(capsys, ["descent", "--json", "--k", "1", "x^3 + y^3 + z^3"])
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["verified"] is True
    assert document["level"] == 1
    assert all(step["verified"] for step in document["steps"])


def test_descent_command_replays_the_chain_once(capsys, monkeypatch):
    """generation_descent replays the chain before it returns; the command does not repeat it."""
    calls = []
    original = DescentChain.replay

    def counted(chain):
        calls.append(len(chain))
        return original(chain)

    monkeypatch.setattr(DescentChain, "replay", counted)
    code, out, err = run(capsys, ["descent", "--k", "1", "x^4 + y^4 + z^4"])
    assert code == EXIT_OK
    assert "verified: true" in out
    assert calls == [35]


def test_descent_rejects_negative_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["descent", "--k", "-1", "x^4 + y^4 + z^4"])
    assert exc.value.code == EXIT_USAGE
    assert "--k must be nonnegative" in capsys.readouterr().err


def test_descent_without_weights(capsys):
    code, out, err = run(capsys, ["descent", "x^4 + y^4 + z^4 + x*y^2*z^2"])
    assert code == EXIT_FAIL
    assert "no weight system found" in err


def test_custom_variables(capsys):
    code, out, err = run(capsys, ["invariants", "--vars", "a,b,c", "a^2 + b^2 + c^2"])
    assert code == EXIT_OK
    assert "mu = 1" in out


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, ["analyze", "x^"])
    assert code == EXIT_USAGE
    assert "syntax error:" in err
    assert err.count("position") == 1
    code, out, err = run(capsys, ["gb", " , "])
    assert code == EXIT_USAGE
    assert "syntax error:" in err and "empty generator list" in err
    for text, position in [("x $ y", 2), ("x^1000000", 2), ("1/0*x", 2), ("(x + y", 6)]:
        code, out, err = run(capsys, ["invariants", text])
        assert code == EXIT_USAGE, text
        assert err.startswith(f"syntax error: parse error at position {position}: "), text


def test_unknown_variable_exit_code(capsys):
    code, out, err = run(capsys, ["analyze", "x + w"])
    assert code == EXIT_USAGE


def test_usage_errors_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--max-level", "0", "x^2 + y^2 + z^2"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--degree-cap", "5", "x^2 + y^2 + z^2"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--vars", "x,x,y", "x^2"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--vars", "", "x^2"])
    assert exc.value.code == EXIT_USAGE
    for command in ("analyze", "invariants", "genus"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--order", "lex", "x^2 + y^2 + z^2"])
        assert exc.value.code == EXIT_USAGE
    for argv in (
        ["gb", "--seed", "1", "x, y"],
        ["analyze", "--seed", "1", "x^2 + y^2 + z^2"],
        ["invariants", "--max-level", "2", "x^2 + y^2 + z^2"],
        ["counterexample", "--max-level", "2"],
        ["jk", "--degree-cap", "20", "x^2 + y^2 + z^2"],
        ["counterexample", "--degree-cap", "20"],
        ["counterexample", "--vars", "a,b,c"],
        ["analyze", "--vars", "x,1y", "x^2"],
        *([command, "--degree-cap", "12", "x^2 + y^2 + z^2"] for command in
          ("analyze", "invariants", "genus")),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv


# The options each handler reads; a flag outside this table would be
# accepted and ignored.
HANDLER_OPTIONS = {
    "analyze": {"--vars", "--max-level", "--json"},
    "counterexample": {"--json", "--seed"},
    "invariants": {"--vars", "--json"},
    "genus": {"--vars", "--json"},
    "gb": {"--order", "--vars", "--json"},
    "membership": {"--ideal", "--vars", "--json"},
    "jk": {"--k", "--ideal", "--vars", "--json"},
    "descent": {"--k", "--vars", "--json"},
}

CHEAP_INPUTS = {
    "analyze": ["x^2 + y^2 + z^2"],
    "counterexample": [],
    "invariants": ["x^2 + y^2 + z^2"],
    "genus": ["x^3 + y^3 + z^3"],
    "gb": ["x, y"],
    "membership": ["--ideal", "x", "x"],
    "jk": ["x^2 + y^2 + z^2"],
    "descent": ["x^2 + y^2 + z^2"],
}


def test_every_option_is_read_by_its_handler(capsys):
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(commands) == set(HANDLER_OPTIONS) == set(_HANDLERS)
    for name, sub in commands.items():
        options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == HANDLER_OPTIONS[name], name
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, attr):
                read.add(attr)
                return super().__getattribute__(attr)

        args = parser.parse_args([name, *CHEAP_INPUTS[name]], namespace=Recording())
        _check_args(args, parser)
        read.clear()
        assert _HANDLERS[name](args) == EXIT_OK, name
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert dests <= read, (name, dests - read)
    capsys.readouterr()


def test_positional_help_says_what_each_command_reads(capsys):
    """Only analyze reads a corpus file, gb reads generators, invariants and genus a polynomial."""
    for command, metavar, text in (
        ("analyze", "POLY_OR_FILE", "polynomial expression, or path to a corpus file"),
        ("invariants", "POLY", "polynomial expression"),
        ("genus", "POLY", "polynomial expression"),
        ("gb", "GENERATORS", "comma-separated generators"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        words = capsys.readouterr().out.split()
        out = " ".join(words)
        assert words[words.index("[--json]") + 1] == metavar, command
        assert f" {metavar} {text}" in out, command
        assert "corpus" not in out or command == "analyze", command


def test_check_annotations_level_mapping(capsys):
    from singulens.analyzer import analyze
    from singulens.polyring import RingContext, parse

    ring = RingContext(("x", "y", "z"))
    report = analyze(parse("x^4 + y^4 + z^4", ring), max_level=3)
    assert check_annotations(report, {"level": "1"}) == []
    assert check_annotations(report, {"level": "0"}) == [
        "level: expected 0, computed 1"
    ]
    mismatches = check_annotations(report, {"g": "7"})
    assert mismatches == ["g: expected 7, computed 3"]
    # a descent verdict reads "descent"; a germ without a genus route reads "none"
    descent = analyze(parse("x^7 + y^7 + z^7", ring))
    stated = {"mu": "216", "g": "15", "bound": "17", "level": "descent"}
    assert check_annotations(descent, stated) == []
    assert check_annotations(descent, {"level": "3"}) == ["level: expected 3, computed descent"]
    unclassified = analyze(parse("x^3 + y^4 + z^5 + x*y^2*z^2", ring))
    nulls = ("g", "lc", "bound", "level", "refuted1")
    stated = {"mu": "24", "class": "unclassified", **{key: "none" for key in nulls}}
    assert check_annotations(unclassified, stated) == []
    assert check_annotations(unclassified, {key: "0" for key in nulls}) == [
        f"{key}: expected 0, computed none" for key in nulls
    ]

