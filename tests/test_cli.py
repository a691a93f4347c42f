import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sfclosure.cli import main
from sfclosure.config import DEFAULT, parse_config
from sfclosure.errors import InputError


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert status == 0, err
    return json.loads(out)


class TestGoldenOutputs:
    def test_kernel_of_a_permutation_group(self, capsys, s3_file):
        status, out, _ = run(capsys, "kernel", "--class", "gr", "--morphism", s3_file)
        assert status == 0
        assert out == '{"kernel": [0]}\n'

    def test_kernel_from_a_regex(self, capsys):
        status, out, _ = run(
            capsys, "kernel", "--class", "mod", "--lang", "(aa)*", "--alphabet", "a"
        )
        assert status == 0
        assert out == '{"kernel": [0]}\n'

    def test_alternating_kernel(self, capsys, s3_file):
        doc = run_json(capsys, "kernel", "--class", "amt", "--morphism", s3_file)
        assert doc == {"kernel": [0, 2, 5]}

    def test_membership_verdict_document(self, capsys):
        doc = run_json(
            capsys, "membership", "--class", "mod", "--lang", "(aa)*", "--alphabet", "a"
        )
        assert doc["answer"] is True
        assert doc["witness"] is None
        assert doc["monoid_size"] == 2
        assert doc["kernel"] == [0]

    def test_membership_rejection_carries_witness(self, capsys):
        doc = run_json(
            capsys, "membership", "--class", "st", "--lang", "(aa)*", "--alphabet", "a"
        )
        assert doc["answer"] is False
        assert doc["witness"] is not None

    def test_separate_document(self, capsys):
        base = ("separate", "(aa)*", "a(aa)*", "--alphabet", "a")
        st_doc = run_json(capsys, base[0], "--class", "st", *base[1:])
        mod_doc = run_json(capsys, base[0], "--class", "mod", *base[1:])
        assert st_doc["answer"] is False and mod_doc["answer"] is True
        assert st_doc["opt_size"] >= 1 and st_doc["rounds"] >= 1
        assert "trace" not in st_doc

    def test_cover_document(self, capsys):
        doc = run_json(
            capsys, "cover", "--class", "st", "(aa)*", "a(aa)*", "aa(aa)*",
            "--alphabet", "a",
        )
        assert doc["answer"] is False

    def test_regex_compiles_to_dfa_json(self, capsys):
        doc = run_json(capsys, "regex", "(ab)*", "--alphabet", "ab")
        assert doc["states"] == 3
        assert doc["alphabet"] == ["a", "b"]
        assert doc["initial"] in doc["finals"]

    def test_monoid_document(self, capsys):
        doc = run_json(capsys, "monoid", "--lang", "(aa)*", "--alphabet", "a")
        assert len(doc["mul"]) == 2
        assert doc["accepting"] == [0]

    @pytest.mark.parametrize("pattern, accepting", [("~%", "[0]"), ("%", "[]")])
    def test_one_state_monoid_document(self, capsys, pattern, accepting):
        status, out, err = run(capsys, "monoid", "--lang", pattern, "--alphabet", "ab")
        assert (status, err) == (0, "")
        assert out == (
            f'{{"accepting": {accepting}, "identity": 0, "letters": {{"a": 0, "b": 0}}, '
            '"mul": [[0]], "size": 1}\n'
        )

    def test_orbits_document(self, capsys):
        doc = run_json(
            capsys, "orbits", "--class", "st", "--lang", "(ab)*", "--alphabet", "ab"
        )
        assert set(doc) == {"orbits"}
        for members in doc["orbits"].values():
            assert members == sorted(members)

    def test_sd_delay(self, capsys):
        status, out, _ = run(capsys, "sd", "delay", "(aab)*ab", "--alphabet", "ab")
        assert status == 0
        assert out == '{"delay": 2}\n'
        doc = run_json(capsys, "sd", "delay", "aa", "--alphabet", "a", "--dmax", "4")
        assert doc == {"delay": None}

    def test_sd_validate(self, capsys, tmp_path):
        good = tmp_path / "pairs.sd"
        good.write_text("star(uconcat(a, b), d=1)", encoding="utf-8")
        doc = run_json(capsys, "sd", "validate", str(good), "--alphabet", "ab")
        assert doc["valid"] is True and doc["violations"] == []
        assert doc["dfa"]["states"] == 3

        bad = tmp_path / "square.sd"
        bad.write_text("star(uconcat(a, a), d=2)", encoding="utf-8")
        doc = run_json(capsys, "sd", "validate", str(bad), "--alphabet", "a")
        assert doc["valid"] is False
        assert doc["violations"][0]["rule"] == "sync-delay"
        assert "dfa" not in doc

    def test_ltl_eval(self, capsys, tmp_path):
        formula = tmp_path / "scan.ltl"
        formula.write_text("F[((a+b)(a+b))*](a)", encoding="utf-8")
        doc = run_json(
            capsys, "ltl", "eval", "--formula", str(formula),
            "--word", "ba", "--alphabet", "ab",
        )
        assert doc == {"answer": False}
        doc = run_json(
            capsys, "ltl", "eval", "--formula", str(formula),
            "--word", "ba", "--alphabet", "ab", "--position", "1",
        )
        assert doc == {"answer": True}

    def test_ltl_compare(self, capsys, tmp_path):
        formula = tmp_path / "abstar.ltl"
        formula.write_text(
            "X(a | max) & U((!a | X(b)) & (!b | X(a | max)), max)", encoding="utf-8"
        )
        doc = run_json(
            capsys, "ltl", "compare", "--formula", str(formula),
            "--lang", "(ab)*", "--alphabet", "ab", "--maxlen", "6",
        )
        assert doc == {"mismatches": []}

    def test_ltl_compare_is_exact_at_any_length(self, capsys, tmp_path):
        formula = tmp_path / "some-a.ltl"
        formula.write_text("F(a)", encoding="utf-8")
        doc = run_json(
            capsys, "ltl", "compare", "--formula", str(formula),
            "--lang", "~%a~%", "--alphabet", "ab", "--maxlen", str(10**20),
        )
        assert doc == {"mismatches": []}


class TestExitCodes:
    def test_bad_regex_is_input_error(self, capsys):
        status, out, err = run(capsys, "regex", "(ab", "--alphabet", "ab")
        assert status == 2 and out == ""
        assert err.startswith("error:") and "offset" in err

    def test_unknown_class(self, capsys):
        status, _, err = run(
            capsys, "membership", "--class", "frob", "--lang", "a", "--alphabet", "a"
        )
        assert status == 2 and "unknown class selector" in err

    def test_missing_morphism_file(self, capsys):
        status, _, err = run(
            capsys, "kernel", "--class", "gr", "--morphism", "/nonexistent.json"
        )
        assert status == 2 and err.startswith("error:")

    def test_kernel_needs_a_source(self, capsys):
        status, _, err = run(capsys, "kernel", "--class", "gr")
        assert status == 2 and "--morphism" in err

    def test_orbits_reject_group_classes(self, capsys):
        status, _, err = run(
            capsys, "orbits", "--class", "mod", "--lang", "a", "--alphabet", "a"
        )
        assert status == 2 and "finite classes" in err

    def test_kernel_rejects_finite_classes(self, capsys):
        status, _, err = run(
            capsys, "kernel", "--class", "st", "--lang", "a", "--alphabet", "a"
        )
        assert status == 2 and "group classes" in err

    def test_missing_alphabet(self, capsys):
        status, _, err = run(capsys, "regex", "(ab)*")
        assert status == 2 and "--alphabet" in err

    def test_negative_compare_length(self, capsys, tmp_path):
        formula = tmp_path / "top.ltl"
        formula.write_text("top", encoding="utf-8")
        status, out, err = run(
            capsys, "ltl", "compare", "--formula", str(formula),
            "--lang", "~%", "--alphabet", "ab", "--maxlen", "-1",
        )
        assert status == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "!" * 3000 + "a",
            "X(" * 400 + "a" + ")" * 400,
            # the bound regex nests too deep
            "F[" + "(" * 1200 + "a" + ")" * 1200 + "](max)",
            "F[" + "~" * 1500 + "a" + "](max)",
            "F[" + "(" * 600 + "a*" + ")*" * 600 + "](max)",
        ],
        ids=["bangs", "nexts", "bound-parentheses", "bound-complements", "bound-stars"],
    )
    def test_deep_formula_is_input_error(self, capsys, tmp_path, text):
        formula = tmp_path / "deep.ltl"
        formula.write_text(text, encoding="utf-8")
        status, out, err = run(
            capsys, "ltl", "eval", "--formula", str(formula),
            "--word", "ab", "--alphabet", "ab",
        )
        assert status == 2 and out == ""
        # one error line, no traceback
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nested deeper" in err

    @pytest.mark.parametrize(
        "letters", [{"a": 5}, {"a": -1}, {"a": "x"}, {"a": None}],
        ids=["above", "negative", "text", "null"],
    )
    def test_bad_letter_image_in_morphism_file(self, capsys, tmp_path, letters):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"size": 2, "identity": 0, "mul": [[0, 1], [1, 0]], "letters": letters}
        ))
        status, out, err = run(capsys, "kernel", "--class", "mod", "--morphism", str(path))
        assert status == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deep_sd_expression_is_input_error(self, capsys, tmp_path):
        expression = tmp_path / "deep.sd"
        expression.write_text("uconcat(a, " * 1500 + "b" + ")" * 1500, encoding="utf-8")
        status, out, err = run(capsys, "sd", "validate", str(expression), "--alphabet", "ab")
        assert status == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nested deeper" in err

    @pytest.mark.parametrize(
        "delay", ["²", "9" * 5000], ids=["superscript-digit", "past-int-digit-limit"]
    )
    def test_bad_star_delay_is_syntax_error(self, capsys, tmp_path, delay):
        expression = tmp_path / "delay.sd"
        expression.write_text(f"star(a, d={delay})", encoding="utf-8")
        status, out, err = run(capsys, "sd", "validate", str(expression), "--alphabet", "a")
        assert status == 2 and out == ""
        assert err.startswith("error: expression syntax error at offset 10")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("how", ["morphism", "finite"])
    def test_number_past_int_digit_limit_in_morphism_file(self, capsys, tmp_path, how):
        path = tmp_path / "long.json"
        path.write_text(
            '{"size": ' + "1" * 5000 + ', "identity": 0, "mul": [[0]], "letters": {"a": 0}}',
            encoding="utf-8",
        )
        argv = {
            "morphism": ["kernel", "--class", "mod", "--morphism", str(path)],
            "finite": ["membership", "--class", f"finite:{path}", "--lang", "a",
                       "--alphabet", "a"],
        }[how]
        status, out, err = run(capsys, *argv)
        assert status == 2 and out == ""
        assert err.startswith(f"error: {path} is not valid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("dmax", ["0", "-3"])
    @pytest.mark.parametrize("code", ["a+ab", "aab+b"], ids=["not-a-prefix-code", "prefix-code"])
    def test_sd_delay_bound_below_one_is_input_error(self, capsys, code, dmax):
        status, out, err = run(capsys, "sd", "delay", code, "--alphabet", "ab", "--dmax", dmax)
        assert status == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at least 1" in err

    @pytest.mark.parametrize("kind", ["formula", "sd", "morphism", "config"])
    def test_non_utf8_file_is_input_error(self, capsys, tmp_path, kind):
        path = tmp_path / "latin1.txt"
        path.write_bytes("F[a\u00e9](max)".encode("latin-1"))
        argv = {
            "formula": ["ltl", "eval", "--formula", str(path), "--word", "ab",
                        "--alphabet", "ab"],
            "sd": ["sd", "validate", str(path), "--alphabet", "ab"],
            "morphism": ["kernel", "--class", "mod", "--morphism", str(path)],
            "config": ["monoid", "--lang", "a", "--alphabet", "ab", "--config", str(path)],
        }[kind]
        status, out, err = run(capsys, *argv)
        assert status == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "utf-8" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"size": 1, "identity": 0, "mul": [[0]], "letters": {"a": 1e999}}',
            '{"size": Infinity, "identity": 0, "mul": [[0]], "letters": {"a": 0}}',
            '{"size": 1, "identity": 0, "mul": [[-Infinity]], "letters": {"a": 0}}',
            '{"size": 1, "identity": 0, "mul": [[0]], "letters": {"a": 0},'
            ' "accepting": [1e999]}',
            # int() would truncate each float and read true as 1
            '{"size": 2, "identity": 0.9, "mul": [[0, 1], [1, 1.7]], "letters": {"a": 1}}',
            '{"size": 2, "identity": false, "mul": [[0, 1], [1, 1]], "letters": {"a": true}}',
        ],
        ids=["letter", "size", "table", "accepting", "float", "bool"],
    )
    def test_infinite_number_in_morphism_file(self, capsys, tmp_path, text):
        path = tmp_path / "inf.json"
        path.write_text(text, encoding="utf-8")
        status, out, err = run(capsys, "kernel", "--class", "mod", "--morphism", str(path))
        assert status == 2 and out == ""
        assert err.startswith("error: malformed morphism document") and err.count("\n") == 1

    def test_deeply_nested_morphism_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        status, out, err = run(capsys, "kernel", "--class", "mod", "--morphism", str(path))
        assert status == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "pattern, states",
        [("_" * 3000, 2), ("~%" * 1500, 1), ("ab" * 1500, 3002)],
        ids=["epsilons", "fulls", "word"],
    )
    def test_long_flat_regex_compiles(self, capsys, pattern, states):
        doc = run_json(capsys, "regex", pattern, "--alphabet", "ab")
        assert doc["states"] == states

    @pytest.mark.parametrize("problem", ["missing", "malformed"])
    @pytest.mark.parametrize("command", ["regex", "ltl eval", "ltl compare"])
    def test_bad_config_is_input_error(self, capsys, tmp_path, command, problem):
        formula = tmp_path / "f.ltl"
        formula.write_text("F[a](max)", encoding="utf-8")
        cfg = tmp_path / "bad.cfg"
        if problem == "malformed":
            cfg.write_text("monoid_cap = often\n", encoding="utf-8")
        argv = {
            "regex": ["regex", "a"],
            "ltl eval": ["ltl", "eval", "--formula", str(formula), "--word", "ab"],
            "ltl compare": ["ltl", "compare", "--formula", str(formula), "--lang", "~%a~%"],
        }[command]
        status, out, err = run(capsys, *argv, "--alphabet", "ab", "--config", str(cfg))
        assert status == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("cannot read config" if problem == "missing" else "config line 1") in err

    def test_resource_cap_exit(self, capsys, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("monoid_cap = 2\n", encoding="utf-8")
        status, _, err = run(
            capsys, "monoid", "--lang", "(aa+bb)*", "--alphabet", "ab",
            "--config", str(cfg),
        )
        assert status == 3
        assert err.startswith("resource limit:")


_FORMULA_TOKENS = ["a", "b", "c", "top", "min", "max", "U", "S", "F", "X", "[", "]",
                   "(", ")", ",", "!", "&", "|", " ", "_", "*", "~", "%"]
_SD_TOKENS = ["%", "a", "b", "c", "dunion(", "uconcat(", "capC(", "star(", ",", ")",
              '"', "d=", "1", "2", " ", "(", "*", "+", "x"]
_json_number = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.5]),
    st.floats(),
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _json_number, st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=10,
)
# documents with the keys of a morphism file and arbitrary values
_entry = _json_number | _json
_morphism_like = st.fixed_dictionaries(
    {"size": _entry, "identity": _entry,
     "mul": st.lists(st.lists(_entry, max_size=2), max_size=2) | _json,
     "letters": st.dictionaries(st.sampled_from(["a", "b", "ab", ""]), _entry, max_size=2)},
    optional={"accepting": st.lists(_entry, max_size=2) | _json},
)


def _captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    regex=st.text(alphabet="ab_%~()+&* c", max_size=24),
    formula=st.lists(st.sampled_from(_FORMULA_TOKENS), max_size=12).map("".join),
    expression=st.lists(st.sampled_from(_SD_TOKENS), max_size=12).map("".join),
    morphism=st.one_of(_json, _morphism_like),
    big_numbers=st.booleans(),
)
def test_every_input_keeps_the_exit_contract(regex, formula, expression, morphism,
                                             big_numbers):
    with tempfile.TemporaryDirectory() as scratch:
        files = {name: Path(scratch) / name for name in ("f.ltl", "e.sd", "m.json")}
        files["f.ltl"].write_text(formula, encoding="utf-8")
        files["e.sd"].write_text(expression, encoding="utf-8")
        document = json.dumps(morphism)
        if big_numbers:
            document = document.replace("Infinity", "1e999")
        files["m.json"].write_text(document, encoding="utf-8")
        calls = [
            ["regex", "--alphabet", "ab", "--", regex],
            ["ltl", "eval", "--formula", str(files["f.ltl"]), "--word", "ab",
             "--alphabet", "ab"],
            ["sd", "validate", str(files["e.sd"]), "--alphabet", "ab"],
            ["kernel", "--class", "mod", "--morphism", str(files["m.json"])],
        ]
        for argv in calls:
            status, out, err = _captured(argv)
            assert status in (0, 2, 3), (argv, err)
            if status == 0:
                assert err == "" and out.endswith("\n") and out.count("\n") == 1
                json.loads(out)
            else:
                assert out == ""
                assert err.endswith("\n") and err.count("\n") == 1, err


class TestTraceAndStability:
    def test_trace_flag_adds_serializable_trace(self, capsys):
        doc = run_json(
            capsys, "separate", "--class", "st", "(aa)*", "a(aa)*",
            "--alphabet", "a", "--trace",
        )
        assert isinstance(doc["trace"], list) and doc["trace"]
        for entry in doc["trace"]:
            assert "rule" in entry and "value" in entry
        json.dumps(doc)  # whole document must stay serializable

    @pytest.mark.parametrize(
        "argv",
        [
            ("membership", "--class", "st", "--lang", "(ab)*", "--alphabet", "ab"),
            ("monoid", "--lang", "(aa+bb)*", "--alphabet", "ab"),
            ("separate", "--class", "mod", "(aa)*", "a(aa)*", "--alphabet", "a"),
            ("sd", "delay", "a*b", "--alphabet", "ab"),
        ],
    )
    def test_output_bytes_are_stable(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


class TestConfigParsing:
    def test_comments_and_blanks(self):
        cfg = parse_config("# caps\nmonoid_cap = 64  # tight\n\ntrace = true\n")
        assert cfg.monoid_cap == 64 and cfg.trace is True
        assert cfg.delay_dmax == DEFAULT.delay_dmax

    def test_unknown_key(self):
        with pytest.raises(InputError, match="unknown key"):
            parse_config("widget = 3\n")

    def test_bad_int(self):
        with pytest.raises(InputError, match="integer"):
            parse_config("monoid_cap = often\n")

    def test_bad_bool(self):
        with pytest.raises(InputError, match="true or false"):
            parse_config("trace = yes\n")

    def test_nonpositive_cap(self):
        with pytest.raises(InputError, match="positive"):
            parse_config("powerset_cap = 0\n")

    def test_missing_equals(self):
        with pytest.raises(InputError, match="key=value"):
            parse_config("monoid_cap\n")
