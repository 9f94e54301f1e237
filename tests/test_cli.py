"""System file loading, CLI commands, exit codes, report schema."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from dirackit import PhaseSpace, RationalExpr, cli, expr, load_system
from dirackit.analysis import classify_constraints
from dirackit.cli import main
from dirackit.errors import ValidationError
from dirackit.poly import MAX_DEGREE, Polynomial
from dirackit.sysfile import parse_system

SRC = Path(__file__).resolve().parent.parent / "src"
SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
SPHERE = str(SYSTEMS / "sphere.system")
TRIVIAL = str(SYSTEMS / "trivial.system")
DEGENERATE = str(SYSTEMS / "degenerate.system")
PAIR = str(SYSTEMS / "pair_elimination.system")
ANGULAR = str(SYSTEMS / "angular_momentum.system")
SYSTEM_FILES = sorted(str(p) for p in SYSTEMS.glob("*.system"))


def schema():
    return json.loads(
        resources.files("dirackit").joinpath("report_schema.json").read_text())


class TestLoadSystem:
    def test_sphere(self):
        spec = load_system(SPHERE)
        assert spec.ps.n == 3
        assert len(spec.constraints) == 2
        assert spec.ps.parameters == ("r",)
        assert spec.sampler.seed == 42
        assert spec.primaries is not None
        assert spec.on_shell_rules == (spec.constraints[0].as_polynomial(),)

    def test_onshell_rules_are_the_named_polynomials_in_file_order(self):
        spec = parse_system("[system]\nn = 2\n[constraints]\nchi1 = x1\nchi2 = p1\n"
                            "chi3 = x2^2 - 1\nchi4 = p2\n[onshell]\nuse chi3\nuse chi1\n")
        chi1, _, chi3, _ = spec.constraints
        assert spec.on_shell_rules == (chi3.as_polynomial(), chi1.as_polynomial())
        assert str(RationalExpr.from_polynomial(spec.ps, spec.on_shell_rules[0])) == "x2^2 - 1"

    def test_undeclared_symbol(self, tmp_path):
        path = tmp_path / "bad.system"
        path.write_text("[system]\nn = 2\n[constraints]\nchi1 = y1\nchi2 = p1\n")
        with pytest.raises(ValidationError):
            load_system(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.system"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_system(str(path))

    def test_duplicate_constraint_name(self, tmp_path):
        path = tmp_path / "dup.system"
        path.write_text("[system]\nn = 1\n[constraints]\nchi1 = x1\nchi1 = p1\n")
        with pytest.raises(ValidationError):
            load_system(str(path))

    @pytest.mark.parametrize("system, sampler, line, key", [
        ("n = 3\nn = 2\n", "", 3, "n"),
        ("n = 2\nparameters = r\nparameters = s\nbind r = 1\n", "", 4, "parameters"),
        ("n = 2\nparameters = r\nbind r = 1\nbind  r = 2\n", "", 5, "bind r"),
        ("n = 2\n", "seed = 1\npoints = 4\nseed = 2\n", 9, "seed"),
        ("n = 2\n", "tolerance = 1e-9\ntolerance = 1e-3\n", 8, "tolerance"),
    ])
    def test_duplicate_key(self, tmp_path, capsys, system, sampler, line, key):
        """A repeated [system] or [sampler] key is rejected; the last one
        does not silently win."""
        path = tmp_path / "dupkey.system"
        path.write_text("[system]\n" + system + "[constraints]\nchi1 = x1\nchi2 = p1\n"
                        "[sampler]\n" + sampler)
        with pytest.raises(ValidationError, match=f":{line}: .* key {key!r} given twice"):
            load_system(str(path))
        for command in ("analyze", "classify"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert "given twice" in err and "internal error" not in err

    def test_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "syn.system"
        path.write_text("[system]\nn = 1\n[constraints]\nchi1 = x1 +\nchi2 = p1\n")
        with pytest.raises(ValidationError) as err:
            load_system(str(path))
        assert ":4:" in str(err.value)


class TestExitCodes:
    def test_analyze_ok(self, capsys):
        assert main(["analyze", SPHERE]) == 0

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.system"]) == 2

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.system"
        path.write_text("[system]\nn = 2\n[constraints]\nchi1 = y9\nchi2 = p1\n")
        assert main(["analyze", str(path)]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.system"
        path.write_bytes(b"\xff\xfe[system]\nn = 1\n")
        assert main(["analyze", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_not_second_class(self, capsys):
        assert main(["analyze", DEGENERATE]) == 3

    def test_sampling_failure(self, tmp_path, capsys):
        path = tmp_path / "empty_variety.system"
        path.write_text("[system]\nn = 1\n[constraints]\nchi1 = x1^2 + 1\n"
                        "chi2 = p1\n[sampler]\nseed = 1\npoints = 1\n"
                        "max_retries = 3\nmax_newton_iters = 20\n")
        assert main(["analyze", str(path)]) == 4

    @pytest.mark.parametrize("command", ["analyze", "classify", "verdict"])
    def test_float_overflow_is_a_failed_attempt(self, tmp_path, capsys, command):
        # Newton steps from small x1 overshoot, and x1^200 overflows a float.
        path = tmp_path / "overflow.system"
        path.write_text("[system]\nn = 1\n[constraints]\nchi1 = x1^200 - 1\n"
                        "chi2 = p1\n[sampler]\nseed = 1\n")
        assert main([command, str(path)]) != 1
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("constraints", [
        "chi1 = x1 - 10^160\nchi2 = p1*x1^2\n",  # Delta = x1^2 overflows on shell
        "chi1 = 10^400*x1\nchi2 = p1\n",  # a constant too large for a float
    ])
    def test_delta_beyond_floats_is_a_sampling_failure(self, tmp_path, capsys, constraints):
        """The sampler accepts no point where Delta overflows.  An affine
        set draws none: its constant Delta is exact, however large."""
        status, out = (4, "no on-shell point") if "x1^2" in constraints \
            else (0, "classification: second_class")
        path = tmp_path / "overflow.system"
        path.write_text(f"[system]\nn = 1\n[constraints]\n{constraints}"
                        "[sampler]\nseed = 1\nmax_retries = 3\n")
        assert main(["classify", str(path)]) == status
        captured = capsys.readouterr()
        assert out in (captured.out if status == 0 else captured.err)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_binding(self, tmp_path, capsys, value):
        path = tmp_path / "sphere.system"
        path.write_text(Path(SPHERE).read_text().replace("bind r = 1.0", f"bind r = {value}"))
        with pytest.raises(ValidationError, match="not a finite number"):
            load_system(str(path))
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["trace"], ["bracket", "--f", "x1", "--g", "p1", "--mode", "dirac"],
        ["closure", "--mode", "dirac"]], ids=["trace", "bracket", "closure"])
    def test_dirac_space_singular_on_the_shell(self, tmp_path, capsys, argv):
        """At r = 0 the sphere's shell is x = 0, where Delta is 0, so every
        Dirac bracket has a pole on the whole shell: each command that
        needs a Dirac context refuses the set, as analyze does."""
        path = tmp_path / "sphere_r0.system"
        path.write_text(Path(SPHERE).read_text().replace("bind r = 1.0", "bind r = 0.0"))
        assert main([argv[0], str(path), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: constraint bracket matrix is singular on the shell" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "verdict"])
    @pytest.mark.parametrize("line", [
        "seed = -5", "max_retries = -3", "max_retries = 0", "max_newton_iters = 0",
        "tolerance = 0", "tolerance = inf", "tolerance = nan"])
    def test_bad_sampler_value(self, tmp_path, capsys, command, line):
        path = tmp_path / "sampler.system"
        path.write_text("[system]\nn = 2\n[constraints]\nchi1 = x1\nchi2 = p1\n"
                        f"[sampler]\n{line}\n")
        with pytest.raises(ValidationError, match="sampler"):
            load_system(str(path))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "sampler" in err and "internal error" not in err

    def test_deep_nesting(self, tmp_path, capsys):
        deep = "(" * 2000 + "x1" + ")" * 2000
        assert main(["bracket", SPHERE, "--f", deep, "--g", "p1"]) == 2
        path = tmp_path / "deep.system"
        path.write_text(f"[system]\nn = 1\n[constraints]\nchi1 = {deep}\nchi2 = p1\n")
        assert main(["analyze", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_degree_past_the_kernel_limit(self, tmp_path, capsys):
        path = tmp_path / "degree.system"
        path.write_text("[system]\nn = 1\n[constraints]\n"
                        f"chi1 = x1^{MAX_DEGREE + 1}\nchi2 = p1\n")
        assert main(["analyze", str(path)]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_too_many_pairs(self, tmp_path, capsys):
        """An n past MAX_PAIRS is refused before any name is built."""
        # first, so that without the bound the test stops before n = 10**12 is built
        from dirackit.phase_space import MAX_PAIRS

        with pytest.raises(ValidationError, match=f"n <= {MAX_PAIRS}"):
            PhaseSpace(MAX_PAIRS + 1)
        assert len(PhaseSpace(MAX_PAIRS).symbols) == 2 * MAX_PAIRS
        path = tmp_path / "huge.system"
        path.write_text(f"[system]\nn = {10**12}\n[constraints]\nchi1 = x1\nchi2 = p1\n")
        assert main(["analyze", str(path)]) == 2
        assert f"n <= {MAX_PAIRS}" in capsys.readouterr().err

    def test_power_past_the_expansion_budget(self, tmp_path, capsys, monkeypatch):
        """Refused before it is expanded: no multiplication may run."""
        def refuse(self, other):
            raise AssertionError("a power was expanded")

        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        path = tmp_path / "power.system"
        path.write_text("[system]\nn = 2\n[constraints]\n"
                        "chi1 = (x1 + x2)^100000\nchi2 = p1\n")
        assert main(["analyze", str(path)]) == 2
        assert "more than 10000 terms" in capsys.readouterr().err

    def test_product_past_the_expansion_budget(self, tmp_path, capsys):
        """Two powers inside the budget whose product is not: 1,001 * 1,001 terms."""
        xs = " + ".join(f"x{i}" for i in range(1, 11))
        ps = " + ".join(f"p{i}" for i in range(1, 11))
        path = tmp_path / "product.system"
        path.write_text("[system]\nn = 10\n[constraints]\n"
                        f"chi1 = ({xs} + 1)^4 * ({ps} + 1)^4\nchi2 = p1\n")
        assert main(["analyze", str(path)]) == 2
        assert "more than 10000 terms" in capsys.readouterr().err

    def test_closure_without_primaries(self, capsys):
        assert main(["closure", TRIVIAL]) == 2

    def test_closure_non_polynomial(self, tmp_path, capsys):
        # sphere canonical variables without on-shell rules stay rational
        path = tmp_path / "nonpoly.system"
        path.write_text(
            "[system]\nn = 3\nparameters = r\nbind r = 1.0\n"
            "[constraints]\nchi1 = x1^2 + x2^2 + x3^2 - r^2\n"
            "chi2 = p1*x1 + p2*x2 + p3*x3\n"
            "[primaries]\ng1 = x1\ng2 = p1\n")
        assert main(["closure", str(path), "--mode", "dirac"]) == 5

    @pytest.mark.parametrize("command", ["analyze", "classify", "closure"])
    def test_non_polynomial_onshell_rule(self, tmp_path, capsys, command):
        """An [onshell] rule must be a polynomial; naming a rational
        constraint is an input error at load, not a later exit 5."""
        path = tmp_path / "rule.system"
        path.write_text("[system]\nn = 2\n[constraints]\nchi1 = x1 - 1/x2\nchi2 = p1\n"
                        "[primaries]\ng1 = x2\ng2 = p2\n[onshell]\nuse chi2\nuse chi1\n")
        with pytest.raises(ValidationError, match=r":11: on-shell rule 'chi1' is not a polynomial"):
            load_system(str(path))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "'chi1' is not a polynomial" in err and "internal error" not in err

    @pytest.mark.parametrize("command", ["analyze", "closure"])
    @pytest.mark.parametrize("sections, message", [
        # residual keys "g1,H" of the pair (g1, H) and of {g1, Hamiltonian}
        ("[hamiltonian]\nH = p2^3\n[primaries]\ng1 = x2^2\nH = p2^2\n", "reserved"),
        # residual keys "a,b,c" of the pairs (a, b,c) and (a,b, c)
        ("[primaries]\na = x2^2\nb,c = p2^2\na,b = x2^3\nc = p2^3\n", "identifier"),
    ])
    def test_colliding_primary_names(self, tmp_path, capsys, command, sections, message):
        path = tmp_path / "names.system"
        path.write_text("[system]\nn = 2\n[constraints]\nchi1 = x1\nchi2 = p1\n" + sections)
        with pytest.raises(ValidationError, match=message):
            load_system(str(path))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err

    def test_trivial_system_ok(self, capsys):
        assert main(["analyze", TRIVIAL]) == 0
        out = capsys.readouterr().out
        assert "verdict: trivial_system" in out


class TestAnalyze:
    def test_sphere_json(self, capsys):
        assert main(["analyze", SPHERE, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"]["dof_pairs"] == 2
        assert report["trace_identity"]["expected"] == 2
        assert report["trace_identity"]["holds"] is True
        assert report["verdict"]["kind"] == "infinite_dimensional"
        assert report["closure"]["closed"] is True

    def test_sphere_text_verdict_line(self, capsys):
        assert main(["analyze", SPHERE]) == 0
        assert "verdict: infinite_dimensional" in capsys.readouterr().out

    def test_key_order_stable(self, capsys):
        main(["analyze", SPHERE, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["version", "input_digest", "system",
                                "classification", "trace_identity", "closure",
                                "verdict", "timings_ms"]

    def test_determinism_byte_identical(self, capsys):
        main(["analyze", SPHERE, "--format", "json"])
        first = capsys.readouterr().out
        main(["analyze", SPHERE, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_garbage_collection_inside_a_stage_leaves_the_report_unchanged(
            self, capsys, monkeypatch):
        main(["analyze", SPHERE, "--format", "json"])
        plain = capsys.readouterr().out

        def slow_collection(phase, info):
            if phase == "stop":
                time.sleep(0.2)

        def classify_with_a_collection(*args):
            gc.collect()
            return classify_constraints(*args)

        monkeypatch.setattr(cli, "classify_constraints", classify_with_a_collection)
        gc.callbacks.append(slow_collection)
        try:
            main(["analyze", SPHERE, "--format", "json"])
        finally:
            gc.callbacks.remove(slow_collection)
        out, err = capsys.readouterr()
        assert out == plain
        classify_ms = float(err.split("[timing] classify: ")[1].split(" ms")[0])
        assert classify_ms >= 200

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_input_reports_the_digest_of_its_bytes(self):
        data = Path(SPHERE).read_bytes()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "dirackit.cli", "analyze", "/dev/stdin", "--format", "json"],
            input=data, capture_output=True, env=env, check=True).stdout
        report = json.loads(out)
        assert report["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
        assert report["trace_identity"]["holds"] is True

    def test_crlf_file_reports_the_digest_of_its_bytes(self, tmp_path, capsys):
        data = Path(SPHERE).read_bytes().replace(b"\n", b"\r\n")
        path = tmp_path / "sphere_crlf.system"
        path.write_bytes(data)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
        assert main(["analyze", SPHERE, "--format", "json"]) == 0
        lf = json.loads(capsys.readouterr().out)
        assert report["input_digest"] != lf["input_digest"]
        assert report["classification"] == lf["classification"]
        assert report["trace_identity"] == lf["trace_identity"]

    def test_schema_validates_all_reportable_systems(self, capsys):
        s = schema()
        for path in (SPHERE, TRIVIAL, PAIR, ANGULAR):
            assert main(["analyze", path, "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, s)


class TestBracket:
    def test_poisson_delta(self, capsys):
        assert main(["bracket", SPHERE, "--f", "x1", "--g", "p1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_poisson_zero(self, capsys):
        assert main(["bracket", SPHERE, "--f", "x1", "--g", "p2"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_dirac_sphere(self, capsys):
        assert main(["bracket", SPHERE, "--f", "x1", "--g", "p1",
                     "--mode", "dirac"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "(x2^2 + x3^2)/(x1^2 + x2^2 + x3^2)"

    def test_parse_error_exit(self, capsys):
        assert main(["bracket", SPHERE, "--f", "x1 +", "--g", "p1"]) == 2


class TestOtherCommands:
    def test_classify(self, capsys):
        assert main(["classify", SPHERE, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"]["verdict"] == "second_class"

    def test_trace(self, capsys):
        assert main(["trace", SPHERE]) == 0
        out = capsys.readouterr().out
        assert "expected=2" in out and "holds=true" in out

    def test_trace_prints_the_reduced_value(self, capsys):
        assert main(["trace", SPHERE]) == 0
        assert capsys.readouterr().out == "value=2 expected=2 holds=true\n"

    def test_closure_poisson_angular(self, capsys):
        assert main(["closure", ANGULAR, "--mode", "poisson",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["closure"]["closed"] is True
        assert all(v == "0" for row in report["closure"]["z"] for v in row)
        assert report["verdict"]["kind"] == "no_obstruction_detected"

    def test_undecomposed_brackets_print_no_false_zero(self, capsys):
        # {L2,H}_D = p1*p3 and {L3,H}_D = -p1*p2 fall outside the span.
        assert main(["closure", ANGULAR, "--format", "json"]) == 0
        closure = json.loads(capsys.readouterr().out)["closure"]
        assert closure["residuals"] == {"L2,H": "p1*p3", "L3,H": "-p1*p2"}
        assert closure["h"] == [["0", "0", "0"], None, None]
        assert closure["h_const"] == ["0", None, None]
        assert main(["analyze", ANGULAR]) == 0
        out = capsys.readouterr().out
        assert "  residual {L2,H} = p1*p3\n" in out and "  {L1,H} = 0\n" in out
        assert "  {L2,H} = " not in out and "  {L3,H} = " not in out

    def test_closure_dirac_pair_elimination(self, capsys):
        assert main(["closure", PAIR, "--mode", "dirac", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "infinite_dimensional"
        assert report["verdict"]["witness"]["central_charge"] == "1"

    def test_verdict_sphere(self, capsys):
        assert main(["verdict", SPHERE]) == 0
        assert "infinite_dimensional" in capsys.readouterr().out

    def test_verdict_trivial(self, capsys):
        assert main(["verdict", TRIVIAL]) == 0
        assert "trivial_system" in capsys.readouterr().out

    def test_verdict_degenerate(self, capsys):
        assert main(["verdict", DEGENERATE]) == 3


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call, with the report's
    timings and the stderr `[timing]` lines masked.  A usage error or
    --help ends in argparse's SystemExit, whose code is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    stdout = out.getvalue()
    if stdout.startswith("{"):
        report = json.loads(stdout)
        report.pop("timings_ms")
        stdout = json.dumps(report, indent=2)
    else:
        stdout = "".join(line for line in stdout.splitlines(keepends=True)
                         if not line.startswith("timings_ms:"))
    stderr = [line for line in err.getvalue().splitlines() if not line.startswith("[timing]")]
    return code, stdout, stderr


class TestRepeatedCalls:
    """`main` may be called many times in one process; it builds its
    parser once, and what it prints does not depend on that."""

    SEQUENCE = [
        (["analyze", SPHERE, "--format", "json"], 0),
        (["analyze", SPHERE, "--format", "text"], 0),
        (["bracket", SPHERE, "--f", "x1", "--g", "p1", "--mode", "dirac"], 0),
        (["bracket", SPHERE, "--f", "x1", "--g", "p1"], 0),
        (["closure", ANGULAR, "--format", "json"], 0),
        (["classify", DEGENERATE, "--format", "json"], 0),
        (["analyze"], 2),
        (["frobnicate", "x"], 2),
        (["bracket", SPHERE, "--f", "x1"], 2),
        (["--help"], 0),
        (["closure", "--help"], 0),
    ]

    def test_the_parser_is_built_once(self, monkeypatch):
        """Seven ArgumentParsers (the top level and six subcommands) on the
        first of 20 calls, none after."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        per_call = []
        for _ in range(4):
            for path in SYSTEM_FILES:
                before = len(built)
                _run(["analyze", path, "--format", "json"])
                per_call.append(len(built) - before)
        assert len(per_call) == 20
        assert per_call == [7] + [0] * 19
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 19, 1)

    def test_reusing_the_parser_changes_no_output(self):
        """The same sequence, on the cached parser and on a parser built
        afresh for every call, prints the same bytes and exits alike."""
        cached = [_run(argv) for argv, _ in self.SEQUENCE]
        fresh = []
        for argv, _ in self.SEQUENCE:
            cli.build_parser.cache_clear()
            fresh.append(_run(argv))
        assert cached == fresh
        assert [code for code, _, _ in cached] == [code for _, code in self.SEQUENCE]
        for (argv, code), (_, out, err) in zip(self.SEQUENCE, cached):
            if code == 2:
                assert out == "" and err[0].startswith("usage: dirackit"), argv
            if argv[-1] == "--help":
                assert out.startswith("usage: dirackit") and err == [], argv

    def test_help_wraps_to_the_width_at_each_call(self, monkeypatch):
        """argparse reads COLUMNS when it prints, so one cached parser
        wraps to each width as a fresh one does."""
        widest = {}
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            cached = _run(["--help"])
            cli.build_parser.cache_clear()
            assert _run(["--help"]) == cached
            widest[columns] = max(map(len, cached[1].splitlines()))
        # The subcommand choices are one word wider than 40 columns.
        assert widest["40"] < widest["200"] <= 200

    def test_repeated_calls_keep_nothing_per_call(self):
        """After one round over systems/, 20 more rounds add no atom, no
        product of atoms and no parser."""
        def sizes():
            for path in SYSTEM_FILES:
                assert _run(["analyze", path, "--format", "json"])[0] in (0, 3)
            return len(expr._ATOMS), len(expr._PRODUCTS), cli.build_parser.cache_info().currsize

        first = sizes()
        assert [sizes() for _ in range(20)] == [first] * 20
