import copy
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "rslist.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


class TestEncode:
    def test_worked_codeword(self):
        res = run_cli("encode", str(DATA / "code_gf8.json"), "a^6", "a^2")
        assert res.returncode == 0
        assert res.stdout.strip() == "1 a^4 a^3 a"

    def test_zero_message(self):
        res = run_cli("encode", str(DATA / "code_gf8.json"), "0")
        assert res.returncode == 0
        assert res.stdout.strip() == "0 0 0 0"

    def test_degree_too_high_exits_2(self):
        res = run_cli("encode", str(DATA / "code_gf8.json"), "1", "1", "1")
        assert res.returncode == 2

    def test_integer_output(self):
        res = run_cli("encode", str(DATA / "code_gf8.json"), "a^6", "a^2", "--ints")
        assert res.stdout.strip() == "1 6 3 2"


class TestDecode:
    def test_reduced_path_report(self):
        res = run_cli("decode", str(DATA / "worked_gf8_problem.json"), "--path", "reduced")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        accepted = sorted(
            tuple(c["f"]) for c in report["candidates"] if c["status"] == "accepted"
        )
        assert accepted == [("a^5", "a^6"), ("a^6", "a^2")]
        assert report["stats"]["n_constraints"] == 9
        assert report["stats"]["reduced_constraints"] == 5

    def test_direct_path_same_accepted_set(self, tmp_path):
        # tau bounds the reduced path's re-encoding errors only; the direct path
        # always decodes to depth k, so a file's tau = 1 does not reach it
        obj = json.loads((DATA / "worked_gf8_problem.json").read_text())
        obj["tau"] = 1
        tau1 = tmp_path / "tau1.json"
        tau1.write_text(json.dumps(obj))
        for problem, tau in ((DATA / "worked_gf8_problem.json", 4), (tau1, 1)):
            for path in ("reduced", "direct"):
                res = run_cli("decode", str(problem), "--path", path)
                assert res.returncode == 0, res.stderr
                report = json.loads(res.stdout)
                accepted = sorted(tuple(c["f"]) for c in report["candidates"] if c["status"] == "accepted")
                assert accepted == [("a^5", "a^6"), ("a^6", "a^2")], (problem.name, path)
                assert report["stats"]["tau"] == (None if path == "direct" else tau)

    def test_reencoding_positions(self):
        # indices into the file's point list; the direct path re-encodes nothing
        problem = str(DATA / "worked_gf8_problem.json")
        for path, positions in (("reduced", [0, 1]), ("direct", None)):
            res = run_cli("decode", problem, "--path", path)
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout)["stats"]["reencoding_positions"] == positions

    def test_integer_output(self):
        # every field element of the report is a JSON int, not a string such as "2"
        res = run_cli("decode", str(DATA / "nonroot_gf8_problem.json"), "--ints")
        assert res.returncode == 0, res.stderr
        cands = json.loads(res.stdout)["candidates"]
        accepted = sorted(c["f"] for c in cands if c["status"] == "accepted")
        assert accepted == [[3, 1], [6, 4]]
        elements = [v for c in cands for key in ("f", "sigma", "omega") for v in c[key] or []]
        elements += [v for c in cands for v in c["error_values"].values()]
        assert elements and all(type(v) is int for v in elements)

    def test_non_root_rejected_by_default(self):
        # at the file's tau = 2 rules (a)-(d) accept f = 2 + 3X, which is no Y-root of Q;
        # the CLI always applies rule (e), so the report lists it as rejected
        res = run_cli("decode", str(DATA / "nonroot_gf8_problem.json"), "--ints")
        assert res.returncode == 0, res.stderr
        status = {tuple(c["f"]): c["status"] for c in json.loads(res.stdout)["candidates"] if c["f"]}
        assert status[(2, 3)] == "rejected_by_verification"

    def test_all_points_one_x_exits_3(self):
        res = run_cli("decode", str(DATA / "one_x_problem.json"))
        assert res.returncode == 3

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"code": {"m": 3, "prim_poly": 11, "n": 4, "k": 2}}')
        res = run_cli("decode", str(bad))
        assert res.returncode == 2
        res = run_cli("decode", str(tmp_path / "missing.json"))
        assert res.returncode == 2

    @pytest.mark.parametrize("value", ["a^", "a^b", "1.5"])
    def test_malformed_element_is_named(self, tmp_path, value):
        obj = json.loads((DATA / "worked_gf8_problem.json").read_text())
        obj["points"][0]["y"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        res = run_cli("decode", str(bad))
        assert res.returncode == 2
        assert repr(value) in res.stderr and "a^i" in res.stderr, res.stderr

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["points"][0].update(mult="two"), "error: mult must be an integer, got 'two'"),
            (lambda obj: obj.update(tau=[4]), "error: tau must be an integer, got [4]"),
            (lambda obj: obj.pop("points"), "error: missing key 'points'"),
            (lambda obj: obj["points"][3].pop("y"), "error: missing key 'y'"),
            (lambda obj: obj["code"].pop("k"), "error: missing key 'k'"),
        ],
        ids=["mult-word", "tau-list", "no-points", "no-y", "no-code-k"],
    )
    def test_malformed_field_is_named(self, tmp_path, edit, message):
        obj = json.loads((DATA / "worked_gf8_problem.json").read_text())
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        res = run_cli("decode", str(bad))
        assert res.returncode == 2
        assert res.stderr.strip() == message

    @pytest.mark.parametrize("path", ["reduced", "direct"])
    def test_tau_outside_1_to_n_exits_2(self, path):
        # the worked problem has n = 4; tau is problem input, so both paths bound it
        problem = str(DATA / "worked_gf8_problem.json")
        for tau in ("0", "-3", "5", str(10**6)):
            res = run_cli("decode", problem, "--path", path, "--tau", tau, timeout=30)
            assert res.returncode == 2, (tau, res.stderr)
            assert "outside [1, n=4]" in res.stderr
        assert run_cli("decode", problem, "--path", path, "--tau", "4").returncode == 0

    @pytest.mark.parametrize("path", ["reduced", "direct"])
    def test_constraint_count_over_cap_exits_2(self, path, tmp_path, capsys):
        from rslist.cli import MAX_CONSTRAINTS, main

        base = json.loads((DATA / "worked_gf8_problem.json").read_text())
        for mult in (362, 10**6, 10**9):  # mult 362 alone is 65,703 constraints
            base["points"][0]["mult"] = mult
            problem = tmp_path / f"mult{mult}.json"
            problem.write_text(json.dumps(base))
            start = time.perf_counter()
            assert main(["decode", str(problem), "--path", path]) == 2
            assert time.perf_counter() - start < 1.0
            assert f"exceed the cap of {MAX_CONSTRAINTS}" in capsys.readouterr().err


# Decodes each file given on the command line both ways in one interpreter and
# prints the exit codes; an exception that would end the CLI with a traceback
# is printed in place of its code.
FUZZ_RUNNER = """
import contextlib, io, json, sys
from rslist.cli import main

codes = []
for path in sys.argv[1:]:
    for route in ("reduced", "direct"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                codes.append(main(["decode", path, "--path", route]))
            except Exception as exc:
                codes.append(f"{type(exc).__name__}: {exc}")
print(json.dumps(codes))
"""


def malformed_problems(base: dict, rng: random.Random, count: int) -> list:
    """The cases that once exited 0 on a wrong type, 1 or hung, then seeded random mutations of `base`."""
    cases = []
    for site, key, value in [
        ("code", "k", 0),
        ("code", "k", -1),
        ("top", "points", 5),
        ("top", "points", [5]),
        ("top", "code", 7),
        ("point", "x", 1.5),
        ("point", "x", None),
        ("top", "tau", "x"),
        ("code", "k", True),
        ("point", "x", True),
        ("point", "y", False),
        ("point", "mult", True),
        ("top", "tau", True),
        ("top", "tau", 0),
        ("top", "tau", 5),
        ("top", "tau", 10**6),
    ]:
        obj = copy.deepcopy(base)
        target = {"top": obj, "code": obj["code"], "point": obj["points"][0]}[site]
        target[key] = value
        cases.append(obj)
    cases += [[base], 5, "x", None]
    wrong_types = [None, 1.5, "x", "", [], {}, [5], {"x": 1}, True]
    out_of_range = [-1, 0, 8, 9, 17, 255, 2**40, "a^x", "9", "-1"]
    for _ in range(count):
        obj = copy.deepcopy(base)
        point = rng.choice(obj["points"])
        kind = rng.randrange(4)
        if kind == 3:
            point["mult"] = rng.randint(-2, 8)
            cases.append(obj)
            continue
        sites = [(obj, "code"), (obj, "points"), (obj, "tau"), (point, "x"), (point, "y"), (point, "mult")]
        sites += [(obj["code"], key) for key in ("m", "prim_poly", "n", "k", "support")]
        if kind == 2:  # multiplicities stay small: the constraint count grows with mult^2
            sites = [(t, key) for t, key in sites if key in ("x", "y", "m", "prim_poly", "n", "k")]
            sites.append((obj["code"]["support"], rng.randrange(len(obj["code"]["support"]))))
        target, key = rng.choice(sites)
        if kind == 0:
            target[key] = rng.choice(wrong_types)
        elif kind == 1:
            target.pop(key, None)
        else:
            target[key] = rng.choice(out_of_range)
        cases.append(obj)
    return cases


def test_malformed_problem_files_exit_0_2_or_3(tmp_path):
    base = json.loads((DATA / "worked_gf8_problem.json").read_text())
    paths = []
    for i, case in enumerate(malformed_problems(base, random.Random(2024), 150)):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(case))
        paths.append(str(path))
    # one interpreter for every case, so that a hang fails here instead of stalling the suite
    res = subprocess.run(
        [sys.executable, "-c", FUZZ_RUNNER, *paths], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    codes = json.loads(res.stdout)
    bad = [(paths[i // 2], code) for i, code in enumerate(codes) if code not in (0, 2, 3)]
    assert not bad, bad
    assert codes[:40] == [2] * 40  # both routes of the twenty fixed cases


class TestTrace:
    @pytest.mark.parametrize(
        "problem,path,fixture",
        [
            ("worked_gf8_problem.json", "direct", "worked_gf8_direct_trace.txt"),
            ("worked_gf8_problem.json", "reduced", "worked_gf8_reduced_trace.txt"),
            ("worked_gf8_shifted_problem.json", "direct", "worked_gf8_shifted_direct_trace.txt"),
        ],
    )
    def test_trace_matches_fixture(self, problem, path, fixture):
        res = run_cli("decode", str(DATA / problem), "--path", path, "--trace")
        assert res.returncode == 0
        assert res.stderr == (DATA / fixture).read_text()


class TestBench:
    def test_random_profile_smoke(self):
        res = run_cli("bench", "--random", "12", "4", "7")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].split() == ["path", "phase", "constraints", "multiplications", "additions", "seconds"]
        rows = [line.split() for line in lines[1:-1]]
        assert [row[:2] for row in rows] == [
            ["direct", "interpolation"],
            ["direct", "factorization"],
            ["direct", "decode"],
            ["reduced", "reencoding_setup"],
            ["reduced", "interpolation"],
            ["reduced", "factorization"],
            ["reduced", "decode"],
        ]
        by_key = {(row[0], row[1]): row[2:] for row in rows}
        direct_interp = by_key["direct", "interpolation"]
        reduced_interp = by_key["reduced", "interpolation"]
        assert direct_interp[0] == "12" and 0 < int(reduced_interp[0]) < 12  # constraints solved
        assert 0 < int(reduced_interp[1]) < int(direct_interp[1])
        for path in ("direct", "reduced"):
            decode = by_key[path, "decode"]
            assert decode[0] == "12" and float(decode[3]) >= 0
            phase_rows = [row[2:] for row in rows if row[0] == path and row[1] != "decode"]
            for col in (1, 2):  # the decode row totals its phases' counts
                assert int(decode[col]) == sum(int(row[col]) for row in phase_rows)
        ratio = int(reduced_interp[1]) / int(direct_interp[1])
        assert lines[-1] == f"interpolation ratio reduced/direct: {ratio:.6f}"

    def test_repeat_pools_the_ratio(self):
        # the last line divides the summed reduced by the summed direct interpolation multiplications
        res = run_cli("bench", "--random", "40", "10", "7", "--repeat", "2")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        rows = [line.split() for line in lines[1:-1]]
        interp = {p: [int(row[3]) for row in rows if row[:2] == [p, "interpolation"]] for p in ("direct", "reduced")}
        assert len(interp["direct"]) == len(interp["reduced"]) == 2
        ratio = sum(interp["reduced"]) / sum(interp["direct"])
        first = interp["reduced"][0] / interp["direct"][0]
        assert f"{ratio:.6f}" != f"{first:.6f}"  # so that the first instance's ratio alone fails
        assert lines[-1] == f"interpolation ratio reduced/direct: {ratio:.6f}"

    @pytest.mark.parametrize(
        "args",
        [
            ("--random", "12", "4", "7", "--repeat", "0"),
            ("--random", "12", "4", "7", "--repeat", "-1"),
            ("--random", "5", "6", "1"),
            ("--random", "0", "1", "1"),
            ("--random", "5", "0", "1"),
        ],
    )
    def test_bad_arguments_exit_2_before_any_row(self, args):
        res = run_cli("bench", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")

    def test_impossible_random_profile_exits_2(self):
        # more positions than GF(256) has nonzero elements
        res = run_cli("bench", "--random", "300", "4", "7")
        assert res.returncode == 2
        assert "error:" in res.stderr


def test_selftest():
    res = run_cli("selftest")
    assert res.returncode == 0
    assert "selftest: ok" in res.stdout
