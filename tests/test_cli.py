"""Command-line surface: literals, reports, formats, exit codes."""

import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from kummerlab.automorphic import (
    NormCharacter,
    character_of_order,
    dirichlet_characters,
    make_isobaric,
)
from kummerlab.cli import main, parse_alpha, parse_field
from kummerlab.cyclotomic import CycloField, Datum
from kummerlab.splitting import Field
from kummerlab.tower import KummerTower

QI = 4
K3 = parse_field("Q(sqrt 3)")
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's own error path
        code = e.code
    return code, capsys.readouterr().out


def _rep(chars, field):
    return make_isobaric([(ch, 1) for ch in chars], Fraction(0), field)


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs")
    triv = NormCharacter.trivial(QI)
    chi = character_of_order(5, 4).retag(QI)
    delta = character_of_order(5, 2).retag(QI)
    chi8 = character_of_order(8, 2).retag(QI)
    d13 = character_of_order(13, 2).retag(QI)
    docs = {
        "equal": (_rep([triv, chi], QI), _rep([triv, chi], QI)),
        "twisted": (_rep([triv, chi], QI), _rep([delta, chi * delta], QI)),
        "small": (_rep([triv, chi8], QI), _rep([d13, chi8 * d13], QI)),
        "forked": (_rep([triv, chi], K3), _rep([chi, triv], K3)),
        "rational": (_rep([NormCharacter.trivial(1)], 1),
                     _rep([dirichlet_characters(4)[1]], 1)),
    }
    paths = {}
    for name, (a, b) in docs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps({"pi": a.to_json(), "pi2": b.to_json()}))
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------------------
# literals


@pytest.mark.parametrize("text,expected", [
    ("Q", 1),
    ("Q(i)", 4),
    ("Q(z8)", 8),
    ("12", 12),
])
def test_field_shorthands(text, expected):
    assert parse_field(text) == Field(expected)


def test_field_sqrt_shorthand():
    expected = Field(KummerTower(1, 2, 1, Datum.of(3)))
    assert parse_field("Q(sqrt 3)") == expected
    assert parse_field("Q(sqrt(3))") == expected
    assert parse_field("Q(sqrt -5)") == Field(KummerTower(1, 2, 1, Datum.of(-5)))


@pytest.mark.parametrize("text", ["Q(x)", "0", "Q(z0)", "Q(sqrt 1)",
                                  "Q(sqrt 0)", "Q(sqrt 4)", "Q(sqrt 9)",
                                  "F_7"])
def test_field_rejects(text):
    with pytest.raises(ValueError):
        parse_field(text)


def test_alpha_literals():
    F4 = CycloField(4)
    assert parse_alpha("1+z", 4) == Datum(F4.element([1, 1]))
    # constants take the canonical rational-datum form
    assert parse_alpha("3", 4) == Datum.of(3, m=4)
    assert parse_alpha("3/2", 1) == Datum.of(Fraction(3, 2))
    # powers fold through the conductor
    assert parse_alpha("z**5", 4) == Datum(F4.zeta())
    assert parse_alpha("z*z - 1", 4) == Datum(F4.element([-2]))
    assert parse_alpha("(1+z)**2", 4) == Datum(F4.element([0, 2]))
    # degree 0 in z before folding is a rational datum; ^ is a power, and a
    # decimal is exact
    assert parse_alpha("z - z", 4) == Datum.of(0, m=4)
    assert parse_alpha("2^3", 4) == Datum.of(8, m=4)
    assert parse_alpha("1+z^2", 8) == Datum(CycloField(8).element([1, 0, 1]))
    assert parse_alpha("-5/6", 1) == Datum.of(Fraction(-5, 6))
    assert parse_alpha("z/2", 4) == Datum(F4.element([0, Fraction(1, 2)]))
    assert parse_alpha("1e3", 4) == Datum.of(1000, m=4)
    assert parse_alpha("0.1", 1) == Datum.of(Fraction(1, 10))


@pytest.mark.parametrize("text", ["w+1", "1/z", "z+)", "sin(z)", "1/0",
                                  "z**-1", "z**z", "z % 2"])
def test_alpha_rejects(text):
    with pytest.raises(ValueError):
        parse_alpha(text, 4)


@pytest.mark.parametrize("text", ["__import__('os').getpid()", "pi", "I", "oo",
                                  "True", "2**(1/2)", '"3"', "[1]"])
def test_alpha_is_never_run_as_code(text, capsys, monkeypatch):
    # the datum is read as an expression tree: a call is rejected, not made
    import os
    calls = []
    monkeypatch.setattr(os, "getpid", lambda: calls.append(1) or 1)
    code, out = run(["tower", "build", "--m", "4", "--p", "2", "--alpha", text],
                    capsys)
    assert (code, out, calls) == (64, "", [])


# ---------------------------------------------------------------------------
# frozen command examples


def test_lemma_44_example(capsys):
    code, out = run(["lemma", "44", "--m", "4", "--alpha", "1+z",
                     "--p", "2", "--r", "2", "--q", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["norms"] == [9, 81, 6561]
    assert doc["prime"] == {"q": 3, "f": 2}
    assert doc["unique_lift"] is True


def test_rs_tail_example(capsys):
    code, out = run(["rs", "tail", "--n", "2"], capsys)
    assert code == 0
    assert json.loads(out)["d0"] == 3
    _, out = run(["rs", "tail", "--n", "3"], capsys)
    assert json.loads(out)["d0"] == 6


def test_descent_plan_csv_exact(capsys):
    code, out = run(["descent", "plan", "--used", "2,5", "--p", "2",
                     "--r", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out == "level,prime,power\n1,3,2\n2,7,4\n"


@pytest.mark.parametrize("s", ["1", "0", "-3"])
def test_descent_plan_split_modulus_terminates(s, capsys):
    # in a subprocess with a timeout, so a search that never ends fails the
    # test: s = 1 restricts nothing, and s < 1 is refused
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "kummerlab.cli", "descent", "plan", "--p", "2",
         "--r", "2", f"--split-modulus={s}", "--format", "csv"],
        env=env, capture_output=True, text=True, timeout=60)
    if s == "1":
        unrestricted = run(["descent", "plan", "--p", "2", "--r", "2",
                            "--format", "csv"], capsys)
        assert (proc.returncode, proc.stdout) == unrestricted
        assert proc.stdout == "level,prime,power\n1,3,2\n2,5,4\n"
    else:
        assert (proc.returncode, proc.stdout) == (64, "")


def test_split_trace_csv_exact(capsys):
    # 13 splits in the base; one prime above it climbs inert, one splits fully
    code, out = run(["split", "trace", "--m", "4", "--p", "2", "--r", "2",
                     "--alpha", "1+z", "--q", "13", "--format", "csv"], capsys)
    assert code == 0
    assert out == ("prime_index,base_degree,level,degree,count\n"
                   "0,1,0,1,1\n0,1,1,2,1\n0,1,2,4,1\n"
                   "1,1,0,1,1\n1,1,1,1,2\n1,1,2,1,4\n")


def test_split_trace_ramified_report(capsys):
    # 3 divides the datum once: ramified, so the report has no place rows
    code, out = run(["split", "trace", "--m", "4", "--p", "2", "--r", "1",
                     "--alpha", "3", "--q", "3"], capsys)
    assert code == 0
    assert out == ('{\n  "kind": "trace-report",\n  "primes_above": 1,\n'
                   '  "q": 3,\n  "ramified": true,\n  "rows": [],\n'
                   '  "schema": 1,\n  "threads": 1\n}\n')


def test_split_trace_characteristic_3_relative_field(capsys):
    # a p-th root in F_27[t]/(t^2 - a) needs a non-square past t, t+1, t+2
    code, out = run(["split", "trace", "--m", "13", "--p", "2", "--r", "2",
                     "--alpha", "z-1", "--q", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out == ("prime_index,base_degree,level,degree,count\n"
                   "0,3,0,3,1\n0,3,1,3,2\n0,3,2,3,2\n0,3,2,6,1\n"
                   "1,3,0,3,1\n1,3,1,3,2\n1,3,2,3,2\n1,3,2,6,1\n"
                   "2,3,0,3,1\n2,3,1,6,1\n2,3,2,6,2\n"
                   "3,3,0,3,1\n3,3,1,6,1\n3,3,2,6,2\n")


def test_split_trace_unit_primes_above_core_support(capsys):
    # z + 2 has norm 11 and vanishes at one of the four primes above 11;
    # the other three are units there and trace
    code, out = run(["split", "trace", "--m", "5", "--p", "2", "--r", "2",
                     "--alpha", "z+2", "--q", "11", "--format", "csv"], capsys)
    assert code == 0
    assert out == ("prime_index,base_degree,level,degree,count\n"
                   "0,1,0,1,1\n0,1,1,1,2\n0,1,2,1,2\n0,1,2,2,1\n"
                   "1,1,0,1,1\n1,1,1,2,1\n1,1,2,2,2\n"
                   "2,1,0,1,1\n2,1,1,2,1\n2,1,2,2,2\n")
    code, out = run(["split", "trace", "--m", "5", "--p", "2", "--r", "2",
                     "--alpha", "z+2", "--q", "11"], capsys)
    assert code == 0 and json.loads(out)["ramified"] is True
    code, out = run(["split", "classify", "--m", "5", "--p", "2",
                     "--alpha", "z+2", "--q", "11"], capsys)
    assert code == 0
    assert [r["class"] for r in json.loads(out)["rows"]] == [
        "DEGREE1", "DEGREEP", "DEGREEP", "RAMIFIED"]


@pytest.mark.parametrize("r,alpha", [("1", "3*(z+2)^2"), ("2", "3*(z+2)^4")])
def test_split_trace_core_power_at_its_prime(r, alpha, capsys):
    # z + 2 vanishes at one prime above 11, here to the 2^r-th power: the
    # tower is unramified there, and the datum is 3 times a 2^r-th power
    tower = ["split", "trace", "--m", "5", "--p", "2", "--r", r, "--q", "11"]
    code, out = run(tower + ["--alpha", alpha], capsys)
    assert code == 0
    assert (code, out) == run(tower + ["--alpha", "3"], capsys)


def test_split_density_report(capsys):
    code, out = run(["split", "density", "--m", "4", "--p", "2",
                     "--alpha", "1+z", "--X", "5000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["degree1"], doc["total"], doc["ratio"]) == (660, 677,
                                                            "660/677")


def test_split_classify_report(capsys):
    code, out = run(["split", "classify", "--m", "4", "--p", "2",
                     "--alpha", "1+z", "--q", "13"], capsys)
    assert code == 0
    assert out == ('{\n  "kind": "classify-report",\n  "q": 13,\n  "rows": [\n'
                   '    {\n      "base_degree": 1,\n      "class": "DEGREEP",\n'
                   '      "prime_index": 0\n    },\n'
                   '    {\n      "base_degree": 1,\n      "class": "DEGREE1",\n'
                   '      "prime_index": 1\n    }\n'
                   '  ],\n  "schema": 1,\n  "threads": 1\n}\n')


@pytest.mark.parametrize("lemma", ["44", "45"])
def test_lemma_refuses_prime_ramified_in_pre_step(lemma, capsys):
    # 5 = (2+i)(2-i) ramifies in Q(i, sqrt 5): no inert chain, while the
    # trace reports the ramification
    tower = ["--m", "4", "--p", "2", "--r", "1", "--alpha", "3", "--pre", "5",
             "--q", "5"]
    assert main(["lemma", lemma] + tower) == 64
    assert "q = 5 ramifies in the tower" in capsys.readouterr().err
    code, out = run(["split", "trace"] + tower, capsys)
    assert code == 0 and json.loads(out)["ramified"] is True


def test_lemma_45_report(capsys):
    code, out = run(["lemma", "45", "--m", "4", "--p", "2", "--r", "2",
                     "--alpha", "1+z", "--q", "3", "--other", "1:4,2:2"],
                    capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["min_norm"] == 3 ** 8
    assert doc["folded"] == [[8, 8]]


def test_lemma_58_and_7split(capsys):
    code, out = run(["lemma", "58", "--D", "3", "--q", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == 2 and doc["coords"] == [1, 1]
    code, out = run(["lemma", "7split", "--D", "3", "--q", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k_class"] == "DEGREEP"
    assert (doc["primes_in_top"], doc["relative_degree"]) == (2, 1)


def test_tower_verify_report(capsys):
    code, out = run(["tower", "verify", "--m", "4", "--p", "2", "--r", "2",
                     "--alpha", "1+z"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["chain_degrees"] == [1, 2, 4]
    assert doc["mu_source"] == "conductor"
    assert doc["witness_q"] == 3
    assert all(line["witness_q"] is not None for line in doc["lines"])


@pytest.mark.parametrize("pre", ["-z", "-z^2"])
def test_tower_verify_negated_root_pre_step(pre, capsys):
    # -1 is a cube, so Q(zeta_3)((-zeta_3)^(1/3)) is Q(zeta_9), as for z
    code, out = run(["tower", "verify", "--m", "3", "--p", "3", "--r", "2",
                     "--alpha", "2", f"--pre={pre}"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_source"] == "pre-step"
    assert doc["chain_degrees"] == [3, 9, 27]


# ---------------------------------------------------------------------------
# series commands


def test_rs_coeffs_csv(pairs, capsys):
    code, out = run(["rs", "coeffs", "--pair", pairs["rational"],
                     "--X", "200", "--M", "20", "--kind", "Z",
                     "--exclude", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,real,imag"
    assert lines[1] == "3,4.0,0.0"
    assert all(float(line.split(",")[1]) >= 0 for line in lines[1:])


def test_rs_positivity_report(pairs, capsys):
    code, out = run(["rs", "positivity", "--pair", pairs["rational"],
                     "--X", "1000", "--M", "500", "--exclude", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 106
    assert doc["all_nonnegative"] is True


def test_rs_slope_report(pairs, capsys):
    code, out = run(["rs", "slope", "--pair", pairs["rational"],
                     "--X", "20000", "--exclude", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"] == [0.1, 0.05, 0.02, 0.01]
    # mu + mu' = 2 for the completed pair
    assert abs(doc["completed_slope"] - 2) / 2 < 0.2
    assert len(doc["rows"]) == 4


# ---------------------------------------------------------------------------
# pipeline and descent


def test_theorem_a_equal(pairs, capsys):
    code, out = run(["theorem-a", "--K", "Q(i)", "--pair", pairs["equal"],
                     "--X", "2000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "pipeline-report"
    assert doc["verdict"] == "EQUAL"
    assert doc["threads"] == 1
    assert [s["name"] for s in doc["stages"]][:2] == ["normalize", "reduce"]


def test_theorem_a_refuted(pairs, capsys):
    code, out = run(["theorem-a", "--K", "Q(i)", "--pair", pairs["twisted"],
                     "--X", "2000"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "NOT-HYPOTHESIS"
    assert doc["stages"][-1]["certificate"]["witness"] == 13


def test_theorem_a_inconclusive(pairs, capsys):
    code, out = run(["theorem-a", "--K", "Q(i)", "--pair", pairs["small"],
                     "--X", "40", "--compare-X", "60"], capsys)
    assert code == 3
    assert json.loads(out)["verdict"] == "INCONCLUSIVE"


# frozen sha256 of the theorem-a stdout: reports stay byte-identical
@pytest.mark.parametrize("name,K,extra,code,digest", [
    ("equal", "Q(i)", ["--X", "2000"], 0,
     "cbd8f37e717bfe05a723593b64dcff05c6205d761baf77aaec77527c8f9aee2f"),
    ("forked", "Q(sqrt3)", [], 0,
     "f4cc29972e9ed0319c0a54faac3d59e2a054983e603be1d65f7ad45d049ab61f"),
    ("twisted", "Q(i)", ["--X", "2000"], 2,
     "2a78790c9c1992497c4c54bef64fa38c8e0e36e111df512b083b09340447ac9c"),
], ids=["single-chain-equal", "forked-equal", "not-hypothesis"])
def test_theorem_a_golden_reports(pairs, name, K, extra, code, digest,
                                  capsys):
    got, out = run(["theorem-a", "--K", K, "--pair", pairs[name]] + extra,
                   capsys)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed,expected", [
    (0, "e0e18cc998dc824058fc99e101cc78e959900a0cf4faab5475a873784ab94704"),
    (1, "2ed69b3ea0de54bc05f13f7e056ace106dd97fcb5633bd214d05a4fb7850b2c3"),
], ids=["seed0", "seed1"])
def test_pipeline_workload_digest_frozen(tmp_path, seed, expected):
    # the benchmark's pipeline items at a seed (perfbench/workloads.py, only
    # read here): one sha256 over every item's stdout bytes and exit code
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = workloads.Pipeline(seed, 100, Counter(), str(tmp_path)).items
    digest = hashlib.sha256()
    for field, path, _, _, _ in items:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["theorem-a", "--K", field, "--pair", path])
        digest.update(out.getvalue().encode())
        digest.update(str(code).encode())
    assert digest.hexdigest() == expected


def test_theorem_a_equal_pair_past_twist_bound(tmp_path, capsys):
    # the conductors' lcm is 101 * 103; an equal pair needs no twist
    # search, so the pipeline still ends EQUAL
    rep = _rep([character_of_order(101, 2), character_of_order(103, 2)], QI)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"pi": rep.to_json(), "pi2": rep.to_json()}))
    code, out = run(["theorem-a", "--K", "Q(i)", "--pair", str(path),
                     "--X", "200"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "EQUAL"
    last = doc["stages"][-1]
    assert (last["name"], last["verdict"]) == ("twist-class", "EQUAL")
    assert last["certificate"] == {
        "chi": {"modulus": 1, "order": 1, "trivial": True}}


def test_descent_run_report(pairs, capsys):
    code, out = run(["descent", "run", "--K", "Q(i)",
                     "--pair", pairs["equal"]], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["conclusion"] == "equality descends to K"
    assert doc["fresh_primes"] == [3, 7]
    assert doc["replay_check"] is True


@pytest.mark.parametrize("argv,flag,value", [
    (["split", "classify", "--m", "1", "--p", "2", "--q", "7"], "--alpha", "-5/6"),
    (["tower", "build", "--m", "4", "--p", "2", "--alpha", "3"], "--pre", "-z"),
], ids=["alpha", "pre"])
def test_negative_data_space_form(argv, flag, value, capsys):
    # a datum with a leading '-' may follow its flag as a separate argument
    code, out = run(argv + [flag, value], capsys)
    assert code == 0
    assert run(argv + [f"{flag}={value}"], capsys) == (0, out)


# ---------------------------------------------------------------------------
# exit codes and determinism


@pytest.mark.parametrize("argv", [
    ["nosuch"],
    ["tower"],
    ["split", "trace", "--m", "4", "--p", "2", "--q", "13"],
    ["rs", "tail", "--n", "0"],
    ["rs", "tail", "--n", "2", "--threads", "0"],
    ["tower", "build", "--m", "4", "--p", "2", "--alpha", "2",
     "--format", "csv"],
    ["theorem-a", "--K", "F_7", "--pair", "nowhere.json"],
    ["theorem-a", "--K", "Q(i)", "--pair", "nowhere.json"],
    ["split", "classify", "--m", "4", "--p", "2", "--alpha", "1+z",
     "--q", "13", "--r", "2"],
    ["split", "density", "--m", "1", "--p", "3", "--alpha", "2",
     "--X", "200"],
    ["split", "density", "--m", "1", "--p", "2", "--alpha", "4",
     "--X", "100"],
    ["descent", "plan", "--p", "4", "--r", "2"],
    ["rs", "slope", "--pair", "{equal}", "--exclude", "5", "--X", "1000",
     "--grid", ","],
    ["rs", "slope", "--pair", "{equal}", "--exclude", "5", "--X", "1000",
     "--grid", "0.1"],
    ["rs", "slope", "--pair", "{equal}", "--exclude", "5", "--X", "1000",
     "--grid", "0.1,0.1"],
    ["theorem-a", "--K", "Q(i)", "--pair", "{twisted}", "--slope-cutoff", "0"],
    ["theorem-a", "--K", "Q(i)", "--pair", "{twisted}", "--slope-cutoff", "1"],
    ["theorem-a", "--K", "Q(i)", "--pair", "{twisted}", "--slope-cutoff=-5"],
    ["theorem-a", "--K", "Q(i)", "--pair", "{equal}", "--slope-cutoff", "1"],
    ["lemma", "45", "--m", "4", "--p", "2", "--r", "2", "--alpha", "1+z",
     "--q", "3", "--other", "0:1"],
    ["lemma", "45", "--m", "4", "--p", "2", "--r", "2", "--alpha", "1+z",
     "--q", "3", "--other=-2:3"],
    ["lemma", "45", "--m", "4", "--p", "2", "--r", "2", "--alpha", "1+z",
     "--q", "3", "--other", "2:0"],
    ["rs", "coeffs", "--pair", "{rational}", "--X", "30", "--M", "12",
     "--exclude", "2", "--degrees", "0"],
    ["rs", "slope", "--pair", "{equal}", "--X", "1000", "--exclude", "5",
     "--degrees=-1"],
    ["rs", "positivity", "--pair", "{rational}", "--X", "30", "--M", "12",
     "--exclude", "2,4"],
    ["rs", "coeffs", "--pair", "{rational}", "--X", "30", "--M", "12",
     "--exclude", "0,2"],
    ["rs", "slope", "--pair", "{equal}", "--X", "1000", "--exclude=-3,5"],
], ids=["unknown", "bare-group", "missing-alpha", "zero-n", "zero-threads",
        "csv-no-rows", "bad-field", "missing-pair", "classify-height",
        "density-no-mu-p", "density-square-datum", "plan-composite-p", "grid-empty", "grid-one-point",
        "grid-tie", "slope-cutoff-0", "slope-cutoff-1", "slope-cutoff-neg",
        "slope-cutoff-equal-pair", "other-degree-0", "other-degree-neg",
        "other-count-0", "rs-degree-0", "rs-degree-neg", "rs-exclude-4",
        "rs-exclude-0", "rs-exclude-neg"])
def test_invalid_parameters_exit_64(argv, pairs, capsys):
    # a slope grid needs two strictly decreasing points, a slope cutoff is
    # refused below 2 whatever the pair, folded degrees and counts start at
    # 1, and a place filter takes degrees >= 1 and excludes only primes;
    # each is refused before anything is printed
    code, out = run([a.format(**pairs) for a in argv], capsys)
    assert (code, out) == (64, "")


def test_bad_grid_exits_64(pairs, capsys):
    code, _ = run(["rs", "slope", "--pair", pairs["rational"],
                   "--X", "5000", "--exclude", "2",
                   "--grid", "0.01,0.05"], capsys)
    assert code == 64


def test_square_sqrt_field_exits_64(pairs, capsys):
    # Q(sqrt 4) is Q, not a quadratic field with two places above each q
    code, out = run(["rs", "coeffs", "--field", "Q(sqrt 4)",
                     "--pair", pairs["rational"], "--X", "30", "--M", "12",
                     "--exclude", "2,3,5"], capsys)
    assert (code, out) == (64, "")


@pytest.mark.parametrize("flag", ["--compare-X", "--final-X"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_theorem_a_window_flags_exit_64(pairs, flag, value, capsys):
    # a window below 1 would drop every row of its stage
    code, out = run(["theorem-a", "--K", "Q(sqrt3)", "--pair",
                     pairs["forked"], flag, value], capsys)
    assert (code, out) == (64, "")


def test_malformed_pair_exits_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _ = run(["descent", "run", "--K", "Q(i)", "--pair", str(bad)],
                  capsys)
    assert code == 64
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"pi": {"field": 4, "components": [],
                                       "t": "0"}}))
    code, _ = run(["descent", "run", "--K", "Q(i)", "--pair", str(half)],
                  capsys)
    assert code == 64


@pytest.mark.parametrize("key,value", [("order", 0), ("order", -4),
                                       ("t", "1/0"), ("order", None)])
def test_malformed_character_exits_64(tmp_path, capsys, key, value):
    # one side of an equal pair edited: a zero order, a negative order (once
    # read as the conjugate), a zero-denominator shift and a dropped order
    # (once read as 1, which made the character trivial)
    side = _rep([character_of_order(5, 4).retag(QI)], QI).to_json()
    bad = json.loads(json.dumps(side))
    target = bad if key == "t" else bad["components"][0]
    if value is None:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"pi": side, "pi2": bad}))
    code, out = run(["theorem-a", "--K", "Q(i)", "--pair", str(path)], capsys)
    assert (code, out) == (64, "")


@pytest.mark.parametrize("argv", [["theorem-a", "--K", "Q(i)"],
                                  ["rs", "coeffs", "--field", "Q(i)"],
                                  ["descent", "run", "--K", "Q(i)"]])
def test_pair_table_not_an_object_exits_64(tmp_path, capsys, argv):
    side = _rep([character_of_order(5, 4).retag(QI)], QI).to_json()
    bad = json.loads(json.dumps(side))
    bad["components"][0]["table"] = [1, 2]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"pi": side, "pi2": bad}))
    code, out = run([*argv, "--pair", str(path)], capsys)
    assert (code, out) == (64, "")


@pytest.mark.parametrize("m,alpha", [(4, "-1"), (3, "-3"), (8, "2")])
def test_tower_verify_rational_square_in_field_exits_64(capsys, m, alpha):
    # -1 = zeta_4^2, -3 = (1 + 2 zeta_3)^2 and 2 = (zeta_8 + zeta_8^-1)^2:
    # squares in Q(zeta_m) that are not squares in Q
    code = main(["tower", "verify", "--m", str(m), "--p", "2", "--r", "1",
                 f"--alpha={alpha}"])
    assert code == 64
    assert "is a 2-th power" in capsys.readouterr().err


def test_tower_verify_datum_with_two_large_prime_factors(capsys):
    # the bad primes need (2^61 - 1)(2^89 - 1) factored, which rho alone
    # would take about 10^9 steps to do
    code, out = run(["tower", "verify", "--m", "4", "--p", "2", "--r", "1",
                     "--alpha", "(2^61-1)*(2^89-1)"], capsys)
    assert code == 0 and json.loads(out)["witness_q"] == 13


def test_tower_verify_inconclusive_exits_3(capsys):
    code, _ = run(["tower", "verify", "--m", "4", "--p", "2", "--r", "2",
                   "--alpha", "1+z", "--bound", "2"], capsys)
    assert code == 3


def test_threads_env(pairs, capsys, monkeypatch):
    monkeypatch.setenv("KUMMERLAB_THREADS", "4")
    code, out = run(["rs", "tail", "--n", "2"], capsys)
    assert code == 0 and json.loads(out)["threads"] == 4
    # the flag wins over the environment
    code, out = run(["rs", "tail", "--n", "2", "--threads", "2"], capsys)
    assert code == 0 and json.loads(out)["threads"] == 2
    monkeypatch.setenv("KUMMERLAB_THREADS", "zero")
    code, _ = run(["rs", "tail", "--n", "2"], capsys)
    assert code == 64


def test_out_file_quiet_stdout(tmp_path, capsys):
    target = tmp_path / "tail.json"
    code, out = run(["rs", "tail", "--n", "2", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["d0"] == 3


def test_reports_byte_identical(pairs, tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["theorem-a", "--K", "Q(i)", "--pair", pairs["equal"],
         "--X", "2000", "--out", str(a)], capsys)
    monkeypatch.setenv("KUMMERLAB_THREADS", "1")
    run(["theorem-a", "--K", "Q(i)", "--pair", pairs["equal"],
         "--X", "2000", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    _, first = run(["rs", "coeffs", "--pair", pairs["rational"],
                    "--X", "500", "--M", "50", "--exclude", "2",
                    "--format", "csv"], capsys)
    _, second = run(["rs", "coeffs", "--pair", pairs["rational"],
                     "--X", "500", "--M", "50", "--exclude", "2",
                     "--format", "csv"], capsys)
    assert first == second


def test_readme_examples_exit_0(capsys):
    # every command line in the README that needs no pair file
    lines = [line.strip() for line in README.read_text().splitlines()]
    commands = [line for line in lines
                if line.startswith("kummerlab ") and "--pair" not in line]
    assert len(commands) >= 6
    for line in commands:
        assert run(shlex.split(line)[1:], capsys)[0] == 0, line
