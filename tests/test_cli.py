"""Command-line interface tests, run in process through cli.main.

Each command prints exactly one JSON object whose last key is elapsed_s;
everything before it must be byte-identical across reruns at a fixed
seed.  Exit codes: 0 success, 1 failed check, 2 bad configuration,
3 oracle/budget trouble.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import E2_TABLE
from dtdist import DensePmf, cli, errors, lift, load_json, save_json
from dtdist.cli import main
from dtdist.lift import make_exhaustive_tree_learner

TRAILER = re.compile(r'"elapsed_s": [^,}]+\}\s*$')


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert TRAILER.search(out), f"elapsed_s must be the last key: {out[-80:]}"
    return code, json.loads(out)


def strip_elapsed(line: str) -> str:
    return TRAILER.sub("", line)


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    save_json(str(path), DensePmf(2, E2_TABLE).to_json_dict())
    return str(path)


# ---------------------------------------------------------------------------
# gen


def test_gen_outputs_and_determinism(tmp_path, capsys):
    out = str(tmp_path / "inst")
    argv = ["gen", "--n", "6", "--depth", "2", "--seed", "9", "--out", out]
    code, summary = run_json(capsys, argv)
    assert code == 0
    assert summary["command"] == "gen"
    assert summary["n"] == 6 and summary["depth"] == 2
    assert summary["kind"] == "dt" and summary["seed"] == 9
    tree_bytes = Path(out + ".tree.json").read_bytes()
    dense_bytes = Path(out + ".dense.json").read_bytes()
    dense = DensePmf.from_json_dict(load_json(out + ".dense.json"))
    assert dense.table.sum() == pytest.approx(1.0)
    # same seed, same files, same summary line modulo timing
    code2, line2 = run(capsys, argv)
    assert code2 == 0
    assert Path(out + ".tree.json").read_bytes() == tree_bytes
    assert Path(out + ".dense.json").read_bytes() == dense_bytes
    code1, line1 = run(capsys, argv)
    assert strip_elapsed(line1) == strip_elapsed(line2)


def test_gen_monotone_and_target(tmp_path, capsys):
    out = str(tmp_path / "mono")
    code, summary = run_json(
        capsys,
        ["gen", "--n", "5", "--depth", "2", "--monotone", "--target", "depth:2",
         "--seed", "4", "--out", out],
    )
    assert code == 0
    assert summary["kind"] == "monotone-product" and summary["monotone"]
    target = load_json(out + ".target.json")
    assert target["n"] == 5 and len(target["table"]) == 32
    assert set(target["table"]) <= {0, 1}


def test_gen_random_seed(capsys):
    code, a = run_json(capsys, ["gen", "--n", "4", "--depth", "1", "--seed", "random"])
    code2, b = run_json(capsys, ["gen", "--n", "4", "--depth", "1", "--seed", "random"])
    assert code == code2 == 0
    assert a["seed"] != b["seed"]


@pytest.mark.parametrize("target", ["depth:x", "junta:3.5", "junta:9", "junta:-1", "depth:-1",
                                    "signdeg:-1", "depth:4", "depth", "poly:2"])
def test_gen_rejects_bad_target_order(tmp_path, capsys, target):
    # the first two once raised from int(), the next two from numpy, and
    # depth:-1 and signdeg:-1 wrote a constant table; without --out the
    # descriptor was never read, and the run exited 0
    args = ["gen", "--n", "3", "--depth", "1", f"--target={target}"]
    for extra in (["--out", str(tmp_path / "g")], []):
        code, out = run(capsys, args + extra)
        assert code == 2 and out == "", extra
    assert list(tmp_path.iterdir()) == []


@st.composite
def target_descriptors(draw):
    name = draw(st.sampled_from(["depth", "junta", "signdeg"]) | st.text(max_size=4))
    order = draw(st.integers(-2, 6).map(str)
                 | st.sampled_from(["", "x", "3.5", "1e3", " 2", "+1", "-0", "2:1"])
                 | st.text(max_size=3))
    return f"{name}:{order}"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), target=target_descriptors())
def test_generated_gen_targets_write_a_table_or_exit_two(tmp_path_factory, n, target):
    out = str(tmp_path_factory.mktemp("targets") / "g")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["gen", "--n", str(n), "--depth", "1", f"--target={target}", "--out", out])
    if code == 0:
        table = load_json(out + ".target.json")["table"]
        assert len(table) == 1 << n and set(table) <= {0, 1}
    else:
        assert code == 2 and stdout.getvalue() == "", (target, code)


# ---------------------------------------------------------------------------
# learn-dist


def test_learn_dist_exact(e2_file, tmp_path, capsys):
    out = str(tmp_path / "learned.json")
    code, summary = run_json(
        capsys,
        ["learn-dist", "--dist", e2_file, "--depth", "2", "--eps", "0.2",
         "--seed", "1", "--out", out],
    )
    assert code == 0 and summary["pass"]
    assert summary["tv_exact"] <= 1e-9
    assert summary["oracle"] == "exact"
    assert summary["tau"] == pytest.approx(0.2 / 32)
    assert summary["leaves"] == 3
    assert "samples_used" not in summary
    learned = load_json(out)
    assert "root" in learned


def test_learn_dist_monotone_reports_samples(tmp_path, capsys):
    gen_out = str(tmp_path / "m")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--monotone",
                      "--seed", "5", "--out", gen_out])
    code, summary = run_json(
        capsys,
        ["learn-dist", "--dist", gen_out + ".dense.json", "--depth", "2",
         "--eps", "0.2", "--oracle", "monotone", "--seed", "6"],
    )
    assert code == 0 and summary["pass"]
    assert summary["samples_used"] == summary["queries"]["SAMPLE"] > 0
    assert summary["tv_exact"] <= 0.2


def test_learn_dist_subcube(tmp_path, capsys):
    gen_out = str(tmp_path / "s")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--seed", "8",
                      "--out", gen_out])
    code, summary = run_json(
        capsys,
        ["learn-dist", "--dist", gen_out + ".tree.json", "--depth", "2",
         "--eps", "0.2", "--oracle", "subcube", "--seed", "9"],
    )
    assert code == 0 and summary["pass"]
    assert summary["queries"].get("SUBCUBE_SAMPLE", 0) > 0
    assert "samples_used" not in summary


def test_learn_dist_deterministic_output(e2_file, capsys):
    argv = ["learn-dist", "--dist", e2_file, "--depth", "1", "--eps", "0.5",
            "--seed", "3"]
    _, line1 = run(capsys, argv)
    _, line2 = run(capsys, argv)
    assert strip_elapsed(line1) == strip_elapsed(line2)


# sha256 of the summary line (elapsed_s stripped) and of the --out tree,
# recorded before the threshold rule was derived from the estimator kind;
# any change to a sampled stream, a threshold or a leaf mass shows here
LEARN_PINS = {
    "exact": ("f2312db08bb6575b9f079dd690828cea0c78a9655810e85b4f861252e698e906",
              "8dd7be079926edf6c9f66b6ba8b34c1bfb3f30e6ad83471c90436edbca34aa1e"),
    "monotone": ("af91480e4fa4569f3ba01d75bf5af6f8d13e1df1ea96e5ccdff6e368812f4a9f",
                 "f988afb6b85f28f0a7e1871043d1a2a85f305dea72e3983590e0edc8eb4d188b"),
    "subcube": ("c20358c353c31451ea99177198c696a831c01dc1a28b6016d16cf5d8a0a518a2",
                "df4191696b4490227de05698ecfe49ea3a15ca2af1a5c3d35258dc782cdf41a6"),
}


@pytest.mark.parametrize("oracle", sorted(LEARN_PINS))
def test_learn_dist_output_is_byte_stable(tmp_path, capsys, oracle):
    gen_out = str(tmp_path / "pin")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--seed", "33",
                      "--out", gen_out])
    tree_out = str(tmp_path / "learned.json")
    code, line = run(capsys, ["learn-dist", "--dist", gen_out + ".tree.json",
                              "--depth", "2", "--eps", "0.2", "--oracle", oracle,
                              "--max-pool", "50000", "--infest-reps", "300",
                              "--seed", "32", "--out", tree_out])
    assert code == 0
    line_digest, tree_digest = LEARN_PINS[oracle]
    assert hashlib.sha256(strip_elapsed(line).encode()).hexdigest() == line_digest
    assert hashlib.sha256(Path(tree_out).read_bytes()).hexdigest() == tree_digest


# ---------------------------------------------------------------------------
# estimate-influence


def test_estimate_influence_exact(e2_file, capsys):
    code, summary = run_json(
        capsys,
        ["estimate-influence", "--dist", e2_file, "--coord", "0",
         "--oracle", "exact", "--seed", "2"],
    )
    assert code == 0
    assert summary["estimate"]["value"] == pytest.approx(0.5, abs=1e-9)
    assert summary["exact"] == pytest.approx(0.5, abs=1e-9)
    assert summary["abs_error"] <= 1e-9
    assert set(summary["estimate"]) == {
        "coord", "value", "accuracy", "confidence", "samples"
    }


def test_estimate_influence_monotone(e2_file, capsys):
    code, summary = run_json(
        capsys,
        ["estimate-influence", "--dist", e2_file, "--coord", "0",
         "--oracle", "monotone", "--eps", "0.05", "--delta", "0.05",
         "--seed", "3"],
    )
    assert code == 0
    assert summary["exact"] == pytest.approx(0.5, abs=1e-9)
    assert summary["abs_error"] <= 0.1  # twice the requested accuracy
    assert summary["queries"]["SAMPLE"] == summary["estimate"]["samples"]


def test_estimate_influence_subcube_restricted(e2_file, capsys):
    code, summary = run_json(
        capsys,
        ["estimate-influence", "--dist", e2_file, "--coord", "1",
         "--restrict", "0=+1", "--oracle", "subcube", "--eps", "0.05",
         "--delta", "0.05", "--seed", "4"],
    )
    assert code == 0
    assert summary["restrict"] == "0=+1"
    assert summary["exact"] == pytest.approx(1 / 3, abs=1e-9)
    assert summary["abs_error"] <= 0.1
    assert summary["queries"]["SUBCUBE_SAMPLE"] > 0


# sha256 of the summary line, elapsed_s stripped, recorded before the
# estimators were folded into InfluenceOracle; any change to a sampled
# stream, a sample count or a reduction order shows here
ESTIMATE_PINS = {
    ("exact", ""): "682b06a58e3f7163c8f003b06d690e6b02a81d7a0d924ca0ba6e84963b522b96",
    ("exact", "0=+1"): "ad00711680d7dc799d66bcad5121c9aeac90834c3bec4a6122931cef8780c1d7",
    ("monotone", ""): "856aed39c8eab50ed93678ea62a886b88be59fdeab796e7cb83671c952356e03",
    ("monotone", "0=+1"): "182ab2bc45d94341e4a297aa5bce35f9b3e894b9cd6949a5b69133326e36d82f",
    ("subcube", ""): "4979b0c00b2043e8b7b502c596891689bd9ce4be877c4e6b096fba1c879b5e29",
    ("subcube", "0=+1"): "7a5276c450410bf09bfe8faaef48aaaaefffcbaeba81cc9d5d3c576e12b7a75a",
}


@pytest.mark.parametrize("oracle, restrict", sorted(ESTIMATE_PINS))
def test_estimate_influence_output_is_byte_stable(tmp_path, capsys, oracle, restrict):
    # the instance splits on 0 at the root and on 1 below 0=+1, so the
    # restricted and unrestricted values of coordinate 1 differ
    gen_out = str(tmp_path / "pin")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--seed", "33",
                      "--out", gen_out])
    code, line = run(capsys, ["estimate-influence", "--dist", gen_out + ".tree.json",
                              "--coord", "1", "--restrict", restrict,
                              "--oracle", oracle, "--seed", "32"])
    assert code == 0
    digest = hashlib.sha256(strip_elapsed(line).encode()).hexdigest()
    assert digest == ESTIMATE_PINS[(oracle, restrict)]


# ---------------------------------------------------------------------------
# lift


def test_lift_end_to_end(tmp_path, capsys):
    gen_out = str(tmp_path / "l")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--target", "depth:2",
                      "--seed", "11", "--out", gen_out])
    hyp_out = str(tmp_path / "hyp.json")
    code, summary = run_json(
        capsys,
        ["lift", "--dist", gen_out + ".tree.json",
         "--target", gen_out + ".target.json", "--learner", "tree:2",
         "--depth", "2", "--eps", "0.3", "--seed", "12", "--out", hyp_out],
    )
    assert code == 0 and summary["pass"]
    assert summary["learner"] == "tree:2" and not summary["boosted"]
    assert summary["error_exact"] <= 0.3
    assert summary["labeled"] > 0
    assert summary["leaf_status"] == {"ok": summary["leaves"], "skipped": 0, "error": 0}
    assert load_json(hyp_out)["kind"] == "tree-routed"


def test_lift_counts_leaves_whose_learner_raised(tmp_path, capsys, monkeypatch):
    # a leaf whose learner raises predicts 0; the summary says so
    def raising(*args):
        def learn(sample):
            raise RuntimeError("leaf learner failed")
        return dataclasses.replace(make_exhaustive_tree_learner(*args), learn=learn)

    monkeypatch.setattr("dtdist.cli.make_exhaustive_tree_learner", raising)
    gen_out = str(tmp_path / "l")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--target", "depth:2",
                      "--seed", "11", "--out", gen_out])
    code, summary = run_json(
        capsys,
        ["lift", "--dist", gen_out + ".tree.json",
         "--target", gen_out + ".target.json", "--learner", "tree:2",
         "--depth", "2", "--eps", "0.3", "--seed", "12"],
    )
    assert summary["leaf_status"] == {"ok": 0, "skipped": 0, "error": summary["leaves"]}
    assert code == (0 if summary["pass"] else 1)


def test_lift_output_is_byte_stable(tmp_path, capsys):
    # sha256 of the summary line (elapsed_s stripped) and of the hypothesis
    # file, recorded before the tree learner moved to a count cube; any
    # change to routing, rerandomisation or the learner's ERM shows here.
    # The summary literal was re-recorded when `leaf_status` was appended,
    # with every earlier key equal at both commits
    gen_out = str(tmp_path / "pin")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--target", "depth:4",
                      "--seed", "11", "--out", gen_out])
    hyp_out = str(tmp_path / "hyp.json")
    code, line = run(
        capsys,
        ["lift", "--dist", gen_out + ".tree.json",
         "--target", gen_out + ".target.json", "--learner", "tree:2",
         "--depth", "2", "--eps", "0.3", "--seed", "12", "--out", hyp_out],
    )
    assert code == 0
    assert hashlib.sha256(strip_elapsed(line).encode()).hexdigest() == (
        "085d847de5f108d54b89c688754f14402891a0a726074c3f2e0116fecb1de726"
    )
    assert hashlib.sha256(Path(hyp_out).read_bytes()).hexdigest() == (
        "de46ac94a2d358e3f2752782515580edf3c02f8c6922f7f50272ab36dd28c12f"
    )


def test_lift_lowdeg_learner(tmp_path, capsys):
    gen_out = str(tmp_path / "l2")
    run_json(capsys, ["gen", "--n", "5", "--depth", "1", "--target", "junta:1",
                      "--seed", "13", "--out", gen_out])
    code, summary = run_json(
        capsys,
        ["lift", "--dist", gen_out + ".dense.json",
         "--target", gen_out + ".target.json", "--learner", "lowdeg:1",
         "--depth", "1", "--eps", "0.3", "--seed", "14"],
    )
    assert code == 0 and summary["pass"]
    assert summary["learner"] == "lowdeg:1"


# ---------------------------------------------------------------------------
# verify


def test_verify_inequalities_outputs(tmp_path, capsys):
    rows_path = str(tmp_path / "rows.jsonl")
    csv_path = str(tmp_path / "summary.csv")
    code, summary = run_json(
        capsys,
        ["verify", "--suite", "inequalities", "--trials", "3", "--workers", "1",
         "--seed", "21", "--out", rows_path, "--csv", csv_path],
    )
    assert code == 0 and summary["passed"]
    suite = summary["suites"]["inequalities"]
    assert suite["records"] == 3 * 11 and suite["failures"] == 0
    rows = [json.loads(line) for line in Path(rows_path).read_text().splitlines()]
    assert len(rows) == 33
    assert all(r["suite"] == "inequalities" and r["passed"] for r in rows)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "suite,records,failures,pass_rate,passed"
    assert lines[1].startswith("inequalities,33,0,1.000000,")


def test_verify_workers_agree(tmp_path, capsys):
    rows1 = str(tmp_path / "w1.jsonl")
    rows2 = str(tmp_path / "w2.jsonl")
    base = ["verify", "--suite", "builddt-optimal", "--trials", "4", "--seed", "22"]
    code1, _ = run_json(capsys, base + ["--workers", "1", "--out", rows1])
    code2, _ = run_json(capsys, base + ["--workers", "2", "--out", rows2])
    assert code1 == code2 == 0
    assert Path(rows1).read_text() == Path(rows2).read_text()


def test_verify_estimators_rows_are_byte_stable(tmp_path, capsys):
    # sha256 of the --out rows, recorded as ESTIMATE_PINS were
    rows = str(tmp_path / "rows.jsonl")
    code, _ = run_json(capsys, ["verify", "--suite", "estimators", "--trials", "4",
                                "--workers", "1", "--seed", "33", "--out", rows])
    assert code == 0
    assert hashlib.sha256(Path(rows).read_bytes()).hexdigest() == (
        "1fd54d3ad6072f56381a92ccf8e8e3919dba4411cf8a531ddc96d55f346965b7"
    )


def test_verify_all_suites(capsys):
    code, summary = run_json(
        capsys,
        ["verify", "--suite", "all", "--trials", "2", "--workers", "1",
         "--seed", "23"],
    )
    assert code == 0 and summary["passed"]
    assert set(summary["suites"]) == {
        "inequalities", "builddt-optimal", "estimators", "core"
    }
    for stats in summary["suites"].values():
        assert stats["records"] > 0


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_exit_code_config_errors(e2_file, capsys):
    # depth beyond n
    code, _ = run(capsys, ["learn-dist", "--dist", e2_file, "--depth", "7",
                           "--eps", "0.2"])
    assert code == 2
    # eps outside (0,1)
    code, _ = run(capsys, ["learn-dist", "--dist", e2_file, "--depth", "1",
                           "--eps", "1.5"])
    assert code == 2
    # n out of range
    code, _ = run(capsys, ["gen", "--n", "25", "--depth", "1"])
    assert code == 2
    # coordinate fixed by the restriction
    code, _ = run(capsys, ["estimate-influence", "--dist", e2_file,
                           "--coord", "0", "--restrict", "0=+1"])
    assert code == 2
    # unknown learner family
    code, _ = run(capsys, ["lift", "--dist", e2_file, "--target", e2_file,
                           "--learner", "magic:2", "--depth", "1",
                           "--eps", "0.2"])
    assert code == 2


@pytest.mark.parametrize("oracle", ["exact", "monotone", "subcube"])
@pytest.mark.parametrize("restrict", ["1=+2", "9=+1", "0"])
def test_exit_code_bad_restriction(tmp_path, capsys, oracle, restrict):
    gen_out = str(tmp_path / "g")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--monotone",
                      "--seed", "5", "--out", gen_out])
    code, out = run(capsys, ["estimate-influence", "--dist", gen_out + ".dense.json",
                             "--coord", "1", "--restrict", restrict,
                             "--oracle", oracle])
    assert code == 2 and out == ""


def test_exit_code_unreadable_inputs(e2_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    garbled = str(tmp_path / "garbled.json")
    with open(garbled, "w") as fh:
        fh.write("{not json")
    no_n = str(tmp_path / "no_n.json")
    save_json(no_n, {"table": [0.5, 0.5]})
    for path in (missing, garbled, no_n):
        code, out = run(capsys, ["learn-dist", "--dist", path, "--depth", "1",
                                 "--eps", "0.2"])
        assert code == 2 and out == ""
        code, out = run(capsys, ["lift", "--dist", e2_file, "--target", path,
                                 "--learner", "tree:1", "--depth", "1",
                                 "--eps", "0.2"])
        assert code == 2 and out == ""


def test_exit_code_invalid_distribution(e2_file, tmp_path, capsys):
    # files that parse but fail validation are bad input, not a failed check
    short_sum = str(tmp_path / "sum09.json")
    save_json(short_sum, {"n": 1, "table": [0.5, 0.4]})
    code, out = run(capsys, ["learn-dist", "--dist", short_sum, "--depth", "1",
                             "--eps", "0.2"])
    assert code == 2 and out == ""
    negative = str(tmp_path / "negative.json")
    save_json(negative, {"n": 2, "root": {"var": 0, "lo": {"leaf": -0.25},
                                          "hi": {"leaf": 0.75}}})
    code, out = run(capsys, ["lift", "--dist", negative, "--target", e2_file,
                             "--learner", "tree:1", "--depth", "1",
                             "--eps", "0.2"])
    assert code == 2 and out == ""
    wrong_length = str(tmp_path / "wrong_length.json")
    save_json(wrong_length, {"n": 2, "table": [0.5, 0.5]})
    code, out = run(capsys, ["estimate-influence", "--dist", wrong_length,
                             "--coord", "0"])
    assert code == 2 and out == ""
    # non-finite values; NaN once passed both checks, and exited 1 (exact)
    # or with a traceback (subcube); the strings and booleans, which numpy
    # and float() read as numbers, once loaded and exited 0
    for name, text in (
        ("nan_table", '{"n": 1, "table": [0.5, NaN]}'),
        ("inf_table", '{"n": 1, "table": [0.5, Infinity]}'),
        ("nan_leaf", '{"n": 1, "root": {"var": 0, "lo": {"leaf": 0.5}, "hi": {"leaf": NaN}}}'),
        ("string_table", '{"n": 1, "table": ["0.5", "0.5"]}'),
        ("bool_table", '{"n": 1, "table": [true, false]}'),
        ("string_leaf", '{"n": 0, "root": {"leaf": "1"}}'),
        ("bool_leaf", '{"n": 0, "root": {"leaf": true}}'),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for oracle in ("exact", "subcube"):
            code, out = run(capsys, ["learn-dist", "--dist", str(path), "--depth", "1",
                                     "--eps", "0.2", "--oracle", oracle])
            assert code == 2 and out == "", (name, oracle)
    # target labels other than the integers 0 and 1; 0.5 was once cast to 0
    fair_coin = str(tmp_path / "coin.json")
    save_json(fair_coin, {"n": 1, "table": [0.5, 0.5]})
    for labels in ([2, 0], ["a", 0], [0.5, 1]):
        target = str(tmp_path / "target.json")
        save_json(target, {"n": 1, "table": labels})
        code, out = run(capsys, ["lift", "--dist", fair_coin, "--target", target,
                                 "--learner", "tree:1", "--depth", "1",
                                 "--eps", "0.2"])
        assert code == 2 and out == "", labels


@pytest.mark.parametrize("obj, field", [
    ({"n": True, "table": [0.5, 0.5]}, "dense n"),
    ({"n": 1.5, "table": [0.5, 0.5]}, "dense n"),
    ({"n": -1, "table": [1.0]}, "dense n"),
    ({"n": True, "root": {"leaf": 0.5}}, "tree n"),
    ({"n": 1.5, "root": {"leaf": 0.5}}, "tree n"),
    ({"n": -1, "root": {"leaf": 1.0}}, "tree n"),
    ({"n": 1, "root": {"var": True, "lo": {"leaf": 0.5}, "hi": {"leaf": 0.5}}}, "split variable"),
    ({"n": 1, "root": {"var": 0.5, "lo": {"leaf": 0.5}, "hi": {"leaf": 0.5}}}, "split variable"),
    ({"n": 1, "root": {"var": -1, "lo": {"leaf": 0.5}, "hi": {"leaf": 0.5}}}, "split variable"),
])
def test_exit_code_non_integer_n_or_var(tmp_path, capsys, obj, field):
    # true and 1.5 once loaded as n=1, and n=-1 reported a negative shift
    path = str(tmp_path / "dist.json")
    save_json(path, obj)
    code = main(["learn-dist", "--dist", path, "--depth", "1", "--eps", "0.2"])
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert f"{field} must be a nonnegative integer" in got.err


def test_exit_code_bad_learner_order(e2_file, capsys):
    for learner in ("tree:x", "tree:", "lowdeg:1.5"):
        code, out = run(capsys, ["lift", "--dist", e2_file, "--target", e2_file,
                                 "--learner", learner, "--depth", "1",
                                 "--eps", "0.2"])
        assert code == 2 and out == ""


@pytest.mark.parametrize("learner", ["tree:5", "tree:4", "tree:-1", "lowdeg:-1"])
def test_exit_code_learner_order_out_of_range(tmp_path, capsys, learner):
    # tree:5 ran with every leaf's learner refusing the order (constant
    # leaves, exit 0); lowdeg:-1 died on a math domain error (exit 1)
    gen_out = str(tmp_path / "l")
    run_json(capsys, ["gen", "--n", "6", "--depth", "2", "--target", "depth:2",
                      "--seed", "11", "--out", gen_out])
    code = main(["lift", "--dist", gen_out + ".tree.json", "--target", gen_out + ".target.json",
                 "--learner", learner, "--depth", "2", "--eps", "0.3", "--seed", "12"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "learner" in captured.err, captured.err


def test_exit_code_tree_learner_above_n16(tmp_path, capsys):
    n = 17
    dist, target = str(tmp_path / "u.json"), str(tmp_path / "t.json")
    save_json(dist, {"n": n, "root": {"leaf": 2.0 ** -n}})
    save_json(target, {"n": n, "table": [0] * (1 << n)})
    code = main(["lift", "--dist", dist, "--target", target, "--learner", "tree:1",
                 "--depth", "1", "--eps", "0.3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "n <= 16" in captured.err


@pytest.mark.parametrize("workers, env", [("0", None), ("-3", None), (None, "abc"),
                                          (None, "0"), (None, "2.5")])
def test_exit_code_bad_worker_count(monkeypatch, capsys, workers, env):
    # --workers 0 ran 2 workers, --workers -3 ran and reported -3, and a
    # non-integer DTDIST_WORKERS died with a traceback
    if env is None:
        monkeypatch.delenv("DTDIST_WORKERS", raising=False)
    else:
        monkeypatch.setenv("DTDIST_WORKERS", env)
    argv = ["verify", "--suite", "core", "--trials", "2"]
    code = main(argv + ([] if workers is None else ["--workers", workers]))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, env, cores, trials, used", [
    ("100000", None, 2, "3", 2),
    (None, "100000", 2, "3", 2),
    ("100000", None, None, "3", 1),
    ("100000", None, 64, "3", 3),
    ("2", None, 64, "1", 1),
    (None, None, 8, "3", 3),
])
def test_verify_pool_is_capped(monkeypatch, capsys, workers, env, cores, trials, used):
    # a fork pool starts every worker at once, so --workers 100000 once
    # asked for 100,000 processes; the pool and the reported count are
    # now min(workers, cores, trials), and one worker runs in process
    _SerialPool.sizes = []
    monkeypatch.setattr("dtdist.cli.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: cores)
    if env is None:
        monkeypatch.delenv("DTDIST_WORKERS", raising=False)
    else:
        monkeypatch.setenv("DTDIST_WORKERS", env)
    argv = ["verify", "--suite", "inequalities", "--trials", trials, "--seed", "21"]
    code, summary = run_json(capsys, argv + ([] if workers is None else ["--workers", workers]))
    assert code == 0 and summary["workers"] == used
    assert _SerialPool.sizes == ([] if used == 1 else [used])


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(capsys, trials):
    code, out = run(capsys, ["verify", "--suite", "core", "--trials", trials,
                             "--workers", "1"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("seed", ["abc", "1e3", "x", "1.5", ""])
@pytest.mark.parametrize("command", ["gen", "learn-dist", "estimate-influence", "lift", "verify"])
def test_exit_code_bad_seed(e2_file, tmp_path, capsys, command, seed):
    # a seed neither an integer nor 'random' once escaped as a ValueError
    # traceback with exit 1
    target = str(tmp_path / "target.json")
    save_json(target, {"n": 2, "table": [0, 1, 1, 0]})
    argv = {
        "gen": ["gen", "--n", "3", "--depth", "1"],
        "learn-dist": ["learn-dist", "--dist", e2_file, "--depth", "1", "--eps", "0.3"],
        "estimate-influence": ["estimate-influence", "--dist", e2_file, "--coord", "0"],
        "lift": ["lift", "--dist", e2_file, "--target", target, "--learner", "tree:1",
                 "--depth", "1", "--eps", "0.3"],
        "verify": ["verify", "--suite", "core", "--trials", "1", "--workers", "1"],
    }[command]
    code, out = run(capsys, argv + [f"--seed={seed}"])
    assert code == 2 and out == ""


def test_exit_code_nonpositive_max_pool(e2_file, capsys):
    # 0 was once read as "not given" and ran with the default cap, and a
    # negative --infest-reps died in numpy with exit 1
    for oracle in ("exact", "monotone", "subcube"):
        for cap in (["--max-pool", "-5"], ["--max-pool", "0"],
                    ["--infest-reps", "0"], ["--infest-reps", "-3"]):
            code, out = run(capsys, ["learn-dist", "--dist", e2_file, "--depth", "1",
                                     "--eps", "0.2", "--oracle", oracle] + cap)
            assert code == 2 and out == "", (oracle, cap)


@pytest.mark.parametrize("argv", [
    ["learn-dist", "--accuracy", "0"],
    ["learn-dist", "--accuracy", "-0.1"],
    ["learn-dist", "--oracle", "monotone", "--accuracy", "0"],
    ["lift", "--dist-eps", "0"],
    ["lift", "--dist-eps", "-0.1"],
    ["lift", "--dist-eps", "1.5"],
])
def test_exit_code_nonpositive_accuracy(e2_file, tmp_path, capsys, argv):
    target = str(tmp_path / "target.json")
    save_json(target, {"n": 2, "table": [0, 1, 1, 0]})
    common = ["--dist", e2_file, "--depth", "1", "--eps", "0.2"]
    if argv[0] == "lift":
        common += ["--target", target, "--learner", "tree:1"]
    code, out = run(capsys, argv[:1] + common + argv[1:])
    assert code == 2 and out == ""


def test_exit_code_oracle_budget(tmp_path, capsys):
    # distribution with an unreachable subcube: conditioning on it must
    # exhaust the rejection cap and exit 3
    table = np.zeros(8)
    table[[1, 3, 5, 7]] = [0.5, 0.25, 0.125, 0.125]
    path = str(tmp_path / "gapped.json")
    save_json(path, DensePmf(3, table).to_json_dict())
    code, out = run(capsys, ["estimate-influence", "--dist", path,
                             "--coord", "1", "--restrict", "0=-1",
                             "--oracle", "subcube", "--seed", "5"])
    assert code == 3
    assert out == ""  # errors go to stderr only


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_estimate_influence_takes_no_out(e2_file):
    # it writes no artifact, so an --out is a usage error, not ignored
    code, err = run_door(["estimate-influence", "--dist", e2_file, "--coord", "0",
                          "--out", "ignored.json"])
    assert code == 2 and "unrecognized arguments: --out" in err


# the exit code of each error class, as the README documents it
_EXIT_CODES = {
    errors.DtdistError: 1,
    errors.DimensionMismatchError: 1,
    errors.InvalidTreeError: 1,
    errors.InvalidPmfError: 1,
    errors.DegenerateEstimateError: 1,
    errors.ConfigError: 2,
    errors.OracleModeError: 3,
    errors.ZeroWeightSubcubeError: 3,
    errors.RejectionCapExceededError: 3,
    errors.BudgetExceededError: 3,
}


def test_exit_code_table_lists_every_error_class():
    assert set(_EXIT_CODES) == {errors.DtdistError, *errors.DtdistError.__subclasses__()}


@pytest.mark.parametrize("error", list(_EXIT_CODES), ids=lambda e: e.__name__)
def test_exit_code_of_each_error_class(monkeypatch, capsys, error):
    def raising(args):
        raise error("raised by the command")

    monkeypatch.setattr(cli, "cmd_gen", raising)
    code = main(["gen", "--n", "2", "--depth", "1"])
    captured = capsys.readouterr()
    assert code == _EXIT_CODES[error]
    assert captured.out == "" and captured.err == "error: raised by the command\n"


@pytest.mark.parametrize("bad", ["under a missing directory", "a directory"])
@pytest.mark.parametrize("site", ["gen --out", "learn-dist --out", "lift --out",
                                  "verify --out", "verify --csv"])
def test_unwritable_artifact_path_exits_two(n4_files, tmp_path, capsys, site, bad):
    # each once ran to the end and then raised FileNotFoundError or
    # IsADirectoryError from the write, with a traceback and exit 1
    command, flag = site.split()
    argv = {"gen": ["gen", "--n", "3", "--depth", "1", "--target", "depth:1"],
            "verify": ["verify", "--suite", "core", "--trials", "1", "--workers", "1"],
            }.get(command) or _count_argv(command, n4_files)
    path = tmp_path / "missing" / "a" if bad == "under a missing directory" else tmp_path / "a"
    if bad == "a directory":  # gen writes PATH.tree.json first
        Path(str(path) + (".tree.json" if command == "gen" else "")).mkdir()
    code = main(argv + [flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# generated bad input at every door

# values a JSON file can hold where a count, a coordinate or a mass belongs
_NOT_COUNTS = [-1, True, False, 1.5, "1", None, [1], 10**30]
_NOT_MASSES = [float("nan"), float("inf"), float("-inf"), 10**400, "x", "0.5", "1", True, False,
               None, [], {}]


@st.composite
def malformed_dist_texts(draw):
    """The text of a dist file that holds no valid distribution."""
    n = draw(st.integers(1, 3))
    table = [2.0 ** -n] * (1 << n)
    # a depth-1 tree on coordinate 0 whose leaves keep the masses at 1
    tree = {"n": n, "root": {"var": 0, "lo": {"leaf": 2.0 ** -n}, "hi": {"leaf": 2.0 ** -n}}}
    kind = draw(st.sampled_from(["json", "n", "large", "mass", "negative", "length", "var"]))
    if kind == "json":
        return draw(st.sampled_from(["", "{not json", "[1, 2", "null", "[]", "3", '"root"',
                                     '{"n": 1, "table": [0.5, 0.5]', '{"n": 1}',
                                     '{"n": 1, "root": 5}', '{"n": 1, "root": {}}',
                                     '{"table": {"n": 1}}']) | st.text(max_size=12))
    if kind == "n":
        obj = draw(st.sampled_from([{"table": table}, tree]))
        obj["n"] = draw(st.sampled_from(_NOT_COUNTS + [n - 1, n + 1, 21]))
    elif kind == "large":
        # a valid tree past the dense table that every command scores against
        m = draw(st.sampled_from([21, 30, 64]))
        obj = {"n": m, "root": {"leaf": 2.0 ** -m}}
    elif kind == "mass":
        bad = draw(st.sampled_from(_NOT_MASSES))
        if draw(st.booleans()):
            table[draw(st.integers(0, len(table) - 1))] = bad
            obj = {"n": n, "table": table}
        else:
            tree["root"][draw(st.sampled_from(["lo", "hi"]))]["leaf"] = bad
            obj = tree
    elif kind == "negative":
        # still sums to 1, with one entry below -1e-12
        x = draw(st.sampled_from([1e-9, 0.25, 2.0]))
        table[-1] += table[0] + x
        table[0] = -x
        obj = {"n": n, "table": table}
    elif kind == "length":
        size = draw(st.integers(0, (1 << n) + 3).filter(lambda m: m != 1 << n))
        obj = {"n": n, "table": [1.0 / max(size, 1)] * size}
    else:
        var = draw(st.sampled_from(_NOT_COUNTS + [n, n + 4, "repeat"]))
        if var == "repeat":
            leaf = {"leaf": 2.0 ** -n}
            tree["root"]["hi"] = {"var": 0, "lo": leaf, "hi": leaf}
        else:
            tree["root"]["var"] = var
        obj = tree
    return json.dumps(obj)


@st.composite
def malformed_restrictions(draw):
    """A --restrict string with out-of-range or repeated coordinates or
    bad signs (n=2)."""
    coord = st.integers(-3, 5) | st.sampled_from([64, 10**6, 10**12])
    sign = st.sampled_from(["+1", "-1", "1", "+2", "0", "x", "", "1.0", "++1", "+1=1"])
    parts = draw(st.lists(st.tuples(coord, sign), min_size=1, max_size=3))
    if draw(st.booleans()):
        parts.append(parts[0])
    text = ",".join(f"{i}={b}" for i, b in parts)
    return text + draw(st.sampled_from(["", ",", "=", ",0"]))


def run_door(argv):
    """(exit code, stderr) of one in-process CLI run; argparse's usage
    errors arrive as SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _door_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("doors")
    good, target = str(root / "good.json"), str(root / "target.json")
    save_json(good, DensePmf(2, E2_TABLE).to_json_dict())
    save_json(target, {"n": 2, "table": [0, 1, 1, 0]})
    return root, good, target


@settings(max_examples=25, deadline=None)
@given(text=malformed_dist_texts())
# strategy cases that once failed: an integer mass past float range and
# an n whose 2^n overflows while a tree's masses are summed raised
# OverflowError, and a valid n=30 tree exited 1 at the dense reference
@example(text=json.dumps({"n": 1, "table": [10**400, 0.5]}))
@example(text=json.dumps({"n": 1, "root": {"var": 0, "lo": {"leaf": 10**400}, "hi": {"leaf": 0.5}}}))
@example(text=json.dumps({"n": 10**30, "root": {"var": 0, "lo": {"leaf": 0.5}, "hi": {"leaf": 0.5}}}))
@example(text=json.dumps({"n": 30, "root": {"leaf": 2.0 ** -30}}))
def test_generated_bad_dist_files_exit_two(tmp_path_factory, text):
    root, _, target = _door_files(tmp_path_factory)
    path = root / "bad.json"
    path.write_text(text)
    dist = str(path)
    for argv in (["learn-dist", "--dist", dist, "--depth", "1", "--eps", "0.3"],
                 ["estimate-influence", "--dist", dist, "--coord", "0", "--eps", "0.3"],
                 ["lift", "--dist", dist, "--target", target, "--learner", "tree:1",
                  "--depth", "1", "--eps", "0.3"]):
        code, err = run_door(argv)
        assert code in (0, 2), (argv[0], text, code, err)
        assert "Traceback" not in err


@settings(max_examples=15, deadline=None)
@given(text=malformed_restrictions(), coord=st.integers(0, 1))
@example(text="0=+1,0=-1", coord=1)
@example(text="2=+1", coord=0)
@example(text="1=+2", coord=0)
def test_generated_bad_restrictions_exit_two(tmp_path_factory, text, coord):
    _, good, _ = _door_files(tmp_path_factory)
    code, err = run_door(["estimate-influence", "--dist", good, "--coord", str(coord),
                          f"--restrict={text}", "--eps", "0.3"])
    assert code in (0, 2), (text, code, err)
    assert "Traceback" not in err


def test_huge_restriction_coordinate_is_refused_in_small_memory(tmp_path_factory):
    # a restriction's mask sets bit i, so coordinate 10^12 would ask for
    # 125 GB were it built before the range check
    _, good, _ = _door_files(tmp_path_factory)
    tracemalloc.start()
    try:
        code, err = run_door(["estimate-influence", "--dist", good, "--coord", "0",
                              "--restrict", f"{10**12}=+1", "--eps", "0.3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "out of range" in err
    assert peak < 1 << 20


# values a JSON target table can hold where a 0/1 label belongs
_NOT_LABELS = [True, False, 1.0, 0.0, 2, -1, 10**400, float("nan"), "1", "x", None,
               [1], [[0]], {}]


@st.composite
def malformed_target_texts(draw):
    """The text of a --target file that holds no 0/1 label table of the
    dist's 2^n entries (n=2)."""
    kind = draw(st.sampled_from(["json", "length", "label"]))
    if kind == "json":
        return draw(st.sampled_from(["", "{not json", "[0, 1", "null", "[]", "3", '"table"',
                                     "[0, 1, 1, 0]", '{"n": 2}', '{"labels": [0, 1, 1, 0]}',
                                     '{"table": {"n": 2}}', '{"table": "0110"}',
                                     '{"table": null}']) | st.text(max_size=12))
    labels = [0, 1, 1, 0]
    if kind == "length":
        labels = draw(st.lists(st.sampled_from([0, 1]), max_size=9).filter(lambda v: len(v) != 4))
    else:
        labels[draw(st.integers(0, 3))] = draw(st.sampled_from(_NOT_LABELS))
    return json.dumps({"n": 2, "table": labels})


@settings(max_examples=25, deadline=None)
@given(text=malformed_target_texts())
@example(text=json.dumps({"n": 2, "table": [0, 1, True, 0]}))
@example(text=json.dumps({"n": 2, "table": [0, 1, 1.0, 0]}))
@example(text=json.dumps({"n": 2, "table": [0, 10**400, 1, 0]}))
@example(text=json.dumps({"n": 2, "table": [[0], 1, 1, 0]}))
def test_generated_bad_target_files_exit_two(tmp_path_factory, text):
    root, good, _ = _door_files(tmp_path_factory)
    path = root / "bad_target.json"
    path.write_text(text)
    code, err = run_door(["lift", "--dist", good, "--target", str(path), "--learner", "tree:1",
                          "--depth", "1", "--eps", "0.3"])
    # every text is malformed by construction, so none may run
    assert code == 2, (text, code, err)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# sample counts at extreme eps and delta


@pytest.fixture(scope="module")
def n4_files(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("n4") / "i")
    assert run_door(["gen", "--n", "4", "--depth", "2", "--target", "depth:2",
                     "--seed", "7", "--out", out])[0] == 0
    return out


def _count_argv(command: str, out: str) -> list:
    """A run of command on the n=4 instance; options given after it win."""
    return {
        "learn-dist": [command, "--dist", out + ".tree.json", "--depth", "2", "--eps", "0.2"],
        "estimate-influence": [command, "--dist", out + ".tree.json", "--coord", "0"],
        "lift": [command, "--dist", out + ".tree.json", "--target", out + ".target.json",
                 "--learner", "tree:2", "--depth", "2", "--eps", "0.3"],
    }[command]


# each printed a traceback and exited 1: ZeroDivisionError (eps^2 underflows
# to 0), OverflowError (ceil of an infinite count) or, past its uncapped
# 2.95e21 runs, numpy's "Maximum allowed dimension exceeded"
@pytest.mark.parametrize("argv", [
    ["estimate-influence", "--oracle", "monotone", "--eps", "1e-300"],
    ["estimate-influence", "--oracle", "subcube", "--eps", "1e-300"],
    ["estimate-influence", "--oracle", "subcube", "--eps", "1e-10"],
    ["learn-dist", "--eps", "1e-300"],
    ["learn-dist", "--delta", "1e-320"],
    ["lift", "--delta", "1e-320"],
    ["lift", "--dist-eps", "1e-300"],
], ids=lambda argv: " ".join(argv))
def test_counts_out_of_range_exit_two(n4_files, argv):
    code, err = run_door(_count_argv(argv[0], n4_files) + argv[1:])
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("depth", ["5000", "-5000", "50"])
def test_lift_depth_outside_the_cube_exits_two(n4_files, depth):
    # 5000 and -5000 once escaped as OverflowError and ZeroDivisionError
    code, err = run_door(_count_argv("lift", n4_files) + ["--depth", depth])
    assert code == 2 and err == f"error: depth budget {depth} outside [0, 4]\n", err


def test_lift_past_the_row_limit_exits_two_before_drawing(tmp_path, monkeypatch):
    out = str(tmp_path / "i")
    run_door(["gen", "--n", "10", "--depth", "2", "--target", "depth:2", "--seed", "7",
              "--out", out])
    drawn = []
    monkeypatch.setattr("dtdist.lift.learn_distribution_result",
                        lambda *args, **kwargs: drawn.append("stage 1"))
    monkeypatch.setattr("dtdist.core.DistOracle.sample_batch",
                        lambda self, k: drawn.append(k))
    code, err = run_door(["lift", "--dist", out + ".tree.json", "--target", out + ".target.json",
                          "--learner", "tree:2", "--depth", "2", "--eps", "0.001"])
    assert code == 2 and "labeled samples 938028225 are above the 16777216" in err
    assert drawn == []


@pytest.mark.parametrize("argv", [
    ["--eps", "1e-9"],  # the exact kind never draws its 2.6e21 leaf samples
    # bias samples of 1.9e19 at depth 1, cut at max_pool
    ["--oracle", "subcube", "--eps", "1e-6", "--max-pool", "20000", "--infest-reps", "50"],
], ids=lambda argv: " ".join(argv))
def test_counts_past_int64_that_a_cap_cuts_still_run(n4_files, argv):
    code, err = run_door(_count_argv("learn-dist", n4_files) + argv)
    assert code in (0, 1) and err == "", err


# eps or delta in (0, 1): the named extremes, any float, and one from the
# range where runs do work rather than exit 2
_UNIT = (st.sampled_from([5e-324, 1e-320, 1e-300, 1e-10, 1e-3, 0.5, 1 - 1e-16])
         | st.floats(min_value=5e-324, max_value=1 - 1e-16) | st.floats(1e-4, 1 - 1e-16))


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["learn-dist", "estimate-influence", "lift"]),
       oracle=st.sampled_from(["exact", "monotone", "subcube"]),
       eps=_UNIT, delta=_UNIT, dist_eps=st.none() | _UNIT,
       learner=st.sampled_from(["tree", "lowdeg"]), order=st.integers(-1, 5),
       depth=st.sampled_from([-5000, -1, 5, 5000]) | st.integers(0, 4))
@example(command="lift", oracle="exact", eps=5e-324, delta=0.1, dist_eps=None, learner="tree",
         order=1, depth=1)
@example(command="lift", oracle="exact", eps=0.3, delta=5e-324, dist_eps=None, learner="tree",
         order=1, depth=1)
@example(command="learn-dist", oracle="subcube", eps=1e-10, delta=1 - 1e-16, dist_eps=None,
         learner="tree", order=1, depth=1)
@example(command="learn-dist", oracle="exact", eps=3.309340788748306e-105, delta=1e-300,
         dist_eps=None, learner="tree", order=1, depth=3)
def test_generated_eps_and_delta_never_traceback(n4_files, command, oracle, eps, delta,
                                                  dist_eps, learner, order, depth):
    # any eps and delta in (0, 1), depth and learner order runs, fails its
    # check or exits 2 or 3; depth 5000 and -5000 once escaped as
    # OverflowError and ZeroDivisionError, and so did the search's call
    # bound at depth 3 and eps near 1e-105.  The runs are kept small: the
    # sample caps are lowered, and so is the row limit (2^24 rows at n=4
    # peak near 0.75 GB); the limit itself is tested above at its value
    caps = ["--max-pool", "20000", "--infest-reps", "200"]
    unit = ["--eps", repr(eps), "--delta", repr(delta), "--oracle", oracle]
    if command == "lift":
        argv = ["lift", "--dist", n4_files + ".dense.json", "--target", n4_files + ".target.json",
                "--learner", f"{learner}:{order}", "--depth", str(depth)] + unit + caps
        argv += [] if dist_eps is None else ["--dist-eps", repr(dist_eps)]
    else:
        argv = _count_argv(command, n4_files) + unit + (caps if command == "learn-dist" else [])
        argv += ["--depth", str(depth)] if command == "learn-dist" else []
    with mock.patch.object(lift, "_MAX_ROWS", 1 << 16):
        code, err = run_door(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
