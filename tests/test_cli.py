"""Command-line interface tests, run in process through cli.main.

Each command prints exactly one JSON object whose last key is elapsed_s;
everything before it must be byte-identical across reruns at a fixed
seed.  Exit codes: 0 success, 1 failed check, 2 bad configuration,
3 oracle/budget trouble.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from conftest import E2_TABLE
from dtdist import DensePmf, load_json, save_json
from dtdist.cli import main

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
    tree_bytes = open(out + ".tree.json", "rb").read()
    dense_bytes = open(out + ".dense.json", "rb").read()
    dense = DensePmf.from_json_dict(load_json(out + ".dense.json"))
    assert dense.table.sum() == pytest.approx(1.0)
    # same seed, same files, same summary line modulo timing
    code2, line2 = run(capsys, argv)
    assert code2 == 0
    assert open(out + ".tree.json", "rb").read() == tree_bytes
    assert open(out + ".dense.json", "rb").read() == dense_bytes
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
    assert load_json(hyp_out)["kind"] == "tree-routed"


def test_lift_output_is_byte_stable(tmp_path, capsys):
    # sha256 of the summary line (elapsed_s stripped) and of the hypothesis
    # file, recorded before the tree learner moved to a count cube; any
    # change to routing, rerandomisation or the learner's ERM shows here
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
        "5cbbe5b85a71061eb428c4358b49d21f3c38066fc1d3798e907003eea626fd9e"
    )
    assert hashlib.sha256(open(hyp_out, "rb").read()).hexdigest() == (
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
    rows = [json.loads(line) for line in open(rows_path)]
    assert len(rows) == 33
    assert all(r["suite"] == "inequalities" and r["passed"] for r in rows)
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "suite,records,failures,pass_rate,passed"
    assert lines[1].startswith("inequalities,33,0,1.000000,")


def test_verify_workers_agree(tmp_path, capsys):
    rows1 = str(tmp_path / "w1.jsonl")
    rows2 = str(tmp_path / "w2.jsonl")
    base = ["verify", "--suite", "builddt-optimal", "--trials", "4", "--seed", "22"]
    code1, _ = run_json(capsys, base + ["--workers", "1", "--out", rows1])
    code2, _ = run_json(capsys, base + ["--workers", "2", "--out", rows2])
    assert code1 == code2 == 0
    assert open(rows1).read() == open(rows2).read()


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


def test_exit_code_bad_learner_order(e2_file, capsys):
    for learner in ("tree:x", "tree:", "lowdeg:1.5"):
        code, out = run(capsys, ["lift", "--dist", e2_file, "--target", e2_file,
                                 "--learner", learner, "--depth", "1",
                                 "--eps", "0.2"])
        assert code == 2 and out == ""


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(capsys, trials):
    code, out = run(capsys, ["verify", "--suite", "core", "--trials", trials,
                             "--workers", "1"])
    assert code == 2 and out == ""


def test_exit_code_nonpositive_max_pool(e2_file, capsys):
    code, out = run(capsys, ["learn-dist", "--dist", e2_file, "--depth", "1",
                             "--eps", "0.2", "--oracle", "monotone",
                             "--max-pool", "-5"])
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
