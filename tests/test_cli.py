from __future__ import annotations

import json
from fractions import Fraction

import pytest

from racktradeoff.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, run

F = Fraction

FIG7 = {
    "file_size": "1",
    "k": 10,
    "d": 11,
    "tau": "2",
    "cheap_cost": "1",
    "expensive_cost": "10",
    "racks": [{"nodes": 6, "cheap_degree": 5}, {"nodes": 6, "cheap_degree": 5}],
}

SMALL = {
    "file_size": "1",
    "k": 4,
    "d": 4,
    "tau": "2",
    "cheap_cost": "1",
    "expensive_cost": "10",
    "racks": [{"nodes": 3, "cheap_degree": 1}, {"nodes": 3, "cheap_degree": 2}],
}


@pytest.fixture
def fig7_path(tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(json.dumps(FIG7), encoding="utf-8")
    return str(path)


@pytest.fixture
def small_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_knee_csv(capsys, fig7_path):
    code, out, _ = _run(capsys, ["curve", "--config", fig7_path, "--model", "rack"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[:6] == ["knee_index", "L_i", "beta_e", "beta_e_dec", "alpha", "alpha_dec"]
    assert "gamma_1" in header and "gamma_2" in header
    assert "cost_1_dec" in header and "cost_2_dec" in header
    rows = [line.split(",") for line in lines[1:]]
    betas = [row[2] for row in rows]
    assert betas == ["1/40", "1/58", "1/72", "1/82", "1/88", "1/92", "1/94"]
    assert rows[0][3] == "0.025"
    assert rows[-1][3] == "0.0106382978723"


def test_curve_segment_csv(capsys, small_path):
    code, out, _ = _run(
        capsys, ["curve", "--config", small_path, "--model", "rack", "--table", "segments"]
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "segment_index,i,L_i,g_i,beta_lo,beta_hi,alpha_lo,alpha_hi"
    first = lines[1].split(",")
    assert first[5] == "inf"  # storage plateau has no upper knee
    assert [line.split(",")[4] for line in lines[1:]] == ["1/8", "1/11", "1/13", "1/14"]


def test_curve_json_matches_csv(capsys, small_path):
    code, out, _ = _run(capsys, ["curve", "--config", small_path, "--model", "rack", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["model"] == "rack"
    assert doc["k"] == 4
    assert doc["L"] == ["2", "3", "4", "5"]
    assert [knee["beta_e"] for knee in doc["knees"]] == ["1/8", "1/11", "1/13", "1/14"]
    assert doc["segments"][0]["beta_hi"] is None


def test_points(capsys, small_path):
    code, out, _ = _run(capsys, ["points", "--config", small_path, "--model", "rack"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 3
    msr = lines[1].split(",")
    mbr = lines[2].split(",")
    assert msr[0] == "msr" and msr[1] == "1/8" and msr[3] == "1/4"
    assert mbr[0] == "mbr" and mbr[1] == "1/14" and mbr[3] == "5/14"


def test_compare_blocks(capsys, fig7_path):
    code, out, _ = _run(capsys, ["compare", "--config", fig7_path, "--models", "rack,static,basic"])
    assert code == EXIT_OK
    assert out.count("# model=") == 3
    blocks = out.split("# model=")[1:]
    assert blocks[0].startswith("rack\n") and blocks[1].startswith("static\n")


def test_compare_unknown_model(capsys, fig7_path):
    code, _, err = _run(capsys, ["compare", "--config", fig7_path, "--models", "rack,fancy"])
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_sweep(capsys, fig7_path):
    code, out, _ = _run(
        capsys, ["sweep", "--config", fig7_path, "--model", "rack", "--tau", "1,6/5,2,10"]
    )
    assert code == EXIT_OK
    assert out.count("# tau=") == 4
    assert "# tau=6/5\n" in out
    tau10 = out.split("# tau=10\n")[1]
    assert tau10.split("\n")[1].split(",")[2] == "1/60"


def test_sweep_bad_tau(capsys, fig7_path):
    code, _, err = _run(capsys, ["sweep", "--config", fig7_path, "--model", "rack", "--tau", "1,oops"])
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_verify_pass(capsys, small_path):
    code, out, _ = _run(
        capsys,
        ["verify", "--config", small_path, "--samples", "5", "--seed", "7", "--mode", "structured"],
    )
    assert code == EXIT_OK
    assert "mismatches: 0" in out
    assert out.strip().endswith("result: pass")


def test_verify_mismatch_exits_3(capsys, small_path, monkeypatch):
    import racktradeoff.flowgraph as fg
    from racktradeoff.incomes import CoeffList

    real = fg.rack_coeff_list

    def corrupted(cfg):
        good = real(cfg)
        return CoeffList(values=good.values[:-1] + (good.values[-1] + 1,), k=good.k)

    monkeypatch.setattr(fg, "rack_coeff_list", corrupted)
    code, out, _ = _run(
        capsys,
        ["verify", "--config", small_path, "--samples", "5", "--seed", "7", "--mode", "structured"],
    )
    assert code == EXIT_MISMATCH
    assert "result: fail" in out
    mismatch_count = int(out.split("mismatches: ")[1].split("\n")[0])
    assert mismatch_count >= 1


def test_missing_config_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, ["curve", "--config", str(tmp_path / "nope.json"), "--model", "rack"])
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_invalid_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    doc = dict(SMALL, k=99)
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = _run(capsys, ["curve", "--config", str(path), "--model", "rack"])
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_usage_error_exits_64(small_path):
    with pytest.raises(SystemExit) as exc:
        run(["curve", "--config", small_path, "--model", "warp"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_exhaustive_verify_over_guard_exits_64(capsys, fig7_path):
    code, out, err = _run(
        capsys,
        ["verify", "--config", fig7_path, "--samples", "10", "--seed", "0", "--mode", "exhaustive"],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: exhaustive mode needs")
    assert "Traceback" not in err


def test_compare_dominance_violation_exits_3(capsys, tmp_path):
    # k=4 over racks of 3 and 4 nodes with d_c = 0 and 2: the rack curve's
    # first knee sits right of the static split's
    doc = dict(
        SMALL,
        tau="3/2",
        racks=[{"nodes": 3, "cheap_degree": 0}, {"nodes": 4, "cheap_degree": 2}],
    )
    path = tmp_path / "dominance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, ["compare", "--config", str(path), "--models", "rack,static,basic"])
    assert code == EXIT_MISMATCH
    assert [line for line in out.splitlines() if line.startswith("#")] == [
        "# model=rack",
        "# model=static",
        "# model=basic",
    ]
    assert err == "mismatch: dominance violated at segment 1: rack knee 2/9 > static knee 1/7\n"


def test_exhaustive_block_audit_over_guard_exits_64(capsys, tmp_path, monkeypatch):
    # 20 racks of 3 nodes with d_c = 1: k = 35 involves s = 18 racks, and the
    # block audit would examine 2^17 subsets
    doc = dict(SMALL, k=35, d=36, racks=[{"nodes": 3, "cheap_degree": 1}] * 20)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def no_templates(cfg, mode):
        raise AssertionError("scenario templates built before the audit guard")

    monkeypatch.setattr("racktradeoff.flowgraph._scenario_templates", no_templates)
    code, out, err = _run(
        capsys,
        ["verify", "--config", str(path), "--samples", "1", "--seed", "0", "--mode", "structured"],
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: exhaustive block audit needs 2^17 subsets")


def test_output_is_deterministic(capsys, fig7_path):
    _, first, _ = _run(capsys, ["curve", "--config", fig7_path, "--model", "rack"])
    _, second, _ = _run(capsys, ["curve", "--config", fig7_path, "--model", "rack"])
    assert first == second


def test_out_file(tmp_path, capsys, small_path):
    target = tmp_path / "curve.csv"
    code, out, _ = _run(
        capsys, ["curve", "--config", small_path, "--model", "rack", "--out", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    _, direct, _ = _run(capsys, ["curve", "--config", small_path, "--model", "rack"])
    assert target.read_text(encoding="utf-8") == direct
