import dataclasses
import json

import numpy as np
import pytest

from teneig import HomotopyConfig, Tensor, load_tensor, pta_solve, save_tensor, solve_dominant
from teneig import cli
from teneig.cli import main
from teneig.instances import dense_demo, random_instance, sparse_ring_demo


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_demo_file_json(tmp_path, capsys):
    path = tmp_path / "demo.ten"
    save_tensor(path, dense_demo())
    code, out, _ = run_cli(capsys, "solve", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "converged"
    assert report["lambda"] == pytest.approx(36.2757, abs=5e-4)
    assert report["alpha"] == pytest.approx(6.32)
    assert report["iter"] <= 30
    assert len(report["x"]) == 3
    assert report["path_min_x"] > 0.0


def test_solve_human_readable(tmp_path, capsys):
    path = tmp_path / "ring.ten"
    save_tensor(path, sparse_ring_demo(), fmt="coo")
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert "status:    converged" in out
    assert "lambda:    1" in out
    # the Collatz-Wielandt bracket on the input at the reported x
    (line,) = [line for line in out.splitlines() if line.startswith("bracket:   [")]
    lo, hi = map(float, line[len("bracket:   ["):-1].split(", "))
    assert lo <= 1.0 <= hi and hi - lo <= 1e-11
    # the path certifies the ring's answer; the finish made no sweep
    assert "finish:    0 sweeps" in out
    # the report's work counts, as the library counts them
    rep = solve_dominant(sparse_ring_demo())
    assert "work:      %d y-passes, %d J-passes, %d linear solves" % (
        rep.y_passes, rep.jacobian_passes, rep.linear_solves) in out.splitlines()
    assert rep.y_passes > rep.jacobian_passes > 0


def test_solve_human_readable_shows_the_finish(tmp_path, capsys):
    # the jump fails on this log-uniform input and the finish certifies it
    path = tmp_path / "wide.ten"
    save_tensor(path, Tensor(10.0 ** np.random.default_rng(15).uniform(-6, 6, (8, 8, 8))))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.startswith("finish:    ")]
    assert line.endswith(" sweeps") and int(line.split()[1]) > 0


def test_solver_flags_are_the_config_fields():
    names = {name for _, name, _ in cli._SOLVER_FLAGS}
    assert names == {f.name for f in dataclasses.fields(HomotopyConfig)}
    assert names == {"eps_perturb", "max_steps"}


def test_solve_both_methods_agree(tmp_path, capsys):
    path = tmp_path / "demo.ten"
    save_tensor(path, dense_demo())
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "both", "--json")
    assert code == 0
    reports = json.loads(out)
    assert {r["method"] for r in reports} == {"homotopy", "pta"}
    lam = {r["method"]: r["lambda"] for r in reports}
    assert abs(lam["homotopy"] - lam["pta"]) <= 1e-6


def _without_wall_time(reports):
    return json.dumps([{k: v for k, v in r.items() if k != "wall_time_s"} for r in reports])


@pytest.mark.parametrize(
    "T, fmt, cr_only",
    [(random_instance(3, 12, seed=3), "dense", False), (sparse_ring_demo(), "coo", False),
     (random_instance(3, 12, seed=3), "dense", True)],
    ids=["dense", "coo", "dense-cr-only"],
)
def test_solve_from_a_file_reports_as_in_memory(tmp_path, capsys, T, fmt, cr_only):
    path = tmp_path / "t.ten"
    save_tensor(path, T, fmt=fmt)
    if cr_only:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "both", "--json")
    assert code in (0, 1)
    want = [solve_dominant(T).to_dict(), pta_solve(T).to_dict()]
    assert _without_wall_time(json.loads(out)) == _without_wall_time(want)


def test_solve_negative_off_diagonal_exit_2(tmp_path, capsys):
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 1] = -3.0
    path = tmp_path / "bad.ten"
    save_tensor(path, Tensor(bad))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "(1, 2, 2)" in err  # offending index, 1-based


def test_solve_missing_file_exit_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "absent.ten"))
    assert code == 3
    assert "error" in err


def test_solve_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.ten"
    path.write_text("order 2\ndim 2\nformat dense\n1 2 oops 4\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "line 4" in err


def test_solve_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "utf16.ten"
    path.write_bytes(b"\xff\xfe" + "order 2\ndim 1\nformat dense\n1\n".encode("utf-16-le"))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not UTF-8 text" in lines[0]


def test_solve_nonfinite_entry_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.ten"
    path.write_text("order 2\ndim 2\nformat dense\n1 2\nnan 4\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "line 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "FILE", "--max-steps", "0"],
        ["solve", "FILE", "--epsilon", "0"],
        ["solve", "FILE", "--epsilon", "inf", "--method", "pta"],
        ["solve", "FILE", "--epsilon", "nan", "--assume", "reducible"],
        ["solve", "FILE", "--max-steps", "-1", "--method", "pta"],
        ["compare", "3", "3", "--epsilon", "-1"],
        ["compare", "3", "3", "--max-steps", "0"],
    ],
)
def test_bad_solver_flag_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "demo.ten"
    save_tensor(path, dense_demo())
    code, out, err = run_cli(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_pta_cap_exit_1(tmp_path, capsys):
    path = tmp_path / "slow.ten"
    save_tensor(path, random_instance(3, 10, d=6, seed=0))
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "pta", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "step_limit"
    assert report["iter"] == 50000


def test_solve_pta_reads_max_steps(tmp_path, capsys):
    path = tmp_path / "slow.ten"
    save_tensor(path, random_instance(3, 10, d=6, seed=0))
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--method", "pta", "--max-steps", "7", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "step_limit"
    assert report["iter"] == 7


def test_solve_unallocatable_coo_header_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.ten"
    path.write_text("order 8\ndim 100000\nformat coo\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["gen", "compare"])
def test_unallocatable_instance_exit_2(tmp_path, capsys, monkeypatch, command):
    from teneig import bench, cli

    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 589. TiB")

    monkeypatch.setattr(cli, "random_instance", too_big)
    monkeypatch.setattr(bench, "random_instance", too_big)
    argv = [command, "4", "3000"]
    argv += ["-o", str(tmp_path / "x.ten")] if command == "gen" else ["--count", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: Unable to allocate 589. TiB\n"


def test_solve_flags_reach_the_solver(tmp_path, capsys):
    path = tmp_path / "demo.ten"
    save_tensor(path, dense_demo())
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--json", "--assume", "reducible", "--epsilon", "1e-8"
    )
    assert code == 0
    assert json.loads(out)["perturbed"] is True


def test_gen_writes_deterministic_file(tmp_path, capsys):
    p1, p2 = tmp_path / "a.ten", tmp_path / "b.ten"
    code1, _, _ = run_cli(capsys, "gen", "3", "4", "-d", "2", "--seed", "5", "-o", str(p1))
    code2, _, _ = run_cli(capsys, "gen", "3", "4", "-d", "2", "--seed", "5", "-o", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()
    A = load_tensor(p1)
    assert np.array_equal(A.data, random_instance(3, 4, d=2, seed=5).data)
    assert np.abs(A.data).max() <= 1e-2


def test_gen_rejects_bad_sizes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "1", "4", "-o", str(tmp_path / "x.ten"))
    assert code == 2
    assert "order" in err


def test_gen_unwritable_path_exit_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "3", "3", "-o", str(tmp_path / "nodir" / "x.ten"))
    assert code == 3


def test_compare_json_records_and_averages(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "compare", "3", "4", "--count", "3", "--seed", "11", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    records = payload["records"]
    assert len(records) == 6  # two solvers per instance
    assert [r["seed"] for r in records] == [11, 11, 12, 12, 13, 13]
    homo = [r for r in records if r["method"] == "homotopy"]
    pta = [r for r in records if r["method"] == "pta"]
    assert all(r["status"] == "converged" for r in records)
    # averages equal the arithmetic mean of the emitted records
    assert payload["summary"]["homotopy"]["aiter"] == pytest.approx(
        sum(r["iter"] for r in homo) / len(homo)
    )
    assert payload["summary"]["pta"]["aiter"] == pytest.approx(
        sum(r["iter"] for r in pta) / len(pta)
    )
    assert payload["summary"]["max_lambda_gap"] <= 1e-6
    # the seed regenerates the instance: re-solve and compare lambda
    from teneig import solve_dominant

    again = solve_dominant(random_instance(3, 4, seed=11))
    assert again.eigen.lam == pytest.approx(homo[0]["lambda"], abs=1e-12)


def test_solve_and_compare_json_share_report_keys(tmp_path, capsys):
    # a compare record is the instance's fields followed by the solve report
    path = tmp_path / "inst.ten"
    save_tensor(path, random_instance(3, 4, seed=11))
    _, out, _ = run_cli(capsys, "solve", str(path), "--method", "both", "--json")
    reports = json.loads(out)
    _, out, _ = run_cli(capsys, "compare", "3", "4", "--count", "1", "--seed", "11", "--json")
    records = json.loads(out)["records"]
    assert [r["method"] for r in records] == [r["method"] for r in reports]
    for report, record in zip(reports, records):
        assert list(record) == ["order", "dim", "d", "seed", "generator", *report]
        assert (record["lambda"], record["x"]) == (report["lambda"], report["x"])


def test_compare_records_solver_error(monkeypatch):
    from teneig import bench

    def broken(A, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "pta_solve", broken)
    records, summary = bench.run_comparison(3, 3, d=0, count=1)
    homo, pta = records
    assert list(pta) == list(homo)
    assert pta["status"] == "error: boom"
    assert np.isnan(pta["lambda"]) and np.isnan(pta["residual_norm"]) and np.isnan(pta["alpha"])
    assert (pta["iter"], pta["nwtiter"], pta["wall_time_s"], pta["perturbed"]) == (0, 0, 0.0, False)
    assert summary["pta"]["converged"] == 0 and summary["pta"]["aiter"] == 0.0


def test_report_residual_reproducible_from_file(tmp_path, capsys):
    # substituting the reported eigenpair back into the shifted tensor, rebuilt
    # densely from the file, reproduces the reported residual norm
    from teneig import Tensor, eigen_residual, require_essentially_nonnegative

    path = tmp_path / "demo.ten"
    save_tensor(path, dense_demo())
    _, out, _ = run_cli(capsys, "solve", str(path), "--method", "both", "--json")
    for report in json.loads(out):
        eps = HomotopyConfig().eps_perturb if report["perturbed"] else 0.0  # --epsilon default
        A = load_tensor(path)
        assert require_essentially_nonnegative(A)[0] == report["alpha"]
        data = A.data + eps
        data[(np.arange(A.dim),) * A.order] += report["alpha"]
        T = Tensor(data)
        x = np.array(report["x"])
        r = np.linalg.norm(eigen_residual(T, report["lambda_shifted"], x))
        assert abs(r - report["residual_norm"]) <= 1e-12


def test_compare_text_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "table.txt"
    code, _, _ = run_cli(
        capsys, "compare", "3", "3", "--count", "2", "-o", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert "homotopy" in text and "pta" in text and "aiter" in text


def test_compare_rejects_bad_count(capsys):
    code, _, err = run_cli(capsys, "compare", "3", "3", "--count", "0")
    assert code == 2
