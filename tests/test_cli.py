import numpy as np
import pytest

from latticefmm.cli import _bench_points, main
from latticefmm.defect import DefectSpec, solve_defect
from latticefmm.oracle import direct_sum


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_phi_known_prints(capsys):
    rc, out = run_cli(capsys, "phi", "0", "0")
    assert rc == 0 and out == "0\n"
    rc, out = run_cli(capsys, "phi", "1", "0")
    assert out == "-0.25\n"
    rc, out = run_cli(capsys, "phi", "1", "1")
    assert out == "-0.3183098861837907\n"
    rc, out = run_cli(capsys, "phi", "-5", "3")
    assert out == run_cli(capsys, "phi", "3", "5")[1]


def _write_sources(tmp_path, rows):
    f = tmp_path / "src.csv"
    f.write_text("".join(f"{a},{b},{q}\n" for a, b, q in rows))
    return str(f)


def test_solve_matches_direct(tmp_path, capsys):
    rng = np.random.default_rng(3)
    pts = np.unique(rng.integers(0, 200, size=(80, 2)), axis=0)
    q = rng.standard_normal(pts.shape[0])
    src = _write_sources(tmp_path, [(p[0], p[1], qq) for p, qq in zip(pts, q)])

    rc, out_fmm = run_cli(capsys, "solve", src)
    rc2, out_dir = run_cli(capsys, "direct", src)
    assert rc == 0 and rc2 == 0
    u_fmm = [float(line.split(",")[2]) for line in out_fmm.splitlines()]
    u_dir = [float(line.split(",")[2]) for line in out_dir.splitlines()]
    ref = direct_sum(pts, q)
    assert np.allclose(u_dir, ref, rtol=0, atol=0)
    assert np.linalg.norm(u_fmm - ref) <= 1e-9 * np.linalg.norm(ref)


def test_solve_with_targets_and_header(tmp_path, capsys):
    src = _write_sources(tmp_path, [(0, 0, 1.0), (6, 0, -1.0)])
    tgt = tmp_path / "tgt.csv"
    tgt.write_text("100,0\n-3,7\n")
    rc, out = run_cli(capsys, "solve", src, "--targets", str(tgt), "--header")
    lines = out.splitlines()
    assert lines[0] == "m1,m2,u"
    assert [l.split(",")[:2] for l in lines[1:]] == [["100", "0"], ["-3", "7"]]


def test_csv_output_byte_stable(tmp_path, capsys):
    src = _write_sources(tmp_path, [(1, 2, 0.25), (9, -4, -1.5), (30, 30, 2.0)])
    outs = set()
    for _ in range(2):
        for cmd in ("solve", "direct"):
            outs.add((cmd, run_cli(capsys, cmd, src)[1]))
    assert len(outs) == 2  # one distinct byte string per command


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,2.0\n1,0,-2.0\n"))
    rc, out = run_cli(capsys, "direct")
    assert rc == 0
    assert out.splitlines()[0] == "0,0,0.5"  # 2*phi(0,0) - 2*phi(1,0)


def test_malformed_csv_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n")
    with pytest.raises(SystemExit, match="malformed source row 1"):
        main(["solve", str(bad)])


def test_defect_subcommand(tmp_path, capsys):
    bars = tmp_path / "bars.csv"
    bars.write_text("0,0,1,0,-1\n")
    queries = tmp_path / "q.csv"
    queries.write_text("0,0\n5,5\n")
    rc, out = run_cli(
        capsys, "defect", "--bars", str(bars), "--farfield", "1,0",
        "--queries", str(queries), "--tol", "1e-9",
    )
    assert rc == 0
    got = {tuple(map(int, l.split(",")[:2])): float(l.split(",")[2])
           for l in out.splitlines()}
    want = solve_defect(
        DefectSpec([((0, 0), (1, 0), -1.0)]), (1.0, 0.0), tol=1e-9,
        queries=[(0, 0), (5, 5)],
    )
    for p in want:
        assert got[p] == pytest.approx(want[p], abs=1e-12)


def test_bench_point_counts():
    rng = np.random.default_rng(0)
    assert _bench_points("dense", 64, 0.25, rng).shape[0] == 64 * 64
    assert _bench_points("random", 1024, 0.25, rng).shape[0] == 1024
    assert _bench_points("circle", 1024, 0.25, rng).shape[0] == 256


def test_bench_csv_shape(capsys):
    rc, out = run_cli(
        capsys, "bench", "--distribution", "random", "--n", "32,64",
        "--header", "--seed", "7",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,N_source,wall_time,mem_estimate"
    assert len(lines) == 3
    for line, n in zip(lines[1:], (32, 64)):
        f = line.split(",")
        assert int(f[0]) == n and int(f[1]) == n
        assert float(f[2]) >= 0.0 and int(f[3]) > 0


def test_bench_rejects_bad_inputs(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--distribution", "spiral", "--n", "64"])
    with pytest.raises(SystemExit, match="power of two"):
        main(["bench", "--distribution", "random", "--n", "100"])


def test_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    src = _write_sources(tmp_path, [(0, 0, 1.0), (3, 3, 1.0)])
    monkeypatch.setenv("LFMM_EPS", "0.5")  # out of range: env must be read
    with pytest.raises(SystemExit, match="error: eps must lie in"):
        main(["solve", src])
    rc, _ = run_cli(capsys, "solve", src, "--eps", "1e-10")  # flag wins
    assert rc == 0


def test_selftest_passes(capsys):
    rc, out = run_cli(capsys, "selftest")
    assert rc == 0
    assert "FAIL" not in out
    for name in ("known-values", "laplacian-identity", "asymptotic-match",
                 "rank-band", "fmm-vs-direct", "defect-empty",
                 "defect-residual", "inverse-identity"):
        assert f"PASS  {name}" in out
    assert out.count("PASS  ") == 8


def test_selftest_loose_eps_passes(capsys):
    rc, out = run_cli(capsys, "selftest", "--eps", "1e-6")
    assert rc == 0
    assert "FAIL" not in out


def test_selftest_writes_no_files(capsys, monkeypatch, tmp_path):
    home = tmp_path / "home"
    xdg = tmp_path / "xdg-cache"
    home.mkdir()
    xdg.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    monkeypatch.setattr("latticefmm.green._default_tables", {})  # force a build
    rc, _ = run_cli(capsys, "selftest")
    assert rc == 0
    assert list(home.rglob("*")) == [] and list(xdg.rglob("*")) == []


def test_invalid_input_exits_with_error(tmp_path):
    src = _write_sources(tmp_path, [(0, 0, 1.0), (3, 3, float("nan"))])
    with pytest.raises(SystemExit, match="^error: charges must be finite$"):
        main(["solve", src])
    dup = _write_sources(tmp_path, [(0, 0, 1.0), (0, 0, 2.0)])
    with pytest.raises(SystemExit, match="^error: duplicate lattice points$"):
        main(["solve", dup])
