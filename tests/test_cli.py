import json
import os
import subprocess
import sys

import numpy as np
import pytest

import latticefmm
from latticefmm.cli import _bench_points, main
from latticefmm.defect import DefectSpec, solve_defect
from latticefmm.fmm import fmm_apply
from latticefmm.green import lattice_points, phi, phi_asymptotic
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


def test_fmm_path_loads_no_scipy():
    # scipy brings a second BLAS: the summation modules and the CLI must
    # not load it.
    code = (
        "import sys\n"
        "import latticefmm.fmm, latticefmm.oracle, latticefmm.cli\n"
        "latticefmm.cli.main(['phi', '1', '1'])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(latticefmm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "-0.3183098861837907\n"


def test_defect_path_loads_no_scipy(tmp_path):
    # The defect solver's inverse, condition guard and GMRES are numpy's too.
    bars = tmp_path / "bars.csv"
    bars.write_text("0,0,1,0,-1\n3,3,3,4,0.5\n0,0,2,3,1\n")
    code = (
        "import sys\n"
        "from latticefmm import cli, defect\n"
        f"assert cli.main(['defect', '--bars', {str(bars)!r}, '--farfield', '1,0']) == 0\n"
        "assert cli.main(['selftest']) == 0\n"
        "defect._DENSE_BAR_LIMIT = 0\n"
        "spec = defect.DefectSpec([((0, 0), (1, 0), -1.0), ((4, 4), (4, 5), 0.5)])\n"
        "stats = {}\n"
        "defect.solve_defect(spec, (1.0, 0.0), stats=stats)\n"
        "assert stats['rcond'] is None and stats['s_path'] == 'fft', stats\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(latticefmm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "PASS  defect-residual" in out.stdout


def test_defect_has_no_eps_option(tmp_path):
    # tol alone sets the defect solve's accuracy.
    bars = tmp_path / "bars.csv"
    bars.write_text("0,0,1,0,-1\n")
    with pytest.raises(SystemExit) as exc:
        main(["defect", "--bars", str(bars), "--farfield", "1,0", "--eps", "1e-10"])
    assert exc.value.code == 2


def test_defect_rejects_nan_tol(tmp_path):
    bars = tmp_path / "bars.csv"
    bars.write_text("0,0,1,0,-1\n")
    with pytest.raises(SystemExit, match=r"^error: tol must lie in \(0, 1\), got nan"):
        main(["defect", "--bars", str(bars), "--farfield", "1,0", "--tol", "nan"])


def test_phi_has_no_table_radius_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi", "5", "0", "--rtable", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rtable 3" in capsys.readouterr().err


def test_phi_at_int64_min_uses_expansion(capsys):
    # |-2**63| does not fit in int64; the point is far, not near.
    rc, out = run_cli(capsys, "phi", "--", str(-2**63), "0")
    assert rc == 0 and out == f"{phi_asymptotic(-2.0**63, 0.0):.16g}\n"


_BIG = 2**63
_OVERFLOW = {
    "phi": lambda tmp: phi(_BIG, 0),
    "lattice_points": lambda tmp: lattice_points([(2**64, 0)], "points"),
    "fmm_apply": lambda tmp: fmm_apply([(0, 0), (2**64, 0)], [1.0, 1.0]),
    "solve_defect": lambda tmp: solve_defect(
        DefectSpec([((2**62, 0), (2**62 + 1, 0), -1.0)]), (0, 0), queries=[(-2**62, 0)]
    ),
    "DefectSpec": lambda tmp: DefectSpec([((2**64, 0), (2**64 + 1, 0), -1.0)]),
    "cli phi": lambda tmp: main(["phi", str(_BIG), "0"]),
    "cli solve": lambda tmp: main(["solve", _write_sources(tmp, [(_BIG, 0, 1.0)])]),
    "cli direct": lambda tmp: main(["direct", _write_sources(tmp, [(0, _BIG, 1.0)])]),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOW))
def test_int64_overflow_rejected(case, tmp_path):
    """Coordinates (or their differences) beyond int64 raise ValueError, and
    the CLI turns it into an ``error:`` exit."""
    if case.startswith("cli"):
        with pytest.raises(SystemExit, match="^error: "):
            _OVERFLOW[case](tmp_path)
    else:
        with pytest.raises(ValueError, match=r"int64|exceeds 2\*\*31"):
            _OVERFLOW[case](tmp_path)


def test_solve_reports_2_63_as_out_of_int64(tmp_path):
    # numpy reads 2**63 beside 0 as float64; it is an integer, so the
    # message names the range.
    src = _write_sources(tmp_path, [(_BIG, 0, 1.0)])
    msg = "^error: sources must have coordinates that fit in int64$"
    with pytest.raises(SystemExit, match=msg):
        main(["solve", src])


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


def test_solve_stats_json_on_stderr(tmp_path, capsys):
    src = _write_sources(tmp_path, [(0, 0, 1.0), (5, 3, -2.0), (40, 7, 0.5)])
    rc = main(["solve", src])
    plain = capsys.readouterr()
    rc = main(["solve", src, "--stats"])
    out, err = capsys.readouterr()
    assert rc == 0 and out == plain.out and plain.err == ""
    lines = err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert stats["n_source"] == 3 and stats["levels"] >= 1
    assert {"wall_time", "t_tree", "t_near", "op_entries"} <= set(stats)


def test_defect_stats_json_on_stderr(tmp_path, capsys):
    bars = tmp_path / "bars.csv"
    bars.write_text("0,0,1,0,-1\n3,3,3,4,0.5\n")
    rc = main(["defect", "--bars", str(bars), "--farfield", "1,0", "--stats"])
    out, err = capsys.readouterr()
    assert rc == 0 and len(out.splitlines()) == 4
    lines = err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert stats["bars"] == 2 and stats["nodes"] == 4
    # The exact inverse preconditions GMRES, which converges in one step.
    assert stats["iterations"] == len(stats["residual_history"]) == 1
    assert stats["residual_history"][0] <= 1e-8
    assert 0.0 < stats["rcond"] <= 1.0
    # Two bars three steps apart: each window (7 x 9 cells, node-node and
    # query-node) is within 32 cells for each of the 8 points it serves.
    assert stats["kernel_source"] == stats["eval_source"] == "window"
    assert stats["s_path"] is None and stats["window_cells"] == 2 * 7 * 9
    assert {"t_assemble", "t_solve", "t_eval", "wall_time"} <= set(stats)


def test_bench_point_counts():
    rng = np.random.default_rng(0)
    assert _bench_points("dense", 64, 0.25, rng).shape[0] == 64 * 64
    assert _bench_points("random", 1024, 0.25, rng).shape[0] == 1024
    assert _bench_points("circle", 1024, 0.25, rng).shape[0] == 256


def test_bench_random_spans_the_domain():
    # Drawn uniformly: the first n of the sorted distinct draws would all
    # have x below 0.51 n.
    pts = _bench_points("random", 1024, 0.25, np.random.default_rng(0))
    assert len(np.unique(pts, axis=0)) == 1024
    assert pts[:, 0].max() > 0.9 * 1024 and pts[:, 1].max() > 0.9 * 1024


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


def test_bench_json_records(capsys):
    # nleaf 4 keeps leaves of side 8 and less: with the default, leaves
    # stop at 16 points and the 32-point load has no level 2.
    rc, out = run_cli(
        capsys, "bench", "--distribution", "random", "--n", "32,64",
        "--seed", "7", "--nleaf", "4", "--json",
    )
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in records] == [32, 64]
    for rec in records:
        stats = rec["stats"]
        assert rec["N_source"] == stats["n_source"] == rec["n"]
        assert {"wall_time", "t_lists", "t_ifo", "t_chain", "built_shared", "op_entries"} <= set(stats)
        assert len(stats["boxes_per_level"]) == stats["levels"]
        # Per-level T_ifo seconds: none at levels 0-1, and they make up t_ifo.
        per_level = stats["t_ifo_per_level"]
        assert len(per_level) == stats["levels"] and per_level[:2] == [0.0, 0.0]
        assert sum(per_level) == pytest.approx(stats["t_ifo"], rel=1e-12)
        # So do the upward and downward passes' seconds per level.
        for key in ("t_upward", "t_downward"):
            per_level = stats[key + "_per_level"]
            assert len(per_level) == stats["levels"] and per_level[:2] == [0.0, 0.0]
            assert sum(per_level) == pytest.approx(stats[key], rel=1e-12)
        # The upward pass's level arrays: rows from level 2 only.
        rows = stats["upward_rows_per_level"]
        assert len(rows) == stats["levels"] and rows[:2] == [0, 0] and min(rows[2:]) > 0
        # The warm-up call built the chain; the recorded call reuses it.
        assert stats["built_shared"] is False
        # The cold call is reported beside the warm one; its chain time is
        # part of its wall time.
        assert 0.0 <= rec["cold_t_chain"] <= rec["cold_wall_time"]
        # Memory: a warm call's traced peak holds at least the potentials
        # (8 bytes per point), and the process's peak RSS is above it.
        assert 8 * rec["N_source"] / 2**20 <= rec["warm_traced_peak_mb"] < rec["ru_maxrss_mb"]


def test_bench_json_names_grid_levels(capsys):
    # Full 64 x 64 grid: every level from 2 runs T_ifo on its box grid.  A
    # random load of 64 points on 64 x 64, with nleaf 4 (at the default its
    # leaves stop at level 2, side 16), fills level 2 (156 pairs on 16
    # cells), not level 3 (458 pairs on 64 cells).  With nleaf 4 a box is
    # a leaf once it and its active colleagues hold at most 4 points: one
    # box of level 2 is (its 75 ordered point pairs with its colleagues are
    # summed there), the 39 active boxes of level 3 all are.
    rc, out = run_cli(capsys, "bench", "--distribution", "dense", "--n", "64", "--json")
    assert rc == 0
    stats = json.loads(out)["stats"]
    assert stats["ifo_grid_levels"] == list(range(2, stats["levels"]))
    assert stats["leaves_per_level"] == [0] * (stats["levels"] - 1) + [64]
    rc, out = run_cli(capsys, "bench", "--distribution", "random", "--n", "64", "--nleaf", "4", "--json")
    stats = json.loads(out)["stats"]
    assert stats["ifo_grid_levels"] == [2] and stats["levels"] == 4
    assert stats["ifo_pairs_per_level"] == [0, 0, 156, 458]
    assert stats["leaves_per_level"] == [0, 0, 1, 39] and stats["upward_rows_per_level"] == [0, 0, 16, 39]
    assert stats["resolved_pairs_per_level"] == [0, 0, 75, 473] and stats["near_pairs"] == 75 + 473
    # The same from the brute-force leaf rule.
    from latticefmm.config import DEFAULT_SEED
    from latticefmm.tree import build_tree
    from tree_reference import leaf_rule_lists, pair_points

    tree = build_tree(_bench_points("random", 64, 0.25, np.random.default_rng(DEFAULT_SEED)), nleaf=4, max_leaf_side=8)
    brute = leaf_rule_lists(tree)
    assert stats["leaves_per_level"] == [len(leaves) for _, leaves, _, _ in brute]
    assert stats["resolved_pairs_per_level"] == [pair_points(tree, near) for _, _, near, _ in brute]


def test_bench_rejects_bad_inputs(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--distribution", "spiral", "--n", "64"])
    with pytest.raises(SystemExit, match="power of two"):
        main(["bench", "--distribution", "random", "--n", "100"])


def test_eps_flag_out_of_range_rejected(tmp_path):
    src = _write_sources(tmp_path, [(0, 0, 1.0), (3, 3, 1.0)])
    for argv in (["solve", src, "--eps", "0.5"], ["selftest", "--eps", "0.5"]):
        with pytest.raises(SystemExit, match="error: eps must lie in"):
            main(argv)


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
    monkeypatch.setattr("latticefmm.green._table", None)  # force a build
    monkeypatch.setattr("latticefmm.green._octant", None)
    rc, _ = run_cli(capsys, "selftest")
    assert rc == 0
    assert list(home.rglob("*")) == [] and list(xdg.rglob("*")) == []


def test_invalid_input_exits_with_error(tmp_path):
    src = _write_sources(tmp_path, [(0, 0, 1.0), (3, 3, float("nan"))])
    with pytest.raises(SystemExit, match="^error: charges must be finite$"):
        main(["solve", src])
    dup = _write_sources(tmp_path, [(0, 0, 1.0), (0, 0, 2.0)])
    for cmd in ("solve", "direct"):
        with pytest.raises(SystemExit, match="^error: duplicate lattice points$"):
            main([cmd, dup])
    bars = tmp_path / "bars.csv"
    bars.write_text("0,0,1,0,-1\n")
    with pytest.raises(SystemExit, match="^error: far field must be finite"):
        main(["defect", "--bars", str(bars), "--farfield", "nan,0"])
    bars.write_text("0,0,1,0,inf\n")
    with pytest.raises(SystemExit, match="^error: bar .* is not finite$"):
        main(["defect", "--bars", str(bars), "--farfield", "1,0"])
