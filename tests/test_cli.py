"""CLI contracts: commands, exit codes, file grammars, determinism."""
import subprocess
import sys
from pathlib import Path

import pytest

from uwps import cli
from uwps.cli import (
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_SOLVER,
    EXIT_USAGE,
    FileFormatError,
    main,
    parse_scenario_file,
    resolve_input,
)

SQUARETEST = resolve_input("squaretest")
FRAME0 = resolve_input("squaretest_frame0").read_text()
DATA = Path(__file__).parent / "data"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def scenario_text(**overrides):
    lines = {
        "receiver_position": "300.0 400.0 -150.0",
        "receiver_velocity": "0.0 0.0 0.0",
        "sound_speed": "1500.0",
        "clock_offset": "0.0",
        "noise_sigma": "0.0",
        "frames": "3",
        "extra": "",
        "solver": "",
    }
    lines.update(overrides)
    return f"""
[buoy 1]
position = 36.7201000 -4.4203000 0.00
[buoy 2]
position = 36.7200995 -4.4091064 0.08
[buoy 3]
position = 36.7291107 -4.4091051 0.16
[buoy 4]
position = 36.7291112 -4.4203000 0.08
[receiver]
position = {lines['receiver_position']}
velocity = {lines['receiver_velocity']}
[channel]
sound_speed = {lines['sound_speed']}
clock_offset = {lines['clock_offset']}
noise_sigma = {lines['noise_sigma']}
[run]
frames = {lines['frames']}
{lines['solver']}{lines['extra']}"""


def test_simulate_bundled_squaretest(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, out, _ = run_cli("simulate", "squaretest", "-o", str(out_csv), capsys=capsys)
    assert code == EXIT_OK
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0].startswith("frame,truth_e")
    assert len(rows) == 6  # header + 5 frames
    for line in rows[1:]:
        assert line.endswith(",ok")
        assert float(line.split(",")[10]) < 1e-6  # analytic error
    assert "analytic error" in out


@pytest.mark.parametrize("name, scenario, expected_code", [
    ("squaretest", "squaretest", EXIT_OK),
    # moving receiver, drifting buoys, timing noise: every status branch,
    # the centroid fallback guess and a frame without a fix
    ("moving", str(DATA / "moving.scn"), EXIT_SOLVER),
], ids=["squaretest", "moving"])
def test_simulate_matches_golden_output(name, scenario, expected_code, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli("simulate", scenario, "-o", str(out_csv), capsys=capsys)
    assert code == expected_code
    assert out_csv.read_bytes() == (DATA / f"{name}.csv").read_bytes()
    assert out == (DATA / f"{name}.stdout").read_text()
    assert err == (DATA / f"{name}.stderr").read_text()


def test_simulate_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("simulate", "squaretest", "-o", str(a), capsys=capsys)[0] == EXIT_OK
    assert run_cli("simulate", "squaretest", "-o", str(b), capsys=capsys)[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_missing_file(tmp_path, capsys):
    out_csv = tmp_path / "never.csv"
    code, _, err = run_cli("simulate", str(tmp_path / "nope.scn"),
                           "-o", str(out_csv), capsys=capsys)
    assert code == EXIT_USAGE
    assert not out_csv.exists()  # no partial output
    assert "error" in err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(scenario_text(extra="\n[channel2]\nx = 1\n"))
    code, _, err = run_cli("simulate", str(bad), capsys=capsys)
    assert code == EXIT_USAGE
    assert "unknown" in err


def test_simulate_fast_receiver_flags_bound(tmp_path, capsys):
    scn = tmp_path / "fast.scn"
    scn.write_text(scenario_text(
        receiver_velocity="10.0 0.0 0.0",
        solver="[solver]\nconsistency_tolerance = 1000.0\n"))
    code, out, _ = run_cli("simulate", str(scn), "-o", str(tmp_path / "o.csv"),
                           capsys=capsys)
    assert code == EXIT_OK
    assert "motion bound v*S = 60 m" in out
    assert "the motion bound" in out


def test_simulate_noisy_scenario_runs(tmp_path, capsys):
    scn = tmp_path / "noisy.scn"
    scn.write_text(scenario_text(
        noise_sigma="1e-5",
        solver="[solver]\nconsistency_tolerance = 10.0\n"))
    code, out, _ = run_cli("simulate", str(scn), "-o", str(tmp_path / "o.csv"),
                           capsys=capsys)
    assert code == EXIT_OK


def test_simulate_all_frames_out_of_range(tmp_path, capsys):
    scn = tmp_path / "far.scn"
    # a range limit that drops every event
    scn.write_text(scenario_text().replace("noise_sigma = 0.0",
                                           "noise_sigma = 0.0\nrange_limit = 10.0"))
    code, _, err = run_cli("simulate", str(scn), "-o", str(tmp_path / "o.csv"),
                           capsys=capsys)
    assert code == EXIT_SOLVER
    assert "NoFix" in err


def test_simulate_unrealizable_difference_is_a_failed_frame(tmp_path, capsys):
    """Timing noise that pushes a difference past its baseline leaves the
    frame without a fix: a named status row, exit 2, no traceback."""
    scn = tmp_path / "noisy.scn"
    scn.write_text(SQUARETEST.read_text().replace(
        "noise_sigma = 0.0\nseed = 0", "noise_sigma = 0.5\nseed = 1"))
    out_csv = tmp_path / "o.csv"
    code, _, err = run_cli("simulate", str(scn), "-o", str(out_csv), capsys=capsys)
    assert code == EXIT_SOLVER
    assert err == "error: frame 0 produced no fix (UnrealizableTDOA)\n"
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 6
    assert rows[1] == "0,300,400,-150" + "," * 13 + "UnrealizableTDOA"


def test_simulate_degenerate_symmetric_receiver(tmp_path, capsys):
    scn = tmp_path / "axis.scn"
    scn.write_text(scenario_text(receiver_position="499.99935 500.0008 -150.0"))
    code, _, err = run_cli("simulate", str(scn), "-o", str(tmp_path / "o.csv"),
                           capsys=capsys)
    # receiver near the square's vertical axis: analytic fix degenerates but
    # the numerical solver may still settle; either outcome is reported
    if code != EXIT_OK:
        assert code == EXIT_SOLVER
        assert "frame" in err


def _add_channel_line(line):
    return scenario_text().replace("noise_sigma = 0.0", f"noise_sigma = 0.0\n{line}")


NUMBER_CASES = [
    ("simulate", scenario_text(sound_speed="nan"), "sound_speed = nan"),
    ("simulate", scenario_text(clock_offset="inf"), "clock_offset = inf"),
    ("simulate", scenario_text(receiver_position="300 nan -150"), "300 nan -150"),
    ("simulate", scenario_text(frames="2.5"), "frames = 2.5"),
    ("simulate", _add_channel_line("seed = 2.5"), "seed = 2.5"),
    ("simulate", _add_channel_line("seed = -1"), "seed = -1"),
    ("simulate", _add_channel_line("range_limit = nan"), "range_limit = nan"),
    ("simulate", scenario_text(extra="\n[schedule]\nmessage_bytes = 2.5\n"),
     "message_bytes = 2.5"),
    ("simulate", scenario_text(solver="[solver]\nmax_iterations = 2.5\n"),
     "max_iterations = 2.5"),
    ("simulate", scenario_text(solver="[solver]\nconsistency_tolerance = inf\n"),
     "consistency_tolerance = inf"),
    ("simulate", _add_channel_line("range_limit = inf"), None),   # the default: accepted
    ("solve", FRAME0.replace("0.3480102169633028", "nan"), "= nan $UWPS,1"),
    ("solve", FRAME0.replace("sound_speed = 1500", "sound_speed = nan"), "sound_speed = nan"),
    ("solve", FRAME0.replace("sound_speed = 1500", "sound_speed = 0"), "sound_speed = 0"),
    ("solve", FRAME0.replace("frame = 0", "frame = 1.5"), "frame = 1.5"),
]


@pytest.mark.parametrize("command, text, bad_line", NUMBER_CASES,
                         ids=[f"{c}: {b or 'range_limit = inf'}" for c, _, b in NUMBER_CASES])
def test_input_numbers_rejected_with_line(command, text, bad_line, tmp_path, capsys):
    """Exit 1 naming path:line for NaN anywhere, infinity outside range_limit
    and a fraction where an integer belongs; never a traceback."""
    path = tmp_path / ("in.scn" if command == "simulate" else "in.obs")
    path.write_text(text)
    code, _, err = run_cli(command, str(path), capsys=capsys)
    if bad_line is None:
        assert code == EXIT_OK
        return
    lineno = next(i for i, line in enumerate(text.splitlines(), start=1) if bad_line in line)
    assert code == EXIT_USAGE
    assert f"{path}:{lineno}: " in err


def test_solve_bundled_frame_matches_simulate(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    run_cli("simulate", "squaretest", "-o", str(out_csv), capsys=capsys)
    row0 = out_csv.read_text().splitlines()[1].split(",")
    code, out, _ = run_cli("solve", "squaretest_frame0", capsys=capsys)
    assert code == EXIT_OK
    line = next(l for l in out.splitlines() if l.startswith("underwater solution"))
    coords = line.split("(")[1].split(")")[0].split(",")
    for got, want in zip(coords, row0[4:7]):
        assert float(got) == pytest.approx(float(want), abs=1e-9)


def test_solve_reports_checksum_with_line_number(tmp_path, capsys):
    obs = resolve_input("squaretest_frame0").read_text().splitlines()
    corrupted = []
    for line in obs:
        if line.startswith("observation") and "$UWPS,2" in line:
            line = line.replace("$UWPS,2,2.000", "$UWPS,2,2.001")
        corrupted.append(line)
    bad = tmp_path / "bad.obs"
    bad.write_text("\n".join(corrupted) + "\n")
    code, _, err = run_cli("solve", str(bad), capsys=capsys)
    assert code == EXIT_USAGE
    assert "ChecksumMismatch" in err
    assert ":5:" in err  # fourth content line is file line 5


def test_solve_reports_solver_taxonomy_name(tmp_path, capsys):
    """Solver failures surface their exact taxonomy name (greppable).

    A receive delay pushing one difference past its baseline is the
    wire-expressible degenerate input (exactly-symmetric geometry cannot
    survive the 1e-7 deg wire quantization, so the SingularDenominator
    path is exercised at the API level instead)."""
    obs_lines = ["sound_speed = 1500.0", "frame = 0"]
    from uwps.geo import GeodeticCoord
    from uwps.protocol import BuoyMessage, encode_message
    positions = [
        (36.7201000, -4.4203000, 0.00),
        (36.7200995, -4.4091064, 0.08),
        (36.7291107, -4.4091051, 0.16),
        (36.7291112, -4.4203000, 0.08),
    ]
    delays = [0.5, 3.5, 0.9, 0.7]  # buoy 2 heard 3 s late: |d| > baseline
    for i, (pos, delay) in enumerate(zip(positions, delays)):
        message = encode_message(BuoyMessage(i + 1, 2.0 * i,
                                             GeodeticCoord(*pos))).decode().rstrip()
        obs_lines.append(f"observation = {2.0 * i + delay} {message}")
    obs = tmp_path / "late.obs"
    obs.write_text("\n".join(obs_lines) + "\n")
    code, _, err = run_cli("solve", str(obs), capsys=capsys)
    assert code == EXIT_SOLVER
    assert "UnrealizableTDOA" in err


def test_schedule_reference_budget(capsys):
    code, out, _ = run_cli("schedule", "80", "640", "1.0", capsys=capsys)
    assert code == EXIT_OK
    assert "T_f = 8 s" in out
    assert "within the 10 s budget" in out


def test_schedule_higher_rate(capsys):
    code, out, _ = run_cli("schedule", "80", "1280", "1.0", capsys=capsys)
    assert code == EXIT_OK
    assert "t_m = 0.5 s" in out


def test_schedule_budget_exceeded(capsys):
    code, _, err = run_cli("schedule", "200", "640", "1.0", capsys=capsys)
    assert code == EXIT_SOLVER
    assert "BudgetExceeded" in err


def test_verify_reports_and_exit_code(capsys):
    code, out, _ = run_cli("verify", "--seed", "20260808", capsys=capsys)
    lines = [l for l in capsys_lines(out) if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 20
    failed = [l for l in lines if l.startswith("FAIL")]
    # the transplanted motion bound is the single documented failure
    assert [l.split()[1].rstrip(":") for l in failed] == ["channel.motion_bound"]
    assert code == EXIT_PROPERTY


def test_verify_unit_norm_catches_injected_sign_bug():
    """A sign flip in the direction discriminant must fail the unit-norm
    property (mutation check for the property's sensitivity)."""
    import numpy as np

    from uwps import verify
    from uwps.multilateration import CandidatePair

    def buggy_solve(diffs, reference, cfg):
        d, e, b = diffs.d, diffs.e, diffs.b
        r0 = reference.as_array()
        w = b / (b * b - d * d)
        u = d / (b * b - d * d)
        f1 = w[0] * e[0] - w[1] * e[1]
        f2 = w[1] * e[1] - w[2] * e[2]
        g = np.cross(f1, f2)
        h = (u[2] - u[1]) * f1 - (u[1] - u[0]) * f2
        gg = float(g @ g)
        disc = gg + float(h @ h)  # sign bug: should be a difference
        root = np.sqrt(disc)
        out = []
        for sign in (1.0, -1.0):
            evec = (np.cross(g, h) + sign * g * root) / gg
            dens = d + b * (e @ evec)
            i = int(np.argmax(np.abs(dens)))
            s = float(0.5 * (b[i] ** 2 - d[i] ** 2) / dens[i])
            out.append((evec, s, r0 + evec * s, i))
        from uwps.geo import ENU, CartesianVector
        return CandidatePair(
            e_1=out[0][0], e_2=out[1][0], s_1=out[0][1], s_2=out[1][1],
            r_1=CartesianVector.from_array(out[0][2], ENU),
            r_2=CartesianVector.from_array(out[1][2], ENU),
            denominator_index_1=out[0][3], denominator_index_2=out[1][3],
            discriminant=disc)

    ok, _ = verify.check_unit_norm(verify.DEFAULT_SEED)
    assert ok
    ok, detail = verify.check_unit_norm(verify.DEFAULT_SEED, solve=buggy_solve)
    assert not ok, detail


def test_verify_verdicts_stable_across_seeds(capsys):
    verdicts = {}
    for seed in ("20260808", "12345"):
        _, out, _ = run_cli("verify", "--seed", seed, capsys=capsys)
        verdicts[seed] = [l.split(":")[0] for l in capsys_lines(out)
                         if l.startswith(("PASS", "FAIL"))]
    assert verdicts["20260808"] == verdicts["12345"]


def capsys_lines(out: str):
    return out.splitlines()


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "uwps.cli", "schedule",
                           "80", "640", "1.0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "within the 10 s budget" in proc.stdout


def test_main_builds_parser_once_and_runs_the_current_command(monkeypatch, capsys):
    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["solve", "squaretest_frame0"]) == EXIT_OK
    solved = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: solved.append(args.observations) or 7)
    assert main(["solve", "squaretest_frame0"]) == 7
    assert builds == [1]
    assert solved == ["squaretest_frame0"]
    capsys.readouterr()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_USAGE


def test_scenario_parser_units_and_defaults(tmp_path):
    scn = tmp_path / "s.scn"
    scn.write_text(scenario_text())
    parsed = parse_scenario_file(scn)
    assert parsed.scenario.sound_speed == 1500.0
    assert parsed.scenario.schedule.frame_period == pytest.approx(8.0)
    assert parsed.scenario.range_limit == float("inf")
    assert parsed.solver.max_iterations == 50
    with pytest.raises(FileFormatError):
        parse_scenario_file(tmp_path / "missing.scn")
