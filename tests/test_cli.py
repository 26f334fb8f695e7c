"""CLI contracts: commands, exit codes, file grammars, determinism."""
import contextlib
import errno
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # moving receiver, drifting buoys, timing noise: every solver status,
    # and failed frames without a fix
    ("moving", str(DATA / "moving.scn"), EXIT_SOLVER),
    # every row shape a closed-form run writes, a polished fix among them
    ("shapes", str(DATA / "shapes.scn"), EXIT_SOLVER),
], ids=["squaretest", "moving", "shapes"])
def test_simulate_matches_golden_output(name, scenario, expected_code, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli("simulate", scenario, "-o", str(out_csv), capsys=capsys)
    assert code == expected_code
    assert out_csv.read_bytes() == (DATA / f"{name}.csv").read_bytes()
    assert out == (DATA / f"{name}.stdout").read_text()
    assert err == (DATA / f"{name}.stderr").read_text()


@pytest.mark.parametrize("name", ["moving", "shapes"])
def test_simulate_writes_the_csv_then_the_summary_to_stdout(name, capsys):
    """Without -o, as the benchmark runs it: stdout is the golden CSV and
    then the golden summary, byte for byte, and it comes before the error
    line on stderr."""
    scenario = str(DATA / f"{name}.scn")
    stdout = (DATA / f"{name}.csv").read_bytes() + (DATA / f"{name}.stdout").read_bytes()
    stderr = (DATA / f"{name}.stderr").read_bytes()
    code, out, err = run_cli("simulate", scenario, capsys=capsys)
    assert (code, out.encode(), err.encode()) == (EXIT_SOLVER, stdout, stderr)
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert main(["simulate", scenario]) == EXIT_SOLVER
    assert both.getvalue().encode() == stdout + stderr


def reference_fmt(value) -> str:
    """A CSV cell as each was once spelled on its own, the reference for
    the row templates: empty for an absent value (or a NaN), else
    f"{value:.9g}"."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.9g}"


def reference_row(frame_index, truth, fix, diffs):
    """A frame's row as cmd_simulate spelled it cell by cell before the row
    templates: the row's values (None where absent) and the row."""
    from uwps.multilateration import _norm, residuals

    if fix is None:
        values = [frame_index] + [None] * 15 + ["NoFix"]
    else:
        solved = (fix.analytic, fix.numerical)
        errs = [_norm((p[0] - truth[0], p[1] - truth[1], p[2] - truth[2]))
                if p is not None else None for p in solved]
        res = [None, None]
        if fix.analytic is not None:
            res[0] = _norm(fix.analytic_residuals)
        if fix.numerical is fix.analytic:
            res[1] = res[0]
        elif fix.numerical is not None:
            res[1] = _norm(residuals(fix.numerical, diffs))
        values = [frame_index, *truth]
        for p in solved:
            values += p if p is not None else (None,) * 3
        values += errs + res
        values.append(fix.pair.discriminant if fix.pair is not None else None)
        values.append(fix.branch.denominator_index if fix.branch is not None else None)
        values.append(fix.status)
    cells = [str(values[0])] + [reference_fmt(v) for v in values[1:15]]
    cells += ["" if values[15] is None else str(values[15]), values[16]]
    return values, ",".join(cells) + "\n"


def assert_row_matches_the_reference(frame_index, truth, fix, diffs):
    values, expected = reference_row(frame_index, truth, fix, diffs)
    assert cli._csv_row(frame_index, truth, fix, diffs) == (expected, values[10], values[11])


def shapes_frames():
    """(frame index, truth, fix, diffs) of each shapes.scn frame, as
    uwps simulate solves it."""
    from uwps.channel import assemble_observations, simulate
    from uwps.errors import PositioningError
    from uwps.multilateration import FrameFix, pseudorange_diffs, solve_frame

    parsed = parse_scenario_file(DATA / "shapes.scn")
    records = simulate(parsed.scenario)
    for record in records:
        if not record.complete:
            yield record.frame_index, None, None, None
            continue
        obs = assemble_observations(record.events, parsed.scenario.sound_speed)
        try:
            diffs = pseudorange_diffs(obs)
        except PositioningError as exc:
            diffs, fix = None, FrameFix(None, None, None, type(exc).__name__)
        else:
            fix = solve_frame(diffs, parsed.consistency_tolerance)
        yield record.frame_index, record.events[-1].true_position, fix, diffs


def test_row_templates_match_the_cell_by_cell_spelling():
    """Every row shape is spelled as the per-cell reference spells it: ok
    unpolished and polished, NoFix, the three closed-form failures and a
    Gauss-Newton NonConvergence (built from the polished frame's fix)."""
    shapes = {}
    for frame_index, truth, fix, diffs in shapes_frames():
        assert_row_matches_the_reference(frame_index, truth, fix, diffs)
        if fix is None:
            shapes["NoFix"] = frame_index
        elif fix.numerical is not None and fix.numerical is not fix.analytic:
            shapes["ok, polished"] = frame_index
            failed = fix._replace(numerical=None, status="NonConvergence")
            assert_row_matches_the_reference(frame_index, truth, failed, diffs)
            cells = cli._csv_row(frame_index, truth, failed, diffs)[0].split(",")
            # the numerical fix, its error and its residual are empty
            assert [i for i, cell in enumerate(cells) if not cell] == [7, 8, 9, 11, 13]
        else:
            shapes[fix.status] = frame_index
    assert set(shapes) == {"ok", "ok, polished", "NoFix", "NoRealSolution",
                           "NoUnderwaterSolution", "UnrealizableTDOA"}


# cell values: any float but NaN, the edges drawn often
_CELLS = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1e300, -1e300, math.inf, -math.inf]))
_POINTS = st.tuples(_CELLS, _CELLS, _CELLS)


@settings(max_examples=300, deadline=None)
@given(frame_index=st.integers(0, 10**6), truth=_POINTS, analytic=_POINTS,
       polish=st.sampled_from(["none", "skipped", "moved"]), numerical=_POINTS,
       res=_POINTS, discriminant=_CELLS, index=st.integers(0, 2),
       branch_failed=st.booleans())
def test_row_templates_match_the_cell_by_cell_spelling_on_any_values(
        frame_index, truth, analytic, polish, numerical, res, discriminant, index,
        branch_failed):
    """%.9g and f"{x:.9g}" spell the same digits, -0.0, subnormals, 1e300
    and inf included. Drawn values that make a NaN cell (inf - inf in an
    error) or a residual that is not finite (which residuals() raises on)
    are left out: no scenario gets simulate there."""
    from hypothesis import assume

    from uwps.multilateration import Branch, CandidatePair, FrameFix

    diffs = next(d for _, _, fix, d in shapes_frames() if fix and fix.status == "ok")
    branch = Branch((0.0, 0.0, -1.0), 1.0, analytic, index)
    pair = CandidatePair((branch, branch), discriminant)
    if branch_failed:
        fix = FrameFix(pair, None, None, "NoUnderwaterSolution")
    elif polish == "none":
        fix = FrameFix(pair, branch, None, "NonConvergence", res)
    else:
        fix = FrameFix(pair, branch, analytic if polish == "skipped" else numerical, "ok", res)
    try:
        values, _ = reference_row(frame_index, truth, fix, diffs)
    except ValueError:
        assume(False)
    assume(not any(isinstance(v, float) and math.isnan(v) for v in values))
    assert_row_matches_the_reference(frame_index, truth, fix, diffs)


SOLVE_GOLDENS = [
    ("squaretest_frame0", "squaretest_frame0", EXIT_OK),
    # buoy 1's receive time moved: the closed form fails after the d_0i
    # lines, the underwater selection after the discriminant line
    ("no_real_solution", str(DATA / "solve_no_real_solution.obs"), EXIT_SOLVER),
    ("no_underwater_solution", str(DATA / "solve_no_underwater_solution.obs"), EXIT_SOLVER),
]


@pytest.mark.parametrize("name, observations, expected_code", SOLVE_GOLDENS,
                         ids=[name for name, _, _ in SOLVE_GOLDENS])
def test_solve_matches_golden_output(name, observations, expected_code, capsys):
    """uwps solve's report byte for byte. A report that a solver error cuts
    short keeps the lines before the error on stdout, and they are written
    before the error line goes to stderr."""
    stdout = (DATA / f"solve_{name}.stdout").read_bytes()
    stderr = (DATA / f"solve_{name}.stderr").read_bytes() if expected_code else b""
    code, out, err = run_cli("solve", observations, capsys=capsys)
    assert (code, out.encode(), err.encode()) == (expected_code, stdout, stderr)
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert main(["solve", observations]) == expected_code
    assert both.getvalue().encode() == stdout + stderr


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


# a name the commands cannot read, and the system's reason, printed after
# the name as given; "dir" is a directory in the working directory
UNREADABLE_NAMES = [
    ("y" * 253, "No such file or directory"),   # y*253.scn is too long a name
    ("y" * 300, "File name too long"),
    ("a\x00b", "embedded null byte"),
    ("dir", "Is a directory"),
    ("missing", "No such file or directory"),
    ("", "No such file or directory"),
    ("../__init__.py", "No such file or directory"),   # not bundled: not bare
    ("../../uwps/data/squaretest.scn", "No such file or directory"),
    ("./squaretest", "No such file or directory"),
]


@pytest.mark.parametrize("command", ["simulate", "solve"])
@pytest.mark.parametrize("name, reason", UNREADABLE_NAMES,
                         ids=["253", "300", "nul", "directory", "missing", "empty",
                              "up-one", "up-two", "dot-slash"])
def test_an_unreadable_name_is_one_error_line(command, name, reason, monkeypatch, tmp_path,
                                              capsys):
    """Every name the OS refuses is `error: <name>: <reason>`, exit 1, with
    nothing on stdout; only a bare name may name a bundled file, and a
    bundled lookup the OS refuses finds none."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    shown = name.replace("\x00", "\\x00")   # a control character is printed escaped
    assert run_cli(command, name, capsys=capsys) == (EXIT_USAGE, "", f"error: {shown}: {reason}\n")
    assert resolve_input(name) == Path(name)


@pytest.mark.parametrize("command", ["simulate", "solve"])
def test_a_name_with_control_characters_is_one_escaped_error_line(command, monkeypatch,
                                                                  tmp_path, capsys):
    """A newline, an escape or a DEL in the name reaches stderr as its
    backslash escape, so the error stays one line and sends nothing to the
    terminal; a printable name, non-ASCII included, is printed as given."""
    monkeypatch.chdir(tmp_path)
    name = "a\nb\x1b[31mred\x7f.obs"
    assert run_cli(command, name, capsys=capsys) == (
        EXIT_USAGE, "", "error: a\\nb\\x1b[31mred\\x7f.obs: No such file or directory\n")
    (tmp_path / name).write_text("no grammar\n")
    assert run_cli(command, name, capsys=capsys) == (
        EXIT_USAGE, "", "error: a\\nb\\x1b[31mred\\x7f.obs:1: " + (
            "key outside any section\n" if command == "simulate" else "expected 'key = value'\n"))
    assert run_cli(command, "café \\ ☃.obs", capsys=capsys) == (
        EXIT_USAGE, "", "error: café \\ ☃.obs: No such file or directory\n")


@pytest.mark.parametrize("command, name", [("simulate", "squaretest"),
                                           ("solve", "squaretest_frame0.obs")])
def test_a_file_shadows_the_bundled_file_of_its_name(command, name, monkeypatch, tmp_path,
                                                     capsys):
    """A name is opened as given, so a file of a bundled file's name is read."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text("no grammar\n")
    assert run_cli(command, name, capsys=capsys) == (
        EXIT_USAGE, "", f"error: {name}:1: " + ("key outside any section\n"
                                                if command == "simulate" else
                                                "expected 'key = value'\n"))
    assert resolve_input(name) == Path(name)


def test_solve_and_simulate_read_their_file_without_a_stat_or_a_path(monkeypatch, tmp_path,
                                                                    capsys):
    """The commands open the name they were given: no existence check, no
    stat and no pathlib object comes between the argument and its bytes."""
    assert run_cli("simulate", "squaretest", "--export-obs", str(tmp_path),
                   capsys=capsys)[0] == EXIT_OK
    scn = tmp_path / "three.scn"
    scn.write_text(scenario_text())
    argvs = [["solve", str(tmp_path / "frame_0000.obs")], ["simulate", str(scn)]]
    want = [run_cli(*argv, capsys=capsys) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("the read path stats its file or builds a Path")

    with monkeypatch.context() as patch:
        for target, attribute in [(os.path, "exists"), (os, "stat"), (cli, "Path")]:
            patch.setattr(target, attribute, refuse)
        got = [run_cli(*argv, capsys=capsys) for argv in argvs]
    assert got == want
    assert [code for code, _, _ in want] == [EXIT_OK, EXIT_OK]


def test_importing_the_cli_leaves_importlib_resources_unloaded():
    """Only a bundled name imports importlib.resources, so `import uwps.cli`
    on a bare interpreter does not."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, uwps.cli; print('importlib.resources' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(scenario_text(extra="\n[channel2]\nx = 1\n"))
    code, _, err = run_cli("simulate", str(bad), capsys=capsys)
    assert code == EXIT_USAGE
    assert "unknown section [channel2]" in err
    # the solver's start and the settings that became constants are no options
    for section, key_line in (("[solver]", "initial_guess = 300.0 400.0 -150.0"),
                              ("[solver]", "residual_tolerance = 1e-9"),
                              ("[solver]", "max_iterations = 50"),
                              ("[solver]", "max_iterations = 2.5"),
                              ("[solver]", "surface_plane_up = 0.0"),
                              ("[receiver]", "speed_cap = 10.0")):
        text = scenario_text(solver="[solver]\n").replace(
            f"{section}\n", f"{section}\n{key_line}\n")
        bad.write_text(text)
        lineno = text.splitlines().index(key_line) + 1
        code, out, err = run_cli("simulate", str(bad), capsys=capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {bad}:{lineno}: unknown key {key_line.split()[0]!r}")


def test_simulate_fast_receiver_flags_bound(tmp_path, capsys):
    """Every frame fails the closed form, so no frame has a start for
    Gauss-Newton and none is solved: the bound is not checked."""
    scn = tmp_path / "fast.scn"
    scn.write_text(scenario_text(
        receiver_velocity="10.0 0.0 0.0",
        solver="[solver]\nconsistency_tolerance = 1000.0\n"))
    out_csv = tmp_path / "o.csv"
    code, out, err = run_cli("simulate", str(scn), "-o", str(out_csv), capsys=capsys)
    assert code == EXIT_SOLVER
    assert "motion bound v*S = 60 m" in out
    assert "no frame was solved: the motion bound was not checked" in out
    assert "nan" not in out
    assert err == "error: frame 0 produced no fix (NoRealSolution)\n"
    for row in out_csv.read_text().splitlines()[1:]:
        cells = row.split(",")
        assert cells[4:14] == [""] * 10 and cells[16] == "NoRealSolution"


def test_simulate_without_frames_skips_motion_bound(tmp_path, capsys):
    """A moving receiver out of every buoy's range: no frame has a fix, so
    there is no error to hold against the bound."""
    scn = tmp_path / "far.scn"
    scn.write_text(scenario_text(receiver_velocity="1.0 0.0 0.0").replace(
        "[run]", "range_limit = 10.0\n[run]"))
    code, out, err = run_cli("simulate", str(scn), "-o", str(tmp_path / "o.csv"),
                             capsys=capsys)
    assert code == EXIT_SOLVER
    assert "no frame was solved: the motion bound was not checked" in out
    assert "max solved error" not in out and "nan" not in out
    assert "NoFix in every frame" in err


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


ANTIMERIDIAN = """
[buoy 1]
position = 0.0 180.0 0.00
drift = 0.0005 0.0 0.0
[buoy 2]
position = 0.0 -179.99 0.0
[buoy 3]
position = 0.009 -179.99 0.0
[buoy 4]
position = 0.009 179.99999 0.0
[receiver]
position = 500.0 500.0 -150.0
[channel]
sound_speed = 1500.0
[run]
frames = 5
"""


def test_simulate_across_the_antimeridian(tmp_path, capsys):
    """Buoys on both sides of the antimeridian, buoy 1 drifting east across
    it: its reports that round to -180 deg are sent as 180, and every frame
    is solved."""
    scn = tmp_path / "antimeridian.scn"
    scn.write_text(ANTIMERIDIAN)
    out_csv = tmp_path / "o.csv"
    code, _, err = run_cli("simulate", str(scn), "-o", str(out_csv), "--export-obs",
                           str(tmp_path / "obs"), capsys=capsys)
    assert (code, err) == (EXIT_OK, "")
    rows = out_csv.read_text().splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",ok") for row in rows)
    sentences = [line for path in sorted((tmp_path / "obs").iterdir())
                 for line in path.read_text().splitlines() if line.startswith("observation")]
    assert any(",180.0000000," in line for line in sentences)
    assert not any(",-180.0000000," in line for line in sentences)


def test_simulate_degenerate_symmetric_receiver(tmp_path, capsys):
    scn = tmp_path / "axis.scn"
    scn.write_text(scenario_text(receiver_position="499.99935 500.0008 -150.0"))
    code, _, err = run_cli("simulate", str(scn), "-o", str(tmp_path / "o.csv"),
                           capsys=capsys)
    # receiver near the square's vertical axis, where the closed form can
    # degenerate: a solved frame or a named failure, either is reported
    if code != EXIT_OK:
        assert code == EXIT_SOLVER
        assert "frame" in err


@pytest.mark.parametrize("old, new", [
    ("sound_speed = 1500.0", "sound_speed = 1e153"),
    ("position = 300.0 400.0 -150.0", "position = 1e160 400.0 -150.0"),
    ("noise_sigma = 0.0", "noise_sigma = 1e308"),
], ids=["sound_speed", "receiver position", "noise_sigma"])
def test_simulate_rejects_magnitudes_that_overflow(old, new, tmp_path, capsys):
    """Values whose arrival times would overflow are a file error, exit 1,
    not a traceback from the simulator."""
    path = tmp_path / "big.scn"
    path.write_text(SQUARETEST.read_text().replace(old, new))
    code, out, err = run_cli("simulate", str(path), capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {path}: ") and "must be at most 1e+09" in err


def test_simulate_rejects_a_guard_whose_frame_is_not_finite(tmp_path, capsys):
    """A [schedule] guard whose frame period 4 (t_m + g) overflows is a file
    error naming it, exit 1, nothing on stdout, as in uwps schedule."""
    path = tmp_path / "guard.scn"
    path.write_text(scenario_text(extra="\n[schedule]\nguard = 1e308\n"))
    code, out, err = run_cli("simulate", str(path), capsys=capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {path}: frame period 4 * (1.0 + 1e+308) s must be finite\n"


def test_simulate_rejects_a_negative_noise_sigma(tmp_path, capsys):
    """A negative noise_sigma is a file error, exit 1, not a noiseless run;
    -0.0 is no noise, as 0.0 is."""
    path = tmp_path / "noisy.scn"
    path.write_text(SQUARETEST.read_text().replace("noise_sigma = 0.0", "noise_sigma = -1e-05"))
    code, out, err = run_cli("simulate", str(path), capsys=capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {path}: noise_sigma -1e-05 must be finite and >= 0\n"
    path.write_text(SQUARETEST.read_text().replace("noise_sigma = 0.0", "noise_sigma = -0.0"))
    assert run_cli("simulate", str(path), capsys=capsys)[:2] == (
        EXIT_OK, (DATA / "squaretest.csv").read_text() + (DATA / "squaretest.stdout").read_text())


@pytest.mark.parametrize("value", ["0", "-1"])
def test_simulate_rejects_a_consistency_tolerance_not_above_zero(value, tmp_path, capsys):
    """A [solver] tolerance of 0 or below is a file error when the file is
    parsed: exit 1, nothing on stdout."""
    path = tmp_path / "tolerance.scn"
    path.write_text(scenario_text(solver=f"[solver]\nconsistency_tolerance = {value}\n"))
    code, out, err = run_cli("simulate", str(path), capsys=capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: {path}: consistency_tolerance {float(value)} "
                   "must be finite and > 0\n")


@pytest.mark.parametrize("buoy", [1, 2])
@pytest.mark.parametrize("export", [False, True], ids=["csv", "export-obs"])
def test_simulate_rejects_a_report_the_wire_cannot_carry(buoy, export, tmp_path, capsys):
    """A buoy height outside the sentence's field is a file error, exit 1,
    with nothing on stdout and nothing exported."""
    lines = SQUARETEST.read_text().splitlines()
    at = lines.index(f"[buoy {buoy}]") + 1   # its position line
    lines[at] = " ".join(lines[at].split()[:-1] + ["-150000"])
    path = tmp_path / "deep.scn"
    path.write_text("\n".join(lines) + "\n")
    export_dir = tmp_path / "obs"
    argv = ["simulate", str(path)] + (["--export-obs", str(export_dir)] if export else [])
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {path}: height -150000.0 outside [-99999.99, 999999.99]\n"
    assert not export_dir.exists()


@pytest.mark.parametrize("flag", ["-o", "--export-obs"])
def test_simulate_reports_an_unwritable_output(flag, tmp_path, capsys):
    """An output path that cannot be written is `error: <path>: <reason>`,
    exit 1, nothing on stdout, no traceback."""
    if flag == "-o":
        target, reason = tmp_path / "missing" / "x.csv", os.strerror(errno.ENOENT)
    else:
        target, reason = tmp_path / "a_file", os.strerror(errno.EEXIST)
        target.write_text("not a directory\n")
    code, out, err = run_cli("simulate", "squaretest", flag, str(target), capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {target}: {reason}\n"


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
    # a removed key: now rejected as unknown, still naming its line
    ("simulate", scenario_text(solver="[solver]\nmax_iterations = 2.5\n"),
     "max_iterations = 2.5"),
    ("simulate", scenario_text(solver="[solver]\nconsistency_tolerance = inf\n"),
     "consistency_tolerance = inf"),
    ("simulate", _add_channel_line("range_limit = inf"), None),   # the default: accepted
    # float() reads these; the grammar does not: no `_`, ASCII digits only
    ("simulate", scenario_text(sound_speed="1_500.0"), "sound_speed = 1_500.0"),
    ("simulate", scenario_text(frames="\uff15"), "frames = \uff15"),
    ("solve", FRAME0.replace("0.3480102169633028", "0.348_0102169633028"),
     "= 0.348_0102169633028 $UWPS,1"),
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


UNDECODABLE_CASES = [
    ("simulate", scenario_text().encode().replace(b"[run]", b"[run] # \xe4"), "[run]"),
    ("solve", FRAME0.encode().replace(b"frame = 0", b"frame = 0 \xff"), "frame = 0"),
    ("solve", FRAME0.replace("*1C", "*1C\u00e4").encode(), "*1C\u00e4"),
]


@pytest.mark.parametrize("command, data, bad_line", UNDECODABLE_CASES,
                         ids=["scenario not UTF-8", "observations not UTF-8",
                              "sentence not ASCII"])
def test_undecodable_input_rejected_with_line(command, data, bad_line, tmp_path, capsys):
    """A file that is not UTF-8, or a sentence outside ASCII, is a file
    error naming path:line: exit 1, nothing on stdout, no traceback."""
    path = tmp_path / ("in.scn" if command == "simulate" else "in.obs")
    path.write_bytes(data)
    lines = data.decode("utf-8", "replace").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if bad_line in line)
    code, out, err = run_cli(command, str(path), capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {path}:{lineno}: ")


# the bundled scenario's value spellings, section -> key -> (value, line)
_BASE = cli._parse_sections(SQUARETEST.read_text(), "squaretest")
_GRAMMAR = [(name, key, *spec)
            for name, keys in cli._SCENARIO_KEYS.items() for key, spec in keys.items()]
_BAD_NUMBERS = st.one_of(
    st.integers(10, 99).map(lambda n: f"{n // 10}_{n % 10}"),     # `_` separator
    st.sampled_from(["\uff15", "\u0665", "1\u09eb.0", "\uff11e3"]),  # non-ASCII digits
    st.sampled_from(["nan", "inf", "-inf", "NaN", "infinity"]),
)


@st.composite
def scenario_files(draw):
    """Scenario text from the grammar table: the bundled file's values, a
    few keys redrawn as other valid numbers, and at most one grammar fault
    (a wrong count, a misspelled or non-finite number, a dropped key or
    section, an unknown key or section)."""
    redrawn = draw(st.sets(st.sampled_from(range(len(_GRAMMAR))), max_size=3))
    broken = draw(st.sets(st.sampled_from(range(len(_GRAMMAR))), max_size=1))
    fault = draw(st.sampled_from(["count", "spelling", "drop", "unknown key",
                                  "unknown section", "drop section"]))
    sections: dict[str, list[str]] = {}
    for index, (name, key, count, integer, _) in enumerate(_GRAMMAR):
        value = _BASE.get(name, {}).get(key, (None,))[0]
        if index in redrawn:
            number = (st.integers(0, 5 if key == "frames" else 10**6).map(str) if integer
                      else st.floats(-1e4, 1e4).map(repr))
            value = " ".join(draw(number) for _ in range(count))
        if index in broken:
            numbers = (value or "1 " * count).split()
            if fault == "count":
                numbers = numbers[:-1] if draw(st.booleans()) else numbers + ["1"]
            elif fault == "spelling":
                numbers[draw(st.integers(0, count - 1))] = draw(_BAD_NUMBERS)
            value = None if fault == "drop" else " ".join(numbers)
            if fault == "unknown key":
                sections.setdefault(name, []).append("speed_cap = 10.0")
            elif fault == "unknown section":
                sections.setdefault(f"{name} 2", []).append(f"{key} = 1")
            elif fault == "drop section":
                sections[name] = None
        lines = sections.setdefault(name, [])
        if value is not None and lines is not None:
            lines.append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items() if lines is not None)


@settings(max_examples=150, deadline=None)
@given(text=scenario_files())
def test_simulate_fuzzed_scenario_files(text):
    """uwps simulate on any scenario file exits 0, 1 or 2 without a
    traceback, a rejected file is reported as `error: <path>...`, and no
    CSV cell is a NaN."""
    with tempfile.TemporaryDirectory() as tmp:
        path, csv = Path(tmp) / "fuzz.scn", Path(tmp) / "out.csv"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", str(path), "-o", str(csv)])
        assert "nan" not in (csv.read_text().replace("\n", ",").split(",")
                             if csv.exists() else [])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_SOLVER)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue().startswith(f"error: {path}")
        assert out.getvalue() == ""


# the bundled frame's four sentences, as its observation lines spell them
_FRAME0_SENTENCES = [line.split()[3] for line in FRAME0.splitlines()
                     if line.startswith("observation")]


@st.composite
def _sentences(draw):
    """A bundled sentence, a canonical sentence from anywhere on the globe,
    or either with one character replaced."""
    from uwps.geo import GeodeticCoord
    from uwps.protocol import BuoyMessage, encode_message

    if draw(st.booleans()):
        sentence = draw(st.sampled_from(_FRAME0_SENTENCES))
    else:
        message = BuoyMessage(draw(st.integers(1, 4)), draw(st.floats(0.0, 86399.999)),
                              GeodeticCoord(draw(st.floats(-90.0, 90.0)),
                                            draw(st.floats(-179.9999999, 180.0)),
                                            draw(st.floats(-100.0, 100.0))))
        sentence = encode_message(message).decode("ascii").rstrip("\r\n")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(sentence) - 1))
        sentence = sentence[:at] + draw(st.sampled_from("$*,.-09AZ ")) + sentence[at + 1:]
    return sentence


_FILE_NUMBERS = st.one_of(
    st.floats(-1e4, 1e4).map(repr),
    st.floats().map(repr),               # every float, NaN and the infinities too
    st.sampled_from(["1e308", "-1e308", "5e-324", "0", "-0.0"]),
    _BAD_NUMBERS,
)


@st.composite
def observation_files(draw):
    """Observation files near the bundled frame. Each value keeps its
    bundled spelling four times in five; otherwise the sound speed and the
    frame index take any spelling of a number, a receive time is shifted by
    up to 5 s or takes any spelling, a sentence is drawn by _sentences, and
    the file may have 0-6 observation lines, no sound speed, or a stray
    line."""
    def kept(value, other):
        return value if draw(st.integers(0, 4)) else draw(other)

    times = [line.split()[2] for line in FRAME0.splitlines() if line.startswith("observation")]
    lines = ["# fuzzed observation file", f"frame = {kept('0', _FILE_NUMBERS)}"]
    if draw(st.integers(0, 9)):
        lines.append(f"sound_speed = {kept('1500', _FILE_NUMBERS)}")
    for k in range(kept(4, st.integers(0, 6))):
        shifted = st.floats(-5.0, 5.0).map(lambda shift, t=float(times[k % 4]): repr(t + shift))
        time = kept(times[k % 4], st.one_of(shifted, _FILE_NUMBERS))
        lines.append(f"observation = {time} {kept(_FRAME0_SENTENCES[k % 4], _sentences())}")
    if not draw(st.integers(0, 9)):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["speed = 1500", "observation = 1.0", "no equals sign", "= 3"])))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=observation_files())
def test_solve_fuzzed_observation_files(text):
    """uwps solve on any observation file exits 0, 1 or 2 without a
    traceback: a rejected file is reported as `error: <path>...`, and a
    frame without a fix names its PositioningError."""
    from uwps import errors

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.obs"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_SOLVER)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue().startswith(f"error: {path}")
        assert out.getvalue() == ""
    elif code == EXIT_SOLVER:
        name = err.getvalue().removeprefix("error: ").split(":", 1)[0]
        assert issubclass(getattr(errors, name), errors.PositioningError)
    else:
        assert err.getvalue() == "" and "underwater solution: (" in out.getvalue()


FLAG_CASES = [
    ("schedule", "80", "nan", "1"),
    ("schedule", "80", "640", "nan"),
    ("schedule", "80", "640", "inf"),
    ("verify", "--seed", "-1"),
    # exponent form: argparse takes a bare -1e0 for an option, so it is
    # given with `=` or after `--`, and is then range-checked
    ("verify", "--seed=-1e0"),
    ("schedule", "80", "640", "--", "-1e0"),
]


@pytest.mark.parametrize("argv", FLAG_CASES, ids=" ".join)
def test_cli_numbers_rejected(argv, capsys):
    """A flag or argument that is not a finite number in range is a usage
    error naming it: exit 1, no traceback, nothing on stdout."""
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "must be" in err
    assert "Traceback" not in err


SPELLING_CASES = [
    ("schedule", "8_0", "640", "1"),
    ("schedule", "80", "6_40", "1"),
    ("schedule", "80", "640", "\uff11"),
    ("verify", "--seed", "1_0"),
    ("verify", "--seed", "\u0661"),
]


@pytest.mark.parametrize("argv", SPELLING_CASES, ids=" ".join)
def test_cli_numbers_follow_the_file_grammar(argv, capsys):
    """A flag or argument spelled with a `_` separator or a non-ASCII digit
    is no number, as in the files: exit 1, no traceback, nothing on stdout."""
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "invalid" in err and "Traceback" not in err


def test_solve_takes_no_tolerance_option(capsys):
    """uwps solve solves at the default tolerance: --consistency-tolerance
    is an unrecognized argument, exit 1, nothing on stdout."""
    code, out, err = run_cli("solve", "squaretest_frame0", "--consistency-tolerance", "1e-3",
                             capsys=capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --consistency-tolerance 1e-3" in err


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


def test_exported_sound_speed_keeps_the_solve_exact(tmp_path, capsys):
    """An exported file carries the scenario's sound speed exactly, so
    `uwps solve` on it reproduces the receiver to 1e-6 m: rounded to nine
    digits, 1487.123456789 m/s would put the fix about 7e-6 m off."""
    scn = tmp_path / "speed.scn"
    scn.write_text(resolve_input("squaretest").read_text().replace(
        "sound_speed = 1500.0", "sound_speed = 1487.123456789"))
    code, _, _ = run_cli("simulate", str(scn), "-o", str(tmp_path / "o.csv"),
                         "--export-obs", str(tmp_path / "obs"), capsys=capsys)
    assert code == EXIT_OK
    exported = tmp_path / "obs" / "frame_0000.obs"
    assert "sound_speed = 1487.123456789\n" in exported.read_text()
    code, out, _ = run_cli("solve", str(exported), capsys=capsys)
    assert code == EXIT_OK
    line = next(l for l in out.splitlines() if l.startswith("underwater solution"))
    fix = [float(v) for v in line.split("(")[1].split(")")[0].split(",")]
    assert math.dist(fix, (300.0, 400.0, -150.0)) < 1e-6


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


@pytest.mark.parametrize("line", ["sound_speed = 1400", "frame = 1"])
def test_solve_rejects_a_repeated_key(line, tmp_path, capsys):
    """A second sound_speed or frame line is a file error naming it, exit
    1, not a silent override."""
    path = tmp_path / "twice.obs"
    path.write_text(FRAME0 + line + "\n")
    code, out, err = run_cli("solve", str(path), capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    lineno = len(FRAME0.splitlines()) + 1
    assert err == f"error: {path}:{lineno}: duplicate key {line.split()[0]!r}\n"


def test_solve_rejects_a_negative_frame(tmp_path, capsys):
    """A negative frame index is a file error naming its line, exit 1, as
    a negative integer is in a scenario file."""
    path = tmp_path / "negative.obs"
    path.write_text(FRAME0.replace("frame = 0", "frame = -3"))
    code, out, err = run_cli("solve", str(path), capsys=capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {path}:3: frame must be >= 0\n"


def test_solve_never_encodes_a_message(monkeypatch, capsys):
    """uwps solve decodes its sentences without rendering any through
    encode_message, as the benchmark's traced receiver run requires."""
    from uwps import protocol

    def refuse(message):
        raise AssertionError("encode_message called")

    monkeypatch.setattr(protocol, "encode_message", refuse)
    monkeypatch.setattr(cli, "encode_message", refuse)
    code, out, err = run_cli("solve", "squaretest_frame0", capsys=capsys)
    assert (code, err) == (EXIT_OK, "")
    assert "underwater solution: (" in out


@pytest.mark.parametrize("exported", [False, True], ids=["bundled", "unpolished-pick"])
def test_solve_never_runs_gauss_newton(exported, monkeypatch, tmp_path, capsys):
    """uwps solve reports the closed form's pick without calling
    numerical_solve, as the benchmark's traced receiver run requires: also
    on an exported frame whose pick solve_frame polishes (half its squared
    residual norm is at least 1e-24 m^2)."""
    from uwps import multilateration
    from uwps.channel import assemble_observations
    from uwps.multilateration import pseudorange_diffs, solve_frame

    calls = []
    numerical_solve = multilateration.numerical_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return numerical_solve(*args, **kwargs)

    monkeypatch.setattr(multilateration, "numerical_solve", counted)
    path = resolve_input("squaretest_frame0")
    if exported:
        scn = tmp_path / "polished.scn"
        scn.write_text(scenario_text(receiver_position="900.0 50.0 -60.0", frames="1"))
        code, _, _ = run_cli("simulate", str(scn), "--export-obs", str(tmp_path / "obs"),
                             capsys=capsys)
        assert code == EXIT_OK
        path = tmp_path / "obs" / "frame_0000.obs"
    heard = cli.parse_observation_file(path)
    events = cli._decode_observation_events(heard, path)
    diffs = pseudorange_diffs(assemble_observations(events, heard.sound_speed))
    calls.clear()
    fix = solve_frame(diffs)
    assert len(calls) == int(exported)
    assert (multilateration._cost(fix.analytic_residuals) >= 1e-24) == exported

    calls.clear()
    code, out, err = run_cli("solve", str(path), capsys=capsys)
    assert (code, err, calls) == (EXIT_OK, "", [])
    x, y, z = fix.analytic
    r1, r2, r3 = fix.analytic_residuals
    assert out.endswith(f"underwater solution: ({x:.9g}, {y:.9g}, {z:.9g}) m\n"
                        f"residuals: ({r1:.9g}, {r2:.9g}, {r3:.9g}) m\n")
    # the two frames pick different branches: the second, then the first
    assert fix.branch is fix.pair.branches[0 if exported else 1]


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
    """The reference schedule's report, byte for byte."""
    code, out, err = run_cli("schedule", "80", "640", "1.0", capsys=capsys)
    assert (code, out, err) == (EXIT_OK, (DATA / "schedule_80_640_1.stdout").read_text(), "")


def test_schedule_higher_rate(capsys):
    code, out, _ = run_cli("schedule", "80", "1280", "1.0", capsys=capsys)
    assert code == EXIT_OK
    assert "t_m = 0.5 s" in out


def test_schedule_budget_exceeded(capsys):
    code, _, err = run_cli("schedule", "200", "640", "1.0", capsys=capsys)
    assert code == EXIT_SOLVER
    assert "BudgetExceeded" in err


SCHEDULE_ERRORS = [
    (("0", "nan", "-1"), EXIT_USAGE, "message_bytes must be > 0"),
    (("1e308", "nan", "-1"), EXIT_USAGE, "bit_rate nan must be finite and > 0"),
    (("200", "640", "-1"), EXIT_USAGE, "guard -1.0 must be finite and >= 0"),
    (("1e308", "640", "1"), EXIT_SOLVER,
     "BudgetExceeded: message duration inf s exceeds the 1.000 s cap"),
    # t_m is spelled with %.9g, not in all its 301 digits
    (("1", "1e-300", "1"), EXIT_SOLVER,
     "BudgetExceeded: message duration 8e+300 s exceeds the 1.000 s cap"),
    (("80", "640", "1e308"), EXIT_USAGE, "frame period 4 * (1.0 + 1e+308) s must be finite"),
]


@pytest.mark.parametrize("argv, want_code, want_err", SCHEDULE_ERRORS,
                         ids=[" ".join(argv) for argv, _, _ in SCHEDULE_ERRORS])
def test_schedule_checks_in_order(argv, want_code, want_err, capsys):
    """compute_schedule checks the message size, the bit rate, the guard,
    the 1 s cap and then the frame period: the first that fails is the one
    error line."""
    code, out, err = run_cli("schedule", *argv, capsys=capsys)
    assert (code, out, err) == (want_code, "", f"error: {want_err}\n")


def test_schedule_takes_no_cap_option(capsys):
    """The message cap is the fixed 1 s: --cap is an unrecognized
    argument, exit 1, nothing on stdout."""
    code, out, err = run_cli("schedule", "80", "640", "1", "--cap", "2", capsys=capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --cap 2" in err


def test_verify_reports_and_exit_code(capsys):
    code, out, _ = run_cli("verify", "--seed", "20260808", capsys=capsys)
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
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
    from uwps.multilateration import Branch, CandidatePair

    def buggy_solve(diffs):
        d, e, b = np.array(diffs.d), np.array(diffs.e), np.array(diffs.b)
        r0 = np.array(diffs.reference)
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
            out.append(Branch(tuple(evec.tolist()), s, tuple((r0 + evec * s).tolist()), i))
        return CandidatePair(branches=tuple(out), discriminant=disc)

    ok, detail = verify.check_unit_norm(verify.DEFAULT_SEED, solve=buggy_solve)
    assert not ok, detail


def test_verify_check_fails_when_no_scenario_can_be_drawn(monkeypatch):
    """A closed form that always raises leaves sample_scenario nothing to
    accept: the check FAILs with the raise within seconds, no endless loop."""
    from uwps import multilateration, verify
    from uwps.errors import NoRealSolution

    def broken(*args, **kwargs):
        raise NoRealSolution("always")

    def still_drawing(signum, frame):
        raise TimeoutError("still drawing after 10 s")

    monkeypatch.setattr(multilateration, "kleusberg_solve", broken)
    monkeypatch.setattr(verify, "_CHECKS", [("multilateration.reconstruction_exactness",
                                             verify.check_reconstruction_exactness)])
    previous = signal.signal(signal.SIGALRM, still_drawing)
    signal.alarm(10)
    try:
        started = time.perf_counter()
        [result] = verify.run_all(verify.DEFAULT_SEED)
        elapsed = time.perf_counter() - started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not result.ok
    assert result.detail == (f"raised RuntimeError: no usable scenario in "
                             f"{verify.SAMPLE_DRAWS} draws")
    assert elapsed < 5.0


def test_verify_verdicts_stable_across_seeds(capsys):
    """The same verdicts at every seed, and each seed's whole report as its
    golden: a detail line that moves fails here."""
    verdicts = {}
    for seed in ("20260808", "12345", "1", "7"):
        _, out, _ = run_cli("verify", "--seed", seed, capsys=capsys)
        assert out == (DATA / f"verify_{seed}.stdout").read_text()
        verdicts[seed] = [l.split(":")[0] for l in out.splitlines()
                         if l.startswith(("PASS", "FAIL"))]
    assert verdicts["12345"] == verdicts["1"] == verdicts["7"] == verdicts["20260808"]


def readme_library_example() -> str:
    """The code of the README's library example."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    return code.split("```", 1)[0]


def test_readme_library_example_imports_exactly_the_package_exports():
    """The example's `from uwps import` names each of uwps.__all__ once,
    and every one exists: an export added or removed takes the README
    with it."""
    import ast

    import uwps

    imported = [alias.name for node in ast.walk(ast.parse(readme_library_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "uwps"
                for alias in node.names]
    assert sorted(imported) == sorted(set(uwps.__all__)) == sorted(uwps.__all__)
    assert all(hasattr(uwps, name) for name in uwps.__all__)


def test_readme_library_example_runs(capsys):
    """The README's library example solves the bundled frame as `uwps solve`
    does."""
    namespace = {}
    exec(compile(readme_library_example(), "README.md", "exec"), namespace)
    fix = namespace["fix"]
    assert fix.status == "ok"
    x, y, z = fix.analytic
    _, out, _ = run_cli("solve", "squaretest_frame0", capsys=capsys)
    assert f"underwater solution: ({x:.9g}, {y:.9g}, {z:.9g}) m" in out


# numpy made unimportable: every command runs without it but `uwps verify`
# and a noisy `uwps simulate`, which exit 1 with one line saying so
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import uwps
from uwps.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [["simulate", "squaretest"], ["solve", "squaretest_frame0"],
                                  ["schedule", "80", "640", "1"],
                                  ["simulate", str(DATA / "moving.scn")], ["verify"]],
                         ids=["simulate", "solve", "schedule", "simulate-noisy", "verify"])
def test_runs_without_numpy(argv, tmp_path, capsys):
    if argv[0] == "simulate":
        argv = [*argv, "-o", str(tmp_path / "out.csv")]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv],
                          capture_output=True, text=True)
    if argv[0] == "verify" or argv[1].endswith("moving.scn"):
        what = "uwps verify" if argv[0] == "verify" else f"{argv[1]}: timing noise"
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr.startswith(f"error: {what}")
        assert proc.stderr.endswith(" needs numpy\n") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()
        return
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    if argv[0] == "simulate":
        assert (tmp_path / "out.csv").read_bytes() == (DATA / "squaretest.csv").read_bytes()
        assert proc.stdout == (DATA / "squaretest.stdout").read_text()
    else:
        assert proc.stdout == run_cli(*argv, capsys=capsys)[1]


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


def reference_main(argv):
    """main as it dispatched before: the top-level parser reads all of
    argv, then the command runs. The reference for main's dispatch."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return getattr(cli, f"cmd_{args.command}")(args)


_F = "squaretest_frame0"   # the bundled observation file
PARITY_ARGVS = [
    ["simulate", "squaretest"], ["solve", _F], ["schedule", "80", "640", "1"],
    ["verify", "--seed", "12345"],
    [], ["-h"], ["--help"], ["nope"], ["--", "solve", _F], ["-h", "solve"],
    ["solve"], ["solve", "-h"], ["solve", _F, "-h"], ["solve", _F, "--bogus"],
    ["solve", _F, "-x"], ["solve", _F, "--consistency-tolerance"],
    ["solve", _F, "--consist", "1e-3"], ["solve", _F, "--consistency-tolerance=2"],
    ["solve", "--", _F], ["solve", _F, "--", "x"], ["schedule", "80", "-640", "1"],
    ["schedule", "80"], ["verify", "--seed"], ["simulate"],
    ["simulate", _F, "extra1", "extra2"], ["verify", "--se", "1"],
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_main_dispatches_as_the_top_level_parser(argv, capsys):
    """main hands a command's arguments straight to that command's parser,
    with the stdout, stderr and exit code of the top-level parser reading
    all of argv, usage errors and help included."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    want_code = reference_main(list(argv))
    want_out, want_err = capsys.readouterr()
    assert (code, out, err) == (want_code, want_out, want_err)


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_USAGE


def test_file_formats_doc_lists_the_scenario_keys():
    """docs/file-formats.md's key table names exactly the keys of the
    scenario grammar, section by section, each with the grammar's number
    count, kind and optional marking."""
    doc = (Path(__file__).parent.parent / "docs" / "file-formats.md").read_text()
    table = doc.split("## Scenario files", 1)[1].split("\n\n## ", 1)[0]
    documented: dict[str, dict[str, tuple]] = {}
    section = None
    for row in table.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if not row.startswith("|") or cells[0] in ("Section", "---"):
            continue
        if cells[0]:
            section = cells[0].strip("`[]").split()[0]
        count, kind = cells[2].split()
        documented.setdefault(section, {})[cells[1].strip("`")] = (
            int(count), kind == "integer", "optional" in cells[3])
    assert documented == {
        section.split()[0]: {key: (count, integer, default is not None)
                             for key, (count, integer, default) in keys.items()}
        for section, keys in cli._SCENARIO_KEYS.items()}


def test_docs_name_the_options_the_parser_has():
    """README's CLI block lists each command's options, -h aside, and
    every --option docs/file-formats.md names is an option of a command."""
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    option = r"(?<![\w-])--?[a-z][a-z-]*"
    listed = {line.split()[1]: re.findall(option, line) for line in block.splitlines()}
    commands = cli.build_parser().commands
    assert listed.keys() == commands.keys()
    for name, parser in commands.items():
        want = {action for action in parser._actions
                if action.option_strings and action.dest != "help"}
        assert {parser._option_string_actions.get(o) for o in listed[name]} == want, name
    doc = (root / "docs" / "file-formats.md").read_text()
    known = {o for parser in commands.values() for o in parser._option_string_actions}
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", doc)) - known == set()


def test_scenario_parser_units_and_defaults(tmp_path):
    scn = tmp_path / "s.scn"
    scn.write_text(scenario_text())
    parsed = parse_scenario_file(scn)
    assert parsed.scenario.sound_speed == 1500.0
    assert parsed.scenario.schedule.frame_period == pytest.approx(8.0)
    assert parsed.scenario.range_limit == float("inf")
    assert parsed.consistency_tolerance == 1e-6
    with pytest.raises(FileFormatError):
        parse_scenario_file(tmp_path / "missing.scn")
