"""Command-line front end: simulate scenarios, solve observation files,
print schedules, and run the verification property suite.

Exit codes: 0 success, 1 usage or file-parse failure, 2 solver error,
3 property failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .channel import (
    BuoyTrack,
    ReceiverTrack,
    ReceptionEvent,
    Scenario,
    assemble_observations,
    simulate,
)
from .errors import PositioningError
from .geo import GeodeticCoord
from .multilateration import (
    CONSISTENCY_TOLERANCE,
    FrameFix,
    _consistency_tolerance,
    _norm,
    kleusberg_solve,
    pseudorange_diffs,
    residuals,
    select_underwater,
    solve_frame,
)
from .protocol import FRAME_BUDGET, compute_schedule, decode_message, encode_message

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_PROPERTY = 3

CSV_HEADER = (
    "frame,truth_e,truth_n,truth_u,analytic_e,analytic_n,analytic_u,"
    "numerical_e,numerical_n,numerical_u,error_analytic,error_numerical,"
    "residual_analytic,residual_numerical,discriminant,s0_index,status"
)


class FileFormatError(Exception):
    """Input file violates its grammar; message carries the line number."""


# The result CSV's rows, by how far the frame got: every number is spelled
# %.9g and an absent one is an empty cell. A NoFix frame has no reception
# set to score, so its truth cells are empty too; a frame whose closed form
# failed has only its truth, one whose underwater pick failed adds the
# discriminant, and one whose Gauss-Newton polish failed has every cell but
# the numerical fix's.
_ROW_NO_FIX = "%d" + "," * 16 + "NoFix\n"
_ROW_NO_PAIR = "%d,%.9g,%.9g,%.9g" + "," * 13 + "%s\n"
_ROW_NO_PICK = "%d,%.9g,%.9g,%.9g" + "," * 11 + "%.9g,,%s\n"
_ROW_NO_POLISH = "%d" + ",%.9g" * 6 + ",,,,%.9g,,%.9g,,%.9g,%d,%s\n"
_ROW = "%d," + ",".join(["%.9g"] * 14) + ",%d,%s\n"


def _csv_row(frame_index: int, truth, fix: FrameFix | None, diffs):
    """One frame's result CSV row, newline included, and the analytic and
    numerical fixes' errors [m], None where there is no such fix. truth
    and fix are None for a NoFix frame; diffs gives the residuals of a
    polished fix. The norms are written out in _norm's arithmetic."""
    if fix is None:
        return _ROW_NO_FIX % frame_index, None, None
    tx, ty, tz = truth
    branch = fix.branch
    if branch is None:
        if fix.pair is None:
            return _ROW_NO_PAIR % (frame_index, tx, ty, tz, fix.status), None, None
        return (_ROW_NO_PICK % (frame_index, tx, ty, tz, fix.pair.discriminant, fix.status),
                None, None)
    analytic = ax, ay, az = branch.position
    dx, dy, dz = ax - tx, ay - ty, az - tz
    error = math.sqrt(dx * dx + dy * dy + dz * dz)
    r0, r1, r2 = fix.analytic_residuals
    residual = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
    numerical = fix.numerical
    if numerical is None:
        return (_ROW_NO_POLISH % (frame_index, tx, ty, tz, ax, ay, az, error, residual,
                                  fix.pair.discriminant, branch.denominator_index, fix.status),
                error, None)
    if numerical is analytic:
        nx, ny, nz = analytic
        error_n, residual_n = error, residual
    else:
        nx, ny, nz = numerical
        dx, dy, dz = nx - tx, ny - ty, nz - tz
        error_n = math.sqrt(dx * dx + dy * dy + dz * dz)
        r0, r1, r2 = residuals(numerical, diffs)
        residual_n = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
    return (_ROW % (frame_index, tx, ty, tz, ax, ay, az, nx, ny, nz, error, error_n, residual,
                    residual_n, fix.pair.discriminant, branch.denominator_index, fix.status),
            error, error_n)


# -- scenario files ------------------------------------------------------

# The scenario grammar: section -> key -> (how many numbers, integer or
# not, default). A key without a default is required, and so is a section
# with a required key. Only range_limit may be inf, and an integer must
# be >= 0. The [channel] keys are Scenario's fields of the same names.
_BUOY_KEYS = {"position": (3, False, None), "drift": (3, False, (0.0, 0.0, 0.0))}
_SCENARIO_KEYS = {
    **{f"buoy {i}": _BUOY_KEYS for i in (1, 2, 3, 4)},
    "receiver": {"position": (3, False, None), "velocity": (3, False, (0.0, 0.0, 0.0))},
    "channel": {"sound_speed": (1, False, None), "clock_offset": (1, False, 0.0),
                "range_limit": (1, False, math.inf), "noise_sigma": (1, False, 0.0),
                "seed": (1, True, 0)},
    "schedule": {"message_bytes": (1, True, 80), "bit_rate": (1, False, 640.0),
                 "guard": (1, False, 1.0)},
    "run": {"frames": (1, True, None)},
    "solver": {"consistency_tolerance": (1, False, CONSISTENCY_TOLERANCE)},
}
_REQUIRED_SECTIONS = frozenset(
    name for name, keys in _SCENARIO_KEYS.items()
    if any(default is None for _, _, default in keys.values()))


class ScenarioFile(NamedTuple):
    """Parsed scenario file: the Scenario plus the closed form's tolerance."""

    scenario: Scenario
    consistency_tolerance: float


def _parse_sections(text: str, path: str):
    """Line-oriented `[section]` / `key = value` grammar with # comments."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    block = None   # the current section's keys
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            current = line[1:-1].strip().lower()
            if current in sections:
                raise FileFormatError(f"{path}:{lineno}: duplicate section [{current}]")
            sections[current] = block = {}
            continue
        if block is None:
            raise FileFormatError(f"{path}:{lineno}: key outside any section")
        key, equals, value = line.partition("=")
        if not equals:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key in block:
            raise FileFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        block[key] = (value.strip(), lineno)
    return sections


def _number(text: str) -> float:
    """One number as files and flags spell it: float()'s syntax in ASCII,
    without `_` separators. NaN and inf pass; the caller range-checks."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"non-numeric value {text!r}")
    return float(text)


def _integer(text: str) -> int:
    """A whole number in the grammar of _number, as an int."""
    number = _number(text)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {text!r}")
    return int(number)


def _numbers(value: str, count: int, integer: bool, path: Path, lineno: int,
             allow_inf: bool = False):
    """The value on a file line as count numbers, a tuple unless count is 1:
    finite (or inf where allow_inf) and whole where integer. One loop reads
    and checks the numbers; a non-numeric one is reported before a
    non-finite one, and that before one that is not whole."""
    parts = value.split()
    if len(parts) != count:
        raise FileFormatError(f"{path}:{lineno}: expected {count} numbers, got {len(parts)}")
    numbers = []
    finite = True
    for part in parts:
        try:
            number = _number(part)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: non-numeric value {value!r}") from None
        finite = finite and (math.isfinite(number) or allow_inf and math.isinf(number))
        numbers.append(number)
    if not finite:
        raise FileFormatError(f"{path}:{lineno}: non-finite value {value!r}")
    if integer:
        whole = [int(v) for v in numbers]
        if whole != numbers:
            raise FileFormatError(f"{path}:{lineno}: expected an integer, got {value!r}")
        numbers = whole
    return numbers[0] if count == 1 else tuple(numbers)


def _read_text(path) -> str:
    """The UTF-8 text of the file path names as given, else of a bare name's
    bundled file; an unreadable or undecodable file is a FileFormatError."""
    try:
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            bundled = _bundled_file(path)
            if bundled is None:
                raise
            fd = os.open(bundled, os.O_RDONLY)
        chunks = []
        try:
            while chunk := os.read(fd, 65536):
                chunks.append(chunk)
        finally:
            os.close(fd)
        data = b"".join(chunks)
        return data.decode("utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as the parsers count lines
        lineno = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise FileFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:   # a name no file can have, such as one with a NUL byte
        raise FileFormatError(f"{path}: {exc}") from None


def parse_scenario_file(path: Path) -> ScenarioFile:
    sections = _parse_sections(_read_text(path), str(path))
    values = {}   # section name -> key -> parsed value
    for name, keys in _SCENARIO_KEYS.items():
        block = sections.pop(name, None)
        if block is None:
            if name in _REQUIRED_SECTIONS:
                raise FileFormatError(f"{path}: missing section [{name}]")
            block = {}
        for key, (_, lineno) in block.items():
            if key not in keys:
                raise FileFormatError(f"{path}:{lineno}: unknown key {key!r} in [{name}]")
        values[name] = parsed = {}
        for key, (count, integer, default) in keys.items():
            if key not in block:
                if default is None:
                    raise FileFormatError(f"{path}: [{name}] needs {key}")
                parsed[key] = default
                continue
            value, lineno = block[key]
            parsed[key] = _numbers(value, count, integer, path, lineno, key == "range_limit")
            if integer and parsed[key] < 0:
                raise FileFormatError(f"{path}:{lineno}: {key} must be >= 0")
    if sections:
        raise FileFormatError(f"{path}: unknown section [{next(iter(sections))}]")

    buoys = []
    for i in (1, 2, 3, 4):
        buoy = values[f"buoy {i}"]
        try:
            buoys.append(BuoyTrack(GeodeticCoord(*buoy["position"]), buoy["drift"]))
        except ValueError as exc:
            raise FileFormatError(f"{path}: [buoy {i}]: {exc}") from None
    receiver = values["receiver"]
    try:
        scenario = Scenario(
            buoys=tuple(buoys),
            receiver=ReceiverTrack(receiver["position"], receiver["velocity"]),
            schedule=compute_schedule(**values["schedule"]),
            frames=values["run"]["frames"],
            **values["channel"],
        )
        tolerance = _consistency_tolerance(values["solver"]["consistency_tolerance"])
    except (ValueError, PositioningError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return ScenarioFile(scenario=scenario, consistency_tolerance=tolerance)


# -- observation files ---------------------------------------------------

class ObservationFile(NamedTuple):
    sound_speed: float
    frame_index: int
    receive_times: list[float]
    sentences: list[bytes]
    line_numbers: list[int]    # file line of each observation


def parse_observation_file(path: Path) -> ObservationFile:
    text = _read_text(path)
    sound_speed = None
    frame_index = 0
    receive_times: list[float] = []
    sentences: list[bytes] = []
    line_numbers: list[int] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key == "observation":   # the one key that repeats
            parts = value.split(None, 1)
            if len(parts) != 2:
                raise FileFormatError(
                    f"{path}:{lineno}: observation needs '<receive_time> <sentence>'")
            # _numbers(parts[0], 1, ...) written out: the same reading and errors
            try:
                receive_time = _number(parts[0])
            except ValueError:
                raise FileFormatError(
                    f"{path}:{lineno}: non-numeric value {parts[0]!r}") from None
            if not math.isfinite(receive_time):
                raise FileFormatError(f"{path}:{lineno}: non-finite value {parts[0]!r}")
            receive_times.append(receive_time)
            sentence = parts[1]   # value was stripped, so split() left no blank
            if not sentence.isascii():
                raise FileFormatError(f"{path}:{lineno}: sentence is not ASCII")
            sentences.append((sentence + "\r\n").encode("ascii"))
            line_numbers.append(lineno)
            continue
        if key in seen:
            raise FileFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "sound_speed":
            sound_speed = _numbers(value, 1, False, path, lineno)
            if sound_speed <= 0.0:
                raise FileFormatError(f"{path}:{lineno}: sound_speed must be > 0")
        elif key == "frame":
            frame_index = _numbers(value, 1, True, path, lineno)
            if frame_index < 0:
                raise FileFormatError(f"{path}:{lineno}: frame must be >= 0")
        else:
            raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
    if sound_speed is None:
        raise FileFormatError(f"{path}: missing sound_speed")
    if len(sentences) != 4:
        raise FileFormatError(f"{path}: expected 4 observation lines, got {len(sentences)}")
    return ObservationFile(sound_speed, frame_index, receive_times, sentences, line_numbers)


def _decode_observation_events(obs_file: ObservationFile, path: Path):
    """Decode the four sentences into reception events; line-accurate errors.
    ReceptionEvent checks nothing, so each is built as its tuple."""
    events = []
    for sentence, receive_time, lineno in zip(
            obs_file.sentences, obs_file.receive_times, obs_file.line_numbers):
        try:
            message = decode_message(sentence)
        except PositioningError as exc:
            raise FileFormatError(
                f"{path}:{lineno}: {type(exc).__name__}: {exc}") from None
        events.append(tuple.__new__(ReceptionEvent, (
            obs_file.frame_index, message, receive_time, None, None)))
    return events


# -- bundled data --------------------------------------------------------

def _bundled_file(name):
    """uwps/data/<name>, <name>.scn or <name>.obs, the first that exists, for
    a bare name: one path component, not empty, . or ..; else None."""
    name = os.fspath(name)
    if os.path.basename(name) != name or name in ("", ".", ".."):
        return None
    from importlib import resources   # only a bundled name needs it
    try:
        for candidate in (name, f"{name}.scn", f"{name}.obs"):
            bundle = resources.files("uwps.data").joinpath(candidate)
            if bundle.is_file():
                with resources.as_file(bundle) as concrete:
                    return Path(concrete)
    except OSError:   # a name the OS refuses names no bundled file
        pass
    return None


def resolve_input(name: str) -> Path:
    """The file that `uwps simulate` and `uwps solve` read for name: the
    bundled file of a bare name that names no file, else name itself."""
    return (None if os.path.exists(name) else _bundled_file(name)) or Path(name)


# -- commands ------------------------------------------------------------

def _error(message: str) -> None:
    """Write `error: <message>` to stderr as one line. A character that is
    not printable there, such as a newline or an escape in a file name, is
    written as its backslash escape (\\n, \\x1b); a printable message as it is."""
    if not message.isprintable():
        message = "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
                          for c in message)
    print(f"error: {message}", file=sys.stderr)


def cmd_simulate(args) -> int:
    path = args.scenario
    try:
        parsed = parse_scenario_file(path)
        records = simulate(parsed.scenario)
    except FileFormatError as exc:
        _error(str(exc))
        return EXIT_USAGE
    except ValueError as exc:
        # a buoy report the wire cannot carry: BuoyMessage rejects it
        _error(f"{path}: {exc}")
        return EXIT_USAGE
    except ModuleNotFoundError as exc:
        # simulate draws the timing noise of a noisy scenario
        return _needs_numpy(exc, f"{path}: timing noise (noise_sigma > 0)")
    scenario = parsed.scenario

    rows = [CSV_HEADER + "\n"]
    errors_analytic = []
    errors_numerical = []
    failures = []
    complete_frames = 0
    for record in records:
        if not record.complete:
            rows.append(_csv_row(record.frame_index, None, None, None)[0])
            continue
        complete_frames += 1
        obs = assemble_observations(record.events, scenario.sound_speed)
        try:
            diffs = pseudorange_diffs(obs)
        except PositioningError as exc:
            # timing noise can push a difference past its baseline
            diffs, fix = None, FrameFix(pair=None, branch=None, numerical=None,
                                        status=type(exc).__name__)
        else:
            fix = solve_frame(diffs, parsed.consistency_tolerance)
        row, error, error_n = _csv_row(
            record.frame_index, record.events[-1].true_position, fix, diffs)
        rows.append(row)
        if error is None:
            failures.append((record.frame_index, fix.status))
        else:
            errors_analytic.append(error)
            if error_n is not None:
                errors_numerical.append(error_n)

    csv_text = "".join(rows)
    target = None   # the path being written, named if the write fails
    try:
        if args.export_obs is not None and complete_frames:
            export_dir = target = Path(args.export_obs)
            export_dir.mkdir(parents=True, exist_ok=True)
            for record in records:
                if record.complete:
                    target = export_dir / f"frame_{record.frame_index:04d}.obs"
                    write_observation_file(target, record, scenario.sound_speed)
        if args.output is not None:
            target = Path(args.output)
            target.write_text(csv_text, encoding="utf-8")
    except OSError as exc:
        _error(f"{target}: {exc.strerror or exc}")
        return EXIT_USAGE

    # the summary after the CSV (on stdout without -o), in one write
    report = [csv_text] if args.output is None else []
    report.append("frames: %d (%d complete)\n" % (len(records), complete_frames))
    if errors_analytic:
        report.append("analytic error: max %.9g m, mean %.9g m\n"
                      % (max(errors_analytic), sum(errors_analytic) / len(errors_analytic)))
    if errors_numerical:
        report.append("numerical error: max %.9g m, mean %.9g m\n"
                      % (max(errors_numerical), sum(errors_numerical) / len(errors_numerical)))
    speed = scenario.receiver.speed()
    if speed > 0.0:
        span = scenario.schedule.start_times[3] - scenario.schedule.start_times[0]
        bound = speed * span
        report.append("motion bound v*S = %.9g m (v = %.9g m/s, S = %.9g s)\n"
                      % (bound, speed, span))
        scored = errors_numerical or errors_analytic
        if scored:
            verdict = "within" if max(scored) <= bound else "exceeds"
            report.append("max solved error %.9g m %s the motion bound\n"
                          % (max(scored), verdict))
        else:
            report.append("no frame was solved: the motion bound was not checked\n")
    sys.stdout.write("".join(report))

    if complete_frames == 0:
        _error("NoFix in every frame")
        return EXIT_SOLVER
    if failures:
        index, name = failures[0]
        _error(f"frame {index} produced no fix ({name})")
        return EXIT_SOLVER
    return EXIT_OK


def write_observation_file(path: Path, record, sound_speed: float) -> None:
    lines = [
        "# uwps observation file: receiver-clock time [s] and raw sentence",
        f"sound_speed = {sound_speed!r}",
        f"frame = {record.frame_index}",
    ]
    for event in record.events:
        sentence = encode_message(event.message).decode("ascii").rstrip("\r\n")
        lines.append(f"observation = {event.receive_time!r} {sentence}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_solve(args) -> int:
    path = args.observations
    try:
        obs_file = parse_observation_file(path)
        events = _decode_observation_events(obs_file, path)
    except FileFormatError as exc:
        _error(str(exc))
        return EXIT_USAGE

    # the report's lines, written at once; the lines a solver error cuts
    # short are written before the error
    lines = []
    try:
        obs = assemble_observations(events, obs_file.sound_speed)
        diffs = pseudorange_diffs(obs)
        lines.append("reference buoy: wire id 1 at ENU origin, c = %.9g m/s\n"
                     % obs_file.sound_speed)
        for i, (d, b, (ex, ey, ez)) in enumerate(zip(diffs.d, diffs.b, diffs.e), start=1):
            lines.append("d_0%d = %.9g m   b_0%d = %.9g m   e_0%d = (%.9g, %.9g, %.9g)\n"
                         % (i, d, i, b, i, ex, ey, ez))
        pair = kleusberg_solve(diffs)
        vectors = []   # each candidate's residuals, in branch order
        for label, (_, s, (x, y, z), idx) in zip("12", pair.branches):
            vectors.append(residuals((x, y, z), diffs))
            lines.append("candidate %s: (%.9g, %.9g, %.9g) m, range %.9g m, residual %.9g m, "
                         "range-eq baseline %s\n" % (label, x, y, z, s, _norm(vectors[-1]), idx))
        lines.append("discriminant = %.9g\n" % pair.discriminant)
        pick = select_underwater(pair, diffs)
    except PositioningError as exc:
        sys.stdout.write("".join(lines))
        _error(f"{type(exc).__name__}: {exc}")
        return EXIT_SOLVER
    res = vectors[pair.branches.index(pick)]
    lines.append("underwater solution: (%.9g, %.9g, %.9g) m\nresiduals: (%.9g, %.9g, %.9g) m\n"
                 % (*pick.position, *res))
    sys.stdout.write("".join(lines))
    return EXIT_OK


def cmd_schedule(args) -> int:
    try:
        schedule = compute_schedule(args.message_bytes, args.bit_rate, args.guard)
    except PositioningError as exc:
        _error(f"{type(exc).__name__}: {exc}")
        return EXIT_SOLVER
    except ValueError as exc:
        _error(str(exc))
        return EXIT_USAGE
    print(f"message duration t_m = {schedule.message_duration:.9g} s")
    print(f"guard time g = {schedule.guard_time:.9g} s")
    print(f"frame period T_f = {schedule.frame_period:.9g} s")
    for i, start in enumerate(schedule.start_times, start=1):
        end = start + schedule.message_duration
        print(f"buoy {i}: transmits {start:.9g} .. {end:.9g} s")
    verdict = "within" if schedule.frame_period < FRAME_BUDGET else "exceeds"
    print(f"duty cycle {schedule.frame_period:.9g} s {verdict} the {FRAME_BUDGET:g} s budget")
    return EXIT_OK


def _needs_numpy(exc: ModuleNotFoundError, what: str) -> int:
    """Report that what needs numpy, the one optional dependency, and
    return the usage exit code; any other missing module is re-raised."""
    if exc.name != "numpy":
        raise exc
    _error(f"{what} needs numpy")
    return EXIT_USAGE


def cmd_verify(args) -> int:
    if args.seed is not None and args.seed < 0:
        _error(f"--seed {args.seed} must be an integer >= 0")
        return EXIT_USAGE
    try:
        from . import verify   # loaded here: no other command needs the property suite
    except ModuleNotFoundError as exc:
        return _needs_numpy(exc, "uwps verify")

    results = verify.run_all(verify.DEFAULT_SEED if args.seed is None else args.seed)
    for result in results:
        print(f"{'PASS' if result.ok else 'FAIL'} {result.name}: {result.detail}")
    failed = sum(not result.ok for result in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwps",
        description="Underwater positioning from GNSS repeater buoys.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file end to end")
    p_sim.add_argument("scenario", help="scenario file path or bundled name")
    p_sim.add_argument("-o", "--output", default=None, help="CSV output path")
    p_sim.add_argument("--export-obs", default=None, metavar="DIR",
                       help="write per-frame observation files")

    p_solve = sub.add_parser("solve", help="solve one observation file")
    p_solve.add_argument("observations", help="observation file path or bundled name")

    p_sched = sub.add_parser("schedule", help="print a TDMA schedule")
    p_sched.add_argument("message_bytes", type=_integer)
    p_sched.add_argument("bit_rate", type=_number)
    p_sched.add_argument("guard", type=_number)

    p_ver = sub.add_parser("verify", help="run the property suite")
    p_ver.add_argument("--seed", type=_integer, default=None)
    parser.commands = sub.choices   # command name -> that command's own parser
    return parser


# built by the first main call and reused: parse_args keeps no state between calls
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # a command's own parser reads the rest of argv, as the top-level one
    # would hand it on; no arguments, -h or no command: the top-level parser
    sub = _parser.commands.get(argv[0]) if argv else None
    try:
        args, extra = (_parser.parse_known_args(argv) if sub is None else
                       sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])))
        if extra:
            _parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # looked up at call time, so a patched command is the one that runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
