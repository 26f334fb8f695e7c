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
from importlib import resources
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
    FrameFix,
    SolverConfig,
    _norm,
    kleusberg_solve,
    pseudorange_diffs,
    residuals,
    select_underwater,
    solve_frame,
)
from .protocol import compute_schedule, decode_message, encode_message

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


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.9g}"


# -- scenario files ------------------------------------------------------

# The scenario grammar: section -> key -> (how many numbers, integer or
# not, default). A key without a default is required, and so is a section
# with a required key. Only range_limit may be inf, and an integer must
# be >= 0. The [channel] keys are Scenario's fields of the same names.
_DEFAULT_TOLERANCE = SolverConfig().consistency_tolerance
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
    "solver": {"consistency_tolerance": (1, False, _DEFAULT_TOLERANCE)},
}
_REQUIRED_SECTIONS = frozenset(
    name for name, keys in _SCENARIO_KEYS.items()
    if any(default is None for _, _, default in keys.values()))


class ScenarioFile(NamedTuple):
    """Parsed scenario file: the Scenario plus the solver options."""

    scenario: Scenario
    solver: SolverConfig


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


def _read_text(path: Path) -> str:
    """The file's UTF-8 text; an unreadable or undecodable file is a FileFormatError."""
    try:
        data = path.read_bytes()
        return data.decode("utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as the parsers count lines
        lineno = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise FileFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


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
        solver = SolverConfig(**values["solver"])
    except (ValueError, PositioningError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return ScenarioFile(scenario=scenario, solver=solver)


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
        if key in seen and key != "observation":
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
        elif key == "observation":
            parts = value.split(None, 1)
            if len(parts) != 2:
                raise FileFormatError(
                    f"{path}:{lineno}: observation needs '<receive_time> <sentence>'")
            receive_times.append(_numbers(parts[0], 1, False, path, lineno))
            sentence = parts[1].strip()
            if not sentence.isascii():
                raise FileFormatError(f"{path}:{lineno}: sentence is not ASCII")
            sentences.append((sentence + "\r\n").encode("ascii"))
            line_numbers.append(lineno)
        else:
            raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
    if sound_speed is None:
        raise FileFormatError(f"{path}: missing sound_speed")
    if len(sentences) != 4:
        raise FileFormatError(f"{path}: expected 4 observation lines, got {len(sentences)}")
    return ObservationFile(sound_speed, frame_index, receive_times, sentences, line_numbers)


def _decode_observation_events(obs_file: ObservationFile, path: Path):
    """Decode the four sentences into reception events; line-accurate errors."""
    events = []
    for sentence, receive_time, lineno in zip(
            obs_file.sentences, obs_file.receive_times, obs_file.line_numbers):
        try:
            message = decode_message(sentence)
        except PositioningError as exc:
            raise FileFormatError(
                f"{path}:{lineno}: {type(exc).__name__}: {exc}") from None
        events.append(ReceptionEvent(obs_file.frame_index, message, receive_time))
    return events


# -- bundled data --------------------------------------------------------

def resolve_input(name: str) -> Path:
    """An existing path as-is, else a bundled data file of that name."""
    if not os.path.exists(name):
        for candidate in (name, f"{name}.scn", f"{name}.obs"):
            bundle = resources.files("uwps.data").joinpath(candidate)
            if bundle.is_file():
                with resources.as_file(bundle) as concrete:
                    return Path(concrete)
    return Path(name)


# -- commands ------------------------------------------------------------

def cmd_simulate(args) -> int:
    path = resolve_input(args.scenario)
    try:
        parsed = parse_scenario_file(path)
        records = simulate(parsed.scenario)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # a buoy report the wire cannot carry: BuoyMessage rejects it
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModuleNotFoundError as exc:
        # simulate draws the timing noise of a noisy scenario
        return _needs_numpy(exc, f"{path}: timing noise (noise_sigma > 0)")
    scenario = parsed.scenario
    # the working frame simulate converted every event's source into
    frame = next((e.source_frame for r in records for e in r.events), None)

    rows = []
    errors_analytic = []
    errors_numerical = []
    failures = []
    complete_frames = 0
    for record in records:
        if not record.complete:
            rows.append(f"{record.frame_index}," + "," * 14 + ",NoFix")
            continue
        complete_frames += 1
        truth = record.events[-1].true_position
        obs = assemble_observations(record.events, scenario.sound_speed, frame=frame)
        try:
            diffs = pseudorange_diffs(obs)
        except PositioningError as exc:
            # timing noise can push a difference past its baseline
            fix = FrameFix(pair=None, branch=None, numerical=None,
                           status=type(exc).__name__)
        else:
            fix = solve_frame(diffs, parsed.solver)
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
        for err, errors in zip(errs, (errors_analytic, errors_numerical)):
            if err is not None:
                errors.append(err)
        if errs == [None, None]:
            failures.append((record.frame_index, fix.status))
        cells = [str(record.frame_index)]
        cells += [_fmt(v) for v in truth]
        for p in solved:
            cells += [_fmt(v) for v in (p if p is not None else (None,) * 3)]
        cells += [_fmt(v) for v in errs + res]
        cells.append(_fmt(fix.pair.discriminant) if fix.pair is not None else "")
        cells.append(str(fix.branch.denominator_index) if fix.branch is not None else "")
        cells.append(fix.status)
        rows.append(",".join(cells))

    csv_text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
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
        print(f"error: {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output is None:
        sys.stdout.write(csv_text)

    print(f"frames: {len(records)} ({complete_frames} complete)")
    if errors_analytic:
        print(f"analytic error: max {max(errors_analytic):.9g} m, "
              f"mean {sum(errors_analytic) / len(errors_analytic):.9g} m")
    if errors_numerical:
        print(f"numerical error: max {max(errors_numerical):.9g} m, "
              f"mean {sum(errors_numerical) / len(errors_numerical):.9g} m")
    speed = scenario.receiver.speed()
    if speed > 0.0:
        span = scenario.schedule.start_times[3] - scenario.schedule.start_times[0]
        bound = speed * span
        print(f"motion bound v*S = {bound:.9g} m (v = {speed:.9g} m/s, S = {span:.9g} s)")
        scored = errors_numerical or errors_analytic
        if scored:
            verdict = "within" if max(scored) <= bound else "exceeds"
            print(f"max solved error {max(scored):.9g} m {verdict} the motion bound")
        else:
            print("no frame was solved: the motion bound was not checked")

    if complete_frames == 0:
        print("error: NoFix in every frame", file=sys.stderr)
        return EXIT_SOLVER
    if failures:
        index, name = failures[0]
        print(f"error: frame {index} produced no fix ({name})", file=sys.stderr)
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
    try:
        cfg = SolverConfig(consistency_tolerance=args.consistency_tolerance)
    except ValueError as exc:
        print(f"error: --consistency-tolerance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = resolve_input(args.observations)
    try:
        obs_file = parse_observation_file(path)
        events = _decode_observation_events(obs_file, path)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        obs = assemble_observations(events, obs_file.sound_speed)
        diffs = pseudorange_diffs(obs)
        print(f"reference buoy: wire id 1 at ENU origin, c = {obs_file.sound_speed:.9g} m/s")
        for i, (d, b, (ex, ey, ez)) in enumerate(zip(diffs.d, diffs.b, diffs.e), start=1):
            print(f"d_0{i} = {d:.9g} m   b_0{i} = {b:.9g} m   "
                  f"e_0{i} = ({ex:.9g}, {ey:.9g}, {ez:.9g})")
        pair = kleusberg_solve(diffs, cfg)
        vectors = []   # each candidate's residuals, in branch order
        for label, (_, s, (x, y, z), idx) in zip("12", pair.branches):
            vectors.append(residuals((x, y, z), diffs))
            print(f"candidate {label}: ({x:.9g}, {y:.9g}, {z:.9g}) m, range {s:.9g} m, "
                  f"residual {_norm(vectors[-1]):.9g} m, range-eq baseline {idx}")
        print(f"discriminant = {pair.discriminant:.9g}")
        pick = select_underwater(pair, diffs)
    except PositioningError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    x, y, z = pick.position
    res = vectors[pair.branches.index(pick)]
    print(f"underwater solution: ({x:.9g}, {y:.9g}, {z:.9g}) m")
    print(f"residuals: ({res[0]:.9g}, {res[1]:.9g}, {res[2]:.9g}) m")
    return EXIT_OK


def cmd_schedule(args) -> int:
    try:
        schedule = compute_schedule(args.message_bytes, args.bit_rate, args.guard,
                                    max_message_duration=args.cap)
    except PositioningError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"message duration t_m = {schedule.message_duration:.9g} s")
    print(f"guard time g = {schedule.guard_time:.9g} s")
    print(f"frame period T_f = {schedule.frame_period:.9g} s")
    for i, start in enumerate(schedule.start_times, start=1):
        end = start + schedule.message_duration
        print(f"buoy {i}: transmits {start:.9g} .. {end:.9g} s")
    verdict = "within" if schedule.frame_period < 10.0 else "exceeds"
    print(f"duty cycle {schedule.frame_period:.9g} s {verdict} the 10 s budget")
    return EXIT_OK


def _needs_numpy(exc: ModuleNotFoundError, what: str) -> int:
    """Report that what needs numpy, the one optional dependency, and
    return the usage exit code; any other missing module is re-raised."""
    if exc.name != "numpy":
        raise exc
    print(f"error: {what} needs numpy", file=sys.stderr)
    return EXIT_USAGE


def cmd_verify(args) -> int:
    try:
        from . import verify   # loaded here: no other command needs the property suite
    except ModuleNotFoundError as exc:
        return _needs_numpy(exc, "uwps verify")

    results = verify.run_all(verify.DEFAULT_SEED if args.seed is None else args.seed)
    failed = 0
    for result in results:
        print(f"{'PASS' if result.ok else 'FAIL'} {result.name}: {result.detail}")
        if not result.ok:
            failed += 1
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
    p_solve.add_argument("--consistency-tolerance", type=_number, default=_DEFAULT_TOLERANCE)

    p_sched = sub.add_parser("schedule", help="print a TDMA schedule")
    p_sched.add_argument("message_bytes", type=_integer)
    p_sched.add_argument("bit_rate", type=_number)
    p_sched.add_argument("guard", type=_number)
    p_sched.add_argument("--cap", type=_number, default=1.0,
                         help="max message duration in seconds")

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
