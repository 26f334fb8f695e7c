"""Command-line front end: simulate scenarios, solve observation files,
print schedules, and run the verification property suite.

Exit codes: 0 success, 1 usage or file-parse failure, 2 solver error,
3 property failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import verify as verify_mod
from .channel import (
    BuoyTrack,
    ReceiverTrack,
    ReceptionEvent,
    Scenario,
    add_timing_noise,
    assemble_observations,
    simulate,
    working_frame,
)
from .errors import PositioningError
from .geo import ENU, CartesianVector, GeodeticCoord
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

_SCENARIO_KEYS = {
    "buoy": {"position", "drift"},
    "receiver": {"position", "velocity", "speed_cap"},
    "channel": {"sound_speed", "clock_offset", "range_limit", "noise_sigma", "seed"},
    "schedule": {"message_bytes", "bit_rate", "guard"},
    "run": {"frames"},
    "solver": {"residual_tolerance", "max_iterations", "consistency_tolerance",
               "surface_plane_up", "initial_guess"},
}


@dataclass
class ScenarioFile:
    """Parsed scenario file: the Scenario plus run/solver options."""

    scenario: Scenario
    solver: SolverConfig
    noise_sigma: float = 0.0
    seed: int = 0
    initial_guess: tuple[float, float, float] | None = None


def _parse_sections(text: str, path: str):
    """Line-oriented `[section]` / `key = value` grammar with # comments."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise FileFormatError(f"{path}:{lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise FileFormatError(f"{path}:{lineno}: key outside any section")
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise FileFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = (value, lineno)
    return sections


def _floats(value: str, count: int, path: str, lineno: int,
            allow_inf: bool = False) -> list[float]:
    """count finite numbers; infinity only where allow_inf, NaN never."""
    parts = value.split()
    if len(parts) != count:
        raise FileFormatError(f"{path}:{lineno}: expected {count} numbers, got {len(parts)}")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: non-numeric value {value!r}") from None
    if not all(math.isfinite(v) or (allow_inf and math.isinf(v)) for v in numbers):
        raise FileFormatError(f"{path}:{lineno}: non-finite value {value!r}")
    return numbers


def _integer(value: str, path: str, lineno: int) -> int:
    number = _floats(value, 1, path, lineno)[0]
    if number != int(number):
        raise FileFormatError(f"{path}:{lineno}: expected an integer, got {value!r}")
    return int(number)


def parse_scenario_file(path: Path) -> ScenarioFile:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    sections = _parse_sections(text, str(path))

    def section(name, required=True):
        block = sections.pop(name, None)
        if block is None:
            if required:
                raise FileFormatError(f"{path}: missing section [{name}]")
            return {}
        base = name.split()[0]
        allowed = _SCENARIO_KEYS[base]
        for key, (_, lineno) in block.items():
            if key not in allowed:
                raise FileFormatError(f"{path}:{lineno}: unknown key {key!r} in [{name}]")
        return block

    buoys = []
    for i in (1, 2, 3, 4):
        block = section(f"buoy {i}")
        if "position" not in block:
            raise FileFormatError(f"{path}: [buoy {i}] needs a position")
        lat, lon, height = _floats(block["position"][0], 3, str(path),
                                   block["position"][1])
        drift = (0.0, 0.0, 0.0)
        if "drift" in block:
            drift = tuple(_floats(block["drift"][0], 3, str(path), block["drift"][1]))
        try:
            buoys.append(BuoyTrack(initial=GeodeticCoord(lat, lon, height), drift=drift))
        except ValueError as exc:
            raise FileFormatError(f"{path}: [buoy {i}]: {exc}") from None

    rx = section("receiver")
    if "position" not in rx:
        raise FileFormatError(f"{path}: [receiver] needs a position")
    position = tuple(_floats(rx["position"][0], 3, str(path), rx["position"][1]))
    velocity = (0.0, 0.0, 0.0)
    if "velocity" in rx:
        velocity = tuple(_floats(rx["velocity"][0], 3, str(path), rx["velocity"][1]))
    receiver_args = {"initial": position, "velocity": velocity}
    speed_cap = None
    if "speed_cap" in rx:
        speed_cap = _floats(rx["speed_cap"][0], 1, str(path), rx["speed_cap"][1])[0]

    chan = section("channel")
    if "sound_speed" not in chan:
        raise FileFormatError(f"{path}: [channel] needs sound_speed")

    def scalar(block, key, default, allow_inf=False):
        if key not in block:
            return default
        return _floats(block[key][0], 1, str(path), block[key][1], allow_inf)[0]

    def integer(block, key, default):
        if key not in block:
            return default
        return _integer(block[key][0], str(path), block[key][1])

    sound_speed = scalar(chan, "sound_speed", None)
    clock_offset = scalar(chan, "clock_offset", 0.0)
    range_limit = scalar(chan, "range_limit", math.inf, allow_inf=True)
    noise_sigma = scalar(chan, "noise_sigma", 0.0)
    seed = integer(chan, "seed", 0)
    if seed < 0:
        raise FileFormatError(f"{path}:{chan['seed'][1]}: seed must be >= 0")

    sched = section("schedule", required=False)
    message_bytes = integer(sched, "message_bytes", 80)
    bit_rate = scalar(sched, "bit_rate", 640.0)
    guard = scalar(sched, "guard", 1.0)

    run = section("run")
    if "frames" not in run:
        raise FileFormatError(f"{path}: [run] needs frames")
    frames = integer(run, "frames", 0)

    solver_block = section("solver", required=False)
    solver_kwargs = {}
    for key in ("residual_tolerance", "consistency_tolerance", "surface_plane_up"):
        if key in solver_block:
            solver_kwargs[key] = scalar(solver_block, key, None)
    if "max_iterations" in solver_block:
        solver_kwargs["max_iterations"] = integer(solver_block, "max_iterations", 0)
    initial_guess = None
    if "initial_guess" in solver_block:
        initial_guess = tuple(_floats(solver_block["initial_guess"][0], 3, str(path),
                                      solver_block["initial_guess"][1]))

    if sections:
        raise FileFormatError(f"{path}: unknown section [{next(iter(sections))}]")

    try:
        scenario_kwargs = dict(
            buoys=tuple(buoys),
            receiver=ReceiverTrack(**receiver_args),
            sound_speed=sound_speed,
            clock_offset=clock_offset,
            schedule=compute_schedule(message_bytes, bit_rate, guard),
            frames=frames,
            range_limit=range_limit,
        )
        if speed_cap is not None:
            scenario_kwargs["speed_cap"] = speed_cap
        scenario = Scenario(**scenario_kwargs)
        solver = SolverConfig(**solver_kwargs)
    except (ValueError, PositioningError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return ScenarioFile(scenario=scenario, solver=solver, noise_sigma=noise_sigma,
                        seed=seed, initial_guess=initial_guess)


# -- observation files ---------------------------------------------------

@dataclass
class ObservationFile:
    sound_speed: float
    frame_index: int
    receive_times: list[float]
    sentences: list[bytes]
    line_numbers: list[int]    # file line of each observation


def parse_observation_file(path: Path) -> ObservationFile:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    sound_speed = None
    frame_index = 0
    receive_times: list[float] = []
    sentences: list[bytes] = []
    line_numbers: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "sound_speed":
            sound_speed = _floats(value, 1, str(path), lineno)[0]
            if sound_speed <= 0.0:
                raise FileFormatError(f"{path}:{lineno}: sound_speed must be > 0")
        elif key == "frame":
            frame_index = _integer(value, str(path), lineno)
        elif key == "observation":
            parts = value.split(None, 1)
            if len(parts) != 2:
                raise FileFormatError(
                    f"{path}:{lineno}: observation needs '<receive_time> <sentence>'")
            receive_times.append(_floats(parts[0], 1, str(path), lineno)[0])
            sentences.append((parts[1].strip() + "\r\n").encode("ascii"))
            line_numbers.append(lineno)
        else:
            raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
    if sound_speed is None:
        raise FileFormatError(f"{path}: missing sound_speed")
    if len(sentences) != 4:
        raise FileFormatError(f"{path}: expected 4 observation lines, got {len(sentences)}")
    return ObservationFile(sound_speed=sound_speed, frame_index=frame_index,
                           receive_times=receive_times, sentences=sentences,
                           line_numbers=line_numbers)


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
        events.append(ReceptionEvent(
            buoy_id=message.buoy_id,
            frame_index=obs_file.frame_index,
            message=message,
            receive_time=receive_time,
            true_position=CartesianVector(0.0, 0.0, -1.0, ENU),  # unknown here
        ))
    return events


# -- bundled data --------------------------------------------------------

def resolve_input(name: str) -> Path:
    """An existing path as-is, else a bundled data file of that name."""
    path = Path(name)
    if path.exists():
        return path
    candidates = [name, f"{name}.scn", f"{name}.obs"]
    for candidate in candidates:
        bundle = resources.files("uwps.data").joinpath(candidate)
        if bundle.is_file():
            with resources.as_file(bundle) as concrete:
                return Path(concrete)
    return path


# -- commands ------------------------------------------------------------

def cmd_simulate(args) -> int:
    try:
        parsed = parse_scenario_file(resolve_input(args.scenario))
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scenario = parsed.scenario
    frame = working_frame(scenario)
    records = simulate(scenario)
    if parsed.noise_sigma > 0.0:
        records = add_timing_noise(records, parsed.noise_sigma, parsed.seed)
    guess = (CartesianVector(*parsed.initial_guess, ENU)
             if parsed.initial_guess is not None else None)

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
        true_position = record.events[-1].true_position
        truth = (true_position.x, true_position.y, true_position.z)
        obs = assemble_observations(record.events, scenario.sound_speed, frame=frame,
                                    speed_window=(0.0, math.inf))
        reference = obs.by_id(0).position
        try:
            diffs = pseudorange_diffs(obs)
        except PositioningError as exc:
            # timing noise can push a difference past its baseline
            fix = FrameFix(pair=None, analytic=None, numerical=None,
                           status=type(exc).__name__)
        else:
            fix = solve_frame(diffs, reference, parsed.solver, guess)
        solved = (fix.analytic, fix.numerical)
        errs = [_norm((p.x - truth[0], p.y - truth[1], p.z - truth[2]))
                if p is not None else None for p in solved]
        res = [None, None]
        if fix.analytic is not None:
            res[0] = _norm(fix.analytic_residuals)
        if fix.numerical is fix.analytic:
            res[1] = res[0]
        elif fix.numerical is not None:
            res[1] = _norm(residuals(fix.numerical, diffs, reference))
        for err, errors in zip(errs, (errors_analytic, errors_numerical)):
            if err is not None:
                errors.append(err)
        if errs == [None, None]:
            failures.append((record.frame_index, fix.status))
        cells = [str(record.frame_index)]
        cells += [_fmt(v) for v in truth]
        for p in solved:
            cells += [_fmt(v) for v in (p.as_array() if p is not None else (None,) * 3)]
        cells += [_fmt(v) for v in errs + res]
        cells.append(_fmt(fix.pair.discriminant) if fix.pair is not None else "")
        chosen = ""
        if fix.analytic is not None:
            for _, _, pos, idx in fix.pair.branches():
                if pos == fix.analytic:
                    chosen = str(idx)
        cells.append(chosen)
        cells.append(fix.status)
        rows.append(",".join(cells))

        if args.export_obs is not None:
            export_dir = Path(args.export_obs)
            export_dir.mkdir(parents=True, exist_ok=True)
            write_observation_file(
                export_dir / f"frame_{record.frame_index:04d}.obs",
                record, scenario.sound_speed)

    csv_text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    if args.output is not None:
        Path(args.output).write_text(csv_text, encoding="utf-8")
    else:
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
        observed = max(errors_numerical or errors_analytic or [math.nan])
        verdict = "within" if observed <= bound else "exceeds"
        print(f"max solved error {observed:.9g} m {verdict} the motion bound")

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
        f"sound_speed = {sound_speed:.9g}",
        f"frame = {record.frame_index}",
    ]
    for event in record.events:
        sentence = encode_message(event.message).decode("ascii").rstrip("\r\n")
        lines.append(f"observation = {event.receive_time!r} {sentence}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_solve(args) -> int:
    path = resolve_input(args.observations)
    try:
        obs_file = parse_observation_file(path)
        events = _decode_observation_events(obs_file, path)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    cfg = SolverConfig(consistency_tolerance=args.consistency_tolerance)
    try:
        obs = assemble_observations(events, obs_file.sound_speed,
                                    speed_window=(0.0, math.inf))
        diffs = pseudorange_diffs(obs)
        reference = obs.by_id(0).position
    except PositioningError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(f"reference buoy: wire id 1 at ENU origin, c = {obs_file.sound_speed:.9g} m/s")
    for i in range(3):
        print(f"d_0{diffs.ids[i]} = {diffs.d[i]:.9g} m   "
              f"b_0{diffs.ids[i]} = {diffs.b[i]:.9g} m   "
              f"e_0{diffs.ids[i]} = ({diffs.e[i][0]:.9g}, {diffs.e[i][1]:.9g}, "
              f"{diffs.e[i][2]:.9g})")
    try:
        pair = kleusberg_solve(diffs, reference, cfg)
    except PositioningError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for label, (evec, s, pos, idx) in zip(("1", "2"), pair.branches()):
        res = _norm(residuals(pos, diffs, reference))
        print(f"candidate {label}: ({pos.x:.9g}, {pos.y:.9g}, {pos.z:.9g}) m, "
              f"range {s:.9g} m, residual {res:.9g} m, range-eq baseline {idx}")
    print(f"discriminant = {pair.discriminant:.9g}")
    try:
        pick = select_underwater(pair, diffs, reference, cfg)
    except PositioningError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    res = residuals(pick, diffs, reference)
    print(f"underwater solution: ({pick.x:.9g}, {pick.y:.9g}, {pick.z:.9g}) m")
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


def cmd_verify(args) -> int:
    results = verify_mod.run_all(args.seed)
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
    p_solve.add_argument("--consistency-tolerance", type=float, default=1e-6)

    p_sched = sub.add_parser("schedule", help="print a TDMA schedule")
    p_sched.add_argument("message_bytes", type=int)
    p_sched.add_argument("bit_rate", type=float)
    p_sched.add_argument("guard", type=float)
    p_sched.add_argument("--cap", type=float, default=1.0,
                         help="max message duration in seconds")

    p_ver = sub.add_parser("verify", help="run the property suite")
    p_ver.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    return parser


# built by the first main call and reused: parse_args keeps no state between calls
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # looked up at call time, so a patched command is the one that runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
