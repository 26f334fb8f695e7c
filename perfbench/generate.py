"""Write one workload's inputs for a seed, then exit.

    python3 perfbench/generate.py --workload survey --seed 1 --out DIR

The benchmark runs this in a process of its own, with `src` on PYTHONPATH
(common.child_env), so that neither the program's set-up time nor its
peak memory counts the generator. It writes scenario files (survey,
track) or exported observation files (receiver) into DIR, plus
`manifest.json`, which lists each input with its argv for `uwps` and the
truth the output is checked against. The same seed writes the same files.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import common

SURVEY_SCENARIOS = 200       # x SURVEY_FRAMES = 2000 frames per pass
SURVEY_FRAMES = 10
TRACK_SCENARIOS = 900        # x TRACK_FRAMES = 3600 frames per pass
TRACK_FRAMES = 4
TRACK_SPEEDS = (1.0, 2.5, 5.0)   # the criterion-4 speeds [m/s]
TRACK_NOISE_SIGMA = 1e-5         # receiver timestamp noise [s]
TRACK_CONSISTENCY_TOLERANCE = 1.0  # [m]; widened as docs/file-formats.md says
RECEIVER_FILES = 250

BUOY_DRIFT = 0.3             # max |east|, |north| buoy drift [m/s]


def _fmt3(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def scenario_text(buoys, drifts, position, velocity, clock_offset, frames,
                  noise_sigma=0.0, noise_seed=0, consistency_tolerance=1e-6) -> str:
    lines = []
    for i, (geodetic, drift) in enumerate(zip(buoys, drifts), start=1):
        lines += [f"[buoy {i}]",
                  f"position = {geodetic.latitude!r} {geodetic.longitude!r} {geodetic.height!r}",
                  f"drift = {_fmt3(drift)}", ""]
    lines += ["[receiver]", f"position = {_fmt3(position)}",
              f"velocity = {_fmt3(velocity)}", "",
              "[channel]", "sound_speed = 1500.0",
              f"clock_offset = {clock_offset!r}",
              f"noise_sigma = {noise_sigma!r}", f"seed = {noise_seed}", "",
              "[run]", f"frames = {frames}", "",
              "[solver]", f"consistency_tolerance = {consistency_tolerance!r}", ""]
    return "\n".join(lines)


def bundled_square():
    """The four buoy positions of the bundled 1 km square scenario."""
    from uwps import cli

    parsed = cli.parse_scenario_file(cli.resolve_input("squaretest"))
    return [b.initial for b in parsed.scenario.buoys]


def _drifts(rng):
    drifts = np.zeros((4, 3))
    drifts[:, :2] = rng.uniform(-BUOY_DRIFT, BUOY_DRIFT, (4, 2))
    return drifts


def _stationary(rng):
    """Receiver east/north inside the square, depth 50-500 m, integer offset."""
    position = [rng.uniform(50.0, 950.0), rng.uniform(50.0, 950.0),
                -rng.uniform(50.0, 500.0)]
    return position, float(rng.integers(-100, 101))


def gen_survey(rng, out: Path):
    square = bundled_square()
    inputs = []
    for k in range(SURVEY_SCENARIOS):
        position, offset = _stationary(rng)
        path = out / f"survey_{k:04d}.scn"
        path.write_text(scenario_text(square, _drifts(rng), position, (0.0, 0.0, 0.0),
                                      offset, SURVEY_FRAMES), encoding="utf-8")
        inputs.append({"argv": ["simulate", str(path)], "frames": SURVEY_FRAMES,
                       "truth": position})
    return inputs


def gen_track(rng, out: Path):
    square = bundled_square()
    inputs = []
    for k in range(TRACK_SCENARIOS):
        speed = TRACK_SPEEDS[k % len(TRACK_SPEEDS)]
        heading = rng.uniform(0.0, 2.0 * np.pi)
        velocity = [speed * np.cos(heading), speed * np.sin(heading), 0.0]
        position = [rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0),
                    -rng.uniform(100.0, 500.0)]
        path = out / f"track_{k:04d}.scn"
        path.write_text(scenario_text(
            square, _drifts(rng), position, velocity, float(rng.integers(-100, 101)),
            TRACK_FRAMES, noise_sigma=TRACK_NOISE_SIGMA,
            noise_seed=int(rng.integers(0, 2**31)),
            consistency_tolerance=TRACK_CONSISTENCY_TOLERANCE), encoding="utf-8")
        inputs.append({"argv": ["simulate", str(path)], "frames": TRACK_FRAMES,
                       "truth": position, "velocity": velocity})
    return inputs


def gen_receiver(rng, out: Path):
    """One-frame observation files exported by `uwps simulate --export-obs`.

    The buoys do not drift: `uwps solve` anchors its frame at the frame's
    own buoy-1 report, which is then the scenario's working frame, so the
    fix is comparable with the scenario's truth.
    """
    from uwps import cli

    square = bundled_square()
    scratch = out / "scenarios"
    scratch.mkdir()
    inputs = []
    for k in range(RECEIVER_FILES):
        position, offset = _stationary(rng)
        scn = scratch / f"receiver_{k:04d}.scn"
        scn.write_text(scenario_text(square, np.zeros((4, 3)), position,
                                     (0.0, 0.0, 0.0), offset, 1), encoding="utf-8")
        export = scratch / f"obs_{k:04d}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", str(scn), "--export-obs", str(export)])
        if code != 0:
            raise SystemExit(f"export of {scn} exited {code}")
        path = out / f"receiver_{k:04d}.obs"
        (export / "frame_0000.obs").rename(path)
        inputs.append({"argv": ["solve", str(path)], "frames": 1, "truth": position})
    return inputs


GENERATORS = {"survey": gen_survey, "track": gen_track, "receiver": gen_receiver}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, common.WORKLOADS.index(args.workload)])
    inputs = GENERATORS[args.workload](rng, args.out)
    manifest = {"workload": args.workload, "seed": args.seed, "inputs": inputs}
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
