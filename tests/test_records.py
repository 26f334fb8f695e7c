"""Record contracts: every record is an immutable NamedTuple, and a record
that checks itself runs the same checks when built and when changed with
_replace."""
from __future__ import annotations

import copy
import math
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import make_scenario, unit_square

import uwps
from uwps.channel import Scenario
from uwps.geo import GeodeticCoord
from uwps.multilateration import DiffSet, Observation, ObservationSet, SolverConfig
from uwps.protocol import BuoyMessage, FrameSchedule
from uwps.verify import MALAGA, oracle_diffs


def _observations():
    return tuple(Observation(i, float(i), 2.0 * i, (100.0 * i, 50.0, -1.0)) for i in range(4))


# one valid record of each class that checks itself
CHECKED = {
    "GeodeticCoord": lambda: MALAGA,
    "BuoyMessage": lambda: BuoyMessage(1, 12.5, MALAGA),
    "FrameSchedule": lambda: FrameSchedule(1.0, 1.0),
    "Observation": lambda: Observation(0, 1.0, 2.0, (1.0, 2.0, -3.0)),
    "ObservationSet": lambda: ObservationSet(_observations(), 1500.0),
    "DiffSet": lambda: oracle_diffs(unit_square(1000.0), (300.0, 400.0, -150.0)),
    "SolverConfig": lambda: SolverConfig(),
    "Scenario": lambda: make_scenario(),
}

BAD_FIELDS = [
    ("GeodeticCoord", "latitude", 90.5),
    ("GeodeticCoord", "longitude", -180.0),
    ("GeodeticCoord", "height", math.nan),
    ("BuoyMessage", "buoy_id", 5),
    ("BuoyMessage", "buoy_id", True),
    ("BuoyMessage", "gnss_time", 86399.9996),
    ("BuoyMessage", "position", GeodeticCoord(0.0, 0.0, 1e6)),
    ("FrameSchedule", "message_duration", 0.0),
    ("FrameSchedule", "guard_time", -1.0),
    ("Observation", "buoy_id", 4),
    ("Observation", "transmit_time", math.inf),
    ("Observation", "receive_time", math.nan),
    ("Observation", "position", (1.0, 2.0)),
    ("Observation", "position", (1.0, math.nan, 2.0)),
    ("Observation", "position", GeodeticCoord(1.0, 2.0, 3.0)),
    ("ObservationSet", "observations", _observations()[:3]),
    ("ObservationSet", "observations", (_observations()[0],) * 4),
    ("ObservationSet", "sound_speed", 0.0),
    ("ObservationSet", "sound_speed", math.nan),
    ("DiffSet", "d", (1.0, 2.0)),
    ("DiffSet", "d", (1.0, math.inf, 2.0)),
    ("DiffSet", "e", ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0))),
    ("DiffSet", "b", (1000.0, 0.0, 1000.0)),
    ("DiffSet", "reference", GeodeticCoord(1.0, 2.0, 3.0)),
    ("DiffSet", "reference", (0.0, 0.0, math.inf)),
    ("SolverConfig", "max_iterations", 0),
    ("SolverConfig", "max_iterations", True),
    ("SolverConfig", "max_iterations", 2.0),
    ("SolverConfig", "consistency_tolerance", 0.0),
    ("SolverConfig", "consistency_tolerance", math.nan),
    ("Scenario", "buoys", make_scenario().buoys[:3]),
    ("Scenario", "sound_speed", -1500.0),
    ("Scenario", "clock_offset", math.nan),
    ("Scenario", "frames", 0),
    ("Scenario", "range_limit", 0.0),
    ("Scenario", "noise_sigma", -1e-5),
    ("Scenario", "seed", -1),
]


def _arguments(record) -> dict:
    """The constructor's keyword arguments that rebuild record."""
    return dict(zip(record._fields, record.__getnewargs__()))


@pytest.mark.parametrize("name, field, bad", BAD_FIELDS,
                         ids=[f"{n}.{f}-{i}" for i, (n, f, _) in enumerate(BAD_FIELDS)])
def test_replace_raises_what_the_constructor_raises(name, field, bad):
    good = CHECKED[name]()
    with pytest.raises(ValueError) as built:
        type(good)(**{**_arguments(good), field: bad})
    with pytest.raises(ValueError) as replaced:
        good._replace(**{field: bad})
    assert str(replaced.value) == str(built.value)


def test_observation_refuses_a_geodetic_position():
    """A GeodeticCoord is a tuple of three floats, yet no ENU position."""
    with pytest.raises(ValueError, match="three numbers .east, north, up."):
        Observation(0, 0.0, 0.0, GeodeticCoord(1, 2, 3))


@pytest.mark.parametrize("time, position", [
    (12.0004, GeodeticCoord(36.72010004, -4.42030006, 0.004)),
    (0.00049, GeodeticCoord(0.0, -179.99999996, -0.001)),
    (86399.9994, GeodeticCoord(-90.0, 180.0, 999999.994)),
])
def test_buoy_message_replace_quantizes_as_the_constructor(time, position):
    message = BuoyMessage(2, 1.0, MALAGA)
    built = BuoyMessage(2, time, position)
    replaced = message._replace(gnss_time=time, position=position)
    assert replaced == built
    assert ([struct.pack("d", v) for v in (replaced.gnss_time, *replaced.position)]
            == [struct.pack("d", v) for v in (built.gnss_time, *built.position)])
    assert type(replaced.position) is GeodeticCoord


def test_diffset_replace_derives_the_anchors_again():
    diffs = CHECKED["DiffSet"]()
    moved = diffs._replace(reference=(1.0, 2.0, 3.0))
    assert moved.anchors == DiffSet(diffs.d, diffs.e, diffs.b, (1.0, 2.0, 3.0)).anchors
    assert moved.anchors[:3] == (1.0, 2.0, 3.0)
    with pytest.raises(TypeError):
        diffs._replace(anchors=moved.anchors)   # derived, not a constructor argument


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_checked_records_are_immutable(name):
    record = CHECKED[name]()
    for field, value in zip(record._fields, record):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_checked_records_copy_and_pickle(name):
    record = CHECKED[name]()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every uwps process pays its imports: the records are NamedTuples, so
    the CLI imports neither dataclasses nor what dataclasses imports."""
    src = str(Path(uwps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, uwps.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
