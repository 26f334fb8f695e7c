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
from uwps.channel import ReceiverTrack, Scenario
from uwps.geo import GeodeticCoord
from uwps.multilateration import DiffSet, Observation, ObservationSet
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
    "Scenario": lambda: make_scenario(),
}

# each row's id is written out, so deleting a row renames no other test
BAD_FIELDS = [
    pytest.param("GeodeticCoord", "latitude", 90.5, id="GeodeticCoord.latitude-0"),
    pytest.param("GeodeticCoord", "longitude", -180.0, id="GeodeticCoord.longitude-1"),
    pytest.param("GeodeticCoord", "height", math.nan, id="GeodeticCoord.height-2"),
    pytest.param("BuoyMessage", "buoy_id", 5, id="BuoyMessage.buoy_id-3"),
    pytest.param("BuoyMessage", "buoy_id", True, id="BuoyMessage.buoy_id-4"),
    pytest.param("BuoyMessage", "gnss_time", 86399.9996, id="BuoyMessage.gnss_time-5"),
    pytest.param("BuoyMessage", "position", GeodeticCoord(0.0, 0.0, 1e6),
                 id="BuoyMessage.position-6"),
    pytest.param("FrameSchedule", "message_duration", 0.0, id="FrameSchedule.message_duration-7"),
    pytest.param("FrameSchedule", "guard_time", -1.0, id="FrameSchedule.guard_time-8"),
    pytest.param("FrameSchedule", "message_duration", math.nan,
                 id="FrameSchedule.message_duration-nan"),
    pytest.param("FrameSchedule", "message_duration", math.inf,
                 id="FrameSchedule.message_duration-inf"),
    pytest.param("FrameSchedule", "guard_time", math.nan, id="FrameSchedule.guard_time-nan"),
    pytest.param("FrameSchedule", "guard_time", math.inf, id="FrameSchedule.guard_time-inf"),
    pytest.param("FrameSchedule", "guard_time", 1e308, id="FrameSchedule.guard_time-1e308"),
    pytest.param("Observation", "buoy_id", 4, id="Observation.buoy_id-9"),
    pytest.param("Observation", "transmit_time", math.inf, id="Observation.transmit_time-10"),
    pytest.param("Observation", "receive_time", math.nan, id="Observation.receive_time-11"),
    pytest.param("Observation", "position", (1.0, 2.0), id="Observation.position-12"),
    pytest.param("Observation", "position", (1.0, math.nan, 2.0), id="Observation.position-13"),
    pytest.param("Observation", "position", GeodeticCoord(1.0, 2.0, 3.0),
                 id="Observation.position-14"),
    pytest.param("ObservationSet", "observations", _observations()[:3],
                 id="ObservationSet.observations-15"),
    pytest.param("ObservationSet", "observations", (_observations()[0],) * 4,
                 id="ObservationSet.observations-16"),
    pytest.param("ObservationSet", "sound_speed", 0.0, id="ObservationSet.sound_speed-17"),
    pytest.param("ObservationSet", "sound_speed", math.nan, id="ObservationSet.sound_speed-18"),
    pytest.param("DiffSet", "d", (1.0, 2.0), id="DiffSet.d-19"),
    pytest.param("DiffSet", "d", (1.0, math.inf, 2.0), id="DiffSet.d-20"),
    pytest.param("DiffSet", "e", ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0)),
                 id="DiffSet.e-21"),
    pytest.param("DiffSet", "b", (1000.0, 0.0, 1000.0), id="DiffSet.b-22"),
    pytest.param("DiffSet", "reference", GeodeticCoord(1.0, 2.0, 3.0), id="DiffSet.reference-23"),
    pytest.param("DiffSet", "reference", (0.0, 0.0, math.inf), id="DiffSet.reference-24"),
    pytest.param("Scenario", "receiver", ReceiverTrack((300.0, 400.0, 0.0)),
                 id="Scenario.receiver-25"),
    pytest.param("Scenario", "receiver", ReceiverTrack((300.0, 400.0, -150.0), (10.5, 0.0, 0.0)),
                 id="Scenario.receiver-26"),
    pytest.param("Scenario", "sound_speed", 2e9, id="Scenario.sound_speed-27"),
    pytest.param("Scenario", "noise_sigma", 2e9, id="Scenario.noise_sigma-28"),
    pytest.param("Scenario", "seed", 2.0, id="Scenario.seed-29"),
    pytest.param("Scenario", "buoys", make_scenario().buoys[:3], id="Scenario.buoys-30"),
    pytest.param("Scenario", "sound_speed", -1500.0, id="Scenario.sound_speed-31"),
    pytest.param("Scenario", "clock_offset", math.nan, id="Scenario.clock_offset-32"),
    pytest.param("Scenario", "frames", 0, id="Scenario.frames-33"),
    pytest.param("Scenario", "range_limit", 0.0, id="Scenario.range_limit-34"),
    pytest.param("Scenario", "noise_sigma", -1e-5, id="Scenario.noise_sigma-35"),
    pytest.param("Scenario", "seed", -1, id="Scenario.seed-36"),
]


def _arguments(record) -> dict:
    """The constructor's keyword arguments that rebuild record."""
    return dict(zip(record._fields, record.__getnewargs__()))


@pytest.mark.parametrize("name, field, bad", BAD_FIELDS)
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
