"""Unit tests of the benchmark's own arithmetic, tracer and gates.

    python3 -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gates  # noqa: E402
import hostspeed  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 4.0, 5.0, 12.0]       # children overlap; the last leaves root
    parents = [-1, 0, 0, 0]
    assert stats.self_times(starts, ends, parents)[0] == pytest.approx(10 - 4 - 2)


def test_collapse_reparents_to_nearest_kept_ancestor():
    # main (kept) > cmd (internal) > solve (kept) > helper (internal) > geo (kept)
    parents = [-1, 0, 1, 2, 3]
    assert stats.collapse(parents, keep={0, 2, 4}) == [-1, -1, 0, -1, 2]
    starts, ends = [0.0, 1.0, 2.0, 3.0, 4.0], [10.0, 9.0, 8.0, 7.0, 5.0]
    self_time = stats.self_times(starts, ends, stats.collapse(parents, {0, 2, 4}))
    assert self_time[0] == 10 - 6      # main keeps the internal cmd span's own time
    assert self_time[2] == 6 - 1       # solve keeps the helper's, loses geo's


# -- percentiles and tails ---------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(reversed(values), 100) == 100
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, p, beyond, ok", [
    (200, 95, 10, True), (199, 95, 9, False), (20, 50, 10, True),
    (19, 50, 9, False), (1000, 99, 10, True), (5, 95, 0, False),
])
def test_a_percentile_needs_ten_samples_beyond_it(n, p, beyond, ok):
    assert stats.samples_beyond(n, p) == beyond
    assert stats.tail_reportable(n, p) is ok


def test_fail_share():
    assert stats.fail_share(1, 20) == 0.05
    assert stats.fail_share(182, 600) == pytest.approx(0.30333, abs=1e-5)
    assert stats.fail_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.fail_share(3, 2)


# -- host-speed normalization -------------------------------------------------

def _sampler(starts, costs):
    sampler = hostspeed.Sampler()
    sampler.starts.extend(starts)
    sampler.costs.extend(costs)
    return sampler


def test_a_long_window_averages_the_samples_inside_it():
    ref = hostspeed.REFERENCE_KERNEL_S
    # one sample every 0.1 s; half the interval [0, 2) is at twice the cost
    starts = [k / 10 for k in range(-5, 25)]
    costs = [ref * (2.0 if 1.0 <= t < 2.0 else 1.0) for t in starts]
    slow, sampling_s = _sampler(starts, costs).window(0.0, 2.0)
    assert slow == pytest.approx(1.5)
    assert sampling_s == pytest.approx(30 * ref)


def test_a_short_window_takes_the_median_of_its_nearest_samples():
    ref = hostspeed.REFERENCE_KERNEL_S
    sampler = _sampler([0.0, 1.0, 1.01, 1.02, 5.0], [ref, 3 * ref, 2 * ref, 2 * ref, 9 * ref])
    assert sampler.window(1.005, 1.015) == (pytest.approx(2.0), pytest.approx(2 * ref))
    # nothing within PAD_S: the three nearest samples, here the last three
    assert sampler.window(4.0, 4.001)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        _sampler([0.0], [ref]).window(0.0, 1.0)


def test_slowdown_is_the_median_cost_over_the_reference():
    ref = hostspeed.REFERENCE_KERNEL_S
    assert hostspeed.slowdown([ref, 2 * ref, 10 * ref]) == pytest.approx(2.0)


# -- the committed spec ------------------------------------------------------

def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in spec.BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- the tracer --------------------------------------------------------------

def test_tracer_patches_every_reference_and_restores_them(capsys):
    from uwps import channel, cli, multilateration, verify

    originals = (channel.geodetic_to_enu, cli.kleusberg_solve, verify._CHECKS[4][1],
                 verify.check_unit_norm.__defaults__, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert channel.geodetic_to_enu.__wrapped__ is originals[0]
        assert cli.kleusberg_solve.__wrapped__ is originals[1]
        assert verify._CHECKS[4][1].__wrapped__ is originals[2]
        assert verify.check_unit_norm.__wrapped__.__defaults__[0].__wrapped__ is (
            multilateration.kleusberg_solve.__wrapped__)
        assert cli.main(["solve", "squaretest_frame0"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (channel.geodetic_to_enu, cli.kleusberg_solve, verify._CHECKS[4][1],
            verify.check_unit_norm.__defaults__, cli.main) == originals

    names = [tracer.span_names[n] for n in tracer.name_ids]
    assert names[0] == "cli.main" and tracer.parents[0] == -1
    assert names.count("protocol.decode_message") == 4
    assert names.count("geo.geodetic_to_enu") == 4
    decode = names.index("protocol.decode_message")
    assert all(tracer.starts[i] <= tracer.ends[i] for i in range(len(names)))
    assert names[tracer.parents[decode]] == "cli.cmd_solve"

    table = tracing._span_table(tracer)
    tracing.check_expectations("receiver", table, {})
    with pytest.raises(tracing.TraceError, match="channel.simulate recorded no calls"):
        tracing.check_expectations("survey", table, {})

    # every per-layer metric of BENCHMARK.json but the overhead comes from spans
    property_spans = {name: f"verify.check_{k}" for k, name in enumerate(spec.VERIFY_PROPERTIES)}
    metrics = tracing.layer_metrics(tracer, "receiver", 1, 1, property_spans)
    assert list(metrics) == [name for name, _ in spec.PER_LAYER
                             if name != "trace.overhead_share"]
    assert metrics["protocol.decode_message.calls_per_frame"] == 4
    assert metrics["multilateration.kleusberg_solve.fail_share.NoRealSolution"] == 0.0
    assert metrics["cli.main.self_us_per_call"] > 0.0


def test_tracer_records_failures_by_error_class():
    from uwps import errors, protocol

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(errors.PositioningError):
            protocol.decode_message(b"$UWPS,1,0.000,36.7201000,-4.4203000,-0.00*00\r\n")
    finally:
        tracer.uninstall()
    assert tracer.outcome_names[tracer.outcomes[0]] == "ChecksumMismatch"


# -- gates -------------------------------------------------------------------

def _verify_output(failing):
    lines = [f"{'FAIL' if name in failing else 'PASS'} {name}: detail"
             for name in spec.VERIFY_PROPERTIES]
    passed = len(spec.VERIFY_PROPERTIES) - len(failing)
    return "\n".join(lines + [f"{passed}/{len(spec.VERIFY_PROPERTIES)} properties passed"])


def test_verify_gate_allows_only_the_known_failing_property():
    gate = gates.Gate("verify")
    inp = {"argv": ["verify"]}
    assert gate(inp, 3, _verify_output({"channel.motion_bound"})) == 1
    assert gate(inp, 0, _verify_output(set())) == 0
    with pytest.raises(gates.GateFailure, match="exited 0, expected 3"):
        gate(inp, 0, _verify_output({"channel.motion_bound"}))
    with pytest.raises(gates.GateFailure, match="properties failed"):
        gate(inp, 3, _verify_output({"geo.round_trip"}))


SURVEY_HEADER = ("frame,truth_e,truth_n,truth_u,analytic_e,analytic_n,analytic_u,"
                 "numerical_e,numerical_n,numerical_u,error_analytic,error_numerical,"
                 "residual_analytic,residual_numerical,discriminant,s0_index,status")
SURVEY_ROW = "0,1,2,-3,{a},2,-3,1,2,-3,0,0,0,0,{disc},0,{status}"
SURVEY_INPUT = {"argv": ["simulate", "x.scn"], "frames": 1, "truth": [1.0, 2.0, -3.0]}


def _survey_output(a="1.0", disc="1e-25", status="ok"):
    return "\n".join([SURVEY_HEADER, SURVEY_ROW.format(a=a, disc=disc, status=status)])


def test_survey_gate_counts_a_near_double_root_wrong_fix_as_failed():
    gate = gates.Gate("survey")
    assert gate(SURVEY_INPUT, 0, _survey_output(a="1.0000005")) == 0
    assert gate.quality()["survey.frames_over_1um"] == 0
    assert gate(SURVEY_INPUT, 0, _survey_output(a="197.0")) == 1
    assert gate.quality()["survey.frames_beyond_sanity"] == 1
    assert gate.wrong == ["simulate x.scn frame 0: fix 196 m from the truth, "
                          "discriminant 1e-25"]
    with pytest.raises(gates.GateFailure, match="status NoRealSolution, expected ok"):
        gate(SURVEY_INPUT, 0, _survey_output(status="NoRealSolution"))
    with pytest.raises(gates.GateFailure, match="exit code 2"):
        gate(SURVEY_INPUT, 2, _survey_output())


@pytest.mark.parametrize("disc", ["1e-10", "-3e-21", ""])
def test_survey_gate_fails_a_wrong_fix_away_from_the_double_root(disc):
    gate = gates.Gate("survey")
    with pytest.raises(gates.GateFailure, match="fix 196 m from the truth"):
        gate(SURVEY_INPUT, 0, _survey_output(a="197.0", disc=disc))
    assert gate.wrong == []


def test_receiver_gate_fails_a_wrong_fix_away_from_the_double_root():
    inp = {"argv": ["solve", "x.obs"], "frames": 1, "truth": [300.0, 400.0, -150.0]}
    out = "discriminant = {disc}\nunderwater solution: ({e}, 400, -150) m\n"
    gate = gates.Gate("receiver")
    assert gate(inp, 0, out.format(disc="9.0e-17", e="300")) == 0
    assert gate(inp, 0, out.format(disc="2e-25", e="310")) == 1
    with pytest.raises(gates.GateFailure, match="fix 10 m from the truth"):
        gate(inp, 0, out.format(disc="9.0e-17", e="310"))
    with pytest.raises(gates.GateFailure, match="no underwater solution or discriminant"):
        gate(inp, 0, "underwater solution: (300, 400, -150) m\n")
