"""Correctness gates: each `uwps` call's exit code and output, per workload.

A gate returns the number of the call's operations that failed and raises
GateFailure when the output is wrong: a wrong exit code, a missing or
malformed line, an unnamed status, an unexpected FAIL, or a survey or
receiver fix beyond SANITY_M from the truth. A failed operation is a track
frame whose CSV status is not `ok`, a property that reports FAIL, or a
known wrong fix: one the program reports as solved beyond SANITY_M whose
closed-form discriminant lies within NEAR_DOUBLE_ROOT of zero. There both
candidates fit the ranges and the program may pick the wrong one. That
defect is counted and listed in `wrong`, so that it stays visible without
ending the run; a wrong fix anywhere else ends it.
"""
from __future__ import annotations

import inspect
import math

import spec
import stats

SANITY_M = 1e-3        # a fix further than this from the truth is wrong [m]
PAPER_EXACT_M = 1e-6   # the paper's reconstruction exactness [m]
NEAR_DOUBLE_ROOT = 1e-22   # |discriminant| of the known wrong-candidate defect
KNOWN_FAILING_PROPERTY = "channel.motion_bound"   # unmet until motion is modelled


class GateFailure(Exception):
    """An output is wrong: the benchmark reports this instead of numbers."""


def error_names() -> set[str]:
    """The statuses a frame may carry: `ok` and every named uwps error."""
    from uwps import errors

    return {"ok"} | {name for name, cls in vars(errors).items()
                     if inspect.isclass(cls) and issubclass(cls, errors.PositioningError)}


def _floats(cells):
    return [float(c) for c in cells]


def _csv_rows(inp, out):
    """The frame rows of a `uwps simulate` CSV, as dicts by column name."""
    lines = out.splitlines()
    if not lines or not lines[0].startswith("frame,"):
        raise GateFailure(f"{inp['argv']}: no CSV header in the output")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:1 + inp["frames"]]]
    if [r.get("frame") for r in rows] != [str(k) for k in range(inp["frames"])]:
        raise GateFailure(f"{inp['argv']}: CSV rows do not list frames 0..{inp['frames'] - 1}")
    return rows


def _fix(row, prefix):
    cells = [row[f"{prefix}_{axis}"] for axis in "enu"]
    return _floats(cells) if all(cells) else None


class Gate:
    """Checks one workload's calls and collects its quality numbers."""

    def __init__(self, workload):
        self.workload = workload
        self.statuses = error_names()
        self.errors_m: list[float] = []     # per frame
        self.wrong: list[str] = []          # frames solved beyond SANITY_M
        self.check = getattr(self, f"_{workload}")

    def __call__(self, inp, code, out):
        failed, errors = self.check(inp, code, out)
        self.errors_m += errors
        return failed

    def _sane(self, inp, error, where, discriminant):
        """0 if a solved frame's error is within SANITY_M; 1, listed in wrong,
        for a known near-double-root wrong fix; GateFailure for any other."""
        if error <= SANITY_M:
            return 0
        wrong = (f"{' '.join(inp['argv'])}{where}: fix {error:.4g} m from the "
                 f"truth, discriminant {discriminant}")
        if not (discriminant and abs(float(discriminant)) < NEAR_DOUBLE_ROOT):
            raise GateFailure(wrong)
        self.wrong.append(wrong)
        return 1

    def _survey(self, inp, code, out):
        if code != 0:
            raise GateFailure(f"{inp['argv']}: exit code {code}, expected 0")
        failed, errors = 0, []
        for row in _csv_rows(inp, out):
            if row["status"] != "ok":
                raise GateFailure(f"{inp['argv']} frame {row['frame']}: status "
                                  f"{row['status']}, expected ok")
            fixes = [_fix(row, "analytic"), _fix(row, "numerical")]
            if None in fixes:
                raise GateFailure(f"{inp['argv']} frame {row['frame']}: missing fix")
            error = max(math.dist(fix, inp["truth"]) for fix in fixes)
            failed += self._sane(inp, error, f" frame {row['frame']}", row["discriminant"])
            errors.append(error)
        return failed, errors

    def _track(self, inp, code, out):
        if code not in (0, 2):
            raise GateFailure(f"{inp['argv']}: exit code {code}, expected 0 or 2")
        failed, errors, unsolved = 0, [], False
        p0, v = inp["truth"], inp["velocity"]
        for row in _csv_rows(inp, out):
            status = row["status"]
            if status not in self.statuses:
                raise GateFailure(f"{inp['argv']} frame {row['frame']}: unnamed status "
                                  f"{status!r}")
            truth = _floats(row[f"truth_{axis}"] for axis in "enu")
            # the CSV truth must lie on the receiver's straight track
            t = sum((a - b) * c for a, b, c in zip(truth, p0, v)) / sum(c * c for c in v)
            off = math.dist(truth, [a + c * t for a, c in zip(p0, v)])
            if not (off <= SANITY_M and t >= 0.0):
                raise GateFailure(f"{inp['argv']} frame {row['frame']}: CSV truth "
                                  f"{off:.3e} m off the receiver track")
            fix = _fix(row, "numerical") or _fix(row, "analytic")
            unsolved |= fix is None
            if status != "ok":
                failed += 1
            elif fix is not None:
                errors.append(math.dist(fix, truth))
        if (code == 2) != unsolved:
            raise GateFailure(f"{inp['argv']}: exit code {code} but "
                              f"{'a' if unsolved else 'no'} frame without any fix")
        return failed, errors

    def _receiver(self, inp, code, out):
        if code != 0:
            raise GateFailure(f"{inp['argv']}: exit code {code}, expected 0")
        fix = discriminant = None
        for line in out.splitlines():
            if line.startswith("underwater solution: ("):
                fix = _floats(line.split("(", 1)[1].split(")", 1)[0].split(","))
            elif line.startswith("discriminant = "):
                discriminant = line.split("=", 1)[1].strip()
        if fix is None or discriminant is None:
            raise GateFailure(f"{inp['argv']}: no underwater solution or discriminant line")
        error = math.dist(fix, inp["truth"])
        return self._sane(inp, error, "", discriminant), [error]

    def _verify(self, inp, code, out):
        verdicts = {}
        for line in out.splitlines():
            word, _, rest = line.partition(" ")
            if word in ("PASS", "FAIL"):
                verdicts[rest.split(":", 1)[0]] = word
        if list(verdicts) != spec.VERIFY_PROPERTIES:
            raise GateFailure(f"uwps verify reported properties {list(verdicts)}, "
                              f"expected {spec.VERIFY_PROPERTIES}")
        failing = [name for name, word in verdicts.items() if word == "FAIL"]
        if set(failing) - {KNOWN_FAILING_PROPERTY}:
            raise GateFailure(f"uwps verify: properties failed: {failing}")
        expected_code = 3 if failing else 0
        if code != expected_code:
            raise GateFailure(f"uwps verify exited {code}, expected {expected_code}")
        passed = len(verdicts) - len(failing)
        if f"{passed}/{len(verdicts)} properties passed" not in out:
            raise GateFailure("uwps verify: summary line disagrees with the verdicts")
        return len(failing), []

    def quality(self):
        """Quality numbers read from the outputs; printed, not gated."""
        errors = sorted(self.errors_m)
        if self.workload in ("survey", "receiver") and errors:
            return {f"{self.workload}.frames_over_1um":
                    sum(1 for e in errors if e > PAPER_EXACT_M),
                    f"{self.workload}.frames_beyond_sanity": len(self.wrong),
                    f"{self.workload}.max_error_m": errors[-1]}
        if self.workload == "track" and errors:
            return {"track.error_p50_m": stats.percentile(errors, 50),
                    "track.error_p90_m": stats.percentile(errors, 90)}
        return {}
