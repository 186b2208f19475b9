"""Every CLI run ends one of three ways, across the whole float range.

Magnitudes are drawn from 1e-320 to 1e308, plus 0, with a uniform
decade, for the one-shot device commands, short sweeps and small
simulations.  A run
must either

* exit 0 with finite outputs and snr**2 * df = f_unity to relative
  1e-12, where f_unity = 0 is allowed only at an explicit zero bias;
* exit 1 with exactly one ``error:`` line on stderr and nothing on
  stdout; or
* exit 2 from argparse.

Any warning that reaches the caller fails the run: a result reports its
validity through its flags.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargelimit.cli import _FLAGS, SWEEP_AXES, main

_BASE = ("snr", "f_unity_hz", "sensitivity_e_per_rthz", "shot_variance_a2",
         "thermal_variance_a2", "total_rms_a")
#: Output columns each device fills; the others are empty in a sweep row.
_COLUMNS = {
    "wire": _BASE + ("n_modes", "kinetic_energy_j", "bias_v", "conductance_s", "current_a"),
    "set": _BASE + ("bias_v", "conductance_s", "current_a", "capacitance_f",
                    "charging_energy_j", "blockade_voltage_v"),
}
_COLUMNS["qpc"] = _COLUMNS["wire"]

_SETTINGS = settings(derandomize=True, max_examples=250, database=None)

#: 0, or m * 10**k with k uniform in [-320, 307] and m in [1, 10).
magnitude = st.one_of(
    st.just(0.0),
    st.builds(lambda k, m: float(f"{m!r}e{k}"), st.integers(-320, 307),
              st.floats(1.0, 10.0, exclude_max=True)),
)


def quantity(unit: str = ""):
    return magnitude.map(lambda value: f"{value!r}{unit}")


def optional(flag: str, values) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda text: [flag, text]))


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_snr(outputs: dict, columns, bandwidth: float, zero_bias: bool) -> None:
    nulls = [key for key in columns if outputs[key] is None]
    snr, f_unity = outputs["snr"], outputs["f_unity_hz"]
    if f_unity == 0.0:
        assert zero_bias and snr == 0.0
        assert nulls == ["sensitivity_e_per_rthz"]
        return
    assert nulls == [], nulls
    assert f_unity > 0.0
    assert abs(snr * snr * bandwidth - f_unity) <= 1e-12 * f_unity


def check_ending(argv: list[str], on_success) -> None:
    code, out, err = run(argv)
    if code == 0:
        on_success(json.loads(out))
    elif code == 1:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert code == 2, code


def device_command(kind: str):
    size = {"wire": optional("--radius", quantity("m")),
            "qpc": quantity("m").map(lambda text: ["--width", text]),
            "set": quantity("m").map(lambda text: ["--radius", text])}[kind]
    host = (optional("--epsr", quantity()) if kind == "set"
            else optional("--mass-ratio", quantity()).flatmap(
                lambda mass: st.just(mass) if not mass
                else quantity().map(lambda epsr: [*mass, "--epsr", epsr])))
    parts = [size, host, optional("--df", quantity("Hz")), optional("--bias", quantity("V")),
             optional("--temperature", quantity("K")), optional("--modulation", quantity())]
    return st.tuples(*parts).map(lambda lists: [kind, *sum(lists, []), "--json"])


@_SETTINGS
@given(st.sampled_from(sorted(_COLUMNS)).flatmap(device_command))
def test_device_command_ends_cleanly(argv):
    def on_success(record):
        inputs = record["inputs"]
        check_snr(record["outputs"], _COLUMNS[argv[0]], inputs["bandwidth_hz"],
                  inputs["bias_v"] == 0.0)

    check_ending(argv, on_success)


def sweep_command(pair):
    device, axis = pair
    unit = {"length": "m", "frequency": "Hz", "temperature": "K",
            "dimensionless": ""}[_FLAGS[SWEEP_AXES[axis][0]][1]]
    ends = st.tuples(magnitude, magnitude).map(sorted)
    extra = {"wire": st.just([]),
             "qpc": quantity("m").map(lambda text: ["--width", text]),
             "set": quantity("m").map(lambda text: ["--radius", text])}[device]
    parts = [ends.map(lambda lo_hi: ["--start", f"{lo_hi[0]!r}{unit}",
                                     "--stop", f"{lo_hi[1]!r}{unit}"]),
             st.sampled_from((["--points", "2"], ["--points", "3", "--spacing", "log"])),
             extra, optional("--df", quantity("Hz")), optional("--temperature", quantity("K"))]
    return st.tuples(*parts).map(lambda lists: [
        "sweep", "--device", device, "--axis", axis, *sum(lists, []), "--format", "json"])


_PAIRS = sorted((device, axis) for axis, (_, devices) in SWEEP_AXES.items()
                for device in devices)


@_SETTINGS
@given(st.sampled_from(_PAIRS).flatmap(sweep_command))
def test_sweep_ends_cleanly(argv):
    device, axis = argv[2], argv[4]

    def on_success(record):
        for row in record["outputs"]["rows"]:  # a delta_f sweep's inputs hold no bandwidth
            df = row["value"] if axis == "delta_f" else record["inputs"]["bandwidth_hz"]
            check_snr(row, _COLUMNS[device], df, zero_bias=False)

    check_ending(argv, on_success)


def simulate_command():
    parts = [quantity("A").map(lambda text: ["--current", text]),
             quantity("Hz").map(lambda text: ["--df", text]),
             st.integers(2, 50).map(lambda n: ["--trials", str(n)]),
             optional("--temperature", quantity("K")),
             optional("--conductance", quantity("S")),
             optional("--fano", quantity()),
             optional("--threshold", quantity())]
    return st.tuples(*parts).map(lambda lists: [
        "simulate", *sum(lists, []), "--seed", "1", "--deterministic"])


@_SETTINGS
@given(simulate_command())
def test_simulate_ends_cleanly(argv):
    def on_success(record):
        outputs = record["outputs"]
        numbers = {**outputs.pop("ci95"), **outputs}
        # n_sigma is infinite only for a sample off the analytic SNR with a
        # zero stderr; a sample without spread is flagged and not scored.
        zero_spread = "zero-spread" in record["flags"]
        assert zero_spread == (outputs["std_charge"] == 0.0)
        allowed = {"n_sigma"} if outputs["snr_stderr"] == 0.0 else set()
        allowed |= {"within_3_sigma"} if zero_spread else set()
        assert {key for key, value in numbers.items() if value is None} <= allowed

    check_ending(argv, on_success)


@pytest.mark.parametrize("axis_ends", [
    ["--axis", "T", "--start=-1e308K", "--stop", "1e308K"],
    ["--axis", "epsilon_r", "--start=-1e308", "--stop", "1e308"],
    ["--axis", "R", "--start", "1nm", "--stop", "1e999m", "--spacing", "log"],
])
def test_a_span_beyond_the_float_range_is_one_error(axis_ends):
    # Both ends are numbers, but stop - start is not; no numpy warning
    # may escape and no nan may be reported.
    code, out, err = run(["sweep", "--device", "wire", *axis_ends, "--points", "3"])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: sweep span from "), err
    assert "nan" not in err
