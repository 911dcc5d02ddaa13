"""The config contract: a config that changes one key to an edge value
either runs to a finite report, or exits 4, 5 or 6 with a message that
names the key, or the library parameter it feeds, as ``KEY=``, and
leaves no output directory.

Each example runs as its own CLI process under a 2 GB address-space
limit, so a config that asks for too much memory fails in that child
alone.  GAPS lists the edge configs that ask for more memory or work than
a test pass can give, each with the reason; the property test draws from
the others.
"""

import json
import math
import os
import pathlib
import re
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aperture_forge.cli.scenarios import REGISTRY

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MEMORY_LIMIT = 2 << 30

# base values that keep each run short; the edge values still scale from
# the registry defaults
SMALL = {
    "fp-demo": {"sweeps": 2},
    "pr-recover": {"n": 16, "steps": 100, "er_iters": 10},
    "sas-recon": {"n_pings": 2, "max_iter": 20},
    "sound-constants": {"df_hz": 1.5e9},
    "sound-sparse-lattice": {"n_steps": 50},
    "waveform-ambiguity": {"duration_s": 2e-6},
}

# library parameters a key feeds under another name, besides the key
# without its unit suffix
FEEDS = {
    "adc_bits": ("bits",),
    "aperture_m": ("aperture_d",),
    "d_m": ("d_x",),
    "dy_m": ("points",),
    "er_iters": ("iters",),
    "fib_m": ("m",),
    "loading_rel": ("loading",),
    "mu_frac": ("mu",),
    "n_mrla": ("n_elements",),
    "n_rx": ("rx_offsets",),
    "n_x": ("x_grid",),
    "n_r": ("r_grid",),
    "oversample": ("x_grid", "r_grid"),
    "oversampling": ("m",),
    "r0_m": ("points",),
    "rmmse_iterations": ("iterations",),
    "rx_pitch_m": ("rx_offsets",),
    "src_x_m": ("position",),
    "src_y_m": ("position",),
    "src_z_m": ("position",),
    "tau1_ns": ("delay",),
    "tau2_ns": ("delay",),
    "u0": ("u",),
    "u1": ("u",),
    "u2": ("u",),
    "v1": ("v",),
    "v2": ("v",),
    ("fp-demo", "dx_m"): ("pupil",),
    ("fp-demo", "na"): ("pupil",),
    ("fp-demo", "wavelength_m"): ("pupil",),
    ("pr-recover", "n"): ("m",),
    ("sas-recon", "dx_m"): ("points",),
    ("radiometry-roundtrip", "n_u"): ("n",),
}

_MEMORY = "asks for more than 2 GB in one array (ROADMAP item 5)"
_WORK = "seconds of work at the edge value (ROADMAP item 5)"

# (scenario, key, edge) -> why the config is left out of the property test
GAPS = {
    ("sar-point", "duration_s", "x1e3"): _MEMORY,
    ("sar-point", "f_s_hz", "x1e3"): _MEMORY,
    ("sar-point", "t_coh_s", "x1e3"): _MEMORY,
    ("sound-padp", "df_hz", "x1e-3"): _MEMORY,
    ("sound-padp", "f_stop_hz", "x1e3"): _MEMORY,
    ("waveform-ambiguity", "duration_s", "x1e3"): _MEMORY,
    ("waveform-ambiguity", "f_s_hz", "x1e3"): _MEMORY,
    ("pr-recover", "oversampling", "x1e3"): _WORK,
    ("sas-recon", "df_hz", "x1e-3"): _WORK,
    ("sas-recon", "f_stop_hz", "x1e3"): _WORK,
    ("sound-constants", "df_hz", "x1e-3"): _WORK,
    ("sound-padp", "r_step_m", "x1e-3"): _WORK,
    ("sound-padp", "r_stop_m", "x1e3"): _WORK,
}


def edges(default):
    """The sweep's edge values for a key with this default, by name."""
    if isinstance(default, bool):
        return {}
    if isinstance(default, int):
        return {"0": 0, "1": 1, "-1": -1, "2": 2}
    if isinstance(default, float):
        return {"0": 0.0, "-default": -default, "x1e-3": default * 1e-3, "x1e3": default * 1e3}
    return {"empty": ""}


EXAMPLES = sorted((scenario, key, edge) for scenario, scen in REGISTRY.items()
                  for key, default in scen.params.items() for edge in edges(default))


def names_input(message, scenario, key):
    names = {key, re.sub(r"_(hz|m|s|mps)$", "", key),
             *FEEDS.get(key, ()), *FEEDS.get((scenario, key), ())}
    return any(re.search(rf"(?<![\w.]){re.escape(name)}=", message) for name in names)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_example(scenario, key, edge, workdir):
    """Run one edge config as a CLI process; returns (exit code, message,
    metrics, whether the out directory exists)."""
    value = edges(REGISTRY[scenario].params[key])[edge]
    workdir = pathlib.Path(workdir)
    config = workdir / "config.json"
    config.write_text(json.dumps({"scenario": scenario,
                                  "params": {**SMALL.get(scenario, {}), key: value}}))
    out = workdir / "out"
    done = subprocess.run(
        [sys.executable, "-m", "aperture_forge.cli.main", scenario, "--config", str(config),
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
        env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1"))
    if done.returncode == 0:
        report = json.loads((out / "report.json").read_text())
        return 0, "", report["metrics"], True
    message = json.loads(done.stderr.splitlines()[-1])["error"]["message"] \
        if done.stderr.strip() else ""
    return done.returncode, message, None, out.exists()


def check_example(scenario, key, edge, workdir):
    code, message, metrics, out_exists = run_example(scenario, key, edge, workdir)
    if code == 0:
        bad = [k for k, v in metrics.items() if isinstance(v, float) and not math.isfinite(v)]
        assert not bad, f"{scenario} {key} {edge}: non-finite {bad}"
        return
    assert code in (4, 5, 6), f"{scenario} {key} {edge}: exit {code} {message}"
    assert not out_exists, f"{scenario} {key} {edge}: exit {code} left an out directory"
    assert names_input(message, scenario, key), \
        f"{scenario} {key} {edge}: exit {code} names no input: {message}"


def test_gaps_are_edge_configs():
    assert set(GAPS) <= set(EXAMPLES)


def test_gaps_hold_only_the_configs_that_ask_for_too_much_memory_or_work():
    assert len(GAPS) == 13 and set(GAPS.values()) == {_MEMORY, _WORK}


# edge configs whose runner names the key before the library rejects it
# under another name (or divides by zero), so they run on every pass
NAMED_BY_THE_RUNNER = [("fp-demo", "grid_side", "0"), ("fp-demo", "grid_side", "-1"),
                       ("fp-demo", "sigma_px", "0"), ("fp-demo", "n", "0"), ("fp-demo", "n", "-1"),
                       ("sound-padp", "src_z_m", "0"),
                       *[("sar-capon", key, edge) for key in ("m", "n")
                         for edge in ("-1", "0", "1", "2")]]


@pytest.mark.parametrize("example", NAMED_BY_THE_RUNNER, ids="-".join)
def test_a_runner_checked_edge_config_meets_the_contract(example):
    with tempfile.TemporaryDirectory() as workdir:
        check_example(*example, workdir)


# edge configs that break a rule on a derived quantity (a grid extent, a
# delay window, a pupil's reach, a mainlobe width), whose library message
# names every input of that quantity
NAMED_BY_THE_LIBRARY = [*[("sas-recon", key, "x1e3")
                          for key in ("dx_m", "dy_m", "r0_m", "rx_pitch_m", "v_p_mps")],
                        ("sar-point", "oversample", "x1e-3"), ("sound-padp", "d_m", "x1e3"),
                        ("fp-demo", "dx_m", "x1e3"), ("fp-demo", "na", "x1e3"),
                        ("fp-demo", "wavelength_m", "x1e-3"), ("fp-demo", "n", "1"),
                        ("fp-demo", "n", "2"),
                        *[("sound-sparse-lattice", key, edge) for key, edge in
                          (("d_m", "x1e-3"), ("f_eval_hz", "x1e-3"), ("m", "1"), ("m", "2"))],
                        *[("sound-squint", key, edge) for key, edge in
                          (("d_m", "x1e-3"), ("f_start_hz", "x1e-3"), ("fib_m", "1"),
                           ("fib_m", "2"))]]


@pytest.mark.parametrize("example", NAMED_BY_THE_LIBRARY, ids="-".join)
def test_a_derived_rule_edge_config_names_its_inputs(example):
    with tempfile.TemporaryDirectory() as workdir:
        check_example(*example, workdir)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(set(EXAMPLES) - set(GAPS))))
def test_an_edge_config_runs_or_exits_naming_its_input(example):
    with tempfile.TemporaryDirectory() as workdir:
        check_example(*example, workdir)
