"""Every config key changes what its scenario writes.

Each scenario parameter is nudged once on its own -- a float x1.07 (a
float whose default is 0 becomes 0.07), an int +1, a bool flipped, a
string to its other choice; the edges of a tone grid move by one step and
its step halves, so the span stays a whole number of steps -- and the
run's metrics or artifact checksums must differ from the base run's.  A
key that changes nothing is a knob that no output reads: delete it, or
name it below with the reason it may stay.  All runs use seed 1 and write
their artifacts.
"""

import itertools

import pytest

from aperture_forge.cli.config import RunConfig
from aperture_forge.cli.scenarios import REGISTRY, run

# keys that only set a pass/fail threshold or a stopping point, so a small
# nudge can leave every output as it was
THRESHOLD_ONLY = {
    ("sound-constants", "tol"): "bandpass_ok tests the band ratio against it",
    ("sound-padp", "r_stop_m"): "end of the spherical range scan, past the source",
    ("sound-sparse-lattice", "psl_bound_db"): "met_bound tests psl_db against it",
    ("sas-recon", "max_iter"): "iteration cap above the point of convergence",
}

# keys read only under one value of a string key, nudged under that value
MODES = {("pr-recover", "n_masks"): {"problem_kind": "coded"}}

# keys whose rule nudge is invalid or too small to move an output
NUDGE = {
    ("sar-speckle", "window"): 9,  # the window must stay odd
    # at seed 1 the best mask is found before step 1000 and next improves
    # after step 1600
    ("sound-sparse-lattice", "n_steps"): 2400,
}

OTHER_CHOICE = {"gaussian": "coded", "fista": "ista"}

# a shorter pulse than the default keeps each waveform-ambiguity run at
# about 0.1 s instead of 3 s (the RMMSE cost grows with the pulse length)
BASE = {"waveform-ambiguity": {"duration_s": 2e-6}}

_counter = itertools.count()


def _nudge(scenario, key, params):
    value = params[key]
    if (scenario, key) in NUDGE:
        return NUDGE[scenario, key]
    if key in ("f_start_hz", "f_stop_hz") and "df_hz" in params:
        return value + params["df_hz"]
    if key == "df_hz":
        return value / 2.0
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.07 if value else 0.07
    return OTHER_CHOICE[value]


def _outputs(scenario, params, tmp_path):
    config = RunConfig(scenario, params, 1, str(tmp_path / str(next(_counter))))
    report = run(config)
    return report.metrics, {name: a["sha256"] for name, a in report.artifacts.items()}


def test_allowlists_name_real_keys():
    for scenario, key in list(THRESHOLD_ONLY) + list(MODES) + list(NUDGE):
        assert key in REGISTRY[scenario].params, (scenario, key)


@pytest.mark.parametrize("scenario", sorted(REGISTRY))
def test_every_key_changes_an_output(scenario, tmp_path):
    defaults = {**REGISTRY[scenario].params, **BASE.get(scenario, {})}
    bases = {}
    dead = []
    for key in defaults:
        if (scenario, key) in THRESHOLD_ONLY:
            continue
        mode = MODES.get((scenario, key), {})
        params = {**defaults, **mode}
        tag = tuple(sorted(mode.items()))
        if tag not in bases:
            bases[tag] = _outputs(scenario, params, tmp_path)
        nudged = _outputs(scenario, {**params, key: _nudge(scenario, key, params)}, tmp_path)
        if nudged == bases[tag]:
            dead.append(key)
    assert dead == [], f"{scenario}: no output changes when these keys change: {dead}"
