"""The README's CLI walkthroughs, run as written through `fracimp.cli.main`.

The `cat > <file> <<'EOF'` heredocs and the `fracimp` lines of the README's
bash blocks are replayed in a temporary directory: first the multisine
walkthrough, then the noise one, on a `sim.json` whose excitation is
`{"type": "noise"}`, as the README says.  Any other shell line fails the
test, so the README cannot grow a step that this test silently skips.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fracimp import EstimationConfig, MultisineSpec, fit_randles, per_period_spectra, \
    read_record, wtls_estimate
from fracimp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_HEREDOC = re.compile(r"cat > (\S+) <<'EOF'$")


def _walkthrough_blocks():
    """The bash blocks that run `fracimp`: the multisine walkthrough, then the noise one."""
    blocks = re.findall(r"```bash\n(.*?)```", README, flags=re.S)
    return [block.splitlines() for block in blocks if "\nfracimp " in "\n" + block]


def _replay(lines):
    """Write each heredoc and run each `fracimp` line; return the commands run."""
    commands = []
    lines = iter(lines)
    for line in lines:
        heredoc = _HEREDOC.match(line)
        if heredoc:
            body = []
            for text in lines:
                if text == "EOF":
                    break
                body.append(text)
            Path(heredoc.group(1)).write_text("\n".join(body) + "\n")
        elif line.startswith("fracimp "):
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, line
            commands.append(argv[0])
        else:
            assert not line.strip(), f"README line not replayed: {line!r}"
    return commands


def _listed_outputs():
    """The output files that the README's "Outputs:" sentence names."""
    sentence = README[README.index("Outputs:"):]
    sentence = sentence[:sentence.index(".\n")]
    return re.findall(r"`([\w.]+\.(?:csv|json))`", sentence)


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    """The directory the multisine walkthrough runs in."""
    return tmp_path_factory.mktemp("readme")


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory, readme_dir):
    with pytest.MonkeyPatch.context() as mp:
        base = readme_dir
        mp.chdir(base)
        multisine, noise = _walkthrough_blocks()
        ran = {"multisine": _replay(multisine)}
        listed = {name: (base / "run" / name).exists() for name in _listed_outputs()}

        noise_dir = tmp_path_factory.mktemp("readme_noise")
        mp.chdir(noise_dir)
        sim = json.loads((base / "sim.json").read_text())
        sim["excitation"] = {"type": "noise"}
        Path("sim.json").write_text(json.dumps(sim))
        simulate = next(line for line in multisine if line.startswith("fracimp simulate "))
        ran["noise"] = _replay([simulate, *noise])
        return ran, listed, noise_dir / "run"


def test_every_walkthrough_command_runs(walkthrough):
    ran, _, _ = walkthrough
    assert ran == {"multisine": ["simulate", "estimate", "eis", "compare", "fit"],
                   "noise": ["simulate", "estimate", "eis", "compare"]}


def test_every_listed_output_exists(walkthrough):
    _, listed, _ = walkthrough
    assert len(listed) == 8  # record.csv and its sidecar to fit.json
    assert all(listed.values()), listed


def test_noise_walkthrough_matches_the_readme_claim(walkthrough):
    _, _, run = walkthrough
    claim = re.search(r"gives ([\d ]+) nonparametric rows, all of them shared with\s+"
                      r"`bode.csv`, and a median relative error of ([\d.]+) %", README)
    rows, median_pct = int(claim.group(1).replace(" ", "")), float(claim.group(2))
    eis = np.loadtxt(run / "eis.csv", delimiter=",", skiprows=1)
    error = np.loadtxt(run / "error.csv", delimiter=",", skiprows=1)
    assert eis.shape[0] == error.shape[0] == rows
    assert round(100 * float(np.median(error[:, 1])), 1) == median_pct


_PARAMS = ("r_s_ohm", "r_ct_ohm", "c_dl_f", "sigma_w_ohm_per_sqrt_s")


def test_multisine_outputs_match_the_library_on_the_record_read_back(walkthrough, readme_dir):
    # estimate.json and fit.json against wtls_estimate and fit_randles run
    # in process on run/record.csv, with est.json's settings
    cfg = json.loads((readme_dir / "est.json").read_text())
    spec = MultisineSpec.from_dict(json.loads((readme_dir / cfg["multisine_path"]).read_text()))
    current, voltage, _ = read_record(readme_dir / "run" / "record.csv")
    result = wtls_estimate(per_period_spectra(current, voltage), EstimationConfig(
        bin_mask=spec.harmonics, iterations=cfg["iterations"], n_r=cfg["n_r"]))
    params = fit_randles(result.rational).params.to_dict()
    estimate = json.loads((readme_dir / "run" / "estimate.json").read_text())
    fit = json.loads((readme_dir / "run" / "fit.json").read_text())["params"]
    for got, want in ((estimate["a"], result.rational.a), (estimate["b"], result.rational.b),
                      (estimate["c"], result.transient),
                      ([fit[k] for k in _PARAMS], [params[k] for k in _PARAMS])):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
