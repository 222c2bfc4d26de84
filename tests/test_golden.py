"""Golden bytes: the sha256 of every output file of every CLI mode.

C8 only checks that a re-run reproduces itself. These digests pin the
outputs across versions, so a refactor that changes a single byte of any
report fails here. Runs use relative paths under a temporary working
directory, because ``summary.json`` echoes the resolved config, output
directory and input path included.

If outputs change on purpose, regenerate the digests with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""
import hashlib
from pathlib import Path

import pytest

from drdp.cli import MODES, main

INPUT_CSV = "readings.csv"

# Non-contiguous meter ids listed out of order; slots numbered from 10.
INPUT_METERS = (17, 3, 1001, 42, 8)
INPUT_SLOTS = range(10, 58)

CONFIGS = {
    # C8's small config: 4 meters, one day, about half the slots peak.
    "small": ["--meters", "4", "--synth-days", "1", "--peak-factor", "3500", "--seed", "6"],
    # All defaults: 10 meters, 3 days, threshold 12000 Wh, seed 42.
    "default": [],
    "input": ["--input", INPUT_CSV, "--peak-factor", "3300", "--seed", "11"],
}

# coop-table tabulates the closed form for --meters homes and refuses a
# readings file: these runs exit 1 and write nothing.
REJECTED = {("input", "coop-table")}

DIGESTS = {
    ('default', 'run'): {
        'report.csv': 'c78f32c371dd68c8d35668bd691d74cf1cc865d977b5beb3fa50cc9f0ca91373',
        'summary.json': '6450cda92776ef5fcb6977bcf4bbd5c6738f7eafd42c0be8cc6b93b8cfc5a397',
    },
    ('default', 'mae-sweep'): {
        'mae_sweep.csv': 'f7f0d87e1c78ee54f26bc34f83d74008a3eb8d4e8737b7600f965d9c4b1e534a',
        'metrics.json': '529997fbabe2e87e909b50603ec5779cc51fe5c16dae72f577a3f04d70c235e2',
    },
    ('default', 'bill-error'): {
        'bill_error.csv': '8eea107b69df8317149ab66aff523179249ed14de662685882398236c07abb42',
        'metrics.json': '33f2ce5d4803df72d868be0ed74c97f12257369d485e1840f62fa57788d97d79',
    },
    ('default', 'convergence'): {
        'convergence.csv': '470278dcc2b0c971e4acb55b58e970a7eb6afd8c5c43c1b4922bb832f12a0102',
        'metrics.json': '08d366bb7bad72bb83fbec98da45b7dc5c31ff93bde6eeea1d8f22a269c8f765',
    },
    ('default', 'coop-table'): {
        'coop_table.csv': 'e2311b40aa310eddee900d331be764f6a1ed8d5b67d9553e466a64c2bda58a08',
    },
    ('default', 'baseline-compare'): {
        'baseline_compare.csv': '9b4c2b3b7a3a8fe0fcb5e00f584eca2ca17b1cacbf008b10d1675304b7a333e5',
    },
    ('input', 'run'): {
        'report.csv': '7b15cbae5249578601b9680949d4de353c05d39c6b7871a79af94673fc6b0bbd',
        'summary.json': '67dd05b3888facd2596086fcdb25618cb9b665db55279d43c429da197ecaea3a',
    },
    ('input', 'mae-sweep'): {
        'mae_sweep.csv': '51209535d00c19e894b4d7708edc71c802cc2f7e99f509de1b394ae25de8b7c5',
        'metrics.json': '36ab28868614cf04b8bd04fcebc192b8879a3290dee7291bf5bb5cf4a658182c',
    },
    ('input', 'bill-error'): {
        'bill_error.csv': '37484aa514007205df4e157ca0e617f6108643043c23010ced45ffa05501be2a',
        'metrics.json': '403371bf98f816ed41d2e05a26497b3096b1dce94dfa2008e8823d8eccb98c5c',
    },
    ('input', 'convergence'): {
        'convergence.csv': '87df699fe7b226fb5112f3d54e1f6a6899103e5b4bc8dc17a14aff4928bac694',
        'metrics.json': '20245a35380419a5b887f599e8e611e34946db38d66def252ee4b18e24507bae',
    },
    ('input', 'baseline-compare'): {
        'baseline_compare.csv': '31284c4435f002e4a9509ac34f93177de9bf506081946cac290e273bea205bcc',
    },
    ('small', 'run'): {
        'report.csv': '512525be917d596c7f4a0da05abe256d1c8e283a512ece71abe49b946209c385',
        'summary.json': '6e57d606e9435361007cab858b3cac144d403e0e3fec9d80e9dda271e233c997',
    },
    ('small', 'mae-sweep'): {
        'mae_sweep.csv': '9606a43bd255d2f52ec523579801293c99256dbf9c5a313a15fcc67fccb44b80',
        'metrics.json': '1d386f1b77e18b7f459fb883246c369c3b3429315846b62f21b60deff508cad4',
    },
    ('small', 'bill-error'): {
        'bill_error.csv': '826cbb3794e612ad5f7ce20c4dfff98284fce6fb37e681bb110569236053a7e7',
        'metrics.json': 'eeda69da7cf5ff5a1928d1373e9af6d494e97f4cebe33af33355388cd6b75caa',
    },
    ('small', 'convergence'): {
        'convergence.csv': 'c23ce76afaf73cbe65954964f7ed911e2a927149347719dc0d8068311350c8dd',
        'metrics.json': 'd2f687a92dd65deb221c6774f4f93350e19e639a7b8add5c6f13d795c43657e7',
    },
    ('small', 'coop-table'): {
        'coop_table.csv': '8033112b7f75dd2609c0b117f31e15b6702614e331b465f34b3b601da092f2f2',
    },
    ('small', 'baseline-compare'): {
        'baseline_compare.csv': '4ae535825e808c7e30b014f10e5643815131d5d79b6fa34423df3de39cbd001f',
    },
}


def write_input_csv(path):
    rows = [
        f"{meter},{slot},{200 + (meter * 37 + slot * 53) % 900 + (slot % 4) * 0.125}"
        for meter in INPUT_METERS
        for slot in INPUT_SLOTS
    ]
    path.write_text("meter_id,slot,wh\n" + "\n".join(rows) + "\n", encoding="utf-8")


def run_digests(config, mode):
    """Run one mode in the current directory; ``{file name: sha256}``."""
    out = Path("out") / config / mode
    assert main(["--mode", mode, "--out", str(out)] + CONFIGS[config]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_outputs_match_golden_digests(config, mode, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_input_csv(tmp_path / INPUT_CSV)
    if (config, mode) in REJECTED:
        assert main(["--mode", mode, "--out", "out"] + CONFIGS[config]) == 1
        assert not Path("out").exists()
    else:
        assert run_digests(config, mode) == DIGESTS[config, mode]


if __name__ == "__main__":
    # Print a fresh DIGESTS table from the code on sys.path.
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_input_csv(Path(INPUT_CSV))
        print("DIGESTS = {")
        for config in sorted(CONFIGS):
            for mode in MODES:
                if (config, mode) in REJECTED:
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    digests = run_digests(config, mode)
                print(f"    ({config!r}, {mode!r}): {{")
                for name, digest in digests.items():
                    print(f"        {name!r}: {digest!r},")
                print("    },")
        print("}")
