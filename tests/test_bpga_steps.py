"""scripts/bpga_steps.py, the steps-and-values table of the bpga variants."""

import importlib.util
from pathlib import Path

from dealopt import boosted

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bpga_steps", ROOT / "scripts" / "bpga_steps.py")
bpga_steps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bpga_steps)


def test_sec53_seed_0_counts_each_variant_and_restores_the_envelope_name(capsys):
    value = boosted.fbe_value
    assert bpga_steps.main(["sec53", "--seeds", "1"]) == 0
    assert boosted.fbe_value is value
    rows = capsys.readouterr().out.splitlines()
    # BPGA: 15 steps, x0 and 15 first trials valued; PG values x0 and each
    # forward-backward point it takes; the others value every trial they try
    assert rows[2:] == [
        "| sec53 | `BPGA` | 15 | 15 | 16 | 16 | 1/1 |",
        "| sec53 | `BPGA-1` | 22 | 22 | 39 | 39 | 1/1 |",
        "| sec53 | `BPGA-BB1` | 14 | 14 | 23 | 23 | 1/1 |",
        "| sec53 | `BPGA-BB2` | 14 | 14 | 22 | 22 | 1/1 |",
        "| sec53 | `BPGA-LBFGS` | 21 | 21 | 36 | 36 | 1/1 |",
        "| sec53 | `PG` | 20 | 20 | 21 | 21 | 1/1 |"]
