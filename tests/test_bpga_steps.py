"""scripts/bpga_steps.py, the steps-and-values table of the bpga variants."""

import importlib.util
from pathlib import Path

from dealopt import boosted, problems

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bpga_steps", ROOT / "scripts" / "bpga_steps.py")
bpga_steps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bpga_steps)


def test_sec53_seed_0_counts_each_variant_and_restores_the_envelope_names(capsys):
    value, line = boosted.fbe_value, problems.LassoProblem.fbe_line
    assert bpga_steps.main(["sec53", "--seeds", "1"]) == 0
    assert (boosted.fbe_value, problems.LassoProblem.fbe_line) == (value, line)
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(" | ")[1] for row in rows[2:]] == [
        "`BPGA`", "`BPGA-1`", "`BPGA-BB1`", "`BPGA-BB2`", "`BPGA-LBFGS`", "`PG`"]
    # BPGA: 15 steps, x0 and 15 first trials valued, no screen; PG values
    # x0 and each forward-backward point it takes
    assert rows[2] == "| sec53 | `BPGA` | 15 | 15 | 16 | 16 | 0 | 1/1 |"
    assert rows[7] == "| sec53 | `PG` | 20 | 20 | 21 | 21 | 0 | 1/1 |"
