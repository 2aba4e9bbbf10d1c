"""Write the pinned reference trajectories of `tests/test_acceptance.py`.

    PYTHONPATH=src python tests/make_reference.py

runs `configs/lock_exchange.cfg` (1000 steps, as the acceptance suite's
`run6` fixture) and `configs/taylor_green.cfg` cut to 100 steps, and
writes every `stride`-th ledger row of each to `tests/data/` in `repr`
precision.  Regenerate only on purpose: the files pin the physics, and
a change that moves them must say why.
"""

import os
import sys
import tempfile

from dualflow.config import parse_config_file
from dualflow.driver import run

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
COLUMNS = ("K", "Ep", "enstrophy", "total_vorticity", "m_p_ratio", "mdot_s", "E_res")

# name -> (config file, steps, stride)
REFERENCES = {
    "lock_exchange": ("lock_exchange.cfg", 1000, 50),
    "taylor_green": ("taylor_green.cfg", 100, 10),
}


def reference_path(name):
    return os.path.join(HERE, "data", f"reference_{name}.csv")


def reference_config(name, outdir):
    """The reference run's config: the shipped file cut to its steps,
    writing its CSV (and nothing else) under `outdir`."""
    config, steps, _ = REFERENCES[name]
    cfg = parse_config_file(os.path.join(CONFIGS, config))
    cfg.time["t_end"] = steps * cfg.time["dt"]
    cfg.output.update(dir=outdir, vtk_every=0, checkpoint_every=0)
    return cfg


def pinned_rows(name, rows):
    """(step, *COLUMNS) of every stride-th row of a run's ledger rows."""
    stride = REFERENCES[name][2]
    return [[row.step] + [getattr(row, col) for col in COLUMNS]
            for row in rows if row.step % stride == 0]


def main():
    for name in REFERENCES:
        with tempfile.TemporaryDirectory() as tmp:
            rows = run(reference_config(name, tmp)).rows
        with open(reference_path(name), "w", encoding="ascii") as fh:
            fh.write(",".join(("step",) + COLUMNS) + "\n")
            for values in pinned_rows(name, rows):
                fh.write(",".join(repr(v) for v in values) + "\n")
        print(f"wrote {reference_path(name)}", file=sys.stderr)


if __name__ == "__main__":
    main()
