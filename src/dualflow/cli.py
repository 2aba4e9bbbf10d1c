"""Command-line interface: run, resume, check, mesh-info."""

import argparse
import dataclasses
import sys

from .config import ConfigError, parse_config_file
from .elements import UnsupportedElementError
from .io import CheckpointError
from .linsolve import SolverError
from .mesh import MeshError, mesh_stats
from .spaces import space_dimension
from .stepper import StartupError


def _load(args):
    if not args.config:
        raise ConfigError("a --config file is required for this subcommand")
    cfg = parse_config_file(args.config)
    if args.output_dir:
        cfg.output["dir"] = args.output_dir
    return cfg


def _cmd_run(args):
    from .driver import run

    cfg = _load(args)
    result = run(cfg, log=print, collect_rows=False)
    print(f"finished at step {result.state.k} (t = {result.state.k * cfg.time['dt']:g}); "
          f"outputs in {cfg.output['dir']}")
    return 0


def _cmd_resume(args):
    from .driver import run

    cfg = _load(args)
    if not args.checkpoint:
        raise ConfigError("resume needs --checkpoint PATH")
    result = run(cfg, log=print, collect_rows=False, checkpoint=args.checkpoint)
    print(f"finished at step {result.state.k}; outputs in {cfg.output['dir']}")
    return 0


def _cmd_check(args):
    from .driver import build_model, make_initial_condition
    from .stepper import initialize

    cfg = _load(args)
    model = build_model(cfg)
    # one startup pass only: enough to validate assembly and the solves
    model.time = dataclasses.replace(model.time, startup_max_iter=1, startup_tol=float("inf"))
    initialize(model, make_initial_condition(cfg))
    print("config OK; mesh, spaces and one startup iteration validated")
    return 0


def _cmd_mesh_info(args):
    from .driver import build_mesh

    cfg = _load(args)
    mesh = build_mesh(cfg)
    s = mesh_stats(mesh)
    N = cfg.discretization["degree"]
    d_w = space_dimension("CG", N, s.num_vertices, s.num_edges, s.num_cells)
    d_u = space_dimension("RT", N, s.num_vertices, s.num_edges, s.num_cells)
    d_q = space_dimension("DG", N - 1, s.num_vertices, s.num_edges, s.num_cells)
    eq_cells = s.num_cells * (19.0 / 13.0) * N * N
    print(f"vertices       {s.num_vertices}")
    print(f"edges          {s.num_edges}")
    print(f"cells          {s.num_cells}")
    print(f"h_min          {s.h_min:.6g}")
    print(f"total_area     {s.total_area:.12g}")
    print(f"degree         {N}")
    print(f"dof_vorticity  {d_w}")
    print(f"dof_velocity   {d_u}")
    print(f"dof_pressure   {d_q}")
    print(f"eq_num_cells   {eq_cells:.6g}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="dualflow",
        description="Structure-preserving dual-field solver for 2D incompressible "
                    "flow and dilute turbidity currents.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, help_ in (
        ("run", _cmd_run, "execute a configured simulation"),
        ("resume", _cmd_resume, "continue a run from a checkpoint"),
        ("check", _cmd_check, "validate a configuration and one startup iteration"),
        ("mesh-info", _cmd_mesh_info, "print mesh statistics and dof counts"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="path to the run configuration file")
        sp.add_argument("--output-dir", help="override output.dir from the configuration")
        if name == "resume":
            sp.add_argument("--checkpoint", required=True, help="checkpoint file to restore")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MeshError, UnsupportedElementError, SolverError, StartupError,
            CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
