"""Command-line experiment driver.

Subcommands wrap the library modules: graph generation and certification,
simulation, steady-state estimation, coupled runs, mean-field integration,
trajectory comparison, and canned experiment recipes. The parser declares
each run: every output CSV starts with a '#'-metadata block that `_metadata`
derives from the parsed flags (the command, then each flag the command
reads, in parser order, as flag text, with the value a run resolved for a
flag left None), so a result file is reproducible from its own header. A
recipe declares the flags it reads in `RECIPES`; any other is refused.

Exit codes: 0 success, 1 usage or bad parameters, 2 runtime invariant
violation (coupling margin, policy normalization), 3 I/O or file format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import graph as graphs
from . import meanfield, properties, simulator
from .graph import GraphFormatError, GraphGenerationError, GraphSpec
from .records import (
    TrajectoryFormatError,
    check_compatible_metadata,
    compare_trajectories,
    level_columns,
    read_trajectory_csv,
    trajectory_rows,
    write_coupled_csv,
    write_steady_csv,
    write_table,
    write_trajectory_csv,
)
from .simulator import InvariantViolation, ServiceDistribution


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefix matching: `--seed 9` is not `--seeds 9`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would sys.exit(2); we own exit codes
        raise CliUsageError(message)


def _int_list(text: str) -> list[int]:
    """Comma-separated ints; 'a..b' tokens expand to inclusive ranges.
    An empty list or a reversed range is a usage error."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = (int(x) for x in token.split("..", 1))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"reversed range {token!r}")
            out.extend(range(lo, hi + 1))
        elif token:
            out.append(int(token))
    return _nonempty(out, text)


def _float_list(text: str) -> list[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok.strip()], text)


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


_NAMES = {"lam": "lambda"}  # argparse dest -> its name in headers and config files
# parsed values that are no flag of the run (--out only says where it goes)
_NOT_FLAGS = {"command", "recipe", "func", "config", "out"}


def _flag_kwargs(args, **resolved) -> dict:
    """The run's flags in parser order, with `resolved` replacing values;
    simulate, steady and coupled pass them on as the keyword arguments of
    their library call, so each of their dests is named after a parameter."""
    return {k: v for k, v in {**vars(args), **resolved}.items() if k not in _NOT_FLAGS}


def _metadata(args, **resolved) -> dict:
    """The '#' header of a CSV run: the command, then every flag the command
    reads in parser order, as flag text (`_flag_text`). A flag left unset
    (None, or a switch left off) is skipped unless `resolved` gives the
    value the run used for it."""
    meta = {"command": " ".join(filter(None, (args.command, getattr(args, "recipe", None))))}
    for key, value in _flag_kwargs(args, **resolved).items():
        if value is not None and value is not False:
            meta[_NAMES.get(key, key)] = _flag_text(value)
    return meta


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    # --n, --m and --seed default to None so that a set one shows; unset, they are 6, N and 0
    reads = graphs.READS[args.kind]
    unread = [key for key in ("n", "m", "c", "p", "radius", "seed") if key not in reads and vars(args)[key] is not None]
    if unread:
        raise ValueError(f"a {args.kind} graph does not read {', '.join(unread)}")
    n = 6 if args.n is None else args.n
    g = GraphSpec(**_flag_kwargs(args, n=n, m=n if args.m is None else args.m, seed=args.seed or 0)).build()
    graphs.write_graph(g, args.out)
    retries = g.meta.get("retries", 0)
    print(
        f"wrote {args.out}: N={g.n_servers} M={g.n_dispatchers} E={g.n_edges} "
        f"connected={g.is_connected} retries={retries}"
    )
    return 0


def cmd_check(args) -> int:
    g = graphs.read_graph(args.graph)
    uniform, argmax = properties.uniform_subcriticality_metric(g)
    opt = gsz = None
    if args.optimal:
        report = properties.optimal_subcriticality_load(g, args.d)
        opt, gsz = f"{report.optimal_load:.6f}", report.gamma_support_size
    rows = []
    for eps in args.epsilons:
        rep = properties.sparsity_deficiency(
            g, eps, mode=args.mode, budget=args.budget, seed=args.seed
        )
        rows.append(
            (eps, rep.deficiency, rep.mode, rep.subsets_probed, len(rep.witness_subset),
             uniform, argmax, opt, gsz)
        )
    header = ["epsilon", "deficiency", "mode", "subsets_probed", "witness_size",
              "uniform_metric", "argmax_server", "optimal_load", "gamma_support_size"]
    write_table(args.out, _metadata(args), header, rows)
    print(f"wrote {args.out}: uniform_metric={uniform:.6f}" + (f" optimal_load={opt}" if opt else ""))
    return 0


def cmd_simulate(args) -> int:
    record = simulator.simulate(**_flag_kwargs(args, graph=graphs.read_graph(args.graph)))
    write_trajectory_csv(record, args.out, _metadata(args))
    print(
        f"wrote {args.out}: events={record.event_count} arrivals={record.arrival_count} "
        f"departures={record.departure_count}"
    )
    return 0


def cmd_steady(args) -> int:
    summary = simulator.steady_state(**_flag_kwargs(args, graph=graphs.read_graph(args.graph)))
    write_steady_csv(summary, args.out, _metadata(args, warmup=summary.config["warmup"]))
    print(f"wrote {args.out}: mean_qlen={summary.mean_qlen:.6f} +- {summary.mean_qlen_stderr:.6f}")
    return 0


def cmd_coupled(args) -> int:
    coupled = simulator.coupled_simulate(**_flag_kwargs(args, graph=graphs.read_graph(args.graph)))
    write_coupled_csv(coupled, args.out, _metadata(args))
    frac = coupled.mismatch_count / max(1, coupled.arrival_count)
    print(
        f"wrote {args.out}: events={coupled.event_count} delta={coupled.mismatch_count} "
        f"mismatch_fraction={frac:.4f} margin_min={coupled.margin_min}"
    )
    return 0


def cmd_ode(args) -> int:
    depth = args.depth if args.depth is not None else meanfield.default_depth(args.lam, args.d)
    if args.start == "empty":
        q0 = meanfield.empty_occupancy(depth)
    else:  # argparse limits --start to empty / fixed-point
        q0 = meanfield.fixed_point(args.lam, args.d, depth)
    result = meanfield.integrate_ode(
        args.lam,
        q0,
        args.horizon,
        depth=depth,
        d=args.d,
        step=args.step,
        sample_interval=args.sample_interval,
    )
    write_trajectory_csv(result.record, args.out, _metadata(args, depth=depth))
    print(f"wrote {args.out}: steps={result.steps_taken} rejected={result.steps_rejected}")
    return 0


def cmd_compare(args) -> int:
    rec_a, meta_a = read_trajectory_csv(args.a)
    rec_b, meta_b = read_trajectory_csv(args.b)
    check_compatible_metadata(meta_a, meta_b)
    sup, l1 = compare_trajectories(rec_a, rec_b, levels=args.levels)
    print(f"sup_distance={sup:.8f} l1_distance={l1:.8f}")
    return 0


def cmd_trend(args) -> int:
    rows = properties.sparsity_trend(
        graphs.FAMILIES[args.family],
        args.epsilons,
        args.sizes,
        args.seeds,
        budget=args.budget,
    )
    header = ["family", "N", "M", "seed", "epsilon", "deficiency_lb", "uniform_metric"]
    write_table(args.out, _metadata(args), header, map(dataclasses.astuple, rows))
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# canned recipes


def _steady_mean(args, family, n, lam, service="exponential") -> tuple[float, float]:
    """Steady-state mean queue length on the member of size n of the named family."""
    summary = simulator.steady_state(
        graphs.FAMILIES[family].build(n, args.seed), args.d, lam,
        warmup=50.0, measure=100.0, replicas=3, service=service, seed=args.seed,
    )
    return summary.mean_qlen, summary.mean_qlen_stderr


def _fixed_point_mean_qlen(lam: float, d: int) -> float:
    q = meanfield.fixed_point(lam, d, meanfield.default_depth(lam, d))
    return float(q[1:].sum())


def _six_places(*values: float) -> tuple[str, ...]:
    return tuple(f"{v:.6f}" for v in values)


def _erg_trajectories(args, meta):
    def rows():
        for n in args.sizes:
            g = graphs.FAMILIES["errg-log2"].build(n, args.seed)
            rec = simulator.simulate(
                g, args.d, args.lam, args.horizon, seed=args.seed, depth=args.depth,
                allow_disconnected=True,
            )
            yield from ((f"sim-N{n}", *row) for row in trajectory_rows(rec))
        q0 = meanfield.empty_occupancy(args.depth)
        ode = meanfield.integrate_ode(args.lam, q0, args.horizon, depth=args.depth, d=args.d)
        yield from (("ode", *row) for row in trajectory_rows(ode.record))

    return ["source", "t", *level_columns(args.depth), "overflow"], rows()


def _family_sweep(args, meta, families):
    """Steady-state mean queue length per (family, N) against the fixed point;
    `families` are names in graph.FAMILIES."""
    meta["target"] = f"{_fixed_point_mean_qlen(args.lam, args.d):.6f}"
    rows = (
        (family, n, *_six_places(*_steady_mean(args, family, n, args.lam)))
        for family in families
        for n in args.sizes
    )
    return ["family", "N", "mean_qlen", "stderr"], rows


def _degree_sweep(args, meta):
    return _family_sweep(args, meta, ("fixed-degree-4", "fixed-degree-log", "fixed-degree-log2"))


def _geometric_vs_errg(args, meta):
    header, rows = _family_sweep(args, meta, ("errg-log2", "geometric-log2"))
    return [*header, "target"], ((*row, meta["target"]) for row in rows)


def _lambda_sweep(args, meta):
    def rows():
        for lam in args.lambdas:
            target = _fixed_point_mean_qlen(lam, args.d)
            for n in args.sizes:
                mean, se = _steady_mean(args, "errg-log2", n, lam)
                yield (str(lam), n, *_six_places(mean, se, target, abs(mean - target)))

    return ["lambda", "N", "mean_qlen", "stderr", "target", "gap"], rows()


def _service_sweep(args, meta):
    rows = (
        (kind, n, *_six_places(*_steady_mean(args, "errg-log2", n, args.lam, kind)))
        for kind in ServiceDistribution.KINDS
        for n in args.sizes
    )
    return ["service", "N", "mean_qlen", "stderr"], rows


# Each recipe is (function, defaults of the flags it reads besides --d and
# --seed, which every recipe reads). The function takes (args, meta), may
# add a computed `target` to meta, and returns (header, rows); rows may be
# lazy because write_table consumes them first.
RECIPES = {
    "erg-trajectories": (
        _erg_trajectories, {"sizes": [100, 1000], "lam": 0.8, "horizon": 20.0, "depth": 12}
    ),
    "degree-sweep": (_degree_sweep, {"sizes": [250, 1000, 4000], "lam": 0.8}),
    "lambda-sweep": (_lambda_sweep, {"sizes": [250, 1000, 4000], "lambdas": [0.5, 0.65, 0.8]}),
    "service-sweep": (_service_sweep, {"sizes": [1000], "lam": 0.8}),
    "geometric-vs-errg": (_geometric_vs_errg, {"sizes": [250, 1000], "lam": 0.8}),
}


def _resolve_recipe(args):
    """The recipe's function, with its declared defaults filled into the
    flags left unset; a usage error names any set flag it does not read."""
    run, defaults = RECIPES[args.recipe]
    declared = {key for _, flags in RECIPES.values() for key in flags}
    unread = sorted(
        f"--{_NAMES.get(k, k)}" for k in declared - defaults.keys() if getattr(args, k) is not None
    )
    if unread:
        raise CliUsageError(f"reproduce {args.recipe} does not read {', '.join(unread)}")
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return run


def cmd_reproduce(args) -> int:
    run = _resolve_recipe(args)
    out = args.out or f"{args.recipe}.csv"
    meta = _metadata(args)
    header, rows = run(args, meta)
    write_table(out, meta, header, rows)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, *, seed=True, graph_input=False, sim_params=False):
    sub.add_argument("--config", help="JSON file with defaults for this command's flags")
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if graph_input:
        sub.add_argument("--graph", required=True, help="path to a BPG v1 graph file")
    if sim_params:
        sub.add_argument("--d", type=int, default=2)
        sub.add_argument("--lambda", dest="lam", type=float, default=0.8)
        sub.add_argument("--depth", type=int, default=simulator.DEFAULT_DEPTH)
        sub.add_argument("--allow-disconnected", action="store_true")


def build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="sparselb", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a compatibility graph file")
    p.add_argument("--kind", required=True, choices=graphs.KINDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--out", required=True)
    _add_common(p, seed=False)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("check", help="certify sparsity and load conditions")
    _add_common(p, graph_input=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--epsilons", type=_float_list, default=[0.1])
    p.add_argument("--mode", choices=["exact", "sampled"], default="sampled")
    p.add_argument("--budget", type=int, default=2048)
    p.add_argument("--optimal", action="store_true", help="also solve the exact min-max load")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("simulate", help="run one trajectory")
    _add_common(p, graph_input=True, sim_params=True)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--service", choices=ServiceDistribution.KINDS, default="exponential")
    p.add_argument("--sample-interval", dest="sample_interval", type=float, default=0.1)
    p.add_argument("--allow-overload", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("steady", help="estimate steady-state occupancy")
    _add_common(p, graph_input=True, sim_params=True)
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--measure", type=float, default=200.0)
    p.add_argument("--replicas", type=int, default=8)
    p.add_argument("--service", choices=ServiceDistribution.KINDS, default="exponential")
    p.add_argument("--allow-overload", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_steady)

    p = subs.add_parser("coupled", help="coupled run against the fully flexible twin")
    _add_common(p, graph_input=True, sim_params=True)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--sample-interval", dest="sample_interval", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coupled)

    p = subs.add_parser("ode", help="integrate the mean-field occupancy ODE")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=float, default=0.8)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--sample-interval", dest="sample_interval", type=float, default=0.1)
    p.add_argument("--start", choices=["empty", "fixed-point"], default="empty")
    p.add_argument("--out", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_ode)

    p = subs.add_parser("compare", help="sup and l1 distance between two trajectory CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--levels", type=int, default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("trend", help="sparsity/load metrics across a size sweep")
    p.add_argument("--family", required=True, choices=sorted(graphs.FAMILIES))
    p.add_argument("--sizes", type=_int_list, default=[250, 1000])
    p.add_argument("--seeds", type=_int_list, default=list(range(10)))
    p.add_argument("--epsilons", type=_float_list, default=[0.1])
    p.add_argument("--budget", type=int, default=256)
    p.add_argument("--out", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_trend)

    p = subs.add_parser("reproduce", help="canned experiment recipes")
    p.add_argument("recipe", choices=sorted(RECIPES))
    p.add_argument("--sizes", type=_int_list)
    p.add_argument("--lambdas", type=_float_list)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--depth", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser, subs.choices


def _config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """Defaults for the optional flags of the command `sub` from a JSON
    object; "lambda" sets --lambda. Any other key is refused: a positional
    argument, a required flag (`--graph`, `check --out`) and `--config`.

    A number or a list becomes the text a flag would carry (a list joined
    by commas), so argparse checks it with the flag's own type, such as
    `_int_list`; null and strings pass through. A switch takes only true
    or false.
    """
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise CliUsageError(f"{path}: config must be a JSON object")
    valid = {a.dest for a in sub._actions if a.option_strings and not a.required} - {"help", "config"}
    renamed = {name: dest for dest, name in _NAMES.items()}
    dest = {key: renamed.get(key, key.replace("-", "_")) for key in overrides}
    unknown = sorted(key for key in overrides if dest[key] not in valid)
    if unknown:
        names = sorted(_NAMES.get(key, key) for key in valid)
        raise CliUsageError(f"unknown config key(s) {unknown}; valid keys: {names}")
    for key, value in overrides.items():
        if isinstance(sub.get_default(dest[key]), bool) and not isinstance(value, bool):
            raise CliUsageError(f"config key {key!r} takes true or false, not {value!r}")
    return {dest[key]: _flag_text(value) for key, value in overrides.items()}


def _flag_text(value):
    if isinstance(value, list):
        return ",".join(map(str, value))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            sub = subparsers[args.command]
            sub.set_defaults(**_config_defaults(args.config, sub))
            args = parser.parse_args(argv)  # explicit flags still win
        return args.func(args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, TrajectoryFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, GraphGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
