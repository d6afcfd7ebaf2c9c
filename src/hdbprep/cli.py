"""Command-line interface.

Subcommands mirror the step-by-step preparation workflow: `identify`,
`recode-income` and `aggregate` select one stage's outputs from the
pipeline's single pass, `run` selects all of them, and `synth` generates a
test database in the same layout. Every flag but --config and --out-dir
sets the config key it mirrors: it is read and checked like the file's
value, and wins over it.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import HdbError
from .model import _SPELLINGS, AgeEncoding, GenderEncoding, IncomeMode, ScaleKind
from .pipeline import (
    AGGREGATE_OUTPUTS,
    PipelineConfig,
    _run,
    _write_staged,
    load_config,
    run_identify,
    run_pipeline,
)

if TYPE_CHECKING:
    from .synth import SynthParams


def _written(enum: type) -> dict:
    """The spelling a written config uses for each member of ``enum``, which
    is also the flag's choice for it."""
    spellings, _ = _SPELLINGS[enum]
    return {member: names[0] for member, names in spellings.items()}


def _config_flags() -> argparse.ArgumentParser:
    """The flags of the processing commands, as a parent parser that each
    of them takes them from; a flag's dest names the config key it sets,
    as "section.option"."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", required=True, type=Path,
                        help="INI config file; relative paths resolve next to it")
    parser.add_argument("--out-dir", type=Path,
                        help="directory for outputs (default: the input directory)")
    parser.add_argument("--skip-header", dest="input.skip_header", type=int, metavar="N",
                        help="input lines to skip before data")
    parser.add_argument("--scheme", dest="identify.scheme", metavar="LETTERS",
                        help="prefix letters of the canonical key, e.g. RMCH or DMCH")
    parser.add_argument("--paper-literal", dest="income.paper_literal", action="store_true",
                        help="legacy income table verbatim: F recodes to 115000 "
                             "and unknown letters to 0")
    parser.add_argument("--paper-sentinel", dest="output.paper_sentinel", action="store_true",
                        help="emit the legacy 0.99 weight for unparseable members "
                             "instead of stopping with an error")
    parser.add_argument("--sort", dest="output.sort", action="store_true",
                        help="group members by household in line order, households in key order")
    parser.add_argument("--dmp-c", dest="scales.dmp_c", type=float, metavar="C",
                        help="DMP child discount, in [0,1]")
    parser.add_argument("--dmp-s", dest="scales.dmp_s", type=float, metavar="S",
                        help="DMP economies-of-scale exponent, in [0,1]")
    parser.add_argument("--scale", dest="scales.scaled_by",
                        choices=list(_written(ScaleKind).values()),
                        help="which scale divides total income in households.csv")
    return parser


def _configure(args: argparse.Namespace) -> PipelineConfig:
    # each given flag's text replaces the value of the key its dest names
    overrides = {
        tuple(dest.split(".")): str(value)
        for dest, value in vars(args).items()
        if "." in dest and value is not None and value is not False
    }
    # a DMP parameter turns the DMP scale on
    if {("scales", "dmp_c"), ("scales", "dmp_s")} & overrides.keys():
        overrides["scales", "dmp"] = "true"
    config = load_config(args.config, overrides)
    # --out-dir is no config key: it is relative to the working directory
    return config if args.out_dir is None else config._replace(out_dir=args.out_dir)


def _cmd_process(args: argparse.Namespace) -> int:
    """A processing command: the pass with the output selection its
    subparser sets, read from this module when `main` builds the parser."""
    extra = {"only": args.only} if args.command == "aggregate" else {}
    print(args.run(_configure(args), **extra).render())
    return 0


def _synth_config(params: SynthParams) -> configparser.ConfigParser:
    """The ready-to-run config that synth writes next to the generated
    files."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["input"] = {"mode": "columns", "dir": "."}
    if params.income_mode is not IncomeMode.NONE:
        default = PipelineConfig(income_mode=params.income_mode)
        parser["input"]["income"] = default.effective_income_file
    parser["identify"] = {"scheme": "".join(params.scheme_letters)}
    parser["variables"] = {
        "age_encoding": _written(AgeEncoding)[params.age_encoding],
        "gender_encoding": _written(GenderEncoding)[params.gender_encoding],
    }
    parser["income"] = {"mode": _written(IncomeMode)[params.income_mode]}
    parser["scales"] = {
        "oxford": "true",
        "faofam": "true",
        "dmp": "true",
        "dmp_c": repr(params.dmp_c),
        "dmp_s": repr(params.dmp_s),
        "scaled_by": _written(ScaleKind)[params.scaled_by],
    }
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    # the generator is imported here alone, so the other commands start faster
    from .synth import SynthParams, _column_writers, _write_persons_table, generate

    params = SynthParams(
        n_households=args.households,
        seed=args.seed,
        n_regions=args.regions,
        max_milieux=args.max_milieux,
        max_clusters=args.max_clusters,
        max_households_per_cluster=args.max_per_cluster,
        max_household_size=args.max_size,
        age_encoding=AgeEncoding.from_config(args.age_encoding),
        gender_encoding=GenderEncoding.from_config(args.gender_encoding),
        income_mode=IncomeMode.from_config(args.income),
        renumber_households=args.renumber,
        anomalies=args.anomalies,
    )
    result = generate(params)
    # one staged write: a failed synth changes no file
    writes = _column_writers(result)
    if args.table:
        writes.append(("persons.csv", partial(_write_persons_table, result, ",")))
    writes.append(("config.ini", _synth_config(params).write))
    paths = _write_staged(Path(args.out_dir), writes)
    print(f"persons: {len(result.persons)}")
    print(f"households: {len(result.ground_truth)}")
    for path in paths:
        print(f"wrote: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdbprep",
        description="Prepare household survey microdata: canonical household "
                    "keys, adult-equivalence scales, income recoding and "
                    "streaming household-level aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_flags = [_config_flags()]

    p = sub.add_parser("identify", parents=config_flags,
                       help="write one canonical household key per person")
    p.set_defaults(handler=_cmd_process, run=run_identify)

    p = sub.add_parser("recode-income", parents=config_flags,
                       help="recode letter-coded incomes to bracket amounts")
    p.set_defaults(handler=_cmd_process, run=partial(_run, amounts=True))

    p = sub.add_parser("aggregate", parents=config_flags,
                       help="write per-household statistic files")
    p.add_argument("--only", nargs="+", choices=AGGREGATE_OUTPUTS, metavar="WHAT",
                   help="write only these outputs "
                        f"(any of: {', '.join(AGGREGATE_OUTPUTS)})")
    p.set_defaults(handler=_cmd_process, run=partial(_run, files=True))

    p = sub.add_parser("run", parents=config_flags,
                       help="full pipeline: identify, recode, aggregate, combined table")
    p.set_defaults(handler=_cmd_process, run=run_pipeline)

    p = sub.add_parser("synth", help="generate a synthetic database with a "
                                     "ready-to-run config")
    p.add_argument("--seed", type=int, required=True, help="RNG seed; fixes all bytes")
    p.add_argument("--households", type=int, required=True, metavar="K",
                   help="number of households to generate")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--regions", type=int, default=4)
    p.add_argument("--max-milieux", type=int, default=3)
    p.add_argument("--max-clusters", type=int, default=4)
    p.add_argument("--max-per-cluster", type=int, default=6)
    p.add_argument("--max-size", type=int, default=9,
                   help="largest household size to draw")
    p.add_argument("--age-encoding", choices=list(_written(AgeEncoding).values()),
                   default="years")
    p.add_argument("--gender-encoding", choices=list(_written(GenderEncoding).values()),
                   default="male1_female2")
    p.add_argument("--income", choices=list(_written(IncomeMode).values()),
                   default="letters")
    p.add_argument("--renumber", action="store_true",
                   help="restart household numbering inside each cluster "
                        "(default: one continuous sequence)")
    p.add_argument("--anomalies", action="store_true",
                   help="inject a no-chief household, a two-chief household "
                        "and a dirty region token")
    p.add_argument("--table", action="store_true",
                   help="also write persons.csv, a single delimited table")
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HdbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> int:
    """The `hdbprep` process: `main` on the command line, after moving the
    objects its imports made out of the cyclic garbage collector and turning
    the collector off, since the pass makes no reference cycles for it to
    free. `main` called in a longer-lived process leaves it as it was."""
    gc.freeze()
    gc.disable()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
