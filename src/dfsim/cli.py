"""Command-line interface.

Subcommands:
  run         sweep signals over the error grid and write a CSV/JSON table
  verify      run the invariant suite; nonzero exit on any failure
  show-basis  print the four decoherence-free subspace bases
  count-n     print the per-point damage audit for each mode and step

Exit codes: 0 success, 1 invariant failure, 2 invalid configuration.  A
reader that closes stdout early (``dfsim count-n | head -2``) ends the
command quietly with 141, the status of a process stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import compress

from . import dfs, harness, qcore


#: Every option: its dest (the config key it sets, except "config"), flag and
#: argparse keywords.
_OPTIONS = {
    "config": ("--config", {"help": "flat key=value config file (flags win)"}),
    "e_grid": ("--e-grid", {"help": "comma-separated e values in [0, 0.5]"}),
    "shots": ("--shots", {"help": "Monte-Carlo shots per cell (default 2048)"}),
    "seed": ("--seed", {"help": "integer seed, or 'random' for fresh entropy"}),
    "modes": ("--mode", {"help": "comma-separated subset of protected,unprotected (or 'both')"}),
    "algorithm": ("--algorithm", {"help": "grover or deutsch-jozsa (default grover)"}),
    "placement": ("--placement", {"help": "comma-separated decoherence-point boundaries"}),
    "output": ("--output", {"help": "result file path"}),
    "format": ("--format", {"help": "output format, csv or json (default csv)"}),
}


#: 128 + SIGPIPE: the status a shell reports for a writer whose reader left.
_EXIT_BROKEN_PIPE = 141


def _build_config(args: argparse.Namespace) -> harness.SweepConfig:
    """The --config file's settings, overridden by the flags the command took."""
    mapping: dict[str, object] = harness.load_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key in _OPTIONS and key != "config" and value is not None:
            mapping[key] = value
    seed = mapping.get("seed")
    if isinstance(seed, str) and seed.strip().lower() == "random":
        if hasattr(args, "seed"):
            import secrets  # imported only for --seed random: it adds ~3 ms to a start
            seed = mapping["seed"] = secrets.randbits(63)
            print(f"# seed = {seed} (drawn from system entropy)", file=sys.stderr)
        else:  # a command without --seed reads no seed, so it draws none
            del mapping["seed"]
    return harness.build_config(mapping)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if not cfg.output:
        sys.stdout.writelines(_run_text(cfg))
        return 0
    # opened before the sweep, so an unwritable path fails at once; append
    # mode leaves an existing file whole until the rows are ready
    try:
        fh = open(cfg.output, "a")
    except OSError as exc:
        raise _unwritable(cfg.output, exc) from exc
    with fh:
        text = _run_text(cfg)
        try:
            fh.truncate(0)
            fh.writelines(text)
            fh.flush()
        except OSError as exc:
            raise _unwritable(cfg.output, exc) from exc
    from .readout import steps_for_mode  # loaded with harness: the steps give the row count

    rows = len(cfg.e_grid) * sum(len(steps_for_mode(mode)) for mode in cfg.modes)
    print(f"wrote {rows} rows to {cfg.output}")
    return 0


def _run_text(cfg: harness.SweepConfig) -> list[str]:
    """run's whole table, as the pieces to write: CSV formatted step by step
    from the sweep's columns, JSON from run_sweep's rows.  Nothing is written
    before the last step is formatted, so a sweep that fails writes nothing."""
    if cfg.format == "json":
        return [harness.results_to_json(harness.run_sweep(cfg))]
    return [harness.CSV_HEADER + "\n", *harness.csv_steps(cfg)]


def _unwritable(path: str, exc: OSError) -> harness.ConfigError:
    return harness.ConfigError(f"cannot write output file {path}: {exc}")


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    checks = harness.verify(cfg)
    failed = [c for c in checks if not c.passed]
    if cfg.format == "json":
        # strict JSON has no inf or NaN: the residual of a check that raised
        # or judged a NaN is written as null (that check's passed is false)
        rows = [{**vars(c), "residual": c.residual if math.isfinite(c.residual) else None}
                for c in checks]
        print(json.dumps(rows, indent=2, allow_nan=False))
    else:
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            line = (
                f"{status} {check.name}: residual={check.residual:.3e} "
                f"tolerance={check.tolerance:.3e}"
            )
            if check.detail:
                line += f" ({check.detail})"
            print(line)
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def _cmd_show_basis(args: argparse.Namespace) -> int:
    labels = ("|00>_L", "|01>_L", "|10>_L", "|11>_L")
    for i in (1, 2, 3, 4):
        basis = dfs.dfs_basis(i)
        s1, s2, s3 = basis.signature
        print(f"subspace {i}: eigenvalues XXII={s1:+d} IIXX={s2:+d} XXXX={s3:+d}")
        for col, label in enumerate(labels):
            terms = []
            for ket in range(16):
                amp = basis.vectors[ket, col].real
                if abs(amp) > 1e-12:
                    sign = "+" if amp > 0 else "-"
                    terms.append(f"{sign} |{ket:04b}>")
            joined = " ".join(terms).lstrip("+ ")
            print(f"  {label} = ( {joined} ) / 2")
        print()
    return 0


def _cmd_count_n(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    letters = [p.letters for p in qcore.pauli_basis_strings()]
    for _, plan, steps, _, (present, damaging), _ in harness.mode_stacks(cfg):
        for step, words, flags in zip(steps, present, damaging):
            print(f"mode={plan.mode} step={step.label}: n = {flags.sum()}")
            for point, boundary in enumerate(plan.decoherence_points):
                print(
                    f"  point {point} (boundary {boundary}): "
                    f"state {'+'.join(compress(letters, words[point]))}, "
                    f"damaging operators {flags[point].sum()}"
                )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dfsim",
        description=(
            "Density-matrix simulator for two logical qubits stored in four "
            "physical qubits, protected from engineered paired-flip noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = tuple(_OPTIONS)
    no_output = tuple(o for o in every if o != "output")
    for name, func, text, options in (
        ("run", _cmd_run, "sweep signals over the error grid", every),
        ("verify", _cmd_verify, "run the invariant suite", no_output),
        ("show-basis", _cmd_show_basis, "print the four subspace bases", ()),
        ("count-n", _cmd_count_n, "print the damage-count audit",
         ("config", "modes", "algorithm", "placement")),
    ):
        p = sub.add_parser(name, help=text)
        for dest in options:
            flag, kwargs = _OPTIONS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return status
    except BrokenPipeError:
        # stdout is gone: send what is still buffered to devnull, so the flush
        # at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except (harness.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
