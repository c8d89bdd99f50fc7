"""Command-line entry point.

Subcommands: decode, bound {pairwise,averaged,union-sum,union-closed,mgf},
conditions, mc {pairwise,recover}, sweep, verify.  Indices are 1-based at
this boundary (and 0-based everywhere inside the library).  All outputs are
deterministic given the config and seed: JSON is emitted with sorted keys,
CSV with a fixed documented header.  ``--workers`` is accepted and validated
but changes neither output nor speed: trials always run serially.

The parser is built once per process, on the first ``main`` call, and is never
mutated afterwards, so ``main`` can be called any number of times in one
process.  ``--config PATH`` is replayed as flag tokens (``--flag=value``)
placed after the command words and before the explicit flags: each config
value goes through its flag's own type and choices, satisfies required flags,
and loses to an explicit flag.  A repeated ``--config`` is rejected, and a
config value its flag rejects is reported with the config's path.  So is a
check made after parsing that fails (``need n > k, got n=2, k=3``) when any
value it compares came from the config; the same values typed as flags keep
the plain message.  Such checks cover the instance's supports, signal values
and design size, ``--t``, the candidate budget and the ``bound`` hypotheses,
each naming only the values it compares.  ``sweep`` without
``--design-mode`` takes the mode from ``--target`` (fixed for pairwise, fresh
for recovery).  Finite inputs whose result overflows double precision are a
usage error: the library names the quantity that overflowed, so no numpy
warning precedes the diagnostic, and a record that would still hold an
infinity or NaN is rejected naming the field.

Exit codes: 0 success, 1 check/assertion failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import dataclasses
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import bounds, montecarlo, rng
from .decoder import DEFAULT_CANDIDATE_BUDGET, decode_exhaustive
from .errors import SupportLabError, ValidationError
from .model import (
    DesignMatrix,
    ProblemInstance,
    SparseSignal,
    flat_signal,
    gaussian_design,
    make_pattern,
    pattern_difference,
    synthesize_observation,
)
from .verify import DEFAULT_VERIFY_SEED, run_all

MC_CSV_HEADER = [
    "target", "design_mode", "n", "p", "k", "beta_min", "d", "seed", "level",
    "trials", "errors", "rate", "wilson_low", "wilson_high", "bound",
    "dominated", "error",
]

CONDITIONS_CSV_HEADER = [
    "p", "k", "beta_min_sq", "convexity_ok", "sufficient_n", "necessary_n",
    "gap_ratio", "error",
]

REGIME_CSV_HEADER = [
    "regime", "p", "k", "beta_min_sq", "sufficient_n", "necessary_n",
    "predictor", "sufficient_ratio", "necessary_ratio", "error",
]


def one_based(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def parse_index_list(text: str) -> list[int]:
    """Comma-separated 1-based indices -> 0-based list."""
    items = [s for s in text.replace(" ", "").split(",") if s]
    out = []
    for s in items:
        i = checked_int(s)
        if i < 1:
            raise SupportLabError(f"indices at the CLI are 1-based; got {i}")
        out.append(i - 1)
    return out


def finite_float(text: str) -> float:
    """The one float parser at this boundary: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text!r}")
    return value


def checked_int(text: str) -> int:
    """The one integer parser at this boundary: an integer literal, or a
    finite number with an integral value ("8.0", "1e3"); "8.7" is rejected."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():  # also false for NaN and infinities
        raise ValidationError(f"expected an integer, got {text!r}")
    return int(value)


def parse_float_list(text: str) -> list[float]:
    return [finite_float(s) for s in text.replace(" ", "").split(",") if s]


def parse_int_list(text: str) -> list[int]:
    return [checked_int(s) for s in text.replace(" ", "").split(",") if s]


class _reading:
    """Names ``dests`` as the values compared by a check that fails inside the
    ``with`` block, unless its error already names them.  A class, not a
    generator: it runs on every op that reads a seed or an index list."""

    def __init__(self, *dests: str):
        self.dests = dests

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, SupportLabError) and not exc.params:
            exc.params = self.dests


def _parsed(args, dest: str, parse):
    """``parse`` applied to the text of flag ``dest``."""
    with _reading(dest):
        return parse(getattr(args, dest))


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _read_json(path: str):
    """Parse a JSON input file; a missing, unreadable or malformed file, or a
    non-finite number in it, is a usage error naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=finite_float, parse_constant=finite_float)
    except (OSError, ValueError) as exc:
        raise SupportLabError(f"cannot read {path}: {exc}") from None


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _emit_table(args, header: list[str], rows: list[list]) -> None:
    """Tabular results are CSV by default; --format json yields row records."""
    if getattr(args, "format", None) == "json":
        records = [dict(zip(header, row)) for row in rows]
        _write_text(args.out, _json_text({"rows": records}))
    else:
        _write_text(args.out, _csv_text(header, rows))


def _emit_record(args, record: dict) -> None:
    """Structured results are JSON by default; --format csv yields one row.
    A non-finite float is rejected before either format is written."""
    for key in sorted(record):
        if isinstance(record[key], float) and not math.isfinite(record[key]):
            raise SupportLabError(f"{key} is {record[key]}: the inputs overflow double precision")
    if getattr(args, "format", None) == "csv":
        header = sorted(record)
        _write_text(args.out, _csv_text(header, [[record[k] for k in header]]))
    else:
        _write_text(args.out, _json_text(record))


def _k_indices(args, dest: str) -> list[int]:
    """The 0-based indices of index-list flag ``dest``, which must number k."""
    indices = _parsed(args, dest, parse_index_list)
    if len(indices) != args.k:
        raise ValidationError(f"--{dest} has {len(indices)} indices, need k={args.k}",
                              params=(dest, "k"))
    return indices


def _instance_parts(args) -> tuple:
    """``(design, signal, T, F)`` from the instance flags: the seeded design,
    the signal on the true support T and, for a command with ``--wrong``, the
    candidate F (else None).  Each step names the flags it reads."""
    with _reading("support", "k", "p"):
        t_patt = make_pattern(_k_indices(args, "support") if args.support else range(args.k),
                              args.p)
    f_patt = None
    if getattr(args, "wrong", None):
        with _reading("wrong", "k", "p"):
            f_patt = make_pattern(_k_indices(args, "wrong"), args.p)
    with _reading("beta", "beta_min"):
        if args.beta:
            values = np.array(_parsed(args, "beta", parse_float_list))
            signal = SparseSignal(pattern=t_patt, values=values)
        else:
            signal = flat_signal(t_patt, args.beta_min)
    with _reading("n", "p"):
        design = gaussian_design(args.n, args.p, args.seed)
    return design, signal, t_patt, f_patt


def save_instance(path: str, instance: ProblemInstance) -> None:
    """Write an instance as JSON (1-based support), readable by ``load_instance``."""
    record = {
        "design": instance.design.entries.tolist(),
        "support": one_based(instance.true_pattern.indices),
        "values": instance.signal.values.tolist(),
        "observation": instance.observation.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(record))


def load_instance(path: str) -> ProblemInstance:
    record = _read_json(path)
    try:
        design = DesignMatrix(entries=np.array(record["design"], dtype=float))
        support = make_pattern([i - 1 for i in record["support"]], design.p)
        signal = SparseSignal(pattern=support, values=np.array(record["values"], dtype=float))
        return ProblemInstance(
            design=design, signal=signal,
            observation=np.array(record["observation"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SupportLabError(f"malformed instance {path}: {exc!r}") from None


# ----------------------------------------------------------------- commands


def cmd_decode(args) -> int:
    if args.instance:
        instance = load_instance(args.instance)
    else:
        design, signal, _, _ = _instance_parts(args)
        y = synthesize_observation(design, signal, args.seed, noiseless=args.noiseless)
        instance = ProblemInstance(design=design, signal=signal, observation=y)
    if args.save_instance:
        save_instance(args.save_instance, instance)
    # A loaded instance's p and k come from its file, not from flags.
    compared = ("cap_candidates",) if args.instance else ("cap_candidates", "p", "k")
    with _reading(*compared):
        result = decode_exhaustive(instance, max_candidates=args.cap_candidates)
    record = {
        "declared_support": one_based(result.pattern.indices),
        "score": result.score,
        # No runner-up exists when p == k; JSON has no infinity.
        "runner_up_score": (
            result.runner_up_score if math.isfinite(result.runner_up_score) else None
        ),
        "candidates_scored": result.candidates_scored,
        "true_support": one_based(instance.true_pattern.indices),
        "recovered": result.pattern.indices == instance.true_pattern.indices,
        "n": instance.n,
        "p": instance.p,
        "k": instance.k,
    }
    _emit_record(args, record)
    return 0


def _bound_record(report: bounds.BoundReport, extra: dict) -> dict:
    record = {
        "log_bound": report.log_bound,
        "probability": report.probability,
        "d": report.d,
        "projection_energy": report.projection_energy,
    }
    record.update(extra)
    return record


def cmd_bound_pairwise(args) -> int:
    design, signal, t_patt, f_patt = _instance_parts(args)
    report = bounds.pairwise_conditional_bound(design, signal, t_patt, f_patt)
    if report.d == 0:
        print("warning: F equals the true support; the bound is vacuous", file=sys.stderr)
    _emit_record(args, _bound_record(report, {
        "kind": "pairwise", "n": args.n, "p": args.p, "k": args.k, "seed": args.seed,
    }))
    return 0


def cmd_bound_averaged(args) -> int:
    report = bounds.averaged_pairwise_bound(args.n, args.k, args.d, args.miss_energy)
    _emit_record(args, _bound_record(report, {
        "kind": "averaged", "n": args.n, "k": args.k, "miss_energy": args.miss_energy,
    }))
    return 0


def cmd_bound_union_sum(args) -> int:
    report = bounds.union_error_bound_sum(args.n, args.p, args.k, args.beta_min_sq)
    _emit_record(args, _bound_record(report, {
        "kind": "union-sum", "n": args.n, "p": args.p, "k": args.k,
        "beta_min_sq": args.beta_min_sq,
    }))
    return 0


def cmd_bound_union_closed(args) -> int:
    report = bounds.union_error_bound_closed_form(args.n, args.p, args.k, args.beta_min_sq, args.C)
    _emit_record(args, _bound_record(report, {
        "kind": "union-closed", "n": args.n, "p": args.p, "k": args.k,
        "beta_min_sq": args.beta_min_sq, "C": args.C, "B": (args.C - 5.0) / 2.0,
    }))
    return 0


def cmd_bound_mgf(args) -> int:
    design, signal, t_patt, f_patt = _instance_parts(args)
    value = bounds.exact_quadratic_log_mgf(design, signal, t_patt, f_patt, args.t)
    _emit_record(args, {
        "kind": "mgf", "t": args.t, "log_mgf": value,
        "n": args.n, "p": args.p, "k": args.k, "seed": args.seed,
    })
    return 0


def _conditions_grid_rows(args) -> list[list]:
    rows = []
    points = []
    for text in args.point or []:
        parts = text.split(":")
        with _reading("point"):
            if len(parts) != 3:
                raise SupportLabError(f"--point needs p:k:beta_min_sq, got {text!r}")
            points.append((checked_int(parts[0]), checked_int(parts[1]), finite_float(parts[2])))
    for p, k, b2 in points:
        try:
            suff = bounds.sufficient_sample_size(p, k, b2, args.C, variant=args.variant)
            nec = bounds.necessary_sample_size(p, k, b2)
            # The published convexity flag, taken at n = ceil(sufficient threshold).
            ok = bounds.convexity_condition(math.ceil(suff), k, b2)
            rows.append([p, k, b2, ok, suff, nec, suff / nec, ""])
        except SupportLabError as exc:
            rows.append([p, k, b2, "", "", "", "", str(exc)])
    return rows


def cmd_conditions(args) -> int:
    if args.regime:
        p_grid = (_parsed(args, "p_grid", parse_int_list) if args.p_grid
                  else [2**e for e in range(6, 13)])
        rows = []
        ok_rows = 0
        try:
            table = bounds.regime_table(args.regime, p_grid, C=args.C, variant=args.variant)
            for row in table:
                rows.append([args.regime, row.p, row.k, row.beta_min_sq, row.sufficient_n,
                             row.necessary_n, row.predictor, row.sufficient_ratio,
                             row.necessary_ratio, ""])
                ok_rows += 1
        except SupportLabError as exc:
            rows.append([args.regime, "", "", "", "", "", "", "", "", str(exc)])
        _emit_table(args, REGIME_CSV_HEADER, rows)
        return 0 if ok_rows else 2
    if not args.point:
        raise SupportLabError("conditions needs --point p:k:beta_min_sq (repeatable) or --regime")
    rows = _conditions_grid_rows(args)
    _emit_table(args, CONDITIONS_CSV_HEADER, rows)
    return 0 if any(row[-1] == "" for row in rows) else 2


def _spec_from_args(args, target: str) -> montecarlo.ExperimentSpec:
    return montecarlo.ExperimentSpec(
        n=args.n,
        p=args.p,
        k=args.k,
        trials=args.trials,
        master_seed=args.seed,
        target=target,
        design_mode=args.design_mode or ("fresh" if target == "recovery" else "fixed"),
        beta_min=args.beta_min,
        beta_values=tuple(_parsed(args, "beta", parse_float_list)) if args.beta else None,
        true_pattern=tuple(_k_indices(args, "support")) if args.support else None,
        random_true_pattern=getattr(args, "random_support", False),
        wrong_pattern=(tuple(_parsed(args, "wrong", parse_index_list))
                       if getattr(args, "wrong", None) else None),
        noiseless=args.noiseless,
        level=args.level,
    )


def _mc_row(spec: montecarlo.ExperimentSpec, result, error: Optional[str]) -> list:
    d = None
    if spec.target == montecarlo.TARGET_PAIRWISE and spec.wrong_pattern is not None:
        try:
            d = len(pattern_difference(spec.true_support(), spec.wrong_support()))
        except ValidationError:
            pass  # an error row whose patterns are malformed has no deficit
    head = [spec.target, spec.design_mode, spec.n, spec.p, spec.k, spec.beta_min,
            d, spec.master_seed, spec.level, spec.trials]
    if result is None:
        return head + [None] * 6 + [error or ""]
    return head + [result.error_count, result.rate, result.wilson_low, result.wilson_high,
                   result.bound_value, result.wilson_low <= result.bound_value, ""]


def cmd_mc_pairwise(args) -> int:
    spec = _spec_from_args(args, montecarlo.TARGET_PAIRWISE)
    result = montecarlo.run_pairwise(spec)
    _emit_table(args, MC_CSV_HEADER, [_mc_row(spec, result, None)])
    return 0


def cmd_mc_recover(args) -> int:
    spec = _spec_from_args(args, montecarlo.TARGET_RECOVERY)
    with _reading("cap_candidates", "p", "k"):
        result = montecarlo.run_full_recovery(spec, max_candidates=args.cap_candidates)
    _emit_table(args, MC_CSV_HEADER, [_mc_row(spec, result, None)])
    return 0


def cmd_sweep(args) -> int:
    target = args.target
    base = _spec_from_args(args, target)
    with _reading("vary", "values"):
        if args.vary in ("n", "p", "k", "trials"):
            values: list = parse_int_list(args.values)
        elif args.vary == "beta_min":
            values = parse_float_list(args.values)
        else:
            raise SupportLabError(
                f"--vary must be one of n,p,k,trials,beta_min, got {args.vary!r}",
                params=("vary",),
            )
    specs = [dataclasses.replace(base, **{args.vary: v}) for v in values]
    rows = montecarlo.sweep(specs)
    csv_rows = [_mc_row(row.spec, row.result, row.error) for row in rows]
    _emit_table(args, MC_CSV_HEADER, csv_rows)
    return 0


def cmd_verify(args) -> int:
    results = run_all(seed=args.seed, fault_c_sign=args.inject_fault)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failures += 1
        line = f"{status} {res.name}"
        if args.verbose or not res.passed:
            line += f": {res.detail}"
        print(line)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ------------------------------------------------------------------- parser


#: (config path, replayed tokens) while ``_run`` parses a replayed config.
_REPLAYED: contextvars.ContextVar = contextvars.ContextVar("replayed", default=None)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that records each flag as it is added: ``flags``
    maps a dest to its option string and action, which is what replaying a
    config as flag tokens needs to know.  An error about a replayed
    ``--flag=value`` token names the config it came from."""

    def __init__(self, **kwargs):
        self.flags: dict[str, tuple[str, str]] = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        kind = kwargs.get("action", "store")
        if kind != "help":
            self.flags[action.dest] = (action.option_strings[0], kind)
        return action

    def error(self, message):
        path, tokens = _REPLAYED.get() or (None, ())
        for option, eq, value in (tok.partition("=") for tok in tokens):
            # argparse quotes the rejected string with repr in every such message.
            if eq and message.startswith(f"argument {option}:") and repr(value) in message:
                message = f"config {path}: {message}"
                break
        super().error(message)


def _add_common(sp, *, out=True, seed=True, workers=False, cap=False):
    sp.add_argument("--config", help="JSON config file; explicit flags override it")
    sp.add_argument("--emit-config", help="write the resolved parameters as JSON")
    if out:
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=["csv", "json"], default=None,
                        help="override the native format (tables: csv, records: json)")
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    if workers:
        sp.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility (>= 1); trials run serially, "
                             "so it changes neither output nor speed")
    if cap:
        sp.add_argument("--cap-candidates", type=int, default=DEFAULT_CANDIDATE_BUDGET,
                        help="enumeration budget for exhaustive decoding")


def _add_instance_params(sp, wrong=False):
    for flag, default in (("--n", 8), ("--p", 10), ("--k", 2)):
        sp.add_argument(flag, type=int, default=default)
    sp.add_argument("--beta-min", type=finite_float, default=1.0, dest="beta_min")
    sp.add_argument("--beta", help="explicit signal values, comma separated")
    sp.add_argument("--support", help="true support, 1-based comma separated")
    if wrong:
        sp.add_argument("--wrong", required=True, help="candidate support, 1-based")


def _add_trial_params(sp, trials: int, design_mode: Optional[str]) -> None:
    """The Monte Carlo flags, with ``--design-mode`` defaulting to ``design_mode``;
    ``"fresh"``, the one mode full recovery accepts, is set without a flag."""
    sp.add_argument("--trials", type=int, default=trials)
    if design_mode == montecarlo.DESIGN_FRESH:
        sp.set_defaults(design_mode=design_mode)
    else:
        sp.add_argument("--design-mode", choices=["fixed", "fresh"], default=design_mode)
    sp.add_argument("--noiseless", action="store_true")
    sp.add_argument("--level", type=finite_float, default=0.95)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = _Parser(
        prog="supportlab",
        description="Exhaustive sparsity-pattern decoding and bound verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[tuple, _Parser] = {}

    def command(parent, words: tuple, func, help: str, **common) -> _Parser:
        """The parser of command ``words``, with its common flags and ``func``."""
        sp = parent.add_parser(words[-1], help=help)
        _add_common(sp, **common)
        sp.set_defaults(func=func)
        registry[words] = sp
        return sp

    sp = command(subs, ("decode",), cmd_decode, "run the exhaustive decoder on one instance",
                 cap=True)
    _add_instance_params(sp)
    sp.add_argument("--noiseless", action="store_true")
    sp.add_argument("--instance", help="load the instance from a JSON file")
    sp.add_argument("--save-instance", help="also write the generated instance as JSON")

    bound = subs.add_parser("bound", help="evaluate an analytic bound")
    bsubs = bound.add_subparsers(dest="subcommand", required=True)

    sp = command(bsubs, ("bound", "pairwise"), cmd_bound_pairwise,
                 "conditional bound exp(-c g + d/2)")
    _add_instance_params(sp, wrong=True)

    sp = command(bsubs, ("bound", "averaged"), cmd_bound_averaged,
                 "design-averaged pairwise bound", seed=False)
    for flag in ("--n", "--k", "--d"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--miss-energy", type=finite_float, required=True, dest="miss_energy")

    for name, func, help in (
        ("union-sum", cmd_bound_union_sum, "union bound summed over deficits"),
        ("union-closed", cmd_bound_union_closed, "closed-form union bound"),
    ):
        sp = command(bsubs, ("bound", name), func, help, seed=False)
        for flag in ("--n", "--p", "--k"):
            sp.add_argument(flag, type=int, required=True)
        sp.add_argument("--beta-min-sq", type=finite_float, required=True, dest="beta_min_sq")
    registry[("bound", "union-closed")].add_argument("--C", type=finite_float, default=9.0)

    sp = command(bsubs, ("bound", "mgf"), cmd_bound_mgf, "exact log-MGF of the decision statistic")
    _add_instance_params(sp, wrong=True)
    sp.add_argument("--t", type=finite_float, required=True)

    sp = command(subs, ("conditions",), cmd_conditions, "sufficient/necessary sample-size table",
                 seed=False)
    sp.add_argument("--point", action="append", help="p:k:beta_min_sq (repeatable)")
    sp.add_argument("--regime", choices=sorted(bounds.REGIMES),
                    help="Table-style scaling row; expands over --p-grid")
    sp.add_argument("--p-grid", dest="p_grid", help="comma separated p values")
    sp.add_argument("--C", type=finite_float, default=9.0)
    sp.add_argument("--variant", choices=["proof", "statement", "corollary"], default="proof")

    mc = subs.add_parser("mc", help="Monte Carlo error-rate experiments")
    msubs = mc.add_subparsers(dest="subcommand", required=True)

    sp = command(msubs, ("mc", "pairwise"), cmd_mc_pairwise, "frequency of Z_F > 0", workers=True)
    _add_instance_params(sp, wrong=True)
    _add_trial_params(sp, 10_000, montecarlo.DESIGN_FIXED)

    sp = command(msubs, ("mc", "recover"), cmd_mc_recover, "frequency of declared != true support",
                 workers=True, cap=True)
    _add_instance_params(sp)
    _add_trial_params(sp, 1_000, montecarlo.DESIGN_FRESH)
    sp.add_argument("--random-support", action="store_true", dest="random_support",
                    help="draw a fresh true support each trial")

    sp = command(subs, ("sweep",), cmd_sweep, "grid of mc experiments over one parameter",
                 workers=True)
    _add_instance_params(sp)
    sp.add_argument("--target", choices=["pairwise", "recovery"], default="pairwise")
    sp.add_argument("--wrong", help="candidate support for pairwise targets, 1-based")
    _add_trial_params(sp, 2_000, None)
    sp.add_argument("--vary", required=True, help="parameter to sweep: n,p,k,trials,beta_min")
    sp.add_argument("--values", required=True, help="comma separated sweep values")

    sp = command(subs, ("verify",), cmd_verify, "run the oracle self-checks",
                 out=False, seed=False)
    sp.add_argument("--seed", type=int, default=DEFAULT_VERIFY_SEED)
    sp.add_argument("--inject-fault", action="store_true", dest="inject_fault",
                    help="negative control: flip the sign of c")
    sp.add_argument("--verbose", action="store_true")

    return parser, registry


_HOUSEKEEPING = {"func", "command", "subcommand", "config", "emit_config"}

_PARSER: Optional[tuple[argparse.ArgumentParser, dict]] = None


def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and command registry, built on the first call and shared,
    never mutated, by every later ``main`` call in the process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _command_path(args) -> tuple:
    path = [args.command]
    if getattr(args, "subcommand", None):
        path.append(args.subcommand)
    return tuple(path)


def _prescan_config(argv: list[str]) -> Optional[str]:
    paths = [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok == "--config"]
    paths += [tok.split("=", 1)[1] for tok in argv if tok.startswith("--config=")]
    if len(paths) > 1:
        raise SupportLabError("--config given more than once")
    return paths[0] if paths else None


def _command_words(argv: list[str]) -> tuple:
    words = []
    for tok in argv:
        if tok.startswith("-"):
            break
        words.append(tok)
    return tuple(words)


def _replay_config(argv: list[str], path: str, registry: dict) -> tuple[list, list]:
    """``argv`` with the config's params spliced in as ``--flag=value`` tokens
    after the command words, and those tokens.  Each value then goes through
    its flag's own type and choices, satisfies a required flag, and loses to
    an explicit flag given later.  ``true`` on a switch is the bare flag,
    ``null`` (and ``false`` on a switch) is "not given", a list on a
    repeatable flag is one token per item; keys that are not a flag of the
    command are skipped."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise SupportLabError(f"config {path} is not a JSON object")
    command = data.get("command")
    if not (isinstance(command, list) and all(isinstance(w, str) for w in command)):
        raise SupportLabError(
            f"config {path}: \"command\" must be a list of strings, got {command!r}"
        )
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise SupportLabError(f"config {path}: \"params\" must be a JSON object")
    sub = registry.get(tuple(command))
    if sub is None:
        raise SupportLabError(f"config {path} names unknown command {command}")
    words = _command_words(argv)
    if words != tuple(command):
        raise SupportLabError(f"config {path} is for {command}, not {list(words)}")

    tokens = []
    for dest, value in params.items():
        if dest in _HOUSEKEEPING or dest not in sub.flags or value is None:
            continue
        option, kind = sub.flags[dest]
        if kind == "store_true" and isinstance(value, bool):
            tokens += [option] if value else []
            continue
        items = value if kind == "append" and isinstance(value, list) else [value]
        tokens += [f"{option}={v if isinstance(v, str) else json.dumps(v)}" for v in items]
    return argv[:len(words)] + tokens + argv[len(words):], tokens


#: ``ExperimentSpec`` fields, as its errors name them, whose flag has another dest.
_SPEC_DESTS = {"master_seed": "seed", "beta_values": "beta", "true_pattern": "support",
               "wrong_pattern": "wrong", "random_true_pattern": "random_support"}


def _config_dests(sub: _Parser, explicit: list[str], tokens: list[str]) -> set[str]:
    """The dests whose value came from the replayed config ``tokens``: those
    the ``explicit`` argv does not give again, in full or by an abbreviation
    argparse accepts (a prefix of exactly one option)."""
    dests = {option: dest for dest, (option, _) in sub.flags.items()}
    given = set()
    for name in (tok.partition("=")[0] for tok in explicit if tok.startswith("--")):
        matches = [name] if name in dests else [o for o in dests if o.startswith(name)]
        if len(matches) == 1:
            given.add(matches[0])
    return {dests[tok.partition("=")[0]] for tok in tokens} - {dests[o] for o in given}


def _check_args(args) -> None:
    """Checks that hold before any work is done."""
    if getattr(args, "workers", 1) < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}", params=("workers",))
    if getattr(args, "seed", None) is not None:
        with _reading("seed"):
            rng.check_seed(args.seed)


def _run(argv: list[str]) -> int:
    parser, registry = _parser()
    config_path = _prescan_config(argv)
    explicit, tokens = argv, []
    if config_path is not None:
        argv, tokens = _replay_config(argv, config_path, registry)
    replayed = _REPLAYED.set((config_path, tokens))
    try:
        args = parser.parse_args(argv)
    finally:
        _REPLAYED.reset(replayed)
    if args.config != config_path:  # argparse also accepts an abbreviated --config
        raise SupportLabError("--config must be spelled out in full")
    try:
        _check_args(args)
        if args.emit_config:
            params = {k: v for k, v in vars(args).items() if k not in _HOUSEKEEPING}
            with open(args.emit_config, "w", encoding="utf-8") as fh:
                fh.write(_json_text({"command": list(_command_path(args)), "params": params}))
        return args.func(args)
    except SupportLabError as exc:
        compared = {_SPEC_DESTS.get(name, name) for name in exc.params}
        if tokens and compared & _config_dests(registry[_command_path(args)], explicit, tokens):
            raise SupportLabError(f"config {config_path}: {exc}") from exc
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    except SupportLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
