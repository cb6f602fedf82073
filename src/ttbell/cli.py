"""Command-line front end with deterministic, golden-file-friendly output.

Subcommands: ``table`` (joint/marginal/conditional probabilities),
``mc`` (seeded detection-chain run), ``chsh-scan`` (ladder sweep with
refined maximum), ``lhv-verify`` (model bookkeeping checks and CHSH
bounds), ``polytope`` (local-model membership certificate).

Output is CSV (RFC-4180-style quoting, floats with nine decimal places)
or JSON (sorted keys, floats rounded to nine decimals); identical
configuration and seed produce byte-identical output.  Values may come
from command-line flags, which override a flat ``key = value`` config
file, which overrides built-in defaults.

Exit codes: 0 success (and polytope-feasible), 1 usage error, 2 I/O
error, 3 polytope-infeasible, 4 lhv-verify check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import lhv, model_io, montecarlo, polytope, quantum
from .chsh import ChshSettings, ladder_settings, scan_alpha

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4

CHSH_TOL = 1e-12

BUILTIN_MODELS = ("fixed-setting-reproducer", "position-style")


class UsageError(Exception):
    pass


# option keys holding angles; converted from degrees when --degrees is active
_ANGLE_KEYS = ("a", "b", "a_prime", "b_prime", "alpha", "alpha_min", "alpha_max", "alpha_step")

DEFAULTS = {
    "a": math.pi / 4,
    "b": 0.0,
    "a_prime": 0.0,
    "b_prime": math.pi / 4,
    "alpha": None,
    "alpha_min": 0.0,
    "alpha_max": math.pi,
    "alpha_step": 1e-3,
    "eta_d": 1.0,
    "f1": 1.0,
    "f21": 1.0,
    "fd2": 1.0,
    "trials": 100000,
    "seed": 2024,
    "model": None,
    "model_file": None,
    "grid_size": 1000,
    "targets": None,
    "out": None,
    "format": "csv",
    "degrees": False,
}


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


CONVERTERS = {
    "a": str,
    "b": str,
    "a_prime": float,
    "b_prime": float,
    "alpha": float,
    "alpha_min": float,
    "alpha_max": float,
    "alpha_step": float,
    "eta_d": float,
    "f1": float,
    "f21": float,
    "fd2": float,
    "trials": int,
    "seed": int,
    "model": str,
    "model_file": str,
    "grid_size": int,
    "targets": str,
    "out": str,
    "format": str,
    "degrees": _to_bool,
}

SUBCOMMAND_KEYS = {
    "table": ("a", "b", "out", "format", "degrees"),
    "mc": ("a", "b", "eta_d", "f1", "f21", "fd2", "trials", "seed", "out", "format", "degrees"),
    "chsh-scan": (
        "alpha_min", "alpha_max", "alpha_step",
        "eta_d", "f1", "f21", "fd2", "out", "format", "degrees",
    ),
    "lhv-verify": (
        "model", "model_file", "grid_size",
        "a", "b", "a_prime", "b_prime", "out", "format", "degrees",
    ),
    "polytope": ("alpha", "targets", "eta_d", "f1", "f21", "fd2", "out", "format", "degrees"),
}

FLAG_NAMES = {
    "a": "--a",
    "b": "--b",
    "a_prime": "--a-prime",
    "b_prime": "--b-prime",
    "alpha": "--alpha",
    "alpha_min": "--alpha-min",
    "alpha_max": "--alpha-max",
    "alpha_step": "--alpha-step",
    "eta_d": "--eta-d",
    "f1": "--f1",
    "f21": "--f21",
    "fd2": "--fd2",
    "trials": "--trials",
    "seed": "--seed",
    "model": "--model",
    "model_file": "--model-file",
    "grid_size": "--grid-size",
    "targets": "--targets",
    "out": "--out",
    "format": "--format",
}


def fmt(x) -> str:
    """Deterministic CSV field: floats at 9 decimal places."""
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.9f}" if math.isfinite(x) else "nan"
    return str(x)


def fmt_sci(x: float) -> str:
    return f"{x:.3e}"


def jnum(x):
    """JSON-safe float rounded at 9 decimals (None for missing/NaN)."""
    if x is None:
        return None
    if isinstance(x, bool) or isinstance(x, int):
        return x
    if not math.isfinite(x):
        return None
    return round(float(x), 9)


def csv_table(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_angle_list(text: str, key: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{FLAG_NAMES[key]} expects a number or comma-separated numbers, got {text!r}")
    if not values:
        raise UsageError(f"{FLAG_NAMES[key]} is empty")
    return values


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in CONVERTERS:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttbell",
        description="Two-time single-particle CHSH experiment toolkit.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    helps = {
        "a": "first-slot analyzer angle (radians; table accepts a comma-separated list)",
        "b": "second-slot analyzer angle (radians; table accepts a comma-separated list)",
        "a_prime": "alternate first-slot angle",
        "b_prime": "alternate second-slot angle",
        "alpha": "ladder separation angle",
        "alpha_min": "scan start",
        "alpha_max": "scan end (inclusive)",
        "alpha_step": "scan step",
        "eta_d": "detector efficiency in [0, 1]",
        "f1": "acceptance into the first analyzer",
        "f21": "acceptance into the second analyzer",
        "fd2": "acceptance from second analyzer into a detector",
        "trials": "number of Monte Carlo trials",
        "seed": "RNG seed (64-bit)",
        "model": f"built-in model name: {', '.join(BUILTIN_MODELS)}",
        "model_file": "path to a model file (see model file schema in the README)",
        "grid_size": "hidden-state count for the position-style model",
        "targets": "four comma-separated correlators E(a,b),E(a,b'),E(a',b'),E(a',b)",
        "out": "output path (default: stdout)",
        "format": "output format: csv or json",
    }

    for command, keys in SUBCOMMAND_KEYS.items():
        sp = sub.add_parser(command)
        for key in keys:
            if key == "degrees":
                sp.add_argument("--degrees", action="store_true", default=None,
                                help="interpret all angle inputs as degrees")
            elif key == "format":
                sp.add_argument("--format", default=None, choices=("csv", "json"),
                                help=helps[key])
            else:
                sp.add_argument(FLAG_NAMES[key], dest=key, default=None, help=helps[key])
        sp.add_argument("--config", default=None, help="flat key = value config file")
    return parser


def _merge_options(args: argparse.Namespace, keys) -> dict:
    config_values: dict[str, str] = {}
    if getattr(args, "config", None):
        config_values = _load_config_file(args.config)

    merged = {}
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            raw = flag_value
        elif key in config_values:
            raw = config_values[key]
        else:
            merged[key] = DEFAULTS[key]
            continue
        if isinstance(raw, str):
            try:
                merged[key] = CONVERTERS[key](raw)
            except ValueError as exc:
                raise UsageError(f"bad value for {FLAG_NAMES.get(key, key)}: {exc}")
        else:
            merged[key] = raw
    if merged.get("format") not in (None, "csv", "json"):
        raise UsageError(f"--format must be csv or json, got {merged['format']!r}")

    if merged.get("degrees"):
        scale = math.pi / 180.0
        for key in _ANGLE_KEYS:
            if key in merged and merged[key] is not None:
                if key in ("a", "b"):  # may still be a comma list at this point
                    merged[key] = ",".join(
                        repr(v * scale) for v in _parse_angle_list(merged[key], key)
                    )
                else:
                    merged[key] = merged[key] * scale
    return merged


def _check_unit_interval(opts: dict, keys=("eta_d", "f1", "f21", "fd2")) -> None:
    for key in keys:
        if not 0.0 <= opts[key] <= 1.0:
            raise UsageError(f"{FLAG_NAMES[key]} must lie in [0, 1], got {opts[key]!r}")


def cmd_table(opts: dict) -> tuple[int, str]:
    a_list = _parse_angle_list(opts["a"], "a")
    b_list = _parse_angle_list(opts["b"], "b")
    header = ["a", "b", "A", "B", "p_joint", "p_marg_t1", "p_marg_t2", "p_cond"]
    rows = []
    json_rows = []
    for a in a_list:
        for b in b_list:
            joint = quantum.quantum_joint(a, b)
            for A in quantum.OUTCOMES:
                for B in quantum.OUTCOMES:
                    p1 = quantum.marginal_t1(a, A)
                    p2 = quantum.marginal_t2(a, b, B)
                    try:
                        cond = quantum.conditional_t2(a, b, A, B)
                    except quantum.UndefinedConditionalError:
                        cond = None
                    rows.append([a, b, f"{A:+d}", f"{B:+d}", joint.prob(A, B), p1, p2, cond])
                    json_rows.append({
                        "a": jnum(a), "b": jnum(b), "A": A, "B": B,
                        "p_joint": jnum(joint.prob(A, B)),
                        "p_marg_t1": jnum(p1), "p_marg_t2": jnum(p2),
                        "p_cond": jnum(cond),
                    })
    if opts["format"] == "json":
        return EXIT_OK, json_text({"rows": json_rows})
    return EXIT_OK, csv_table(header, rows)


def cmd_mc(opts: dict) -> tuple[int, str]:
    _check_unit_interval(opts)
    a = _single_angle(opts, "a")
    b = _single_angle(opts, "b")
    for key, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise UsageError(f"{FLAG_NAMES[key]} must be finite, got {value!r}")
    if opts["trials"] < 1:
        raise UsageError(f"--trials must be at least 1, got {opts['trials']}")
    if not 0 <= opts["seed"] < 2**64:
        raise UsageError(f"--seed must be an unsigned 64-bit value, got {opts['seed']}")
    config = montecarlo.DetectionConfig(
        eta_d=opts["eta_d"], f1=opts["f1"], f21=opts["f21"], f_d2=opts["fd2"]
    )
    counts = montecarlo.run(a, b, config, opts["trials"], opts["seed"])
    est = montecarlo.estimate(counts)
    record = {
        "a": a,
        "b": b,
        "eta_d": config.eta_d,
        "f1": config.f1,
        "f21": config.f21,
        "fd2": config.f_d2,
        "overall_f": config.overall_f,
        "n_total": counts.n_total,
        "n_pp": counts.counts[montecarlo.DetectorId(1, 1)],
        "n_pm": counts.counts[montecarlo.DetectorId(1, -1)],
        "n_mp": counts.counts[montecarlo.DetectorId(-1, 1)],
        "n_mm": counts.counts[montecarlo.DetectorId(-1, -1)],
        "n_undetected": counts.n_undetected,
        "correlator_exp": est.correlator_exp,
        "correlator_conditioned": est.correlator_conditioned,
        "std_error": est.std_error,
        "std_error_conditioned": est.std_error_conditioned,
        "seed": counts.seed,
    }
    if opts["format"] == "json":
        return EXIT_OK, json_text({k: jnum(v) for k, v in record.items()})
    return EXIT_OK, csv_table(list(record), [list(record.values())])


def cmd_chsh_scan(opts: dict) -> tuple[int, str]:
    _check_unit_interval(opts)
    eta_f = opts["eta_d"] * opts["f1"] * opts["f21"] * opts["fd2"]
    try:
        rows, summary = scan_alpha(
            opts["alpha_min"], opts["alpha_max"], opts["alpha_step"], eta_f=eta_f
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    if opts["format"] == "json":
        return EXIT_OK, json_text({
            "rows": [
                {"alpha": jnum(r.alpha), "s_ideal": jnum(r.s_ideal),
                 "s_exp": jnum(r.s_exp), "violated": r.violated}
                for r in rows
            ],
            "summary": {
                "alpha_star": jnum(summary.alpha_star),
                "s_max": jnum(summary.s_max),
                "s_exp_max": jnum(summary.s_exp_max),
                "eta_f": jnum(summary.eta_f),
                "eta_f_critical": jnum(summary.eta_f_critical),
                "violated": summary.violated,
            },
        })
    table = csv_table(
        ["alpha", "s_ideal", "s_exp", "violated"],
        [[r.alpha, r.s_ideal, r.s_exp, r.violated] for r in rows],
    )
    summary_table = csv_table(
        ["alpha_star", "s_max", "s_exp_max", "eta_f", "eta_f_critical", "violated"],
        [[summary.alpha_star, summary.s_max, summary.s_exp_max,
          summary.eta_f, summary.eta_f_critical, summary.violated]],
    )
    return EXIT_OK, table + "\n" + summary_table


def _single_angle(opts: dict, key: str) -> float:
    values = _parse_angle_list(opts[key], key)
    if len(values) != 1:
        raise UsageError(f"{FLAG_NAMES[key]} expects a single angle here, got {opts[key]!r}")
    return values[0]


def _select_model(opts: dict):
    """Build the requested model; returns (model, description)."""
    name = opts["model"]
    path = opts["model_file"]
    if name and path:
        raise UsageError("give either --model or --model-file, not both")
    if not name and not path:
        raise UsageError(f"--model ({', '.join(BUILTIN_MODELS)}) or --model-file is required")
    if path:
        try:
            model = model_io.load_model(path)
        except model_io.ModelFileError as exc:
            raise UsageError(f"{path}: {exc}")
        return model, f"file:{path}"
    a = _single_angle(opts, "a")
    b = _single_angle(opts, "b")
    if name == "fixed-setting-reproducer":
        return lhv.fixed_setting_reproducer(a, b), (
            f"fixed-setting-reproducer(a={fmt(a)}, b={fmt(b)})"
        )
    if name == "position-style":
        if opts["grid_size"] < 2:
            raise UsageError(f"--grid-size must be at least 2, got {opts['grid_size']}")
        return lhv.position_style_model(opts["grid_size"]), (
            f"position-style(grid_size={opts['grid_size']})"
        )
    raise UsageError(f"unknown model {name!r}; expected one of: {', '.join(BUILTIN_MODELS)}")


def cmd_lhv_verify(opts: dict) -> tuple[int, str]:
    model, description = _select_model(opts)
    a = _single_angle(opts, "a")
    b = _single_angle(opts, "b")
    chsh_settings = ChshSettings(a=a, a_prime=opts["a_prime"], b=b, b_prime=opts["b_prime"])

    try:
        report = lhv.verify_consistency(model, a, b)
    except lhv.InvalidModelError as exc:
        raise UsageError(f"model evaluation failed: {exc}")

    checks: dict[str, dict] = {
        "marginal_from_mean": {
            "passed": report.marginal_from_mean_error <= report.tol,
            "error": report.marginal_from_mean_error,
        },
        "conditional_moment_route": {
            "passed": report.conditional_moment_route_error <= report.tol,
            "error": report.conditional_moment_route_error,
        },
        "double_average_factorization": {
            "passed": report.double_average_error <= report.tol,
            "error": report.double_average_error,
        },
        "marginal_double_average": {
            "passed": report.marginal_double_average_error <= report.tol,
            "error": report.marginal_double_average_error,
        },
    }
    if report.outcome_swap_symmetric:
        checks["mean_product"] = {
            "passed": report.mean_product_error <= report.tol,
            "error": report.mean_product_error,
        }

    bounds: dict[str, dict] = {}
    if model.kind == lhv.FACTORIZED:
        try:
            per_lambda_max = max(
                lhv.per_lambda_chsh(model, chsh_settings, lam) for lam in model.support
            )
            averaged = lhv.averaged_chsh(model, chsh_settings)
        except lhv.InvalidModelError as exc:
            raise UsageError(f"model evaluation failed: {exc}")
        bounds["per_lambda_chsh_bound"] = {
            "passed": per_lambda_max <= 2.0 + CHSH_TOL,
            "value": per_lambda_max,
        }
        bounds["averaged_chsh_bound"] = {
            "passed": averaged <= 2.0 + CHSH_TOL,
            "value": averaged,
        }

    passed = all(c["passed"] for c in checks.values()) and all(
        c["passed"] for c in bounds.values()
    )
    exit_code = EXIT_OK if passed else EXIT_VERIFY_FAILED

    if opts["format"] == "json":
        return exit_code, json_text({
            "model": description,
            "kind": model.kind,
            "states": len(model.support),
            "settings": {
                "a": jnum(a), "b": jnum(b),
                "a_prime": jnum(opts["a_prime"]), "b_prime": jnum(opts["b_prime"]),
            },
            "checks": {
                name: {"passed": c["passed"], "error": jnum(c.get("error")),
                       "value": jnum(c.get("value"))}
                for name, c in {**checks, **bounds}.items()
            },
            "outcome_swap_symmetric": report.outcome_swap_symmetric,
            "outcome_swap_error": jnum(report.outcome_swap_error),
            "passed": passed,
        })

    lines = [
        f"model: {description}",
        f"kind: {model.kind}",
        f"states: {len(model.support)}",
        f"settings: a={fmt(a)} b={fmt(b)} a_prime={fmt(opts['a_prime'])} b_prime={fmt(opts['b_prime'])}",
    ]
    for name, c in checks.items():
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"check {name}: {status} (error {fmt_sci(c['error'])})")
    swap = "HOLDS" if report.outcome_swap_symmetric else "BROKEN"
    swap_err = "n/a" if report.outcome_swap_error is None else fmt_sci(report.outcome_swap_error)
    lines.append(f"note outcome_swap_symmetry: {swap} (error {swap_err})")
    if not report.outcome_swap_symmetric:
        lines.append("note mean_product: SKIPPED (requires outcome-swap symmetry)")
    for name, c in bounds.items():
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"check {name}: {status} (value {fmt(c['value'])})")
    if model.kind == lhv.GENERAL:
        lines.append("note per_lambda_chsh_bound: SKIPPED (general model)")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return exit_code, "\n".join(lines) + "\n"


def cmd_polytope(opts: dict) -> tuple[int, str]:
    _check_unit_interval(opts)
    if opts["targets"] is not None and opts["alpha"] is not None:
        raise UsageError("give either --targets or --alpha, not both")
    if opts["targets"] is not None:
        tokens = [t for t in str(opts["targets"]).split(",") if t.strip() != ""]
        if len(tokens) != 4:
            raise UsageError(f"--targets expects four comma-separated correlators, got {opts['targets']!r}")
        try:
            targets = tuple(float(t) for t in tokens)
        except ValueError:
            raise UsageError(f"--targets expects numbers, got {opts['targets']!r}")
        source = {"targets": "explicit"}
    elif opts["alpha"] is not None:
        eta_f = opts["eta_d"] * opts["f1"] * opts["f21"] * opts["fd2"]
        settings = ladder_settings(opts["alpha"])
        targets = tuple(
            eta_f * value
            for value in polytope.targets_from_correlator(quantum.ideal_correlator, settings)
        )
        source = {"targets": "ladder", "alpha": jnum(opts["alpha"]), "eta_f": jnum(eta_f)}
    else:
        raise UsageError("polytope needs --alpha (with efficiencies) or --targets")

    try:
        cert = polytope.polytope_check(targets)
    except ValueError as exc:
        raise UsageError(str(exc))

    facets = polytope.facet_values(targets)
    max_signs, max_value = max(facets, key=lambda sv: sv[1])
    payload = {
        "source": source,
        "targets": [jnum(t) for t in targets],
        "feasible": cert.feasible,
        "gap": jnum(cert.gap),
        "max_facet": {"signs": list(max_signs), "value": jnum(max_value)},
        "violated_facet": (
            None if cert.violated_facet is None
            else {"signs": list(cert.violated_facet[0]), "value": jnum(cert.violated_facet[1])}
        ),
        "weights": (
            None if cert.weights is None
            else {polytope.strategy_label(s): jnum(w) for s, w in cert.weights.items()}
        ),
    }
    exit_code = EXIT_OK if cert.feasible else EXIT_INFEASIBLE
    return exit_code, json_text(payload)


COMMANDS = {
    "table": cmd_table,
    "mc": cmd_mc,
    "chsh-scan": cmd_chsh_scan,
    "lhv-verify": cmd_lhv_verify,
    "polytope": cmd_polytope,
}


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        opts = _merge_options(args, SUBCOMMAND_KEYS[args.command])
        exit_code, text = COMMANDS[args.command](opts)
    except UsageError as exc:
        print(f"ttbell {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"ttbell {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        _emit(text, opts["out"])
    except OSError as exc:
        print(f"ttbell {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
