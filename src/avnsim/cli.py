"""Command-line surface: predict | lhv | simulate | reproduce-paper.

All subcommands are deterministic given the full configuration including
the seed.  JSON output carries every float at 17 significant digits so
documents are byte-reproducible and round-trip exactly.  Exit codes are a
stable contract: 0 success, 1 certificate or comparison failure, 2 usage
or configuration error.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from collections import namedtuple

# every subcommand reads the numpy-free modules only: the Pauli frame, the
# ported sampler, the records and tables, reference and lhv
from . import _frame, _records, lhv, reference
from ._tables import _INDEX_BITS

DEFAULT_SEED = 0
FORMATS = ("json", "csv", "text")

# reproduction floor of the calibrated four-parameter noise model
E_ROW_MODEL_TOLERANCE = 0.025


# ---------------------------------------------------------------- serializers

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at full double precision."""
    # the common leaves first, by exact type: the numbers ABC checks are slow
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return json.dumps(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    import numbers  # only a value of another type, such as a numpy scalar, needs the ABCs
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_csv(doc: dict) -> str:
    """One row per correlation, then the aggregate metrics."""
    import csv  # only the csv format needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "sign", "E", "stderr", "n"])
    for row in doc["correlations"]:
        writer.writerow(
            [row["id"], row["sign"], _format_float(row["E"]), _format_float(row["stderr"]), row["n"]]
        )
    for key in ("bell_value", "bell_stderr", "sigma_violation", "m_fidelity"):
        writer.writerow([key, "", _format_float(doc[key]), "", ""])
    return buf.getvalue()


BAR_WIDTH = 40


def _bin_label(idx: int) -> str:
    """Signs of the four bits of basis index idx, most significant first (_tables' layout)."""
    return "".join("+-"[bit] for bit in _INDEX_BITS[idx])


def render_histogram(title: str, bins) -> list[str]:
    lines = [title]
    peak = max(bins) if max(bins) > 0 else 1.0
    for idx, value in enumerate(bins):
        bar = "" if math.isnan(value) else "#" * int(round(BAR_WIDTH * value / peak))
        lines.append(f"  {_bin_label(idx)}  {value:10.6f}  {bar}")
    return lines


def report_text(doc: dict, lr_panel=None, qm_panel=None) -> str:
    lines = [f"mode: {doc['mode']}"]
    if doc["mode"] == "sampled":
        lines.append(f"rng: {doc['rng']['algorithm']} seed={doc['rng']['seed']}")
    lines.append(f"{'id':<10} {'sign':>4} {'E':>12} {'stderr':>12} {'n':>8}")
    for row in doc["correlations"]:
        lines.append(
            f"{row['id']:<10} {row['sign']:>+4d} {row['E']:>12.8f} {row['stderr']:>12.8f} {row['n']:>8d}"
        )
    for key in ("bell_value", "bell_stderr", "sigma_violation", "m_fidelity"):
        lines.append(f"{key} = {doc[key]:.8f}")
    lines.append("")
    if lr_panel is not None:
        lines.extend(render_histogram("M outcomes, LR prediction", lr_panel))
        lines.append("")
    if qm_panel is not None:
        lines.extend(render_histogram("M outcomes, QM prediction", qm_panel))
        lines.append("")
    label = "observed" if doc["mode"] == "sampled" else "QM prediction"
    lines.extend(render_histogram(f"M outcomes, {label}", doc["m_histogram"]))
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- configuration

RunConfig = namedtuple("RunConfig", "source noise schedule seed output_format")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except RecursionError:
        raise ValueError("config document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return doc


def build_run_config(raw: dict, args: dict) -> RunConfig:
    known = {"source", "noise", "schedule", "seed", "output_format"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    seed = raw.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if args["seed"] is not None:
        seed = args["seed"]
    _records.check_seed(seed)
    output_format = raw.get("output_format", "json")
    if args["format"] is not None:
        output_format = args["format"]
    if output_format not in FORMATS:
        raise ValueError(f"output_format must be one of {FORMATS}")
    return RunConfig(
        source=_records.SourceConfig.from_dict(raw.get("source", {})),
        noise=_records.NoiseModel.from_dict(raw.get("noise", {})),
        schedule=_records.Schedule.from_dict(raw.get("schedule", {})),
        seed=seed,
        output_format=output_format,
    )


# ----------------------------------------------------------------- commands

def cmd_predict(config: RunConfig) -> tuple[str, int]:
    """The exact report in closed form, from the Pauli frame (_frame), without numpy.

    experiment.predict_exact on the dense density matrix is the frame's
    oracle in the tests.
    """
    doc = _frame.predict(config.source, config.noise).to_dict()
    if config.output_format == "csv":
        return report_csv(doc), 0
    if config.output_format == "text":
        return report_text(doc, lr_panel=lhv.lr_m_histogram()), 0
    return to_json(doc) + "\n", 0


def cmd_simulate(config: RunConfig) -> tuple[str, int]:
    """A seeded counting run on the frame's Born rows, drawn by the port of numpy's sampler, without numpy."""
    report = _frame.simulate(config.source, config.noise, config.schedule, config.seed)
    doc = report.to_dict()
    if config.output_format == "csv":
        return report_csv(doc), 0
    if config.output_format == "text":
        exact = _frame.predict(config.source, config.noise)
        return report_text(doc, lr_panel=lhv.lr_m_histogram(), qm_panel=exact.m_histogram), 0
    return to_json(doc) + "\n", 0


def cmd_lhv(output_format: str) -> tuple[str, int]:
    cert = lhv.certificate()
    code = 0 if cert["ok"] else 1
    if output_format == "text":
        lines = ["local-realistic assignment audit"]
        lines.append(f"{'k':>2} {'required':>9}  constraint")
        for c in cert["constraints"]:
            product = " * ".join(f"m({s})" for s in c["symbols"])
            lines.append(f"{c['index']:>2} {c['required_sign']:>+9d}  {product}")
        lines.append("")
        lines.append(f"assignments checked: {cert['assignment_count']}")
        lines.append(f"satisfying all nine: {cert['all_nine_count']}")
        lines.append(f"maximum satisfied:   {cert['max_satisfied']} ({cert['assignments_at_max']} assignments)")
        hist = cert["histogram_by_satisfied_count"]
        lines.append("histogram by satisfied count: " + ", ".join(f"{k}:{v}" for k, v in enumerate(hist) if v))
        lines.append(f"Bell quantity maximum: {cert['lr_bound']['max_value']}  minimum: {cert['lr_bound']['min_value']}")
        lines.append(f"parity witness: {cert['parity_witness']}")
        lines.append("")
        lines.extend(render_histogram("M outcomes, LR prediction", cert["lr_m_histogram"]))
        lines.append("")
        lines.append("certificate " + ("OK" if cert["ok"] else "FAILED"))
        return "\n".join(lines) + "\n", code
    return to_json(cert) + "\n", code


def _reproduce_document(seed: int) -> dict:
    fit = reference.fitted_noise()
    phi0 = _records.SourceConfig()
    exact_fitted = _frame.predict(phi0, fit.model)
    exact_ideal = _frame.predict(phi0, _records.NoiseModel())
    simulated = _frame.simulate(phi0, fit.model, reference.matched_schedule(), seed)

    rows = []
    all_pass = True

    def add_row(name, paper, derived, exact_qm, sim, tolerance, passed):
        nonlocal all_pass
        all_pass = all_pass and passed
        rows.append(
            {
                "name": name,
                "paper": paper,
                "derived_from_paper": derived,
                "exact_qm": exact_qm,
                "simulated": sim,
                "tolerance": tolerance,
                "pass": passed,
            }
        )

    # the four-parameter noise model reproduces the measured table with a
    # structural residual of up to ~0.021 per row (it ties E(X'X') to
    # E(Z-X'-ZX') exactly), so E rows pass at that model floor plus a
    # sampling margin rather than at pure counting precision
    for cid, (e_meas, de_meas) in reference.MEASURED_CORRELATIONS.items():
        est = simulated.estimate(cid)
        tol = E_ROW_MODEL_TOLERANCE + 3.0 * est.stderr
        add_row(
            f"E({cid})",
            e_meas,
            None,
            exact_ideal.estimate(cid).E,
            est.E,
            tol,
            abs(est.E - e_meas) <= tol,
        )
    est_m = simulated.estimate("M")
    e_m = reference.derived_m_value()
    tol_m = E_ROW_MODEL_TOLERANCE + 3.0 * est_m.stderr
    add_row("E(M)", None, e_m, exact_ideal.estimate("M").E, est_m.E, tol_m, abs(est_m.E - e_m) <= tol_m)

    add_row(
        "bell_value",
        reference.BELL_VALUE,
        None,
        exact_ideal.bell_value,
        simulated.bell_value,
        0.05,
        abs(simulated.bell_value - reference.BELL_VALUE) <= 0.05,
    )
    sigma_derived = reference.sigma_ratio()
    sigma_pass = (
        abs(sigma_derived - reference.QUOTED_SIGMA) <= 1.0
        and abs(simulated.sigma_violation - reference.QUOTED_SIGMA) <= 0.2 * reference.QUOTED_SIGMA
    )
    add_row("sigma_violation", reference.QUOTED_SIGMA, sigma_derived, None, simulated.sigma_violation, None, sigma_pass)
    # m_fidelity is (1 - E(M))/2, so it is judged by the E(M) row's rule at half scale
    fid_derived = reference.derived_m_fidelity()
    tol_fid = tol_m / 2.0
    fid_pass = (
        abs(fid_derived - reference.QUOTED_FIDELITY) <= 0.005
        and abs(simulated.m_fidelity - fid_derived) <= tol_fid
    )
    add_row("m_fidelity", reference.QUOTED_FIDELITY, fid_derived, exact_ideal.m_fidelity, simulated.m_fidelity, tol_fid, fid_pass)
    vis_derived = reference.mean_absolute_correlation()
    vis_sim = sum(abs(est.E) for est in simulated.estimates) / 9.0
    vis_pass = (
        abs(vis_derived - reference.QUOTED_VISIBILITY) <= 0.005
        and abs(vis_sim - vis_derived) <= 0.005
    )
    add_row("visibility", reference.QUOTED_VISIBILITY, vis_derived, 1.0, vis_sim, None, vis_pass)

    return {
        "seed": seed,
        "fitted_noise": fit.model.to_dict(),
        "fit_residual": fit.residual,
        "exact_bell_of_fitted_model": exact_fitted.bell_value,
        "rows": rows,
        "all_pass": all_pass,
    }


def cmd_reproduce_paper(seed: int, output_format: str) -> tuple[str, int]:
    doc = _reproduce_document(seed)
    code = 0 if doc["all_pass"] else 1
    if output_format == "text":
        lines = ["comparison against the published values"]
        lines.append(f"fitted noise: {doc['fitted_noise']}")
        lines.append(f"{'row':<16} {'paper':>12} {'derived':>12} {'exact QM':>12} {'simulated':>12}  pass")
        for row in doc["rows"]:
            def fmt(x):
                return f"{'-':>12}" if x is None else format(x, "12.5f")
            lines.append(
                f"{row['name']:<16} {fmt(row['paper'])} {fmt(row['derived_from_paper'])} "
                f"{fmt(row['exact_qm'])} {fmt(row['simulated'])}  {'yes' if row['pass'] else 'NO'}"
            )
        lines.append("all rows pass" if doc["all_pass"] else "SOME ROWS FAILED")
        return "\n".join(lines) + "\n", code
    return to_json(doc) + "\n", code


# --------------------------------------------------------------------- main

# the grammar: one line per command and its options, each option taking one value
USAGE = """\
avnsim predict          [--config PATH] [--seed N] [--format json|csv|text] [--out PATH]
avnsim simulate         [--config PATH] [--seed N] [--format json|csv|text] [--out PATH]
avnsim lhv              [--format json|text] [--out PATH]
avnsim reproduce-paper  [--seed N] [--format json|text] [--out PATH]
"""
_OPTIONS = {line.split()[1]: [w[1:] for w in line.split() if w.startswith("[--")] + ["--help"] for line in USAGE.splitlines()}


def _help():
    sys.stdout.write(USAGE)
    raise SystemExit(0)


def _usage_error(message: str, command: str | None = None):
    lines = [line for line in USAGE.splitlines() if command in (None, line.split()[1])]
    sys.stderr.write("usage: " + "\n       ".join(lines) + f"\navnsim: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv: list[str]) -> dict:
    """The command and its options, by argparse's rules: -h prints USAGE and exits 0, a usage error exits 2.

    An option is given as --opt VALUE or --opt=VALUE, or by a unique prefix,
    and its last occurrence wins.  A following token that starts with - is
    a value only when it is - (stdin) or a negative number.
    """
    tokens = iter(argv)
    command = next(tokens, None)
    if command in ("-h", "--help"):
        _help()
    if command not in _OPTIONS:
        _usage_error("missing command" if command is None else f"unknown command {command!r}")
    args = {"command": command, "config": None, "seed": None, "format": None, "out": None}
    for token in tokens:
        name, eq, value = ("--help" if token == "-h" else token).partition("=")
        # a prefix of every option ("-", "--") or of none is not an option
        matches = [option for option in _OPTIONS[command] if option.startswith(name)]
        if len(matches) != 1:
            _usage_error(f"unrecognized arguments: {token}", command)
        option = matches[0]
        if option == "--help":
            _help()
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not re.fullmatch(r"-(\d+|\d*\.\d+)?", value):
                _usage_error(f"argument {option}: expected one argument", command)
        if option == "--seed":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument --seed: invalid int value: {value!r}", command)
        elif option == "--format" and value not in FORMATS:
            _usage_error(f"argument --format: invalid choice: {value!r} (choose from {', '.join(map(repr, FORMATS))})", command)
        args[option[2:]] = value
    return args


def _emit(payload: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args["command"] in ("predict", "simulate"):
            config = build_run_config(load_config(args["config"]), args)
            payload, code = (cmd_predict if args["command"] == "predict" else cmd_simulate)(config)
        elif args["command"] == "lhv":
            fmt = args["format"] or "json"
            if fmt == "csv":
                raise ValueError("the lhv certificate has no CSV form; use json or text")
            payload, code = cmd_lhv(fmt)
        else:
            fmt = args["format"] or "json"
            if fmt == "csv":
                raise ValueError("the comparison document has no CSV form; use json or text")
            seed = _records.check_seed(args["seed"] if args["seed"] is not None else DEFAULT_SEED)
            payload, code = cmd_reproduce_paper(seed, fmt)
        _emit(payload, args["out"])
    except (ValueError, KeyError, OSError) as exc:
        print(f"avnsim: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
