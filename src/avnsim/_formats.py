"""The csv and text forms of the four commands' documents.

cli writes every document as JSON itself and imports this module only for
`--format csv` or `--format text`, so a JSON command never compiles it.
"""

import math

from . import _frame, lhv, reference
from ._tables import _INDEX_BITS
from .cli import _format_float

# a report's metrics after its correlation rows, in the csv and text formats
_AGGREGATES = ("bell_value", "bell_stderr", "sigma_violation", "m_fidelity")
BAR_WIDTH = 40


def report_csv(doc: dict) -> str:
    """One row per correlation, then the aggregate metrics.  No field needs quoting:
    the ids, keys and signs are fixed, the counts are integers and the rest _format_float strings."""
    rows = [("id", "sign", "E", "stderr", "n")]
    rows += [(r["id"], r["sign"], _format_float(r["E"]), _format_float(r["stderr"]), r["n"]) for r in doc["correlations"]]
    rows += [(key, "", _format_float(doc[key]), "", "") for key in _AGGREGATES]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


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
    lines += [f"{key} = {doc[key]:.8f}" for key in _AGGREGATES]
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


def _certificate_text(cert: dict) -> str:
    hist = cert["histogram_by_satisfied_count"]
    lines = [
        "local-realistic assignment audit",
        f"{'k':>2} {'required':>9}  constraint",
        *(f"{c['index']:>2} {c['required_sign']:>+9d}  " + " * ".join(f"m({s})" for s in c["symbols"])
          for c in cert["constraints"]),
        "",
        f"assignments checked: {cert['assignment_count']}",
        f"satisfying all nine: {cert['all_nine_count']}",
        f"maximum satisfied:   {cert['max_satisfied']} ({cert['assignments_at_max']} assignments)",
        "histogram by satisfied count: " + ", ".join(f"{k}:{v}" for k, v in enumerate(hist) if v),
        f"Bell quantity maximum: {cert['lr_bound']['max_value']}  minimum: {cert['lr_bound']['min_value']}",
        f"parity witness: {cert['parity_witness']}",
        "",
        *render_histogram("M outcomes, LR prediction", cert["lr_m_histogram"]),
        "",
        "certificate " + ("OK" if cert["ok"] else "FAILED"),
    ]
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    return f"{'-':>12}" if x is None else format(x, "12.5f")


def _comparison_text(doc: dict) -> str:
    lines = [
        "comparison against the published values",
        f"fitted noise: {doc['fitted_noise']}",
        f"{'row':<16} {'paper':>12} {'derived':>12} {'exact QM':>12} {'simulated':>12}  pass",
        *(f"{row['name']:<16} " + " ".join(_cell(row[key]) for key in reference._ROW_KEYS[1:5]) + ("  yes" if row["pass"] else "  NO")
          for row in doc["rows"]),
        "all rows pass" if doc["all_pass"] else "SOME ROWS FAILED",
    ]
    return "\n".join(lines) + "\n"


def render(command: str, output_format: str, doc: dict, config) -> str:
    """command's document doc in output_format, csv or text.  config is the RunConfig
    of predict and simulate, whose text form shows the LR and QM panels."""
    if command == "lhv":
        return _certificate_text(doc)
    if command == "reproduce-paper":
        return _comparison_text(doc)
    if output_format == "csv":
        return report_csv(doc)
    qm_panel = _frame.predict(config.source, config.noise).m_histogram if command == "simulate" else None
    return report_text(doc, lr_panel=lhv.lr_m_histogram(), qm_panel=qm_panel)
