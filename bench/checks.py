"""Output checks.  Each returns a list of failure messages; empty means pass.

The noise oracle is the reduced closed form of the nine correlations:
with s = 1 - w, a = vp**2 and b = vq**2 * cos(phi + delta),

    ZZ = Z'Z' = -s        XX = -s*a          X'X' = -s*b
    ZZ'-Z-Z' = s          XX'-X-X' = s*a*b   Z-X'-ZX' = s*b
    X-Z'-XZ' = s*a        M = -s*a*b

It is independent of the density-matrix code it checks.
"""

from __future__ import annotations

import json
import math

ORACLE_TOL = 1e-12
SWEEP_SIGMAS = 6.0
SWEEP_MEAN_TOL = 0.05
PUBLISHED_BELL = 8.56904


def reduced_oracle(phi: float, noise: dict) -> dict[str, float]:
    s = 1.0 - noise["white_noise_weight"]
    a = noise["pol_visibility"] ** 2
    b = noise["path_visibility"] ** 2 * math.cos(phi + noise["phase_offset"])
    return {
        "ZZ": -s,
        "Z'Z'": -s,
        "XX": -s * a,
        "X'X'": -s * b,
        "ZZ'-Z-Z'": s,
        "XX'-X-X'": s * a * b,
        "Z-X'-ZX'": s * b,
        "X-Z'-XZ'": s * a,
        "M": -s * a * b,
    }


def exact_rows(rows, oracle: dict[str, float]) -> list[str]:
    """Every correlation row equals the oracle to ORACLE_TOL."""
    seen = {row["id"]: row["E"] for row in rows}
    if set(seen) != set(oracle):
        return [f"correlation ids {sorted(seen)} differ from the oracle's"]
    return [
        f"E({cid}) = {seen[cid]!r}, oracle {value!r}"
        for cid, value in oracle.items()
        if not abs(seen[cid] - value) <= ORACLE_TOL
    ]


def sampled_rows(rows, oracle: dict[str, float]) -> list[str]:
    """Every sampled row lies within SWEEP_SIGMAS binomial errors of the oracle."""
    failures = []
    for row in rows:
        expected = oracle[row["id"]]
        if row["n"] <= 0:
            failures.append(f"E({row['id']}) counted no events")
            continue
        sigma = math.sqrt(max(1.0 - expected * expected, 0.0) / row["n"])
        if not abs(row["E"] - expected) <= SWEEP_SIGMAS * sigma + ORACLE_TOL:
            failures.append(f"E({row['id']}) = {row['E']!r}, expected {expected!r} +- {sigma:.3g}")
    return failures


def parse_document(returncode: int, stdout: bytes) -> tuple[dict | None, list[str]]:
    """Exit code 0 and a JSON object on stdout."""
    failures = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, failures + [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, failures + ["stdout is not a JSON object"]
    return doc, failures


def flag(doc: dict, key: str) -> list[str]:
    """doc[key] is exactly true (lhv `ok`, reproduce-paper `all_pass`)."""
    return [] if doc.get(key) is True else [f"{key} is {doc.get(key)!r}"]


def identical(first, again, what: str) -> list[str]:
    return [] if first == again else [f"repeating {what} changed the output"]


def bell_near_exact(bell: float, stderr: float, exact: float) -> list[str]:
    if abs(bell - exact) <= SWEEP_SIGMAS * stderr:
        return []
    return [f"Bell value {bell!r} is more than {SWEEP_SIGMAS:g} stderr ({stderr:.3g}) from the exact {exact!r}"]


def sweep_mean(bells) -> list[str]:
    mean = math.fsum(bells) / len(bells)
    if abs(mean - PUBLISHED_BELL) <= SWEEP_MEAN_TOL:
        return []
    return [f"mean Bell value {mean!r} is more than {SWEEP_MEAN_TOL} from {PUBLISHED_BELL}"]
