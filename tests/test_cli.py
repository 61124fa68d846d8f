import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avnsim.cli import main, to_json
from avnsim.reference import _reproduce_document
from avnsim import reference

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def run_subprocess(args, config_path=None, stdin=None):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    cmd = [sys.executable, "-m", "avnsim"] + list(args)
    if config_path is not None:
        cmd += ["--config", str(config_path)]
    return subprocess.run(cmd, input=stdin, capture_output=True, env=env)


class TestPredict:
    def test_default_config(self, tmp_path):
        code, text = run_cli(["predict"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert [row["E"] for row in doc["correlations"]] == [-1, -1, -1, -1, 1, 1, 1, 1, -1]
        assert doc["bell_value"] == 9

    def test_white_noise_crossing(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"noise": {"white_noise_weight": 2 / 9}}))
        code, text = run_cli(["predict", "--config", str(config)], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["bell_value"] == pytest.approx(7.0, abs=1e-10)

    def test_phase_pi_flips_the_phase_sensitive_rows(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": {"phi": math.pi}}))
        code, text = run_cli(["predict", "--config", str(config)], tmp_path)
        assert code == 0
        rows = {row["id"]: row["E"] for row in json.loads(text)["correlations"]}
        assert rows["X'X'"] == pytest.approx(+1.0)
        assert rows["ZZ"] == pytest.approx(-1.0)

    def test_csv_format(self, tmp_path):
        code, text = run_cli(["predict", "--format", "csv"], tmp_path, "out.csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "id,sign,E,stderr,n"
        assert len(lines) == 1 + 9 + 4

    def test_text_format(self, tmp_path):
        code, text = run_cli(["predict", "--format", "text"], tmp_path, "out.txt")
        assert code == 0
        assert "bell_value = 9.00000000" in text
        assert "M outcomes, LR prediction" in text


class TestLhv:
    def test_certificate_checks_and_exit_code(self, tmp_path):
        code, text = run_cli(["lhv"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["ok"] is True
        assert doc["all_nine_count"] == 0
        assert doc["max_satisfied"] == 8
        assert doc["lr_bound"]["max_value"] == 7
        assert sum(doc["histogram_by_satisfied_count"]) == 4096
        assert len(doc["lr_bound"]["argmax_assignments"]) == doc["lr_bound"]["argmax_count"]

    def test_csv_is_rejected(self, tmp_path):
        # csv is outside lhv's USAGE choices, so the parser refuses it before any output
        with pytest.raises(SystemExit) as exc:
            main(["lhv", "--format", "csv", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


class TestSimulate:
    def test_ideal_default_band(self, tmp_path):
        code, text = run_cli(["simulate", "--seed", "5"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert 8.7 <= doc["bell_value"] <= 9.0
        assert doc["rng"]["algorithm"] == "philox4x64"
        assert doc["rng"]["seed"] == 5

    def test_fitted_config_tracks_published_values(self, tmp_path):
        model = reference.fitted_noise().model
        sched = reference.matched_schedule()
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"noise": model.to_dict(), "schedule": sched.to_dict(), "seed": 17})
        )
        code, text = run_cli(["simulate", "--config", str(config)], tmp_path)
        assert code == 0
        doc = json.loads(text)
        # model floor ~0.021 plus three sampling sigmas per row
        for row in doc["correlations"]:
            if row["id"] == "M":
                target = reference.derived_m_value()
            else:
                target = reference.MEASURED_CORRELATIONS[row["id"]][0]
            assert abs(row["E"] - target) <= 0.025 + 3.0 * row["stderr"]
        assert abs(doc["bell_value"] - reference.BELL_VALUE) <= 0.05

    def test_round_trip_idempotent(self, tmp_path):
        code, text = run_cli(["simulate", "--seed", "3"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        re_emitted = to_json(doc) + "\n"
        assert json.loads(re_emitted) == doc
        assert to_json(json.loads(re_emitted)) + "\n" == re_emitted

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1}))
        code, text = run_cli(["simulate", "--config", str(config), "--seed", "2"], tmp_path)
        assert code == 0
        assert json.loads(text)["rng"]["seed"] == 2

    def test_byte_identical_documents_across_processes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 99, "noise": {"pol_visibility": 0.97}}))
        first = run_subprocess(["simulate"], config)
        second = run_subprocess(["simulate"], config)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 0

    # at a mean of 2 pairs, seed 0 counts no ZZ event and seed 6 no M event
    @pytest.mark.parametrize("seed, empty", [(0, "ZZ"), (6, "M")])
    def test_a_correlation_without_events_is_null_and_the_run_succeeds(self, tmp_path, seed, empty):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schedule": {"pair_rate": 2}}))
        args = ["simulate", "--config", str(config), "--seed", str(seed)]
        code, text = run_cli(args, tmp_path)
        assert code == 0
        doc = json.loads(text)
        rows = {row["id"]: row for row in doc["correlations"]}
        assert (rows[empty]["E"], rows[empty]["stderr"], rows[empty]["n"]) == (None, None, 0)
        assert all(row["n"] > 0 and row["E"] is not None for cid, row in rows.items() if cid != empty)
        assert doc["bell_value"] is None and doc["bell_stderr"] is None and doc["sigma_violation"] is None
        if empty == "M":
            assert doc["m_fidelity"] is None
            assert doc["m_histogram"] == [None] * 16
        else:
            assert doc["m_fidelity"] is not None
            assert sum(doc["m_histogram"]) == pytest.approx(1.0)
        code, text = run_cli(args + ["--format", "csv"], tmp_path, "out.csv")
        assert code == 0
        assert f"{empty},-1,null,null,0" in text.splitlines()
        assert "bell_value,,null,," in text.splitlines()
        code, text = run_cli(args + ["--format", "text"], tmp_path, "out.txt")
        assert code == 0
        assert "bell_value = nan" in text
        assert text.rstrip().splitlines()[-16].startswith("  ++++  ")


class TestReproducePaper:
    def test_document_rows_and_exit_code(self, tmp_path):
        code, text = run_cli(["reproduce-paper"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        names = [row["name"] for row in doc["rows"]]
        for expected in ("E(ZZ)", "E(M)", "bell_value", "sigma_violation", "m_fidelity", "visibility"):
            assert expected in names
        rows = {row["name"]: row for row in doc["rows"]}
        assert rows["sigma_violation"]["derived_from_paper"] == pytest.approx(294.4, abs=0.1)
        assert rows["m_fidelity"]["derived_from_paper"] == pytest.approx(0.9592, abs=5e-5)
        assert rows["visibility"]["derived_from_paper"] == pytest.approx(0.952116, abs=1e-6)
        assert doc["all_pass"] is True

    def test_text_document_prints_the_json_rows_at_5_decimals(self):
        text = run_subprocess(["reproduce-paper", "--seed", "0", "--format", "text"])
        doc = run_subprocess(["reproduce-paper", "--seed", "0"])
        assert (text.returncode, doc.returncode) == (0, 0), text.stderr
        rows = json.loads(doc.stdout)["rows"]
        lines = text.stdout.decode().splitlines()
        assert len(rows) == 13
        assert [line.split()[0] for line in lines[3:-1]] == [row["name"] for row in rows]
        for line, row in zip(lines[3:-1], rows):
            numbers = [row[key] for key in ("paper", "derived_from_paper", "exact_qm", "simulated")]
            expected = ["-" if x is None else format(x, ".5f") for x in numbers]
            assert line.split()[1:] == expected + ["yes"], row["name"]
        assert lines[-1] == "all rows pass"

    def test_seed_73_passes_the_m_fidelity_row(self):
        # m_fidelity = (1 - E(M))/2 is judged at half the E(M) row's tolerance,
        # sampling margin included; a fixed 0.015 failed this seed
        doc = _reproduce_document(73)
        rows = {row["name"]: row for row in doc["rows"]}
        assert rows["m_fidelity"]["tolerance"] == pytest.approx(rows["E(M)"]["tolerance"] / 2)
        assert rows["m_fidelity"]["pass"] is True
        assert doc["all_pass"] is True

    def test_m_fidelity_verdict_equals_the_e_m_verdict(self):
        verdicts = set()
        for seed in range(1700, 1800):
            rows = {row["name"]: row for row in _reproduce_document(seed)["rows"]}
            assert rows["m_fidelity"]["pass"] == rows["E(M)"]["pass"], seed
            verdicts.add(rows["E(M)"]["pass"])
        # the range holds seed 1743, where E(M) itself fails
        assert verdicts == {True, False}


class TestErrors:
    def test_malformed_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        proc = run_subprocess(["predict"], config)
        assert proc.returncode == 2
        assert b"error" in proc.stderr

    def test_unknown_config_field_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"sched": {}}))
        assert main(["predict", "--config", str(config)]) == 2

    def test_out_of_range_noise_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"noise": {"white_noise_weight": 2.0}}))
        assert main(["predict", "--config", str(config)]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["simulate", "predict", "reproduce-paper"])
    def test_seed_outside_64_bits_exits_2(self, command, seed, capsys):
        assert main([command, "--seed", str(seed)]) == 2
        assert f"seed {seed}" in capsys.readouterr().err

    # a config field is checked as it is read, even when a flag overrides it
    @pytest.mark.parametrize(
        "raw, flags, named",
        [
            ({"seed": -1}, [], "seed -1"),
            ({"seed": -1}, ["--seed", "2"], "seed -1"),
            ({"output_format": "xml"}, [], "output_format"),
            ({"output_format": "xml"}, ["--format", "csv"], "output_format"),
        ],
    )
    def test_config_field_outside_its_range_exits_2(self, tmp_path, capsys, raw, flags, named):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(config), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and named in err

    @pytest.mark.parametrize("literal", ["Infinity", "1e300"])
    def test_undrawable_pair_rate_exits_2_naming_the_field(self, tmp_path, literal):
        config = tmp_path / "bad.json"
        config.write_text('{"schedule": {"pair_rate": %s}}' % literal)
        proc = run_subprocess(["simulate"], config)
        assert proc.returncode == 2
        assert b"pair_rate" in proc.stderr
        assert b"lam value" not in proc.stderr and b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    @pytest.mark.parametrize(
        "literal, named",
        [
            ('{"noise": []}', "noise"),
            ('{"source": 3}', "source"),
            ('{"schedule": []}', "schedule"),
            ('{"schedule": {"overrides": []}}', "schedule.overrides"),
            ('{"schedule": {"overrides": {"ZZ": 5}}}', "schedule.overrides.ZZ"),
            ('{"noise": {"pol_visibility": null}}', "noise.pol_visibility"),
            ('{"schedule": {"pair_rate": null}}', "schedule.pair_rate"),
            ('{"source": {"phi": true}}', "source.phi"),
            ('{"noise": {"pol_visibility": "0.5"}}', "noise.pol_visibility"),
            ('{"schedule": {"pair_rate": true}}', "schedule.pair_rate"),
            ('{"noise": {"pol_visibility": 1e999999}}', "noise.pol_visibility"),
            ('{"source": {"phi": NaN}}', "source.phi"),
            ('{"noise": {"phase_offset": Infinity}}', "noise.phase_offset"),
        ],
    )
    def test_misshapen_config_exits_2_naming_the_field(self, command, literal, named, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(literal))
        assert main([command, "--config", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"avnsim: error: {named} ")

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_over_deep_config_exits_2(self, depth):
        proc = run_subprocess(["predict", "--config", "-"], stdin=b"[" * depth + b"]" * depth)
        assert proc.returncode == 2
        assert proc.stderr == b"avnsim: error: config document nests too deeply\n"

    @pytest.mark.parametrize("command", ["lhv", "predict"])
    def test_unwritable_out_exits_2_without_a_traceback(self, command, tmp_path, capsys):
        for out in (tmp_path / "missing" / "x", tmp_path):
            assert main([command, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("avnsim: error: ") and str(out) in err

    def test_unknown_format_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["predict", "--format", "yaml"])
        assert err.value.code == 2


def test_json_serializer_full_precision():
    value = 0.1 + 0.2
    emitted = to_json({"x": value})
    assert json.loads(emitted)["x"] == value
    assert "0.30000000000000004" in emitted
    assert to_json({"nan": float("nan"), "inf": float("inf")}) == '{\n  "nan": null,\n  "inf": null\n}'


def test_json_serializer_prints_empty_containers_on_one_line():
    assert to_json({"rows": [], "fit": {}}) == '{\n  "rows": [],\n  "fit": {}\n}'


def test_json_serializer_accepts_numpy_scalars():
    assert to_json([np.int64(3), np.float32(0.5), np.float64(0.1)]) == to_json([3, 0.5, 0.1])


_JSON_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _block(fields):
    return st.dictionaries(st.sampled_from(fields), _JSON_LEAF | _JSON, max_size=len(fields)) | _JSON


_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "source": _block(["phi"]),
        "noise": _block(["white_noise_weight", "pol_visibility", "path_visibility", "phase_offset"]),
        "schedule": st.fixed_dictionaries(
            {},
            optional={
                "pair_rate": _JSON_LEAF,
                "duration": _JSON_LEAF,
                "overrides": st.dictionaries(st.sampled_from(["ZZ", "M", "nope"]), _block(["pair_rate", "duration"]), max_size=2)
                | _JSON,
            },
        )
        | _JSON,
    },
)


@settings(max_examples=150, deadline=None)
@given(config=_CONFIGS)
def test_any_json_config_gives_a_document_or_a_clean_exit_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert main(["predict", "--config", path, "--out", os.path.join(tmp, "out.json")]) in (0, 2)
