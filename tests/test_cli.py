import json
import math

import numpy as np
import pytest

from macregion.binary_mac import BinaryDpcParams, BinaryMacParams, induced_dm_spec, inner_pentagon
from macregion import cli
from macregion.cli import (
    FIGURE_PRESETS,
    DmSpecError,
    RegionExport,
    load_dm_spec,
    main,
    rebuild_from_metadata,
)


def spec_doc(m=None, d=None):
    """JSON document for the binary construction, round-tripped from arrays."""
    m = m or BinaryMacParams(0.1, 0.4, 0.2)
    d = d or BinaryDpcParams(0.1, 0.9)
    spec = induced_dm_spec(m, d)
    return {
        "alphabets": {"Q": 1, "S": 2, "U1": 2, "X1": 2, "X2": 2, "Y": 2},
        "q_dist": spec.q_dist.atoms.tolist(),
        "s_dist": spec.s_dist.atoms.tolist(),
        "u1_given_sq": spec.u1_given_sq.tolist(),
        "x1_given_u1sq": spec.x1_given_u1sq.tolist(),
        "x2_given_q": spec.x2_given_q.tolist(),
        "y_given_x1x2s": spec.y_given_x1x2s.tolist(),
    }


class TestRegionExports:
    def test_csv_and_json_hold_identical_vertices(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        code = main(
            [
                "binary-region",
                "--p1", "0.1", "--p2", "0.4", "--q", "0.2", "--grid", "21",
                "--out", str(csv_path), "--out", str(json_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "R1_bits,R2_bits"
        csv_verts = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        doc = json.loads(json_path.read_text())
        json_verts = [tuple(v) for v in doc["vertices"]]
        assert csv_verts == json_verts
        assert csv_verts[0] == (0.0, 0.0)

    def test_rerun_from_metadata_is_bit_identical(self, tmp_path):
        json_path = tmp_path / "r.json"
        main(
            [
                "gaussian-region",
                "--P1", "15", "--P2", "50", "--Q", "20", "--N", "60",
                "--rho-steps", "5", "--alpha-steps", "17",
                "--sample-step", "0.05",
                "--out", str(json_path),
            ]
        )
        first = json_path.read_text()
        doc = json.loads(first)
        again = rebuild_from_metadata(doc["metadata"])
        assert json.dumps(again.json_doc(), indent=2, sort_keys=True) + "\n" == first

    def test_curve_rerun_from_metadata(self, tmp_path):
        json_path = tmp_path / "c.json"
        code = main(
            [
                "r2max-curve",
                "--P1", "15", "--P2", "50", "--N", "60",
                "--q-values", "1,20",
                "--rho-steps", "9", "--alpha-steps", "33",
                "--out", str(json_path),
            ]
        )
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert [q for q, _ in doc["points"]] == [1.0, 20.0]
        again = rebuild_from_metadata(doc["metadata"])
        assert again.json_doc() == doc

    def test_nats_rescales_rates(self, tmp_path):
        bits_path = tmp_path / "bits.json"
        nats_path = tmp_path / "nats.json"
        args = ["binary-outer", "--p1", "0.1", "--p2", "0.4", "--q", "0.2"]
        main(args + ["--out", str(bits_path)])
        main(args + ["--nats", "--out", str(nats_path)])
        bits = json.loads(bits_path.read_text())
        nats = json.loads(nats_path.read_text())
        assert nats["metadata"]["units"] == "nats"
        for (bx, by), (nx, ny) in zip(bits["vertices"], nats["vertices"]):
            assert nx == pytest.approx(bx * math.log(2), abs=1e-12)
            assert ny == pytest.approx(by * math.log(2), abs=1e-12)
        csv = nats_path.with_suffix(".csv")
        main(args + ["--nats", "--out", str(csv)])
        assert csv.read_text().splitlines()[0] == "R1_nats,R2_nats"

    def test_boundary_samples(self, tmp_path):
        json_path = tmp_path / "r.json"
        main(
            [
                "binary-capacity", "--p1", "0.4", "--p2", "0.3",
                "--sample-step", "0.1", "--out", str(json_path),
            ]
        )
        doc = json.loads(json_path.read_text())
        samples = doc["boundary_samples"]
        assert samples[0][0] == 0.0
        assert samples[0][1] == pytest.approx(samples[0][1], abs=0)
        # R1 samples step by 0.1 up to the region's edge
        assert samples[1][0] == pytest.approx(0.1, abs=1e-12)
        assert max(s[0] for s in samples) == pytest.approx(doc["vertices"][1][0], abs=1e-9)

    def test_stdout_json_when_no_out(self, capsys):
        assert main(["asymptotic-outer", "--P1", "120", "--P2", "50", "--N", "60"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["command"] == "asymptotic-outer"
        assert doc["vertices"][0] == [0.0, 0.0]

    def test_bad_suffix_rejected(self, tmp_path):
        code = main(
            [
                "binary-outer", "--p1", "0.1", "--p2", "0.4", "--q", "0.2",
                "--out", str(tmp_path / "r.txt"),
            ]
        )
        assert code == 2

    def test_invalid_parameters_exit_nonzero(self, capsys):
        code = main(["binary-region", "--p1", "0.7", "--p2", "0.4", "--q", "0.2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_text_refuses_nan(self):
        doc = {"metadata": {"units": "bits"}, "vertices": [[0.0, 0.0], [1.5, 0.25]]}
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        doc["vertices"][1][0] = math.nan
        with pytest.raises(ValueError):
            cli._json_text(doc)

    def test_nan_export_exits_2(self, monkeypatch, capsys):
        nan_export = RegionExport({"units": "bits"}, [(0.0, 0.0), (math.nan, 0.0)])
        monkeypatch.setattr(cli, "build_region_export", lambda *a, **k: nan_export)
        assert main(["binary-outer", "--p1", "0.1", "--p2", "0.4", "--q", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_step_exits_2(self, value, capsys):
        argv = ["binary-dpc", "--p1", "0.1", "--p2", "0.4", "--q", "0.2", f"--sample-step={value}"]
        assert main(argv) == 2
        assert f"error: sample step must be finite, got {float(value)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["P1", "P2", "Q", "N"])
    def test_non_finite_gaussian_parameter_exits_2(self, name, value, tmp_path, capsys):
        params = {"P1": "15", "P2": "50", "Q": "20", "N": "60", name: value}
        out = tmp_path / "r.json"
        argv = ["gaussian-region", *(f"--{k}={v}" for k, v in params.items()), "--out", str(out)]
        assert main(argv) == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestDmSpecLoading:
    def test_valid_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_doc()))
        spec = load_dm_spec(path)
        assert spec.alphabet_sizes == {"Q": 1, "S": 2, "U1": 2, "X1": 2, "X2": 2, "Y": 2}

    def test_missing_key(self, tmp_path):
        doc = spec_doc()
        del doc["s_dist"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DmSpecError, match="s_dist"):
            load_dm_spec(path)

    def test_row_normalization_error_has_pointer(self, tmp_path):
        doc = spec_doc()
        doc["u1_given_sq"][1][0] = [0.49, 0.49]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DmSpecError) as err:
            load_dm_spec(path)
        assert err.value.pointer == "/u1_given_sq/1/0"
        assert "0.98" in str(err.value)

    def test_shape_mismatch_names_both_shapes(self, tmp_path):
        doc = spec_doc()
        doc["x2_given_q"] = [[0.5, 0.3, 0.2]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DmSpecError) as err:
            load_dm_spec(path)
        assert err.value.pointer == "/x2_given_q"
        assert "(1, 3)" in str(err.value) and "(1, 2)" in str(err.value)

    def test_not_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("not json {")
        with pytest.raises(DmSpecError, match="JSON"):
            load_dm_spec(path)

    def test_cli_dm_eval_reports_caps(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_doc()))
        assert main(["dm-eval", "--spec", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expect = inner_pentagon(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        assert doc["metadata"]["caps"]["c1"] == pytest.approx(expect.c1, abs=1e-11)
        assert doc["metadata"]["caps"]["c12"] == pytest.approx(expect.c12, abs=1e-11)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key, index",
        [("q_dist", (0,)), ("s_dist", (1,)), ("u1_given_sq", (0, 0, 1)), ("y_given_x1x2s", (1, 0, 1, 0))],
    )
    def test_non_finite_entry_names_its_pointer(self, tmp_path, key, index, bad):
        doc = spec_doc()
        row = doc[key]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = bad
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        pointer = "/" + "/".join([key, *map(str, index)])
        with pytest.raises(DmSpecError) as err:
            load_dm_spec(path)
        assert err.value.pointer == pointer
        assert "not finite" in str(err.value)

    def test_cli_dm_eval_nan_entry_exits_2_with_pointer(self, tmp_path, capsys):
        doc = spec_doc()
        doc["u1_given_sq"][0][0][1] = math.nan
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main(["dm-eval", "--spec", str(path)]) == 2
        assert capsys.readouterr().err == "error: /u1_given_sq/0/0/1: entry nan is not finite\n"

    def test_cli_dm_eval_bad_spec_exits_nonzero(self, tmp_path, capsys):
        doc = spec_doc()
        doc["u1_given_sq"][0][0] = [0.3, 0.3]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main(["dm-eval", "--spec", str(path)]) == 2
        assert "/u1_given_sq/0/0" in capsys.readouterr().err


class TestFigurePresets:
    def test_fig7_exports_inner_and_outer(self, tmp_path, capsys):
        code = main(["figure", "fig7", "--out-dir", str(tmp_path), "--format", "both"])
        assert code == 0
        inner = json.loads((tmp_path / "fig7_asym_inner.json").read_text())
        outer = json.loads((tmp_path / "fig7_asym_outer.json").read_text())
        assert inner["metadata"]["parameters"]["P1"] == 120.0
        from macregion.region_geometry import is_subset

        assert is_subset(inner["vertices"], outer["vertices"], 1e-9)
        assert (tmp_path / "fig7_asym_inner.csv").exists()

    def test_fig2_part_metadata_reruns(self, tmp_path):
        main(["figure", "fig2", "--out-dir", str(tmp_path), "--format", "json"])
        doc = json.loads((tmp_path / "fig2_outer.json").read_text())
        assert rebuild_from_metadata(doc["metadata"]).json_doc() == doc

    @pytest.mark.parametrize("nats", [False, True])
    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_every_part_rebuilds_byte_for_byte(self, tmp_path, name, nats):
        argv = ["figure", name, "--out-dir", str(tmp_path), "--format", "json"]
        assert main(argv + (["--nats"] if nats else [])) == 0
        for part, *_ in FIGURE_PRESETS[name]:
            first = (tmp_path / f"{name}_{part}.json").read_bytes()
            again = rebuild_from_metadata(json.loads(first)["metadata"])
            rebuilt = json.dumps(again.json_doc(), indent=2, sort_keys=True) + "\n"
            assert rebuilt.encode() == first

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestVerifySubcommand:
    def test_binary_oracle_suite_passes(self, capsys):
        assert main(["verify", "binary-oracle"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] binary-oracle" in out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


class TestDeterminism:
    def test_repeat_runs_and_rebuild_are_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_doc()))
        commands = [
            ["binary-region", "--p1", "0.1", "--p2", "0.4", "--q", "0.2", "--grid", "21"],
            ["gaussian-region", "--P1", "15", "--P2", "50", "--Q", "20", "--N", "60",
             "--rho-steps", "7", "--alpha-steps", "33"],
            ["dm-eval", "--spec", str(spec_path), "--nats"],
        ]
        for k, args in enumerate(commands):
            runs = []
            for attempt in range(2):
                json_path = tmp_path / f"{k}_{attempt}.json"
                csv_path = tmp_path / f"{k}_{attempt}.csv"
                assert main(args + ["--out", str(json_path), "--out", str(csv_path)]) == 0
                runs.append((json_path.read_bytes(), csv_path.read_bytes()))
            assert runs[0] == runs[1]
            first_json, first_csv = runs[0]
            again = rebuild_from_metadata(json.loads(first_json)["metadata"])
            rebuilt = json.dumps(again.json_doc(), indent=2, sort_keys=True) + "\n"
            assert rebuilt.encode() == first_json
            assert again.csv_text().encode() == first_csv
