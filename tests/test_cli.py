import argparse
import csv
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import pytest

from geotrips.cli import _merged, main
from geotrips.displacement import DISPLACEMENT_COLUMNS, read_displacements_csv
from geotrips.errors import ValidationError

DISPLACEMENT_HEADER = ",".join(DISPLACEMENT_COLUMNS) + "\n"


@pytest.fixture
def synth_config(tmp_path, four_zone_geojson):
    cfg = {
        "zones": four_zone_geojson,
        "seed": 21,
        "n_agents": 25,
        "od_weights": {"alpha": {"beta": 0.7}, "beta": {"alpha": 0.3}},
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_synth(tmp_path, synth_config, name="data"):
    out = tmp_path / name
    assert main(["synth", "--config", synth_config, "--out", str(out)]) == 0
    return out


class TestSynthCommand:
    def test_fixed_seed_twice_identical_files(self, tmp_path, synth_config):
        d1 = run_synth(tmp_path, synth_config, "d1")
        d2 = run_synth(tmp_path, synth_config, "d2")
        assert (d1 / "corpus.csv").read_bytes() == (d2 / "corpus.csv").read_bytes()
        assert (d1 / "ground_truth.csv").read_bytes() == (d2 / "ground_truth.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path, synth_config):
        d1 = run_synth(tmp_path, synth_config, "d1")
        out2 = tmp_path / "d2"
        assert main(["synth", "--config", synth_config, "--seed", "99", "--out", str(out2)]) == 0
        assert (d1 / "corpus.csv").read_bytes() != (out2 / "corpus.csv").read_bytes()


class TestExtractCommand:
    def test_full_run_writes_consistent_outputs(self, tmp_path, synth_config, four_zone_geojson, capsys):
        data = run_synth(tmp_path, synth_config)
        out = tmp_path / "out"
        rc = main([
            "extract",
            "--input", str(data / "corpus.csv"),
            "--zones", four_zone_geojson,
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lines_read"] == report["parsed_records"] + report["rejected_lines"]
        assert report["users_total"] == report["users_retained"] + report["users_dropped"]
        if report["travelers"]:
            assert report["average_displacements_per_traveler"] == pytest.approx(
                report["displacements_total"] / report["travelers"]
            )
        for name in ("displacements.csv", "rejects.csv", "users.csv"):
            assert (out / name).exists()
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == ["extraction", "ingest", "write", "zones"]
        average = f"{report['average_displacements_per_traveler']:.1f}"
        assert f"average_displacements_per_traveler  {average}\n" in capsys.readouterr().out

    def test_missing_zones_file_fails(self, tmp_path, synth_config, capsys):
        data = run_synth(tmp_path, synth_config)
        rc = main([
            "extract",
            "--input", str(data / "corpus.csv"),
            "--zones", str(tmp_path / "missing.geojson"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc != 0
        assert "zones file not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, body",
        [
            ("corpus.csv", b"user_id,lat,lon,timestamp,text\nu1,40.1,-73.9,2014-03-01T00:00:00Z,caf\xe9\n"),
            (
                "corpus.jsonl",
                b'{"user_id": "u1", "lat": 40.1, "lon": -73.9, '
                b'"timestamp": "2014-03-01T00:00:00Z", "text": "caf\xe9"}\n',
            ),
        ],
        ids=["csv", "jsonl"],
    )
    def test_non_utf8_corpus_is_one_error_line(self, tmp_path, four_zone_geojson, name, body, capsys):
        corpus = tmp_path / name
        corpus.write_bytes(body)
        rc = main([
            "extract",
            "--input", str(corpus),
            "--zones", four_zone_geojson,
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: input is not UTF-8: byte 0xe9: invalid continuation byte\n"
        )

    def test_config_file_with_flag_override(self, tmp_path, synth_config, four_zone_geojson):
        data = run_synth(tmp_path, synth_config)
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(
            f"input = {data / 'corpus.csv'}\n"
            f"zones = {four_zone_geojson}\n"
            f"out = {tmp_path / 'cfg_out'}\n"
            "min_tweets = 100000  # dropped by the flag below\n"
        )
        rc = main(["extract", "--config", str(cfg), "--min-tweets", "1"])
        assert rc == 0
        report = json.loads((tmp_path / "cfg_out" / "report.json").read_text())
        assert report["users_retained"] > 0

    def test_workers_do_not_change_outputs(self, tmp_path, synth_config, four_zone_geojson):
        data = run_synth(tmp_path, synth_config)
        outputs = {}
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            rc = main([
                "extract",
                "--input", str(data / "corpus.csv"),
                "--zones", four_zone_geojson,
                "--out", str(out),
                "--workers", workers,
            ])
            assert rc == 0
            outputs[workers] = (
                (out / "displacements.csv").read_bytes(),
                (out / "report.json").read_bytes(),
            )
        assert outputs["1"] == outputs["4"]


class TestAnalyzeCommand:
    @pytest.fixture
    def extracted(self, tmp_path, synth_config, four_zone_geojson):
        data = run_synth(tmp_path, synth_config)
        out = tmp_path / "out"
        assert main([
            "extract", "--input", str(data / "corpus.csv"),
            "--zones", four_zone_geojson, "--out", str(out),
        ]) == 0
        return out

    def test_outputs_and_idempotence(self, tmp_path, extracted):
        an = tmp_path / "an"
        argv = [
            "analyze",
            "--displacements", str(extracted / "displacements.csv"),
            "--out", str(an),
            "--focal-zone", "alpha",
        ]
        assert main(argv) == 0
        names = [
            "od_counts.csv",
            "od_proportions.csv",
            "histogram_all.csv",
            "histogram_from_alpha.csv",
            "histogram_to_alpha.csv",
            "groups.csv",
        ]
        first = {n: (an / n).read_bytes() for n in names}
        assert main(argv) == 0  # rerun over the same input
        assert {n: (an / n).read_bytes() for n in names} == first
        assert sorted(os.listdir(an)) == sorted(names + ["timings.json"])
        timings = json.loads((an / "timings.json").read_text())
        assert sorted(timings) == ["aggregate", "read", "write"]

    def test_empty_displacements_fails_with_empty_od(self, tmp_path, extracted, capsys):
        empty = tmp_path / "empty.csv"
        header = (extracted / "displacements.csv").read_text().splitlines()[0]
        empty.write_text(header + "\n")
        rc = main(["analyze", "--displacements", str(empty), "--out", str(tmp_path / "an2")])
        assert rc != 0
        assert "empty OD" in capsys.readouterr().err

    def test_external_only_od_is_empty_and_writes_nothing(self, tmp_path, capsys):
        # Every inter-zone displacement touches EXTERNAL: the histograms would
        # not be empty, but without --include-external the OD matrix is.
        disp = tmp_path / "displacements.csv"
        disp.write_text(DISPLACEMENT_HEADER + "".join(
            f"u1,40.1,-73.9,40.1,-75.0,2014-08-04T1{h}:00:00Z,2014-08-04T1{h}:30:00Z,1800.0,"
            f"94000.0,{o},{t},2014-08-04T1{h}:15:00Z\n"
            for h, (o, t) in enumerate([("alpha", "EXTERNAL"), ("EXTERNAL", "beta")])
        ))
        (tmp_path / "users.csv").write_text("user_id,tweet_count\nu1,200\n")
        an = tmp_path / "an"
        an.mkdir()
        rc = main(["analyze", "--displacements", str(disp), "--out", str(an)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: empty OD: no displacements survive the filters\n"
        )
        assert list(an.iterdir()) == []
        assert main([
            "analyze", "--displacements", str(disp), "--out", str(an), "--include-external",
        ]) == 0

    @pytest.mark.parametrize(
        "column, value",
        [
            ("origin_lat", "north"),
            ("dest_lon", ""),
            ("start_time", "2014-08-04 12:00:00"),
            ("end_time", "2014-13-04T12:30:00Z"),
            ("duration_s", "1800s"),
            ("distance_m", "far"),
            ("crossing_time", "noon"),
            # two bad values: the first column in file order names the error
            ("start_time,distance_m", "yesterday,far"),
            ("dest_lat,crossing_time", "x,noon"),
            ("origin_lon,end_time", "x,noon"),
        ],
    )
    def test_bad_value_in_any_column_fails_as_the_full_read_does(
        self, tmp_path, column, value, capsys
    ):
        good = [
            "u1", "40.1", "-73.9", "40.1", "-73.6", "2014-08-04T12:00:00Z",
            "2014-08-04T12:30:00Z", "1800.0", "25000.0", "alpha", "beta", "2014-08-04T12:15:00Z",
        ]
        bad = list(good)
        for name, v in zip(column.split(","), value.split(",")):
            bad[DISPLACEMENT_COLUMNS.index(name)] = v
        disp = tmp_path / "displacements.csv"
        disp.write_text(DISPLACEMENT_HEADER + ",".join(good) + "\n" + ",".join(bad) + "\n")
        with pytest.raises(ValidationError) as full:
            read_displacements_csv(str(disp))
        assert str(full.value).startswith(f"{disp}:3: ")
        an = tmp_path / "an"
        assert main(["analyze", "--displacements", str(disp), "--out", str(an)]) == 1
        assert capsys.readouterr().err == f"error: {full.value}\n"
        assert not an.exists()

    def test_groups_csv_schema(self, tmp_path, extracted):
        an = tmp_path / "an3"
        assert main([
            "analyze", "--displacements", str(extracted / "displacements.csv"), "--out", str(an),
        ]) == 0
        lines = (an / "groups.csv").read_text().splitlines()
        assert lines[0] == "user_id,tweet_count,displacement_count,group"
        groups = {line.split(",")[3] for line in lines[1:]}
        assert groups <= {"HIGH_FREQUENCY", "LOW_FREQUENCY"}
        assert "HIGH_FREQUENCY" in groups

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("u1", "expected 2 fields, got 1"),
            ("u1,many", "invalid literal for int() with base 10: 'many'"),
        ],
        ids=["short-row", "non-integer-count"],
    )
    def test_malformed_users_row_names_its_line(self, tmp_path, extracted, row, reason, capsys):
        users = tmp_path / "users.csv"
        lines = (extracted / "users.csv").read_text().splitlines()
        lines[2] = row
        users.write_text("\n".join(lines) + "\n")
        rc = main([
            "analyze", "--displacements", str(extracted / "displacements.csv"),
            "--users", str(users), "--out", str(tmp_path / "an4"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {users}:3: {reason}\n"

    def test_missing_users_file_writes_nothing(self, tmp_path, extracted, capsys):
        an = tmp_path / "an5"
        an.mkdir()
        missing = tmp_path / "nowhere.csv"
        rc = main([
            "analyze", "--displacements", str(extracted / "displacements.csv"),
            "--users", str(missing), "--out", str(an),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: users file not found: {missing}")
        assert list(an.iterdir()) == []

    def test_user_id_with_comma_and_quote_survives(self, tmp_path, four_zone_geojson):
        # One user hopping between alpha and beta every hour, one who stays.
        odd = 'smith, "j"'
        t0 = datetime(2014, 8, 4, 12, tzinfo=timezone.utc)
        rows = [
            {"user_id": uid, "lat": 40.1, "lon": lon, "text": "",
             "timestamp": (t0 + timedelta(hours=h)).isoformat()}
            for uid, lons in ((odd, (-73.9, -73.6)), ("plain", (-73.9, -73.9)))
            for h in range(6)
            for lon in (lons[h % 2],)
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out, an = tmp_path / "out", tmp_path / "an"
        assert main([
            "extract", "--input", str(corpus), "--zones", four_zone_geojson,
            "--out", str(out), "--min-tweets", "2",
        ]) == 0
        with open(out / "users.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["user_id", "tweet_count"], ["plain", "6"], [odd, "6"]]
        argv = ["analyze", "--displacements", str(out / "displacements.csv"), "--out", str(an)]
        assert main(argv) == 0
        with open(an / "groups.csv", newline="") as fh:
            groups = {row[0]: row[1:] for row in csv.reader(fh)}
        assert groups[odd][:2] == ["6", "5"]  # tweet and displacement counts
        assert groups["plain"][:2] == ["6", "0"]


class TestCompareCommand:
    def write_series(self, path, values):
        path.write_text("bin_label,value\n" + "".join(f"b{i},{v}\n" for i, v in enumerate(values)))

    def test_file_against_itself_l1_zero(self, tmp_path, capsys):
        f = tmp_path / "a.csv"
        self.write_series(f, [0.25, 0.25, 0.5])
        assert main(["compare", str(f), str(f)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l1_distance"] == 0.0
        assert payload["pearson_r"] == pytest.approx(1.0)

    def test_one_hot_pair_l1_two(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_series(a, [1.0, 0.0, 0.0])
        self.write_series(b, [0.0, 0.0, 1.0])
        assert main(["compare", str(a), str(b)]) == 0
        assert json.loads(capsys.readouterr().out)["l1_distance"] == pytest.approx(2.0)

    def test_hand_built_pair_and_out_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_series(a, [0.1, 0.4, 0.3, 0.2])
        self.write_series(b, [0.25, 0.25, 0.25, 0.25])
        out = tmp_path / "cmp.json"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["l1_distance"] == pytest.approx(0.4)

    def test_oversized_label_names_file_and_line(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("bin_label,value\nb0,0.5\n" + "b" * 200_000 + ",0.5\n")
        assert main(["compare", str(a), str(a)]) == 1
        assert capsys.readouterr().err == f"error: {a}:3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize(
        "labels_b, first_difference",
        [
            (["b0", "b2", "b1"], "bin 2 is 'b1' in the first and 'b2' in the second"),
            (["b0", "b1", "hour2"], "bin 3 is 'b2' in the first and 'hour2' in the second"),
        ],
        ids=["reordered", "renamed"],
    )
    def test_bin_labels_must_match(self, tmp_path, labels_b, first_difference, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_series(a, [0.5, 0.5, 0.5])
        b.write_text("bin_label,value\n" + "".join(f"{label},0.5\n" for label in labels_b))
        for argv in (["compare", str(a), str(b)], ["compare", str(a), str(b), "--normalize"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {a} and {b} have different bin labels: {first_difference}\n"
            )

    def test_unnormalized_inputs_fail_without_flag(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        self.write_series(a, [3.0, 1.0])
        assert main(["compare", str(a), str(a)]) != 0
        assert main(["compare", str(a), str(a), "--normalize"]) == 0


class TestEnvironment:
    def test_tz_env_var_sets_default(self, monkeypatch):
        from geotrips.cli import TZ_ENV_VAR, _default_tz

        monkeypatch.delenv(TZ_ENV_VAR, raising=False)
        assert _default_tz() == "UTC"
        monkeypatch.setenv(TZ_ENV_VAR, "America/New_York")
        assert _default_tz() == "America/New_York"

    def test_import_does_not_load_multiprocessing(self):
        # Every extract, analyze and set-up process pays for what the
        # package imports.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "import geotrips, sys; assert 'multiprocessing' not in sys.modules"
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True
        )


# A synth config whose only fault is the key spliced in after its OD weights.
VALID_SYNTH = '{"zones": "zones.geojson", "od_weights": {"alpha": {"beta": 1}}, %s}'


class TestBadConfiguration:
    @pytest.fixture
    def inputs(self, tmp_path, four_zone_geojson):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("user_id,lat,lon,timestamp,text\n")
        disp = tmp_path / "displacements.csv"
        disp.write_text("")
        return {
            "extract": ["extract", "--input", str(corpus), "--zones", four_zone_geojson],
            "analyze": ["analyze", "--displacements", str(disp)],
        }

    @pytest.mark.parametrize("command", ["extract", "analyze"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_unknown_timezone_is_config_error(
        self, tmp_path, inputs, command, source, monkeypatch, capsys
    ):
        from geotrips.cli import TZ_ENV_VAR

        argv = inputs[command] + ["--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--tz", "Not/AZone"]
        else:
            monkeypatch.setenv(TZ_ENV_VAR, "Not/AZone")
        assert main(argv) == 1
        assert "unknown timezone 'Not/AZone'" in capsys.readouterr().err

    def test_non_numeric_config_value_is_config_error(self, tmp_path, inputs, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("min_tweets = abc\n")
        argv = inputs["extract"] + ["--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: min_tweets = 'abc' is not a valid int" in err

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("extract", "format = xml", "format = 'xml' is not one of csv, jsonl"),
            ("extract", "legacy_timestamps = Y", "legacy_timestamps = 'Y' is not a valid bool"),
            ("analyze", "include_intra = ture", "include_intra = 'ture' is not a valid bool"),
            ("analyze", "include_external = 2", "include_external = '2' is not a valid bool"),
        ],
        ids=["format", "legacy-timestamps", "include-intra", "include-external"],
    )
    def test_bad_config_value_is_config_error(
        self, tmp_path, inputs, command, line, message, capsys
    ):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(line + "\n")
        argv = inputs[command] + ["--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize(
        "raw, value",
        [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
         ("0", False), ("False", False), ("NO", False), ("Off", False)],
    )
    def test_config_booleans_in_any_case(self, raw, value):
        args = argparse.Namespace(config="pipeline.cfg", include_intra=None)
        assert _merged(args, {"include_intra": raw}, "include_intra", None, bool) is value

    def test_nan_max_speed_is_rejected(self, tmp_path, inputs, capsys):
        argv = inputs["extract"] + ["--max-speed-mph", "nan", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "error: FilterConfig.max_speed must be strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"type": "FeatureCollection",\n "features": [}', "{path}:2:15: Expecting value"),
            ("[]", "{path}: not a GeoJSON FeatureCollection"),
            ('{"type": "FeatureCollection", "features": 3}', "{path}: 'features' is not a list"),
            ('{"type": "FeatureCollection", "features": [7]}', "{path}: feature #0 is not a JSON object"),
            (
                '{"type": "FeatureCollection", "features": [{"properties": [1]}]}',
                "{path}: feature #0 has no zone_id property",
            ),
            (
                '{"type": "FeatureCollection", "features": [{"properties": {"zone_id": "a"}, '
                '"geometry": "Polygon"}]}',
                "feature 'a': geometry is not a JSON object",
            ),
            (
                '{"type": "FeatureCollection", "features": [{"properties": {"zone_id": "a"}, '
                '"geometry": {"type": "Polygon", "coordinates": 5}}]}',
                "feature 'a': polygon coordinates are not a list",
            ),
            (
                '{"type": "FeatureCollection", "features": [{"properties": {"zone_id": "a"}, '
                '"geometry": {"type": "Polygon", "coordinates": {"x": 1}}}]}',
                "feature 'a': polygon coordinates are not a list",
            ),
            (
                '{"type": "FeatureCollection", "features": [{"properties": {"zone_id": "a"}, '
                '"geometry": {"type": "MultiPolygon", "coordinates": 5}}]}',
                "feature 'a': multipolygon coordinates are not a list",
            ),
            (
                '{"type": "FeatureCollection", "features": [{"properties": {"zone_id": "a"}, '
                '"geometry": {"type": "MultiPolygon", "coordinates": [5]}}]}',
                "feature 'a': polygon coordinates are not a list",
            ),
        ],
        ids=[
            "syntax", "not-an-object", "features-not-a-list", "feature-not-an-object",
            "properties-not-an-object", "geometry-not-an-object", "polygon-number",
            "polygon-object", "multipolygon-number", "multipolygon-member",
        ],
    )
    def test_malformed_zones_json_is_named_error(self, tmp_path, inputs, doc, message, capsys):
        zones = tmp_path / "bad.geojson"
        zones.write_text(doc)
        argv = inputs["extract"] + ["--zones", str(zones), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=zones)}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"seed": 1,\n  "zones": }', "{path}:2:12: Expecting value"),
            ("[1, 2]", "{path}: synth config is not a JSON object"),
            # the rest name the zone map that four_zone_geojson writes beside the config
            ('{"zones": 5}', "{path}: zones = 5 is not a valid str"),
            ('{"zones": "zones.geojson", "n_agents": "x"}', "{path}: n_agents = 'x' is not a valid int"),
            ('{"zones": "zones.geojson", "seed": "s"}', "{path}: seed = 's' is not a valid int"),
            ('{"zones": "zones.geojson", "seed": true}', "{path}: seed = True is not a valid int"),
            (
                '{"zones": "zones.geojson", "gps_noise_sigma": "n"}',
                "{path}: gps_noise_sigma = 'n' is not a valid float",
            ),
            (
                '{"zones": "zones.geojson", "period_start": "garbage"}',
                "{path}: period_start = 'garbage' is not a valid datetime",
            ),
            (
                '{"zones": "zones.geojson", "od_weights": {"alpha": {"beta": "w"}}}',
                "{path}: od_weights.alpha.beta = 'w' is not a valid float",
            ),
            (
                '{"zones": "zones.geojson", "od_weights": [1]}',
                "{path}: od_weights = [1] is not a valid dict",
            ),
            (
                '{"zones": "zones.geojson", "weekday_schedule": 3}',
                "{path}: weekday_schedule = 3 is not a valid tuple",
            ),
            (
                '{"zones": "zones.geojson", "tz": "Mars/Base"}',
                "{path}: tz = 'Mars/Base' is not a valid timezone",
            ),
            # right type, out of range
            (
                VALID_SYNTH % '"tweet_alpha": 0',
                "tweet_alpha = 0 is out of range: must be finite and > 0",
            ),
            (
                VALID_SYNTH % '"gps_noise_sigma": NaN',
                "gps_noise_sigma = nan is out of range: must be finite and >= 0",
            ),
            (VALID_SYNTH % '"n_agents": -1', "n_agents = -1 is out of range: must be >= 1"),
            (VALID_SYNTH % '"tweet_cap": 0', "tweet_cap = 0 is out of range: must be >= 1"),
            (
                VALID_SYNTH % '"trip_fraction": 2.0',
                "trip_fraction = 2.0 is out of range: must be in [0, 1]",
            ),
            (
                VALID_SYNTH % '"time_window": -5.0',
                "time_window = -5.0 is out of range: must be finite and > 0",
            ),
            (
                VALID_SYNTH % '"max_speed": Infinity',
                "max_speed = inf is out of range: must be finite and > 0",
            ),
            (VALID_SYNTH % '"tweet_floor": -1', "tweet_floor = -1 is out of range: must be >= 0"),
            (
                VALID_SYNTH % '"gps_noise_sigma": Infinity',
                "gps_noise_sigma = inf is out of range: must be finite and >= 0",
            ),
        ],
        ids=[
            "syntax", "not-an-object", "zones-number", "n-agents-string", "seed-string",
            "seed-bool", "noise-string", "period-garbage", "od-weight-string", "od-weights-list",
            "schedule-number", "unknown-tz", "alpha-zero", "noise-nan", "agents-negative",
            "cap-zero", "trip-fraction-two", "window-negative", "speed-infinite", "floor-negative",
            "noise-infinite",
        ],
    )
    def test_malformed_synth_config_is_config_error(
        self, tmp_path, four_zone_geojson, doc, message, capsys
    ):
        cfg = tmp_path / "synth.json"
        cfg.write_text(doc)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"
