import codecs
import csv
import errno
import importlib.util
import io
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import pytest

from geotrips.cli import main, parse_args
from geotrips.displacement import (
    DISPLACEMENT_COLUMNS,
    FilterConfig,
    extract_to_csv,
    read_displacements_csv,
    run_extraction,
    write_displacements_csv,
)
from geotrips.errors import ValidationError
from geotrips.ingest import load_timelines
from geotrips.synthgen import SynthConfig
from geotrips.zones import load_zones

DISPLACEMENT_HEADER = ",".join(DISPLACEMENT_COLUMNS) + "\n"
# A command's timings.json holds its peak RSS where the platform has `resource`.
PEAK_RSS = ["peak_rss_mb"] if importlib.util.find_spec("resource") else []


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

    def test_bom_config_gives_the_plain_configs_corpus(self, tmp_path, synth_config):
        bom_config = tmp_path / "bom.json"
        with open(synth_config, "rb") as fh:
            bom_config.write_bytes(codecs.BOM_UTF8 + fh.read())
        plain = run_synth(tmp_path, synth_config, "plain")
        bom = run_synth(tmp_path, str(bom_config), "bom")
        for name in ("corpus.csv", "ground_truth.csv"):
            assert (bom / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize(
        "spelling",
        [
            {
                "od_weights": {"alpha": {"beta": 1}, "beta": {"alpha": 0}},
                "weekday_schedule": [0] * 7 + [3] * 10 + [1] * 7,
                "weekend_schedule": [2] * 24,
                "gps_noise_sigma": 30,
            },
            {"period_start": "2014-03-01T00:00:00"},
            {"period_start": "3/1/2014 00:00"},
            {"period_start": " 2014-03-01T01:00:00+01:00"},
        ],
        ids=["integers", "naive", "legacy", "offset"],
    )
    def test_spellings_of_one_config_give_one_corpus(self, tmp_path, four_zone_geojson, spelling):
        """JSON integers are the numbers their float spellings are, and the
        period is read by `parse_timestamp`, UTC where the text names no offset."""
        config = {
            "zones": four_zone_geojson, "seed": 4, "n_agents": 12,
            "od_weights": {"alpha": {"beta": 1.0}, "beta": {"alpha": 0.0}},
            "weekday_schedule": [0.0] * 7 + [3.0] * 10 + [1.0] * 7,
            "weekend_schedule": [2.0] * 24,
            "gps_noise_sigma": 30.0,
            "period_start": "2014-03-01T00:00:00Z",
        }
        (tmp_path / "float.json").write_text(json.dumps(config))
        (tmp_path / "other.json").write_text(json.dumps({**config, **spelling}))
        a = run_synth(tmp_path, str(tmp_path / "float.json"), "float")
        b = run_synth(tmp_path, str(tmp_path / "other.json"), "other")
        for name in ("corpus.csv", "ground_truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert len((a / "ground_truth.csv").read_text().splitlines()) > 1

    def test_seed_override_changes_output(self, tmp_path, synth_config):
        d1 = run_synth(tmp_path, synth_config, "d1")
        out2 = tmp_path / "d2"
        assert main(["synth", "--config", synth_config, "--seed", "99", "--out", str(out2)]) == 0
        assert (d1 / "corpus.csv").read_bytes() != (out2 / "corpus.csv").read_bytes()

    @pytest.mark.parametrize("failure", ["ground-truth-writer", "ground-truth-directory"])
    def test_failed_run_leaves_the_earlier_products(
        self, tmp_path, synth_config, failure, monkeypatch, capsys
    ):
        """`synth` publishes its two files together: a failure while the ground
        truth is written leaves the earlier run's corpus as it was."""
        out = run_synth(tmp_path, synth_config)
        if failure == "ground-truth-directory":
            (out / "ground_truth.csv").unlink()
            (out / "ground_truth.csv").mkdir()
        before = {name: (out / name).read_bytes() for name in os.listdir(out) if (out / name).is_file()}
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise ValidationError("failed on purpose")

        if failure == "ground-truth-writer":
            monkeypatch.setattr("geotrips.synthgen.write_ground_truth_csv", fail)
        argv = ["synth", "--config", synth_config, "--seed", "2", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: failed on purpose\n" if failure == "ground-truth-writer" else
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out / 'ground_truth.csv'}'\n"
        )
        assert sorted(os.listdir(out)) == ["corpus.csv", "ground_truth.csv"]
        assert {name: (out / name).read_bytes() for name in before} == before


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
        assert sorted(timings) == ["ingest", *PEAK_RSS, "scan_and_write", "write", "zones"]
        assert timings["ingest"]["in"] == {"lines": report["lines_read"]}
        assert timings["scan_and_write"]["out"]["displacements"] == report["displacements_total"]
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
        "name, body, line",
        [
            (
                "corpus.csv",
                b"user_id,lat,lon,timestamp,text\nu1,40.1,-73.9,2014-03-01T00:00:00Z,caf\xe9\n",
                2,
            ),
            (
                "corpus.jsonl",
                b'{"user_id": "u1", "lat": 40.1, "lon": -73.9, '
                b'"timestamp": "2014-03-01T00:00:00Z", "text": "caf\xe9"}\n',
                1,
            ),
        ],
        ids=["csv", "jsonl"],
    )
    def test_non_utf8_corpus_is_one_error_line(
        self, tmp_path, four_zone_geojson, name, body, line, capsys
    ):
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
            f"error: {corpus}:{line}: not UTF-8: byte 0xe9: invalid continuation byte\n"
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

    def test_bom_config_file_reads_as_the_plain_one(self, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_bytes(codecs.BOM_UTF8 + b"min_tweets = 3\nformat = jsonl\n")
        args = parse_args(["extract", "--config", str(cfg)])
        assert (args.min_tweets, args.format) == (3, "jsonl")

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


# 30-minute steps over the four-zone map (alpha, beta, gamma; between them no
# zone): u1 moves within alpha, to beta, teleports (removed for speed), then
# to no zone and to gamma; u2 has enough records but never moves; u3 has too
# few.  One line repeats an earlier one and one is rejected.
HAND_CORPUS = """user_id,lat,lon,timestamp,text
u1,40.1,-73.9,2014-08-02T12:00:00Z,
u1,40.15,-73.9,2014-08-02T12:30:00Z,
u1,40.1,-73.6,2014-08-02T13:00:00Z,
u1,43.5,-70.0,2014-08-02T13:01:00Z,
u1,40.25,-73.75,2014-08-02T13:30:00Z,
u1,40.4,-73.9,2014-08-02T14:00:00Z,
u1,40.1,-73.9,2014-08-02T12:00:00Z,
u2,40.1,-73.9,2014-08-02T12:00:00Z,
u2,40.1,-73.9,2014-08-02T12:30:00Z,
u2,40.1,-73.9,2014-08-02T13:00:00Z,
u2,north,-73.9,2014-08-02T13:30:00Z,
u3,40.1,-73.9,2014-08-02T12:00:00Z,
u3,40.1,-73.6,2014-08-02T12:30:00Z,
"""


class TestStreamingExtract:
    @pytest.fixture
    def hand_corpus(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(HAND_CORPUS)
        return str(path)

    def extract(self, corpus, zones, out, *flags):
        return main(["extract", "--input", corpus, "--zones", zones, "--out", str(out),
                     "--min-tweets", "3", *flags])

    def library_outputs(self, corpus, zones):
        """`displacements.csv` and `report.json` as the library's
        `run_extraction` and `write_displacements_csv` give them."""
        ingest = load_timelines(corpus)
        displacements, report = run_extraction(
            ingest.timelines, load_zones(zones), FilterConfig(min_tweets=3)
        )
        report.lines_read = ingest.lines_read
        report.rejected_lines = len(ingest.rejects)
        report.parsed_records = ingest.parsed_records
        report.duplicates_removed = ingest.duplicates
        buf = io.StringIO(newline="")
        write_displacements_csv(displacements, buf)
        return buf.getvalue().encode("utf-8"), report.to_dict()

    def test_streamed_rows_and_report_equal_the_library_run(
        self, tmp_path, hand_corpus, four_zone_geojson
    ):
        expected_csv, expected_report = self.library_outputs(hand_corpus, four_zone_geojson)
        out = tmp_path / "out"
        assert self.extract(hand_corpus, four_zone_geojson, out) == 0
        assert (out / "displacements.csv").read_bytes() == expected_csv
        report = json.loads((out / "report.json").read_text())
        assert report == expected_report
        assert sorted(os.listdir(out)) == [
            "displacements.csv", "rejects.csv", "report.json", "timings.json", "users.csv"
        ]
        # The corpus exercises every count the walk tallies.
        assert report["rejected_lines"] == report["duplicates_removed"] == 1
        assert report["speed_removed_records"] == 1
        assert report["displacements_inter_zone"] == 3
        assert report["displacements_intra_zone"] == 1
        assert report["displacements_external_touching"] == 2
        assert report["travelers"] == 1 < report["users_retained"] == 2

    def test_extract_path_builds_no_displacement(
        self, tmp_path, hand_corpus, four_zone_geojson, monkeypatch
    ):
        expected_csv, _ = self.library_outputs(hand_corpus, four_zone_geojson)

        def refuse(*args, **kwargs):
            raise AssertionError("a Displacement was built")

        monkeypatch.setattr("geotrips.displacement.Displacement", refuse)
        out = tmp_path / "out"
        assert self.extract(hand_corpus, four_zone_geojson, out) == 0
        assert (out / "displacements.csv").read_bytes() == expected_csv

    def test_extract_path_formats_times_from_epoch_microseconds(
        self, tmp_path, hand_corpus, four_zone_geojson, monkeypatch
    ):
        """The scan's times reach the rows as integers: no timeline instant
        becomes a datetime to be printed."""
        expected_csv, _ = self.library_outputs(hand_corpus, four_zone_geojson)

        def refuse(*args, **kwargs):
            raise AssertionError("a timeline instant went through a datetime")

        monkeypatch.setattr("geotrips.displacement.from_epoch_us", refuse)
        monkeypatch.setattr("geotrips.records.from_epoch_us", refuse)
        out = tmp_path / "out"
        assert self.extract(hand_corpus, four_zone_geojson, out) == 0
        assert (out / "displacements.csv").read_bytes() == expected_csv

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bom_corpus_gives_the_plain_corpus_products(self, tmp_path, four_zone_geojson, fmt):
        """A corpus that starts with a UTF-8 BOM, as spreadsheet tools write
        it, gives the products of the same corpus without one."""
        text = HAND_CORPUS
        if fmt == "jsonl":
            text = "".join(json.dumps(row) + "\n" for row in csv.DictReader(io.StringIO(text)))
        products = {}
        for name, prefix in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            corpus = tmp_path / f"{name}.{fmt}"
            corpus.write_bytes(prefix + text.encode("utf-8"))
            out = tmp_path / name
            assert self.extract(str(corpus), four_zone_geojson, out) == 0
            products[name] = {
                f: (out / f).read_bytes()
                for f in ("displacements.csv", "rejects.csv", "users.csv", "report.json")
            }
        assert products["bom"] == products["plain"]
        assert json.loads(products["bom"]["report.json"])["rejected_lines"] == 1

    def test_default_thresholds_are_filter_configs(
        self, tmp_path, hand_corpus, four_zone_geojson, monkeypatch
    ):
        """The threshold flags and `SynthConfig`'s mirrored fields default to
        `FilterConfig`'s values."""
        configs = []

        def spy(timelines, zones, cfg, fh):
            configs.append(cfg)
            return extract_to_csv(timelines, zones, cfg, fh)

        monkeypatch.setattr("geotrips.cli.extract_to_csv", spy)
        argv = ["extract", "--input", hand_corpus, "--zones", four_zone_geojson]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert configs == [FilterConfig()]
        for name in FilterConfig._fields:
            assert getattr(SynthConfig, name) == getattr(FilterConfig, name), name

    @pytest.mark.parametrize("target", [
        "geotrips.displacement.RunReport.validate",
        "geotrips.zones.ZoneSet.label_point",
        "geotrips.cli.write_rejects_csv",
        "geotrips.cli.write_table",  # users.csv
        "geotrips.cli._write_json",  # report.json
    ])
    def test_failed_run_leaves_the_earlier_product(
        self, tmp_path, hand_corpus, four_zone_geojson, target, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        # An earlier run whose 6-minute window pairs nothing: a header-only file.
        assert self.extract(hand_corpus, four_zone_geojson, out, "--time-window-h", "0.1") == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert before["displacements.csv"] == DISPLACEMENT_HEADER.encode()
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise ValidationError("failed on purpose")

        monkeypatch.setattr(target, fail)
        assert self.extract(hand_corpus, four_zone_geojson, out) == 1
        assert capsys.readouterr().err == "error: failed on purpose\n"
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    @pytest.mark.parametrize("product", ["users.csv", "timings.json"])
    def test_directory_in_place_of_a_product_leaves_the_rest(
        self, tmp_path, hand_corpus, four_zone_geojson, product, capsys
    ):
        out = tmp_path / "out"
        assert self.extract(hand_corpus, four_zone_geojson, out, "--time-window-h", "0.1") == 0
        (out / product).unlink()
        (out / product).mkdir()

        def files():
            return {name: (out / name).read_bytes() for name in os.listdir(out) if name != product}

        before = files()
        capsys.readouterr()
        assert self.extract(hand_corpus, four_zone_geojson, out) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out / product}'\n"
        )
        assert files() == before
        assert os.listdir(out / product) == []

    def test_zone_ledger_counts_the_grid(self, tmp_path, hand_corpus, four_zone_geojson):
        out = tmp_path / "out"
        argv = ["extract", "--input", hand_corpus, "--zones", four_zone_geojson]
        assert main(argv + ["--out", str(out)]) == 0
        zs = load_zones(four_zone_geojson)
        zones = json.loads((out / "timings.json").read_text())["zones"]
        assert zones["out"] == {"polygons": 4, "vertices": 16, "cells": zs.cells,
                                "decided_cells": zs.decided_cells}
        assert 0 < zs.decided_cells < zs.cells == 16 * 16

    def test_bad_zone_map_is_refused_before_the_corpus_is_read(
        self, tmp_path, hand_corpus, monkeypatch, capsys
    ):
        zones = tmp_path / "zones.geojson"
        zones.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {}, "geometry": None},
        ]}))

        def unread(*args, **kwargs):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr("geotrips.cli.load_timelines", unread)
        argv = ["extract", "--input", hand_corpus, "--zones", str(zones)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "feature #0 has no zone_id property" in capsys.readouterr().err


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
        assert sorted(timings) == ["groups", *PEAK_RSS, "read_and_walk", "write"]
        assert timings["write"]["out"] == {"files": 6}

    @pytest.mark.parametrize("target", [
        "geotrips.analytics.write_od_csv",
        "geotrips.analytics.write_histogram_csv",
        "geotrips.analytics.write_groups_csv",
        "geotrips.cli._write_json",  # timings.json
    ])
    def test_failed_run_leaves_the_earlier_products(
        self, tmp_path, extracted, target, monkeypatch, capsys
    ):
        an = tmp_path / "an"
        argv = ["analyze", "--displacements", str(extracted / "displacements.csv"), "--out", str(an)]
        # An earlier run whose every product differs from the default run's.
        assert main(argv + ["--include-intra", "--focal-zone", "alpha", "--group-cutoff", "0.5"]) == 0
        before = {name: (an / name).read_bytes() for name in os.listdir(an)}
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise ValidationError("failed on purpose")

        with monkeypatch.context() as patched:
            patched.setattr(target, fail)
            assert main(argv) == 1
        assert capsys.readouterr().err == "error: failed on purpose\n"
        assert {name: (an / name).read_bytes() for name in os.listdir(an)} == before
        # The default run, had it not failed, changes every product the earlier run wrote,
        # but leaves the focal zone's histograms, which it does not write.
        assert main(argv) == 0
        after = {name: (an / name).read_bytes() for name in os.listdir(an)}
        assert after.keys() == before.keys()
        assert sorted(n for n in before if after[n] == before[n]) == [
            "histogram_from_alpha.csv", "histogram_to_alpha.csv"
        ]

    def test_empty_displacements_fails_with_empty_od(self, tmp_path, extracted, capsys):
        empty = tmp_path / "empty.csv"
        header = (extracted / "displacements.csv").read_text().splitlines()[0]
        empty.write_text(header + "\n")
        (tmp_path / "users.csv").write_bytes((extracted / "users.csv").read_bytes())
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
        (tmp_path / "users.csv").write_text("user_id,tweet_count\nu1,200\n")
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
            # classify_groups ranks by tweet_count: a negative one would reorder the groups
            ("u1,-5", "user_id 'u1' has a negative tweet_count -5"),
        ],
        ids=["short-row", "non-integer-count", "negative-count"],
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

    def test_bom_users_file_gives_the_same_products(self, tmp_path, extracted):
        users = tmp_path / "users.csv"
        users.write_bytes(codecs.BOM_UTF8 + (extracted / "users.csv").read_bytes())
        products = {}
        for name, users_path in (("plain", extracted / "users.csv"), ("bom", users)):
            out = tmp_path / name
            assert main([
                "analyze", "--displacements", str(extracted / "displacements.csv"),
                "--users", str(users_path), "--out", str(out), "--focal-zone", "alpha",
            ]) == 0
            products[name] = {
                f: (out / f).read_bytes() for f in os.listdir(out) if f != "timings.json"
            }
        assert products["bom"] == products["plain"]
        assert len(products["bom"]) == 6

    def test_repeated_user_names_its_line(self, tmp_path, extracted, capsys):
        """A user listed twice would be ranked, and written to groups.csv, twice."""
        users = tmp_path / "users.csv"
        lines = (extracted / "users.csv").read_text().splitlines()
        lines.insert(3, lines[1])
        users.write_text("\n".join(lines) + "\n")
        an = tmp_path / "an"
        rc = main([
            "analyze", "--displacements", str(extracted / "displacements.csv"),
            "--users", str(users), "--out", str(an),
        ])
        assert rc == 1
        uid = lines[1].split(",")[0]
        assert capsys.readouterr().err == f"error: {users}:4: user_id {uid!r} is listed twice\n"
        assert not an.exists()

    def test_user_with_displacements_but_no_row_is_named(self, tmp_path, extracted, capsys):
        """Such a user would drop out of the groups without a word."""
        users = tmp_path / "users.csv"
        lines = (extracted / "users.csv").read_text().splitlines()
        uid = lines.pop(2).split(",")[0]
        disps = read_displacements_csv(str(extracted / "displacements.csv"))
        assert uid in {d.user_id for d in disps}
        users.write_text("\n".join(lines) + "\n")
        an = tmp_path / "an"
        rc = main([
            "analyze", "--displacements", str(extracted / "displacements.csv"),
            "--users", str(users), "--out", str(an),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {users}: no row for user {uid!r}, who has displacements\n"
        )
        assert not an.exists()

    def test_tweet_count_below_displacements_plus_one_names_its_line(
        self, tmp_path, extracted, capsys
    ):
        """k displacements join k + 1 records: a smaller count is refused, k + 1 passes."""
        disp_path = extracted / "displacements.csv"
        counts: dict[str, int] = {}
        for d in read_displacements_csv(str(disp_path)):
            counts[d.user_id] = counts.get(d.user_id, 0) + 1
        lines = (extracted / "users.csv").read_text().splitlines()
        lineno, uid = next(
            (i, line.split(",")[0]) for i, line in enumerate(lines)
            if line.split(",")[0] in counts
        )
        k = counts[uid]
        users = tmp_path / "users.csv"
        for count, rc in ((k, 1), (0, 1), (k + 1, 0)):
            lines[lineno] = f"{uid},{count}"
            users.write_text("\n".join(lines) + "\n")
            an = tmp_path / f"an{count}"
            assert main([
                "analyze", "--displacements", str(disp_path),
                "--users", str(users), "--out", str(an),
            ]) == rc
            err = capsys.readouterr().err
            if rc:
                assert err == (
                    f"error: {users}:{lineno + 1}: user_id {uid!r} has tweet_count {count}, "
                    f"too few for {k} displacements\n"
                )
                assert not an.exists()

    def test_missing_users_file_writes_nothing(self, tmp_path, extracted, capsys, monkeypatch):
        """The users file is checked before the displacement file is opened."""
        def refuse(*args, **kwargs):
            raise AssertionError("the displacement file was read")

        monkeypatch.setattr("geotrips.cli.read_od_rows", refuse)
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

    def test_user_id_with_carriage_return_is_rejected_at_ingest(self, tmp_path, four_zone_geojson):
        """A lone carriage return in a user id would split its CSV rows; its
        lines are rejected, and the rest of the corpus extracts and analyzes."""
        t0 = datetime(2014, 8, 4, 12, tzinfo=timezone.utc)
        rows = [
            {"user_id": uid, "lat": 40.1, "lon": (-73.9, -73.6)[h % 2], "text": "",
             "timestamp": (t0 + timedelta(hours=h)).isoformat()}
            for uid, hours in (("a\rb", 6), ("plain", 8))
            for h in range(hours)
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out, an = tmp_path / "out", tmp_path / "an"
        assert main([
            "extract", "--input", str(corpus), "--zones", four_zone_geojson,
            "--out", str(out), "--min-tweets", "2",
        ]) == 0
        with open(out / "rejects.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [
                [str(n), "user_id holds a carriage return"] for n in range(1, 7)
            ]
        assert (out / "users.csv").read_text() == "user_id,tweet_count\nplain,8\n"
        argv = ["analyze", "--displacements", str(out / "displacements.csv"), "--out", str(an)]
        assert main(argv) == 0
        assert (an / "groups.csv").read_text().splitlines()[1].startswith("plain,8,7,")

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

    def test_bom_series_reads_as_the_plain_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_series(a, [0.1, 0.4, 0.3, 0.2])
        b.write_bytes(codecs.BOM_UTF8 + a.read_bytes())
        c = tmp_path / "c.csv"
        self.write_series(c, [0.25, 0.25, 0.25, 0.25])
        assert main(["compare", str(a), str(c)]) == 0
        plain = capsys.readouterr().out
        assert main(["compare", str(b), str(c)]) == 0
        assert capsys.readouterr().out == plain
        assert main(["compare", str(b), str(a)]) == 0
        assert json.loads(capsys.readouterr().out)["l1_distance"] == 0.0

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

    @pytest.mark.parametrize(
        "values_a, values_b",
        [([0.5, 0.5], [0.2, 0.3, 0.5]), ([0.2, 0.3, 0.5], [0.5, 0.5]), ([1.0], [1.0]), ([], [])],
        ids=["2-vs-3", "3-vs-2", "one-bin", "header-only"],
    )
    def test_bin_counts_must_match_and_reach_two(self, tmp_path, values_a, values_b, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_series(a, values_a)
        self.write_series(b, values_b)
        for argv in (["compare", str(a), str(b)], ["compare", str(a), str(b), "--normalize"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {a} and {b} have {len(values_a)} and {len(values_b)} bins: "
                "a comparison needs the same number of bins, at least 2\n"
            )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value, capsys):
        """A NaN once passed the normalisation check and printed invalid JSON."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_series(a, [0.5, value])
        self.write_series(b, [0.5, 0.5])
        for argv in (["compare", str(a), str(b)], ["compare", str(a), str(b), "--normalize"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {a}:3: value {value!r} is not finite\n"

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

    def test_each_command_imports_only_its_modules(self, tmp_path, four_zone_geojson):
        """`extract` loads neither `analytics` nor `synthgen`, and `analyze`
        loads neither `synthgen` nor `statistics`; no command, nor a bare
        `import geotrips`, loads `dataclasses` (and with it `inspect`): each
        process compiles what it imports."""
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(HAND_CORPUS)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        report = (
            "print(*sorted(m for m in sys.modules if m in ('geotrips.analytics', "
            "'geotrips.synthgen', 'statistics', 'dataclasses', 'inspect')))"
        )
        code = "import sys; from geotrips.cli import main; assert main(sys.argv[1:]) == 0; " + report

        def loaded(*argv, code=code):
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
                check=True, capture_output=True, text=True,
            )
            return done.stdout.splitlines()[-1]

        assert loaded(code="import sys, geotrips; " + report) == ""
        out = tmp_path / "out"
        assert loaded(
            "extract", "--input", str(corpus), "--zones", four_zone_geojson,
            "--out", str(out), "--min-tweets", "3",
        ) == ""
        assert loaded(
            "analyze", "--displacements", str(out / "displacements.csv"),
            "--out", str(tmp_path / "products"),
        ) == "geotrips.analytics"
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({
            "zones": four_zone_geojson, "n_agents": 2, "od_weights": {"alpha": {"beta": 1}},
        }))
        assert loaded("synth", "--config", str(config), "--out", str(tmp_path / "synth")) == (
            "geotrips.synthgen"
        )


def test_zone_loading_imports_no_zoneinfo(four_zone_geojson):
    """What `bench/run.py` times as set-up: only a time-zone lookup, in
    `records.resolve_tz`, loads `zoneinfo`."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, geotrips; geotrips.load_zones(sys.argv[1]); "
        "assert 'zoneinfo' not in sys.modules, 'zoneinfo'"
    )
    subprocess.run(
        [sys.executable, "-c", code, four_zone_geojson], env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )


def config_options(command):
    """(key, option) for every option of `command` that a config file may set."""
    parser = parse_args([command]).parser
    return [
        (a.dest, a) for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    ]


CONFIG_OPTIONS = [(c, key) for c in ("extract", "analyze") for key, _ in config_options(c)]


def two_values(option):
    """Two spellings that `option` reads as different values, neither its default."""
    if option.choices:
        return [c for c in option.choices if c != option.default][:2]
    return {int: ["7", "3"], float: ["2.5", "0.75"], None: ["a/b", "c/d"]}[option.type]


@pytest.mark.parametrize("command, key", CONFIG_OPTIONS)
class TestConfigKeysAreOptions:
    """A config key is its option's name, read as the option reads it."""

    def test_config_value_parses_as_its_flag(self, tmp_path, command, key):
        option = dict(config_options(command))[key]
        flag = option.option_strings[0]
        cfg = tmp_path / "pipeline.cfg"
        if option.nargs == 0:
            cfg.write_text(f"{key} = true\n")
            flag_argv = [flag]
        else:
            raw = two_values(option)[0]
            cfg.write_text(f"{key} = {raw}\n")
            flag_argv = [flag, raw]
        from_file = getattr(parse_args([command, "--config", str(cfg)]), key)
        from_flag = getattr(parse_args([command] + flag_argv), key)
        assert from_file == from_flag != option.default
        assert type(from_file) is type(from_flag)

    def test_flag_beats_config_even_at_its_default(self, tmp_path, command, key):
        option = dict(config_options(command))[key]
        flag = option.option_strings[0]
        cfg = tmp_path / "pipeline.cfg"
        if option.nargs == 0:
            cfg.write_text(f"{key} = false\n")
            flag_argv = [flag]
        else:
            file_raw, other = two_values(option)
            cfg.write_text(f"{key} = {file_raw}\n")
            flag_argv = [flag, other if option.default is None else str(option.default)]
        expected = getattr(parse_args([command] + flag_argv), key)
        assert getattr(parse_args([command, "--config", str(cfg)]), key) != expected
        for argv in (
            [command, "--config", str(cfg)] + flag_argv,
            [command] + flag_argv + ["--config", str(cfg)],
        ):
            assert getattr(parse_args(argv), key) == expected


# A zone map whose one feature, 'a', has the geometry spliced in.
ZONE_A = (
    '{"type": "FeatureCollection", "features": [{"properties": {"zone_id": "a"}, "geometry": %s}]}'
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
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_unknown_timezone_is_config_error(
        self, tmp_path, inputs, command, source, monkeypatch, capsys
    ):
        """The message of every config value's refusal, whichever way the name comes in."""
        from geotrips.cli import TZ_ENV_VAR

        argv = inputs[command] + ["--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--tz", "Not/AZone"]
        elif source == "env":
            monkeypatch.setenv(TZ_ENV_VAR, "Not/AZone")
        else:
            cfg = tmp_path / "pipeline.cfg"
            cfg.write_text("tz = Not/AZone\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: tz = 'Not/AZone' is not a valid timezone\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["extract", "--zones", "{zones}"], "no input file given (--input or config 'input')"),
            (["extract", "--input", "{corpus}"], "no zones file given (--zones or config 'zones')"),
            (
                ["extract", "--input", "{tmp}/none.csv", "--zones", "{zones}"],
                "input file not found: {tmp}/none.csv",
            ),
            (["analyze"], "no displacement CSV given"),
            (
                ["analyze", "--displacements", "{tmp}/none.csv"],
                "displacement file not found: {tmp}/none.csv",
            ),
            (
                ["extract", "--config", "{tmp}/pipeline.cfg"],
                "{tmp}/pipeline.cfg:2: expected 'key = value'",
            ),
        ],
        ids=["no-input", "no-zones", "input-missing", "no-displacements", "displacements-missing",
             "config-line"],
    )
    def test_missing_input_is_config_error(
        self, tmp_path, four_zone_geojson, argv, message, capsys
    ):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("user_id,lat,lon,timestamp,text\n")
        (tmp_path / "pipeline.cfg").write_text("tz = UTC\nmin_tweets 3\n")
        names = dict(tmp=tmp_path, zones=four_zone_geojson, corpus=corpus)
        out = tmp_path / "out"
        assert main([a.format(**names) for a in argv] + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
        assert not out.exists()

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
    def test_config_booleans_in_any_case(self, tmp_path, raw, value, capsys):
        # One inter-zone and one intra-zone displacement: only include_intra
        # puts the second into the OD matrix.
        disp = tmp_path / "displacements.csv"
        disp.write_text(DISPLACEMENT_HEADER + "".join(
            f"u1,40.1,-73.9,40.1,-73.6,2014-08-04T1{h}:00:00Z,2014-08-04T1{h}:30:00Z,1800.0,"
            f"25000.0,alpha,{dest},2014-08-04T1{h}:15:00Z\n"
            for h, dest in enumerate(["beta", "alpha"])
        ))
        (tmp_path / "users.csv").write_text("user_id,tweet_count\nu1,200\n")
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"include_intra = {raw}\n")
        argv = ["analyze", "--displacements", str(disp), "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "an")]) == 0
        assert f"displacements in OD: {2 if value else 1}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, key",
        [("extract", "min_tweet"), ("analyze", "min_tweets"), ("extract", "focal_zone"),
         ("analyze", "config")],
        ids=["misspelt", "extract-key-in-analyze", "analyze-key-in-extract", "config"],
    )
    def test_unknown_config_key_is_config_error(self, tmp_path, inputs, command, key, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"# the next line names no option of {command}\n{key} = 1\n")
        out = tmp_path / "out"
        assert main(inputs[command] + ["--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown key '{key}'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, body, reason",
        [
            (
                "pipeline.cfg",
                b"# the timezone\ntz = Europe/Z\xfcrich\n",
                "byte 0xfc: invalid start byte",
            ),
            (
                "synth.json",
                b'{"zones": "zones.geojson",\n "tz": "Europe/Z\xfcrich"}',
                "byte 0xfc: invalid start byte",
            ),
            (
                "bad.geojson",
                b'{"type": "FeatureCollection",\n "name": "caf\xe9", "features": []}',
                "byte 0xe9: invalid continuation byte",
            ),
        ],
        ids=["extract-config", "synth-config", "zones"],
    )
    def test_non_utf8_file_is_one_error_line(self, tmp_path, inputs, name, body, reason, capsys):
        path = tmp_path / name
        path.write_bytes(body)
        argv = {
            "pipeline.cfg": inputs["extract"] + ["--config", str(path)],
            "synth.json": ["synth", "--config", str(path)],
            "bad.geojson": inputs["extract"] + ["--zones", str(path)],
        }[name]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not UTF-8: {reason}\n"

    def test_nan_max_speed_is_rejected(self, tmp_path, inputs, capsys):
        argv = inputs["extract"] + ["--max-speed-mph", "nan", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: max_speed = nan is out of range: must be finite and > 0\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"type": "FeatureCollection",\n "features": [}', "{path}:2:15: Expecting value"),
            ('{"type": "FeatureCollection",\r "features": [}', "{path}:2:15: Expecting value"),
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
            (
                ZONE_A % '{"type": "Polygon", "coordinates": [[[0, 0], [1, 1]]]}',
                "feature 'a': ring with fewer than 3 positions",
            ),
            (
                ZONE_A % '{"type": "Polygon", "coordinates": [[[0, 0], [1], [1, 1], [0, 1]]]}',
                "feature 'a': malformed coordinate position",
            ),
            (
                ZONE_A % '{"type": "Polygon", "coordinates": []}',
                "feature 'a': polygon with no rings",
            ),
            (
                ZONE_A % '{"type": "Point", "coordinates": [0, 0]}',
                "feature 'a': unsupported geometry type 'Point'",
            ),
        ],
        ids=[
            "syntax", "syntax-cr-line-ends", "not-an-object", "features-not-a-list",
            "feature-not-an-object",
            "properties-not-an-object", "geometry-not-an-object", "polygon-number",
            "polygon-object", "multipolygon-number", "multipolygon-member",
            "two-positions", "one-number-position", "no-rings", "point",
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
            ('{"zones": "zones.geojson", "tz": 5}', "{path}: tz = 5 is not a valid timezone"),
            (
                VALID_SYNTH % '"weekday_schedule": [1, "a"]',
                "{path}: weekday_schedule = (1, 'a') is not a valid tuple",
            ),
            (
                '{"zones": "zones.geojson", "od_weights": {"alpha": {"beta": [1]}}}',
                "{path}: od_weights.alpha.beta = [1] is not a valid float",
            ),
            # right type, out of range
            (
                VALID_SYNTH % '"tweet_alpha": 0',
                "{path}: tweet_alpha = 0 is out of range: must be finite and > 0",
            ),
            (
                VALID_SYNTH % '"gps_noise_sigma": NaN',
                "{path}: gps_noise_sigma = nan is out of range: must be finite and >= 0",
            ),
            (VALID_SYNTH % '"n_agents": -1', "{path}: n_agents = -1 is out of range: must be >= 1"),
            (VALID_SYNTH % '"tweet_cap": 0', "{path}: tweet_cap = 0 is out of range: must be >= 1"),
            (
                VALID_SYNTH % '"trip_fraction": 2.0',
                "{path}: trip_fraction = 2.0 is out of range: must be in [0, 1]",
            ),
            (
                VALID_SYNTH % '"time_window": -5.0',
                "{path}: time_window = -5.0 is out of range: must be finite and > 0",
            ),
            (
                VALID_SYNTH % '"max_speed": Infinity',
                "{path}: max_speed = inf is out of range: must be finite and > 0",
            ),
            (VALID_SYNTH % '"tweet_floor": -1', "{path}: tweet_floor = -1 is out of range: must be >= 0"),
            ('{"zones": "zones.geojson"}', "{path}: SynthConfig.od_weights is required"),
            (
                '{"zones": "zones.geojson", "od_weights": {"alpha": {"beta": 1.5, "gamma": -0.5}}}',
                "{path}: od_weights.alpha.gamma = -0.5 is out of range: must be finite and >= 0",
            ),
            (
                VALID_SYNTH % '"weekend_schedule": [1, 2]',
                "{path}: trip schedules must have 24 hourly weights",
            ),
            (
                VALID_SYNTH % '"period_end": "2014-03-01T00:00:00Z"',
                "{path}: period_end must be after period_start",
            ),
            (
                VALID_SYNTH % '"gps_noise_sigma": Infinity',
                "{path}: gps_noise_sigma = inf is out of range: must be finite and >= 0",
            ),
            ('{"seed": 1}', "{path}: synth config needs a 'zones' GeoJSON path"),
            (
                '{"zones": "zones.geojson", "od_weights": {"alpha": {"beta": 0.5}}}',
                "{path}: od_weights must sum to 1, got 0.5",
            ),
            (
                '{"zones": "zones.geojson", "od_weights": {"alpha": {"nowhere": 1}}}',
                "{path}: od_weights references unknown zone in (alpha, nowhere)",
            ),
            # a key that is no setting: not ignored, even where its value is fine
            (VALID_SYNTH % '"n_agent": 3', "{path}: unknown key 'n_agent'"),
            (VALID_SYNTH % '"zone_map": "zones.geojson"', "{path}: unknown key 'zone_map'"),
            ('{"seed": 1, "Seed": 2}', "{path}: unknown key 'Seed'"),
        ],
        ids=[
            "syntax", "not-an-object", "zones-number", "n-agents-string", "seed-string",
            "seed-bool", "noise-string", "period-garbage", "od-weight-string", "od-weights-list",
            "schedule-number", "unknown-tz", "tz-number", "schedule-string", "od-weight-list",
            "alpha-zero", "noise-nan", "agents-negative",
            "cap-zero", "trip-fraction-two", "window-negative", "speed-infinite", "floor-negative",
            "no-od-weights", "negative-weight", "short-schedule", "empty-period", "noise-infinite",
            "no-zones", "od-weights-sum", "od-weights-unknown-zone",
            "unknown-key", "zone-map-key", "unknown-key-before-zones",
        ],
    )
    def test_malformed_synth_config_is_config_error(
        self, tmp_path, four_zone_geojson, doc, message, capsys
    ):
        cfg = tmp_path / "synth.json"
        cfg.write_text(doc)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"
