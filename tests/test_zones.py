import codecs
import io
import json
import math

import numpy as np
import pytest

from conftest import feature_collection, square_feature, square_ring
from geotrips.errors import ConfigError, InvalidGeometryError
from geotrips.geometry import EDGE_TOLERANCE_DEG, GeoPoint
from geotrips.zones import EXTERNAL, Zone, ZoneSet, load_zones
from oracles import label_point_scan, random_simple_polygon


def star_ring(rng, n_vertices, center, scale):
    """GeoJSON ring ([lon, lat], closed) of a random star polygon."""
    ring = [[lon, lat] for lat, lon in random_simple_polygon(rng, n_vertices, center, scale)]
    return ring + [ring[0]]


def star_map():
    """A 2,000-vertex star with a star-shaped hole, and a two-star MultiPolygon."""
    rng = np.random.default_rng(17)
    return load_zones(
        feature_collection(
            {
                "type": "Feature",
                "properties": {"zone_id": "holed", "name": "Holed"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        star_ring(rng, 2000, (40.0, -74.0), 0.1),
                        # outer radii are at least 0.02, hole radii at most 0.015
                        star_ring(rng, 300, (40.0, -74.0), 0.015),
                    ],
                },
            },
            {
                "type": "Feature",
                "properties": {"zone_id": "islands", "name": "Islands"},
                "geometry": {
                    "type": "MultiPolygon",
                    "coordinates": [
                        [star_ring(rng, 500, (40.0, -73.8), 0.05)],
                        [star_ring(rng, 40, (40.15, -73.8), 0.05)],
                    ],
                },
            },
        )
    )


def overlap_map():
    """Two squares that overlap in lat 40.1-40.2, and a star across both."""
    rng = np.random.default_rng(23)
    return load_zones(
        feature_collection(
            square_feature("first", 40.0, -74.0, 0.2),
            square_feature("second", 40.1, -74.0, 0.2),
            {
                "type": "Feature",
                "properties": {"zone_id": "star", "name": "Star"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [star_ring(rng, 60, (40.15, -73.85), 0.15)],
                },
            },
        )
    )


def holed_multipolygon_map():
    """A MultiPolygon zone whose first part has a square hole, with a
    second zone inside the hole that leaves a gap around it."""
    return load_zones(
        feature_collection(
            {
                "type": "Feature",
                "properties": {"zone_id": "holed", "name": "Holed"},
                "geometry": {
                    "type": "MultiPolygon",
                    "coordinates": [
                        [square_ring(40.0, -74.0, 0.4), square_ring(40.1, -73.9, 0.2)],
                        [square_ring(40.5, -73.8, 0.2)],
                    ],
                },
            },
            square_feature("core", 40.15, -73.85, 0.1),
        )
    )


class TestLoadZones:
    def test_seven_county_style_map(self):
        fc = feature_collection(
            *(square_feature(f"zone{i}", 40.0 + 0.25 * i, -74.0) for i in range(7))
        )
        zs = load_zones(fc)
        assert len(zs.zones) == 7
        assert zs.zone_ids == [f"zone{i}" for i in range(7)]

    def write_map(self, tmp_path, *features):
        path = tmp_path / "zones.geojson"
        path.write_text(json.dumps(feature_collection(*features)))
        return str(path)

    @pytest.mark.parametrize("kind", ["path", "binary-handle"])
    def test_bom_map_loads_as_the_plain_one(self, tmp_path, kind):
        """A map that starts with a UTF-8 BOM, as spreadsheet and GIS tools
        may write it, gives the zones of the same map without one."""
        fc = feature_collection(
            square_feature("alpha", 40.0, -74.0), square_feature("beta", 41.0, -74.0)
        )
        path = tmp_path / "zones.geojson"
        path.write_bytes(codecs.BOM_UTF8 + json.dumps(fc).encode("utf-8"))
        if kind == "path":
            zs = load_zones(str(path))
        else:
            with open(path, "rb") as fh:
                zs = load_zones(fh)
        def rings(zone_set):
            return [
                (z.zone_id, [(p.outer.lats, p.outer.lons) for p in z.polygons])
                for z in zone_set.zones
            ]

        assert rings(zs) == rings(load_zones(fc))

    def test_empty_collection_is_fatal(self, tmp_path):
        path = self.write_map(tmp_path)
        with pytest.raises(ConfigError) as exc:
            load_zones(path)
        assert str(exc.value) == f"{path}: no zones"

    def test_external_zone_id_is_refused(self, tmp_path):
        """Points inside such a zone would share the label of points in none."""
        path = self.write_map(
            tmp_path,
            square_feature("alpha", 40.0, -74.0),
            square_feature(EXTERNAL, 41.0, -74.0),
        )
        with pytest.raises(ConfigError) as exc:
            load_zones(path)
        assert str(exc.value) == f"{path}: feature #1 has the reserved zone_id 'EXTERNAL'"

    def test_repeated_zone_id_names_the_file_and_the_id(self, tmp_path):
        path = self.write_map(
            tmp_path,
            square_feature("alpha", 40.0, -74.0),
            square_feature("beta", 41.0, -74.0),
            square_feature("alpha", 42.0, -74.0),
        )
        with pytest.raises(ConfigError) as exc:
            load_zones(path)
        assert str(exc.value) == f"{path}: feature #2 repeats zone_id 'alpha'"

    def test_zone_id_with_carriage_return_names_the_file_and_the_id(self, tmp_path):
        """A CSV writer leaves a lone carriage return unquoted, so every
        reader would split the row there."""
        path = self.write_map(
            tmp_path,
            square_feature("alpha", 40.0, -74.0),
            square_feature("a\rb", 41.0, -74.0),
        )
        with pytest.raises(ConfigError) as exc:
            load_zones(path)
        assert str(exc.value) == f"{path}: feature #1 has a carriage return in zone_id 'a\\rb'"

    def zone_id_map(self, tmp_path, zone_id):
        """A two-zone map whose feature #1 has `zone_id`."""
        feature = square_feature("z", 41.0, -74.0)
        feature["properties"]["zone_id"] = zone_id
        return self.write_map(tmp_path, square_feature("alpha", 40.0, -74.0), feature)

    @pytest.mark.parametrize("zone_id, digits", [(0, "0"), (7, "7"), (-12, "-12")])
    def test_integer_zone_id_reads_as_its_digits(self, tmp_path, zone_id, digits):
        """The rule JSONL applies to `user_id`: an integer is its digits."""
        assert load_zones(self.zone_id_map(tmp_path, zone_id)).zone_ids == ["alpha", digits]

    @pytest.mark.parametrize(
        "zone_id, reason",
        [
            (None, "has no zone_id property"),
            ("", "has no zone_id property"),
            (True, "has a zone_id that is not a string or an integer: True"),
            (False, "has a zone_id that is not a string or an integer: False"),
            (1.5, "has a zone_id that is not a string or an integer: 1.5"),
            (["a"], "has a zone_id that is not a string or an integer: ['a']"),
            ({"x": 1}, "has a zone_id that is not a string or an integer: {'x': 1}"),
        ],
        ids=["null", "empty", "true", "false", "float", "list", "object"],
    )
    def test_zone_id_of_another_type_names_the_feature(self, tmp_path, zone_id, reason):
        path = self.zone_id_map(tmp_path, zone_id)
        with pytest.raises(ConfigError) as exc:
            load_zones(path)
        assert str(exc.value) == f"{path}: feature #1 {reason}"

    def test_multipolygon_becomes_one_zone_with_two_parts(self):
        fc = feature_collection(
            {
                "type": "Feature",
                "properties": {"zone_id": "islands", "name": "Islands"},
                "geometry": {
                    "type": "MultiPolygon",
                    "coordinates": [
                        [square_ring(40.0, -74.0, 0.1)],
                        [square_ring(40.5, -74.0, 0.1)],
                    ],
                },
            }
        )
        zs = load_zones(fc)
        assert len(zs.zones) == 1
        assert len(zs.zones[0].polygons) == 2
        assert zs.label_point(GeoPoint(40.05, -73.95)) == "islands"
        assert zs.label_point(GeoPoint(40.55, -73.95)) == "islands"

    def test_missing_zone_id_is_fatal(self):
        fc = feature_collection(
            {
                "type": "Feature",
                "properties": {"name": "anonymous"},
                "geometry": {"type": "Polygon", "coordinates": [square_ring(40, -74, 0.1)]},
            }
        )
        with pytest.raises(ConfigError, match="zone_id"):
            load_zones(fc)

    def test_invalid_ring_names_the_feature(self):
        fc = feature_collection(
            {
                "type": "Feature",
                "properties": {"zone_id": "broken", "name": "Broken"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[-74.0, 40.0], [-73.9, 40.0], [-74.0, 40.0]]],
                },
            }
        )
        with pytest.raises(InvalidGeometryError, match="broken"):
            load_zones(fc)

    @pytest.mark.parametrize(
        "position",
        [
            [-73.9, math.nan],
            [math.inf, 40.1],
            ["abc", 40.1],
            [-73.9, None],
            [-73.9, 95.0],
            [True, 40.1],  # float(True) is 1.0, but the corpus refuses a boolean too
            [-73.9, False],
        ],
        ids=["nan", "infinity", "string", "null", "latitude-95", "boolean-lon", "boolean-lat"],
    )
    def test_bad_coordinate_names_the_feature(self, position):
        ring = square_ring(40.0, -74.0, 0.2)
        ring[2] = position
        fc = feature_collection(
            {
                "type": "Feature",
                "properties": {"zone_id": "bad", "name": "Bad"},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
        # through JSON text, so NaN and Infinity arrive as the parser reads them
        with pytest.raises(InvalidGeometryError, match="feature 'bad'"):
            load_zones(io.StringIO(json.dumps(fc)))

    def test_coordinates_are_lon_lat(self, four_zone_map):
        # alpha spans lat 40.0-40.2, lon -74.0 to -73.8
        assert four_zone_map.label_point(GeoPoint(40.1, -73.9)) == "alpha"
        assert four_zone_map.label_point(GeoPoint(-73.9, 40.1)) == EXTERNAL

    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
    @pytest.mark.parametrize(
        "positions",
        [
            # the last position shares its longitude with the first ...
            [[-74.0, 40.0], [-73.8, 40.05], [-73.85, 40.2], [-74.0, 40.15]],
            # ... or its latitude; neither is a closing position
            [[-74.0, 40.0], [-73.8, 40.05], [-73.85, 40.2], [-73.9, 40.0]],
        ],
        ids=["same-lon", "same-lat"],
    )
    def test_ring_is_its_positions_closed_once(self, positions, closed):
        hole = [[-73.9, 40.08], [-73.88, 40.1], [-73.9, 40.12]]
        rings = [positions, hole]
        if closed:
            rings = [r + [r[0]] for r in rings]
        zs = load_zones(
            feature_collection(
                {
                    "type": "Feature",
                    "properties": {"zone_id": "z"},
                    "geometry": {"type": "Polygon", "coordinates": rings},
                }
            )
        )
        poly = zs.zones[0].polygons[0]
        for ring, given in ((poly.outer, positions), (poly.holes[0], hole)):
            assert ring.lats == tuple(lat for _, lat in given) + (given[0][1],)
            assert ring.lons == tuple(lon for lon, _ in given) + (given[0][0],)
            # the count the benchmark reports as zones.load_zones.vertices
            assert len(ring.vertices) == len(given)
            assert ring.vertices == tuple(GeoPoint(lat, lon) for lon, lat in given)


class TestZoneSet:
    """A `ZoneSet` built from a list checks what `load_zones` checks."""

    @pytest.mark.parametrize(
        "ids, message",
        [
            ((), "no zones"),
            (("alpha", "beta", "alpha"), "feature #2 repeats zone_id 'alpha'"),
            (("alpha", EXTERNAL), "feature #1 has the reserved zone_id 'EXTERNAL'"),
            (("a\rb",), "feature #0 has a carriage return in zone_id 'a\\rb'"),
            ((5,), "feature #0 has a zone_id that is not a non-empty string: 5"),
            (("alpha", None), "feature #1 has a zone_id that is not a non-empty string: None"),
            (("",), "feature #0 has a zone_id that is not a non-empty string: ''"),
        ],
        ids=["empty", "repeated", "external", "carriage-return", "integer", "none", "empty-id"],
    )
    def test_bad_zone_list_is_refused(self, ids, message):
        (square,) = load_zones(feature_collection(square_feature("z", 40.0, -74.0))).zones
        with pytest.raises(ConfigError) as exc:
            ZoneSet([Zone(zid, square.polygons) for zid in ids])
        assert str(exc.value) == message


class TestLabelPoint:
    def test_interior_points(self, four_zone_map):
        assert four_zone_map.label_point(GeoPoint(40.1, -73.9)) == "alpha"
        assert four_zone_map.label_point(GeoPoint(40.4, -73.6)) == "delta"

    def test_mid_atlantic_is_external(self, four_zone_map):
        assert four_zone_map.label_point(GeoPoint(35.0, -40.0)) == EXTERNAL

    def test_overlap_resolved_by_declaration_order(self):
        fc = feature_collection(
            square_feature("first", 40.0, -74.0, 0.2),
            square_feature("second", 40.1, -74.0, 0.2),  # overlaps first
        )
        zs = load_zones(fc)
        assert zs.label_point(GeoPoint(40.15, -73.9)) == "first"
        assert zs.label_point(GeoPoint(40.25, -73.9)) == "second"

    def test_index_matches_brute_force_scan(self, four_zone_map):
        stars = star_map()
        # the star centred on (40.0, -74.0) has a hole there
        assert stars.label_point(GeoPoint(40.0, -74.0)) == EXTERNAL
        cases = [
            (four_zone_map, (39.8, 40.7), (-74.2, -73.4), 3000),
            # fewer points: the reference walks all 2,840 edges for each one
            (stars, (39.85, 40.25), (-74.15, -73.7), 500),
            (overlap_map(), (39.9, 40.45), (-74.1, -73.65), 3000),
            # 0.08-degree squares 0.1 degrees apart: 64 zones with gaps between them
            (
                load_zones(
                    feature_collection(
                        *(
                            square_feature(f"z{i}{j}", 40.0 + 0.1 * i, -74.0 + 0.1 * j, 0.08)
                            for i in range(8)
                            for j in range(8)
                        )
                    )
                ),
                (39.95, 40.85),
                (-74.05, -73.15),
                3000,
            ),
            (holed_multipolygon_map(), (39.9, 40.75), (-74.1, -73.55), 3000),
        ]
        rng = np.random.default_rng(11)
        for zs, lat_range, lon_range, n in cases:
            outers = [poly.outer for z in zs.zones for poly in z.polygons]
            labels = set()
            outside_every_outer = 0
            for lat, lon in zip(rng.uniform(*lat_range, n), rng.uniform(*lon_range, n)):
                p = GeoPoint(lat, lon)
                got = zs.label_point(p)
                assert got == label_point_scan(zs, p)
                labels.add(got)
                outside_every_outer += not any(
                    o.lat_lo <= lat <= o.lat_hi and o.lon_lo <= lon <= o.lon_hi for o in outers
                )
            # the sample actually exercises all zones and EXTERNAL, also
            # through points outside every outer ring's padded bounds
            assert labels == set(zs.zone_ids) | {EXTERNAL}
            assert outside_every_outer > 0

    def test_edge_tolerance_reaches_past_the_bounding_box(self, four_zone_map):
        # alpha spans lat 40.0-40.2 and lon -74.0 to -73.8: each point lies
        # just outside its tight bounding box, within tolerance of an edge
        near = 0.5 * EDGE_TOLERANCE_DEG
        for p in (
            GeoPoint(40.0 - near, -73.9),
            GeoPoint(40.2 + near, -73.9),
            GeoPoint(40.1, -74.0 - near),
            GeoPoint(40.1, -73.8 + near),
        ):
            assert four_zone_map.label_point(p) == label_point_scan(four_zone_map, p) == "alpha"

    def test_disjoint_zones_at_most_one_match(self, four_zone_map):
        rng = np.random.default_rng(5)
        from geotrips.geometry import point_in_polygon

        for lat, lon in zip(rng.uniform(39.9, 40.6, 500), rng.uniform(-74.1, -73.4, 500)):
            p = GeoPoint(lat, lon)
            matches = [
                z.zone_id
                for z in four_zone_map.zones
                for poly in z.polygons
                if point_in_polygon(p, poly)
            ]
            assert len(matches) <= 1

    def test_determinism(self, four_zone_map):
        p = GeoPoint(40.35, -73.65)
        assert len({four_zone_map.label_point(p) for _ in range(100)}) == 1
