import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geotrips.errors import InvalidGeometryError
from geotrips.geometry import (
    EARTH_RADIUS_M,
    EDGE_TOLERANCE_DEG,
    SLAB_MARGIN_DEG,
    GeoPoint,
    PolygonRing,
    ZonePolygon,
    haversine_m,
    point_in_polygon,
)
from oracles import (
    full_walk_point_in_polygon,
    law_of_cosines_distance,
    min_edge_distance,
    random_simple_polygon,
    winding_number_inside,
)

lat_st = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)
lon_st = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


def ring(*latlon_pairs):
    lats, lons = zip(*latlon_pairs)
    return PolygonRing(lats, lons)


def array_ring(verts) -> PolygonRing:
    """Ring of an (n, 2) array of [lat, lon] vertices, not closed."""
    return PolygonRing(verts[:, 0], verts[:, 1])


UNIT_SQUARE = ZonePolygon(ring((0, 0), (0, 1), (1, 1), (1, 0)))


class TestHaversine:
    @given(lat_st, lon_st)
    def test_identity(self, lat, lon):
        assert haversine_m(lat, lon, lat, lon) == 0.0

    def test_antipodal_half_circumference(self):
        expected = math.pi * EARTH_RADIUS_M
        assert haversine_m(0, 0, 0, 180) == pytest.approx(expected, rel=1e-6)

    def test_nyc_pair_against_law_of_cosines(self):
        got = haversine_m(40.7128, -74.0060, 40.9941, -73.8773)
        expected = law_of_cosines_distance(40.7128, -74.0060, 40.9941, -73.8773)
        assert got == pytest.approx(expected, rel=1e-6)

    @given(lat_st, lon_st, lat_st, lon_st)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        d1 = haversine_m(lat1, lon1, lat2, lon2)
        d2 = haversine_m(lat2, lon2, lat1, lon1)
        assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-9)

    @given(lat_st, lon_st, lat_st, lon_st)
    def test_bounds(self, lat1, lon1, lat2, lon2):
        d = haversine_m(lat1, lon1, lat2, lon2)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_M

    def test_geopoint_pair_against_law_of_cosines(self):
        a, b = GeoPoint(40.7, -74.0), GeoPoint(41.0, -73.9)
        expected = law_of_cosines_distance(a.lat, a.lon, b.lat, b.lon)
        assert haversine_m(a.lat, a.lon, b.lat, b.lon) == pytest.approx(expected, rel=1e-9)


class TestPointInPolygon:
    def test_unit_square_center_inside(self):
        assert point_in_polygon(GeoPoint(0.5, 0.5), UNIT_SQUARE)

    def test_unit_square_far_point_outside(self):
        assert not point_in_polygon(GeoPoint(2.0, 2.0), UNIT_SQUARE)

    def test_point_on_edge_is_inside(self):
        assert point_in_polygon(GeoPoint(0.0, 0.5), UNIT_SQUARE)
        assert point_in_polygon(GeoPoint(1.0, 1.0), UNIT_SQUARE)

    def test_point_in_hole_is_outside(self):
        hole = ring((0.4, 0.4), (0.4, 0.6), (0.6, 0.6), (0.6, 0.4))
        poly = ZonePolygon(UNIT_SQUARE.outer, (hole,))
        assert not point_in_polygon(GeoPoint(0.5, 0.5), poly)
        assert point_in_polygon(GeoPoint(0.2, 0.2), poly)

    def test_point_on_hole_edge_is_inside(self):
        hole = ring((0.4, 0.4), (0.4, 0.6), (0.6, 0.6), (0.6, 0.4))
        poly = ZonePolygon(UNIT_SQUARE.outer, (hole,))
        assert point_in_polygon(GeoPoint(0.4, 0.5), poly)

    def test_degenerate_ring_rejected(self):
        with pytest.raises(InvalidGeometryError):
            ring((0, 0), (1, 1))
        with pytest.raises(InvalidGeometryError):
            ring((0, 0), (0, 0), (1, 1))

    def test_agrees_with_winding_number_oracle(self):
        rng = np.random.default_rng(42)
        verts = random_simple_polygon(rng, 50)
        poly = ZonePolygon(array_ring(verts))
        pts = np.column_stack(
            [rng.uniform(39.8, 41.2, size=2000), rng.uniform(-74.8, -73.2, size=2000)]
        )
        for lat, lon in pts:
            if min_edge_distance(lat, lon, verts) < 1e-9:
                continue
            assert point_in_polygon(GeoPoint(lat, lon), poly) == winding_number_inside(
                lat, lon, verts
            )

    @given(
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_translation_invariance_in_longitude(self, lat, lon, shift):
        shifted = ZonePolygon(ring(*((v.lat, v.lon + shift) for v in UNIT_SQUARE.outer.vertices)))
        assert point_in_polygon(GeoPoint(lat, lon), UNIT_SQUARE) == point_in_polygon(
            GeoPoint(lat, lon + shift), shifted
        )


def star_ring(rng, n_vertices: int, scale: float) -> PolygonRing:
    """A random star ring with some vertices moved onto slab boundaries.

    Only vertices strictly between the ring's lowest and highest latitude
    move, so the slabs stay where they were."""
    verts = random_simple_polygon(rng, n_vertices, scale=scale)
    ring = array_ring(verts)
    n_slabs = len(ring.slabs)
    lat_min, lat_max = verts[:, 0].min(), verts[:, 0].max()
    for i in rng.choice(n_vertices, size=min(n_vertices, 4), replace=False):
        boundary = ring.lat_lo + int(rng.integers(1, n_slabs + 1)) / ring.slab_scale
        if lat_min < verts[i, 0] < lat_max and lat_min < boundary < lat_max:
            verts[i, 0] = boundary
    return array_ring(verts)


def query_points(rng, ring: PolygonRing) -> list[GeoPoint]:
    """Vertices and points within tolerance of them, edge midpoints, slab
    boundaries and their float neighbours, and points inside and outside
    the ring's bounding box."""
    n = len(ring.vertices)
    lats, lons = ring.lats, ring.lons
    near = 0.5 * EDGE_TOLERANCE_DEG
    pts = []
    for i in rng.choice(n, size=min(n, 8), replace=False):
        lat, lon = lats[i], lons[i]
        pts += [GeoPoint(lat + dlat, lon + dlon) for dlat, dlon in
                ((0.0, 0.0), (-near, 0.0), (near, 0.0), (0.0, -near), (0.0, near))]
        pts.append(GeoPoint((lat + lats[i + 1]) / 2, (lon + lons[i + 1]) / 2))
    lon_min, lon_max = min(lons), max(lons)
    n_slabs = len(ring.slabs)
    for k in sorted({0, 1, n_slabs // 2, n_slabs - 1, n_slabs}):
        edge = ring.lat_lo + k / ring.slab_scale
        for lat in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            pts.append(GeoPoint(lat, rng.uniform(lon_min, lon_max)))
    lat_min, lat_max = min(lats), max(lats)
    pad = 0.2 * (lat_max - lat_min)
    for lat, lon in zip(
        rng.uniform(lat_min - pad, lat_max + pad, 12), rng.uniform(lon_min - pad, lon_max + pad, 12)
    ):
        pts.append(GeoPoint(lat, lon))
    return pts


# Bounded and derandomized so the tier-1 run is reproducible and its time flat.
EXACTNESS = settings(derandomize=True, max_examples=30, deadline=None)


class TestSlabIndexExactness:
    @EXACTNESS
    @given(
        st.integers(min_value=3, max_value=3000),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n_vertices=3000, with_hole=True, seed=0)
    @example(n_vertices=4, with_hole=False, seed=0)
    def test_matches_full_walk_reference(self, n_vertices, with_hole, seed):
        rng = np.random.default_rng(seed)
        outer = star_ring(rng, n_vertices, 0.5)
        # Outer radii are at least 0.1, hole radii at most 0.09: the hole is inside.
        holes = (star_ring(rng, max(3, n_vertices // 4), 0.09),) if with_hole else ()
        poly = ZonePolygon(outer, holes)
        for ring in (outer,) + holes:
            for p in query_points(rng, ring):
                assert point_in_polygon(p, poly) is full_walk_point_in_polygon(p, poly), p

    @EXACTNESS
    @given(
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=-0.5, max_value=1.5),
    )
    def test_square_matches_full_walk_reference(self, lat, lon):
        for p in (GeoPoint(lat, lon), GeoPoint(lat, 0.0), GeoPoint(1.0, lon)):
            assert point_in_polygon(p, UNIT_SQUARE) is full_walk_point_in_polygon(p, UNIT_SQUARE)

    @pytest.mark.parametrize("lat_sign", [1.0, -1.0])
    @pytest.mark.parametrize("lon_sign", [1.0, -1.0])
    def test_points_within_tolerance_of_a_vertex_are_inside(self, lat_sign, lon_sign):
        # The apex (0, 0) is the lowest or highest vertex, and both its
        # neighbours lie on one side of it in longitude.
        tri = ZonePolygon(ring((0, 0), (lat_sign, lon_sign), (lat_sign, 2 * lon_sign)))
        near = 0.5 * EDGE_TOLERANCE_DEG
        for v in tri.outer.vertices:
            for dlat, dlon in ((0.0, 0.0), (-near, 0.0), (near, 0.0), (0.0, -near), (0.0, near)):
                p = GeoPoint(v.lat + dlat, v.lon + dlon)
                assert point_in_polygon(p, tri) and full_walk_point_in_polygon(p, tri), p

    def test_slab_count_and_coverage(self):
        rng = np.random.default_rng(8)
        for n in (3, 4, 15, 16, 2000):
            ring = star_ring(rng, n, 0.5)
            assert len(ring.slabs) == math.isqrt(n)
            assert ring.lats[-1] == ring.lats[0] and ring.lons[-1] == ring.lons[0]
            assert set().union(*ring.slabs) == set(range(n))


class TestPaddedBounds:
    def test_unit_square(self):
        m = SLAB_MARGIN_DEG
        o = UNIT_SQUARE.outer
        assert (o.lat_lo, o.lat_hi, o.lon_lo, o.lon_hi) == (-m, 1 + m, -m, 1 + m)

    def test_triangle(self):
        m = SLAB_MARGIN_DEG
        o = ring((0, 0), (2, 0), (1, 3))
        assert (o.lat_lo, o.lat_hi, o.lon_lo, o.lon_hi) == (-m, 2 + m, -m, 3 + m)

    def test_every_vertex_within_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            o = array_ring(random_simple_polygon(rng, 12))
            for v in o.vertices:
                assert o.lat_lo < v.lat < o.lat_hi and o.lon_lo < v.lon < o.lon_hi

    def test_inside_implies_within_bounds(self):
        rng = np.random.default_rng(3)
        verts = random_simple_polygon(rng, 30)
        poly = ZonePolygon(array_ring(verts))
        o = poly.outer
        near = 0.5 * EDGE_TOLERANCE_DEG
        pts = [
            GeoPoint(lat, lon)
            for lat, lon in zip(rng.uniform(39.5, 41.5, 500), rng.uniform(-75, -73, 500))
        ]
        # Points just outside each vertex, within tolerance of the ring.
        pts += [
            GeoPoint(v.lat + dlat, v.lon + dlon)
            for v in o.vertices
            for dlat, dlon in ((-near, 0.0), (near, 0.0), (0.0, -near), (0.0, near))
        ]
        inside = 0
        for p in pts:
            if point_in_polygon(p, poly):
                inside += 1
                assert o.lat_lo <= p.lat <= o.lat_hi and o.lon_lo <= p.lon <= o.lon_hi, p
        assert inside > 4 * len(verts)
