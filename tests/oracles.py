"""Independent reference implementations used only to check the package.

These deliberately use different algorithms than the code under test:
winding numbers instead of ray casting, the spherical law of cosines
instead of the haversine formula.  The exceptions are
`full_walk_point_in_polygon`, the unindexed two-pass walk over every edge
that the indexed `point_in_polygon` must match bit for bit,
`label_point_scan`, which labels a point by that walk over every polygon,
the per-product aggregations (`od_matrix_per_call`,
`histogram_per_call`, `displacements_per_user`), one walk over the
displacements for each product, that the single walk of
`analytics.aggregate` must match, the zone rules `is_inter_zone` and
`touches_external` that the package states in its scan and its walk, and
`format_timestamp`, the datetime's
own ISO 8601 text that `records.format_us` must match from the integer.
"""

from __future__ import annotations

import math
from collections import Counter
from datetime import datetime, timezone, tzinfo

import numpy as np

from geotrips.analytics import ODMatrix, TimeOfDayHistogram
from geotrips.displacement import Displacement
from geotrips.errors import EmptyODError
from geotrips.geometry import EDGE_TOLERANCE_DEG, GeoPoint, PolygonRing, ZonePolygon
from geotrips.records import from_epoch_us
from geotrips.zones import EXTERNAL, ZoneSet


def winding_number_inside(lat: float, lon: float, ring_latlon: np.ndarray) -> bool:
    """Nonzero-winding containment via summed signed angles.

    `ring_latlon` is an (n, 2) array of [lat, lon] vertices, not closed.
    For simple (non-self-intersecting) polygons this agrees with even-odd
    ray casting away from the boundary.
    """
    v = ring_latlon - np.array([lat, lon])
    v_next = np.roll(v, -1, axis=0)
    cross = v[:, 0] * v_next[:, 1] - v[:, 1] * v_next[:, 0]
    dot = v[:, 0] * v_next[:, 0] + v[:, 1] * v_next[:, 1]
    total = np.sum(np.arctan2(cross, dot))
    return abs(total) > math.pi  # ~2*pi when inside, ~0 when outside


def min_edge_distance(lat: float, lon: float, ring_latlon: np.ndarray) -> float:
    """Distance in degrees from a point to the closest ring edge."""
    a = ring_latlon
    b = np.roll(ring_latlon, -1, axis=0)
    d = b - a
    seg2 = np.sum(d * d, axis=1)
    seg2[seg2 == 0] = 1e-300
    t = ((lat - a[:, 0]) * d[:, 0] + (lon - a[:, 1]) * d[:, 1]) / seg2
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * d
    dist = np.hypot(proj[:, 0] - lat, proj[:, 1] - lon)
    return float(dist.min())


def law_of_cosines_distance(lat1, lon1, lat2, lon2, radius=6_371_000.0) -> float:
    """Great-circle distance by the spherical law of cosines."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlon = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dlon)
    return radius * math.acos(max(-1.0, min(1.0, c)))


def random_simple_polygon(rng, n_vertices: int, center=(40.5, -74.0), scale=0.5) -> np.ndarray:
    """Star-shaped (hence simple) polygon: sorted angles, random radii."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n_vertices))
    radii = rng.uniform(0.2 * scale, scale, size=n_vertices)
    lat = center[0] + radii * np.sin(angles)
    lon = center[1] + radii * np.cos(angles)
    return np.column_stack([lat, lon])


def _on_ring_edge(lat: float, lon: float, ring: PolygonRing) -> bool:
    tol2 = EDGE_TOLERANCE_DEG * EDGE_TOLERANCE_DEG
    lats, lons = ring.lats, ring.lons
    for i in range(len(lats) - 1):
        alat, alon = lats[i], lons[i]
        dy = lats[i + 1] - alat
        dx = lons[i + 1] - alon
        seg2 = dx * dx + dy * dy
        if seg2 == 0.0:
            t = 0.0
        else:
            t = ((lat - alat) * dy + (lon - alon) * dx) / seg2
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
        py = alat + t * dy
        px = alon + t * dx
        d2 = (lat - py) * (lat - py) + (lon - px) * (lon - px)
        if d2 <= tol2:
            return True
    return False


def _ring_crossings(lat: float, lon: float, ring: PolygonRing) -> int:
    """Number of ring edges crossed by the eastward ray from (lat, lon)."""
    lats, lons = ring.lats, ring.lons
    crossings = 0
    for i in range(len(lats) - 1):
        alat, blat = lats[i], lats[i + 1]
        if (alat > lat) != (blat > lat):
            lon_at = lons[i] + (lat - alat) * (lons[i + 1] - lons[i]) / (blat - alat)
            if lon < lon_at:
                crossings += 1
    return crossings


def full_walk_point_in_polygon(p: GeoPoint, poly: ZonePolygon) -> bool:
    """`point_in_polygon` without the slab index: every edge, two passes."""
    rings = (poly.outer,) + poly.holes
    for ring in rings:
        if _on_ring_edge(p.lat, p.lon, ring):
            return True
    crossings = 0
    for ring in rings:
        crossings += _ring_crossings(p.lat, p.lon, ring)
    return crossings % 2 == 1


def label_point_scan(zs: ZoneSet, p: GeoPoint) -> str:
    """`ZoneSet.label_point` with no bounding boxes and no slab index: the
    first zone in declaration order with a polygon that holds `p`."""
    for zone in zs.zones:
        for poly in zone.polygons:
            if full_walk_point_in_polygon(p, poly):
                return zone.zone_id
    return EXTERNAL


def od_matrix_per_call(
    displacements: list[Displacement], include_intra: bool, include_external: bool
) -> ODMatrix:
    """The OD matrix by its own walk over Displacement objects."""
    pair_counts: dict[tuple[str, str], int] = {}
    for d in displacements:
        o, t = d.origin_zone, d.destination_zone
        if o is None or t is None:
            continue
        if not include_intra and o == t:
            continue
        if not include_external and (o == EXTERNAL or t == EXTERNAL):
            continue
        pair_counts[(o, t)] = pair_counts.get((o, t), 0) + 1
    if not pair_counts:
        raise EmptyODError("empty OD: no displacements survive the filters")
    ids = sorted({z for pair in pair_counts for z in pair} - {EXTERNAL})
    if include_external and any(EXTERNAL in pair for pair in pair_counts):
        ids.append(EXTERNAL)
    index = {z: i for i, z in enumerate(ids)}
    counts = [[0] * len(ids) for _ in ids]
    for (o, t), c in pair_counts.items():
        counts[index[o]][index[t]] = c
    return ODMatrix(zone_ids=ids, counts=counts)


def histogram_per_call(
    displacements: list[Displacement],
    tz: tzinfo,
    origin: str | None,
    destination: str | None,
    include_intra: bool,
) -> TimeOfDayHistogram:
    """One direction's hour-of-day histogram by its own walk."""
    hist = TimeOfDayHistogram(direction=(origin, destination))
    for d in displacements:
        if d.crossing is None:
            continue
        if not include_intra and not is_inter_zone(d):
            continue
        if origin is not None and d.origin_zone != origin:
            continue
        if destination is not None and d.destination_zone != destination:
            continue
        local = from_epoch_us(d.crossing).astimezone(tz)
        bins = hist.weekend_counts if local.weekday() >= 5 else hist.weekday_counts
        bins[local.hour] += 1
    return hist


def is_inter_zone(d: Displacement) -> bool:
    """The inter-zone rule: both ends labeled, with different labels."""
    return d.origin_zone is not None and d.destination_zone is not None and d.origin_zone != d.destination_zone


def touches_external(d: Displacement) -> bool:
    """The `EXTERNAL` rule: either end is labeled `EXTERNAL`."""
    return EXTERNAL in (d.origin_zone, d.destination_zone)


def displacements_per_user(displacements: list[Displacement]) -> dict[str, int]:
    return dict(Counter(d.user_id for d in displacements))


def format_timestamp(dt: datetime) -> str:
    """Canonical serialization: ISO 8601 in UTC with a Z suffix."""
    if dt.tzinfo is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")
