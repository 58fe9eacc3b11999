"""Spherical distance and planar polygon-containment primitives.

Distances use a spherical earth of radius 6,371,000 m.  Containment is
computed in planar lat/lon (equirectangular) space, which is accurate
enough at county scale and keeps the ray-casting test exact and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidGeometryError

EARTH_RADIUS_M = 6_371_000.0

# A point within this many degrees of a ring edge counts as inside.
EDGE_TOLERANCE_DEG = 1e-12

# Padding of each ring's bounds, of each edge's latitude range in the slab
# index, and of each edge's coordinate ranges in the guard of the on-edge
# test.  It is far above EDGE_TOLERANCE_DEG and above the rounding of any
# coordinate the edge and crossing tests compute, so no edge a query needs is
# left out, and a point just outside a ring but within EDGE_TOLERANCE_DEG of
# an edge still lies within the ring's bounds.
SLAB_MARGIN_DEG = 1e-9


@dataclass(frozen=True, slots=True)
class GeoPoint:
    lat: float
    lon: float


class PolygonRing:
    """Implicitly closed ring, built from its vertices' latitudes and
    longitudes with the first vertex not repeated at the end.

    The ring is its query index: flat ``lats``/``lons`` tuples with the first
    vertex repeated at the end (edge ``i`` runs from vertex ``i`` to vertex
    ``i + 1``), the bounds ``[lat_lo, lat_hi]`` x ``[lon_lo, lon_hi]`` padded
    by SLAB_MARGIN_DEG, and a latitude-slab table.  The padded latitude range
    is cut into ``isqrt(n)`` equal slabs; ``slabs[k]`` holds the indices of
    the edges whose padded latitude range overlaps slab ``k``.
    """

    __slots__ = ("lats", "lons", "lat_lo", "lat_hi", "lon_lo", "lon_hi", "slab_scale", "slabs")

    def __init__(self, lats: Sequence[float], lons: Sequence[float]):
        n = len(lats)
        if n < 3:
            raise InvalidGeometryError(f"ring needs >= 3 vertices, got {n}")
        lats = tuple(lats) + (lats[0],)
        lons = tuple(lons) + (lons[0],)
        for lat, lon in zip(lats, lons):
            # Comparisons with NaN are false, so this also rejects NaN.
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise InvalidGeometryError(
                    f"vertex ({lat}, {lon}) is not a finite latitude within "
                    "[-90, 90] and longitude within [-180, 180]"
                )
        margin = SLAB_MARGIN_DEG
        lat_lo = min(lats) - margin
        lat_hi = max(lats) + margin
        n_slabs = math.isqrt(n)
        scale = n_slabs / (lat_hi - lat_lo)
        top = n_slabs - 1
        # Edge i goes into every slab from that of its lower end minus the
        # margin to that of its upper end plus the margin.  The slab of a
        # latitude x is int((x - lat_lo) * scale), capped at the top slab,
        # exactly as point_in_polygon computes it.
        slabs: list[list[int]] = [[] for _ in range(n_slabs)]
        for i in range(n):
            a = lats[i]
            b = lats[i + 1]
            if a == b and lons[i] == lons[i + 1]:
                raise InvalidGeometryError("ring has two identical consecutive vertices")
            if a > b:
                a, b = b, a
            first = int((a - margin - lat_lo) * scale)
            last = int((b + margin - lat_lo) * scale)
            if last > top:
                last = top
            for k in range(first if first < last else last, last + 1):
                slabs[k].append(i)
        self.lats = lats
        self.lons = lons
        self.lat_lo = lat_lo
        self.lat_hi = lat_hi
        self.lon_lo = min(lons) - margin
        self.lon_hi = max(lons) + margin
        self.slab_scale = scale
        self.slabs = tuple(map(tuple, slabs))

    @property
    def vertices(self) -> tuple[GeoPoint, ...]:
        """The ring's vertices, the first not repeated at the end."""
        return tuple(map(GeoPoint, self.lats[:-1], self.lons[:-1]))


@dataclass(frozen=True)
class ZonePolygon:
    outer: PolygonRing
    holes: tuple[PolygonRing, ...] = ()


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two lat/lon pairs in degrees."""
    rlat1 = math.radians(lat1)
    rlat2 = math.radians(lat2)
    dlat = rlat2 - rlat1
    dlon = math.radians(lon2 - lon1)
    s = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(rlat1) * math.cos(rlat2) * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def _near_edge(lat: float, lon: float, alat: float, alon: float, dy: float, dx: float) -> bool:
    """Whether (lat, lon) lies within EDGE_TOLERANCE_DEG of the edge from
    (alat, alon) to (alat + dy, alon + dx)."""
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        t = 0.0
    else:
        t = ((lat - alat) * dy + (lon - alon) * dx) / seg2
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    py = alat + t * dy
    px = alon + t * dx
    d2 = (lat - py) * (lat - py) + (lon - px) * (lon - px)
    return d2 <= EDGE_TOLERANCE_DEG * EDGE_TOLERANCE_DEG


def point_in_polygon(p: GeoPoint, poly: ZonePolygon) -> bool:
    """Even-odd containment test with a deterministic on-edge tie-break.

    A point within EDGE_TOLERANCE_DEG of any edge (outer or hole boundary)
    is inside; a point strictly interior to a hole is outside.

    Each ring is tested only against the edges of the point's latitude slab,
    in one pass that runs the on-edge test and the eastward-ray crossing
    test on each edge.  The on-edge test is skipped where the point is more
    than SLAB_MARGIN_DEG outside the edge's latitude or longitude range, and
    an edge outside the slab can be neither near the point nor crossed by
    its ray, so the answer is the one a walk over every edge gives.
    """
    lat = p.lat
    lon = p.lon
    margin = SLAB_MARGIN_DEG
    crossings = 0
    for ring in (poly.outer,) + poly.holes:
        lat_lo = ring.lat_lo
        if not (lat_lo <= lat <= ring.lat_hi):
            continue
        slabs = ring.slabs
        k = min(int((lat - lat_lo) * ring.slab_scale), len(slabs) - 1)
        lats = ring.lats
        lons = ring.lons
        for i in slabs[k]:
            alat = lats[i]
            blat = lats[i + 1]
            if (alat > lat) != (blat > lat):
                # The edge spans the point's latitude: its ray may cross it.
                alon = lons[i]
                blon = lons[i + 1]
                dy = blat - alat
                dx = blon - alon
                if (
                    alon - margin <= lon <= blon + margin
                    if dx > 0.0
                    else blon - margin <= lon <= alon + margin
                ) and _near_edge(lat, lon, alat, alon, dy, dx):
                    return True
                if lon < alon + (lat - alat) * dx / dy:
                    crossings += 1
            elif (
                alat - lat <= margin or blat - lat <= margin
                if alat > lat
                else lat - alat <= margin or lat - blat <= margin
            ):
                # The edge ends within the margin of the point's latitude.
                alon = lons[i]
                if _near_edge(lat, lon, alat, alon, blat - alat, lons[i + 1] - alon):
                    return True
    return crossings % 2 == 1
