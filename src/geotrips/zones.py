"""Named zone loading (GeoJSON) and indexed point-to-zone labeling."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO

from .errors import ConfigError, InvalidGeometryError
from .geometry import (
    BoundingBox,
    GeoPoint,
    PolygonRing,
    ZonePolygon,
    bbox,
    point_in_polygon,
)

#: Sentinel label for points lying in no configured zone.
EXTERNAL = "EXTERNAL"


@dataclass(frozen=True)
class Zone:
    zone_id: str
    name: str
    polygons: tuple[ZonePolygon, ...]


class ZoneSet:
    """Immutable zone collection with a uniform-grid bounding-box prefilter.

    Overlapping zones are resolved by declaration order; the indexed query
    is contractually identical to a brute-force scan over all polygons.
    """

    def __init__(self, zones: list[Zone]):
        if not zones:
            raise ConfigError("no zones")
        ids = [z.zone_id for z in zones]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate zone_id in zone set")
        self.zones = tuple(zones)
        self._entries: list[tuple[int, ZonePolygon, BoundingBox]] = []
        for zi, zone in enumerate(self.zones):
            for poly in zone.polygons:
                self._entries.append((zi, poly, bbox(poly)))
        self._build_grid()

    def _build_grid(self) -> None:
        boxes = [b for _, _, b in self._entries]
        self._bounds = BoundingBox(
            min(b.min_lat for b in boxes),
            max(b.max_lat for b in boxes),
            min(b.min_lon for b in boxes),
            max(b.max_lon for b in boxes),
        )
        # Cell size = largest polygon bbox dimension, so each polygon spans
        # only a handful of cells.
        cell = max(
            max(b.max_lat - b.min_lat, b.max_lon - b.min_lon) for b in boxes
        )
        self._cell = cell if cell > 0 else 1e-9
        self._grid: dict[tuple[int, int], list[int]] = {}
        for ei, (_, _, b) in enumerate(self._entries):
            i0, j0 = self._cell_of(b.min_lat, b.min_lon)
            i1, j1 = self._cell_of(b.max_lat, b.max_lon)
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    self._grid.setdefault((i, j), []).append(ei)

    def _cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        return (
            int(math.floor((lat - self._bounds.min_lat) / self._cell)),
            int(math.floor((lon - self._bounds.min_lon) / self._cell)),
        )

    def label_point(self, p: GeoPoint) -> str:
        """Zone id of the first matching zone in declaration order, else EXTERNAL."""
        if not self._bounds.contains(p):
            return EXTERNAL
        candidates = self._grid.get(self._cell_of(p.lat, p.lon))
        if not candidates:
            return EXTERNAL
        best: int | None = None
        for ei in candidates:
            zi, poly, box = self._entries[ei]
            if best is not None and zi >= best:
                continue
            if box.contains(p) and point_in_polygon(p, poly):
                best = zi
        return self.zones[best].zone_id if best is not None else EXTERNAL

    def label_point_scan(self, p: GeoPoint) -> str:
        """Brute-force reference query; used to assert index transparency."""
        for zone in self.zones:
            for poly in zone.polygons:
                if point_in_polygon(p, poly):
                    return zone.zone_id
        return EXTERNAL

    @property
    def zone_ids(self) -> list[str]:
        return [z.zone_id for z in self.zones]


def _ring_from_coords(coords, feature_label: str) -> PolygonRing:
    if not isinstance(coords, list) or len(coords) < 3:
        raise InvalidGeometryError(f"{feature_label}: ring with fewer than 3 positions")
    pts = []
    for pos in coords:
        if not isinstance(pos, (list, tuple)) or len(pos) < 2:
            raise InvalidGeometryError(f"{feature_label}: malformed coordinate position")
        try:
            lon, lat = float(pos[0]), float(pos[1])
        except (TypeError, ValueError):
            raise InvalidGeometryError(
                f"{feature_label}: non-numeric coordinate position {pos!r}"
            ) from None
        pts.append(GeoPoint(lat, lon))
    # GeoJSON rings repeat the first position at the end; storage does not.
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    try:
        return PolygonRing(tuple(pts))
    except InvalidGeometryError as exc:
        raise InvalidGeometryError(f"{feature_label}: {exc}") from None


def _polygon_from_rings(rings, feature_label: str) -> ZonePolygon:
    if not isinstance(rings, list):
        raise InvalidGeometryError(f"{feature_label}: polygon coordinates are not a list")
    if not rings:
        raise InvalidGeometryError(f"{feature_label}: polygon with no rings")
    outer = _ring_from_coords(rings[0], feature_label)
    holes = tuple(_ring_from_coords(r, feature_label) for r in rings[1:])
    return ZonePolygon(outer, holes)


def load_zones(source: str | IO[str] | dict) -> ZoneSet:
    """Load a ZoneSet from a GeoJSON FeatureCollection.

    Each feature must be a Polygon or MultiPolygon with ``zone_id`` and
    ``name`` properties.  Coordinates are [lon, lat] per RFC 7946.
    """
    name = source if isinstance(source, str) else getattr(source, "name", "zones document")
    try:
        if isinstance(source, dict):
            doc = source
        elif isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}:{exc.lineno}:{exc.colno}: {exc.msg}") from None

    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ConfigError(f"{name}: not a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ConfigError(f"{name}: 'features' is not a list")
    zones: list[Zone] = []
    for fi, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ConfigError(f"{name}: feature #{fi} is not a JSON object")
        props = feature.get("properties") or {}
        zone_id = props.get("zone_id") if isinstance(props, dict) else None
        if not zone_id:
            raise ConfigError(f"{name}: feature #{fi} has no zone_id property")
        label = f"feature {zone_id!r}"
        zone_name = str(props.get("name", zone_id))
        geom = feature.get("geometry") or {}
        if not isinstance(geom, dict):
            raise InvalidGeometryError(f"{label}: geometry is not a JSON object")
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "Polygon":
            coords = [coords]  # a polygon is a one-member multipolygon
        elif gtype != "MultiPolygon":
            raise InvalidGeometryError(f"{label}: unsupported geometry type {gtype!r}")
        if not isinstance(coords, list):
            raise InvalidGeometryError(f"{label}: multipolygon coordinates are not a list")
        polys = tuple(_polygon_from_rings(rings, label) for rings in coords)
        zones.append(Zone(str(zone_id), zone_name, polys))
    if not zones:
        raise ConfigError("no zones")
    return ZoneSet(zones)
