"""Named zone loading (GeoJSON) and point-to-zone labeling."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO

from .errors import ConfigError, InvalidGeometryError
from .geometry import GeoPoint, PolygonRing, ZonePolygon, point_in_polygon

#: Sentinel label for points lying in no configured zone.
EXTERNAL = "EXTERNAL"


@dataclass(frozen=True)
class Zone:
    zone_id: str
    polygons: tuple[ZonePolygon, ...]


class ZoneSet:
    """Immutable zone collection.

    `label_point` scans the polygons in declaration order, skipping each one
    whose outer ring's padded bounds miss the point, so overlapping zones go to
    the zone declared first.  The scan costs time in proportion to the
    polygon count; each ring's latitude-slab index keeps the point-in-polygon
    test short.
    """

    def __init__(self, zones: list[Zone]):
        if not zones:
            raise ConfigError("no zones")
        ids = [z.zone_id for z in zones]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate zone_id in zone set")
        self.zones = tuple(zones)
        self._entries: list[tuple[str, ZonePolygon, float, float, float, float]] = []
        for zone in self.zones:
            for poly in zone.polygons:
                o = poly.outer
                self._entries.append((zone.zone_id, poly, o.lat_lo, o.lat_hi, o.lon_lo, o.lon_hi))

    def label_point(self, p: GeoPoint) -> str:
        """Zone id of the first zone in declaration order that holds `p`, else EXTERNAL."""
        lat = p.lat
        lon = p.lon
        for zone_id, poly, lat_lo, lat_hi, lon_lo, lon_hi in self._entries:
            if lat_lo <= lat <= lat_hi and lon_lo <= lon <= lon_hi and point_in_polygon(p, poly):
                return zone_id
        return EXTERNAL

    @property
    def zone_ids(self) -> list[str]:
        return [z.zone_id for z in self.zones]


def _ring_from_coords(coords, feature_label: str) -> PolygonRing:
    if not isinstance(coords, list) or len(coords) < 3:
        raise InvalidGeometryError(f"{feature_label}: ring with fewer than 3 positions")
    lats: list[float] = []
    lons: list[float] = []
    for pos in coords:
        if not isinstance(pos, (list, tuple)) or len(pos) < 2:
            raise InvalidGeometryError(f"{feature_label}: malformed coordinate position")
        try:
            lon, lat = float(pos[0]), float(pos[1])
        except (TypeError, ValueError):
            raise InvalidGeometryError(
                f"{feature_label}: non-numeric coordinate position {pos!r}"
            ) from None
        lats.append(lat)
        lons.append(lon)
    # GeoJSON rings repeat the first position at the end; PolygonRing does not.
    if (lats[0], lons[0]) == (lats[-1], lons[-1]):
        del lats[-1], lons[-1]
    try:
        return PolygonRing(lats, lons)
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

    Each feature must be a Polygon or MultiPolygon with a ``zone_id``
    property; other properties, such as ``name``, are ignored.  Coordinates
    are [lon, lat] per RFC 7946.
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
        zones.append(Zone(str(zone_id), polys))
    if not zones:
        raise ConfigError("no zones")
    return ZoneSet(zones)
