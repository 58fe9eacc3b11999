"""Named zone loading (GeoJSON) and point-to-zone labeling."""

from __future__ import annotations

from typing import IO, NamedTuple

from .errors import ConfigError, InvalidGeometryError
from .geometry import GeoPoint, PolygonRing, ZonePolygon, point_in_polygon
from .records import as_float, read_json, shown, source_name

#: Sentinel label for points lying in no configured zone.
EXTERNAL = "EXTERNAL"


class Zone(NamedTuple):
    zone_id: str
    polygons: tuple[ZonePolygon, ...]


class ZoneSet:
    """Immutable zone collection.

    `label_point` scans the polygons in declaration order, skipping each one
    whose outer ring's padded bounds miss the point, so overlapping zones go to
    the zone declared first.  The scan costs time in proportion to the
    polygon count; each ring's latitude-slab index keeps the point-in-polygon
    test short.

    An empty list, a `zone_id` that is not a non-empty string, a repeated
    `zone_id`, a zone named `EXTERNAL` and a `zone_id` holding a carriage
    return are a `ConfigError`; zone ``#i`` is feature ``#i`` of the map
    `load_zones` reads.
    """

    def __init__(self, zones: list[Zone]):
        self.zones = tuple(zones)
        if not self.zones:
            raise ConfigError("no zones")
        seen: set[str] = set()
        for i, zone in enumerate(self.zones):
            zid = zone.zone_id
            if not isinstance(zid, str) or not zid:
                raise ConfigError(
                    f"feature #{i} has a zone_id that is not a non-empty string: {shown(zid)}"
                )
            if zid == EXTERNAL:  # the label of points in no zone
                raise ConfigError(f"feature #{i} has the reserved zone_id {zid!r}")
            if zid in seen:
                raise ConfigError(f"feature #{i} repeats zone_id {zid!r}")
            if "\r" in zid:  # a CSV writer would leave it unquoted
                raise ConfigError(f"feature #{i} has a carriage return in zone_id {zid!r}")
            seen.add(zid)
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
            lon, lat = as_float(pos[0]), as_float(pos[1])
        except ValueError:
            raise InvalidGeometryError(
                f"{feature_label}: non-numeric coordinate position {shown(pos)}"
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


def load_zones(source: str | IO | dict) -> ZoneSet:
    """Load a ZoneSet from a GeoJSON FeatureCollection, given parsed or as a
    path or handle for `records.read_json`.

    Each feature must be a Polygon or MultiPolygon with a ``zone_id``
    property: a non-empty string, or an integer (not a boolean), which
    becomes its digits.  Other properties, such as ``name``, are ignored.
    Coordinates are [lon, lat] per RFC 7946, numbers by `records.as_float`.
    """
    name = source_name(source, "zones document")
    doc = source if isinstance(source, dict) else read_json(source, name)
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
        if type(zone_id) is int:  # not a boolean; its digits, as a JSONL user_id
            try:
                zone_id = str(zone_id)
            except ValueError:  # past Python's int-to-text limit, which `json` does not read
                raise ConfigError(
                    f"{name}: feature #{fi} has a zone_id of too many digits: {shown(zone_id)}"
                ) from None
        elif zone_id is None or zone_id == "":
            raise ConfigError(f"{name}: feature #{fi} has no zone_id property")
        elif type(zone_id) is not str:
            raise ConfigError(
                f"{name}: feature #{fi} has a zone_id that is not a string or an integer:"
                f" {zone_id!r}"
            )
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
        zones.append(Zone(zone_id, polys))
    try:
        return ZoneSet(zones)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
