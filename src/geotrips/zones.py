"""Named zone loading (GeoJSON) and point-to-zone labeling."""

from __future__ import annotations

import math
from typing import IO, NamedTuple

from .errors import ConfigError, InvalidGeometryError
from .geometry import SLAB_MARGIN_DEG, GeoPoint, PolygonRing, ZonePolygon, point_in_polygon
from .records import as_float, read_json, shown, source_name

#: Sentinel label for points lying in no configured zone.
EXTERNAL = "EXTERNAL"


class Zone(NamedTuple):
    zone_id: str
    polygons: tuple[ZonePolygon, ...]


class ZoneSet:
    """Immutable zone collection, indexed by a grid of cells.

    `label_point` gives a point the zone of the first polygon, in declaration
    order, that holds it (`point_in_polygon`), so overlapping zones go to the
    zone declared first, and `EXTERNAL` when none does.  It looks the point up
    in a uniform grid of ``g x g`` cells, ``g = 8 * isqrt(polygon count)``,
    over the union of the outer rings' padded bounds; a point outside the
    grid, NaN and infinite coordinates included, is `EXTERNAL`.  A cell holds
    its label outright when the grid decides it; otherwise it holds, in
    declaration order, the polygons that must still be tested exactly, and
    the label that follows them (see `_grid`).  `cells` and
    `decided_cells` count the grid's cells and those holding their label.

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
        self._grid = _grid([(zone.zone_id, poly) for zone in self.zones for poly in zone.polygons])
        cells = self._grid[-1]
        self.cells = len(cells)
        self.decided_cells = sum(cell.__class__ is str for cell in cells)

    def label_point(self, p: GeoPoint) -> str:
        """Zone id of the first zone in declaration order that holds `p`, else EXTERNAL."""
        lat0, ys, lon0, xs, g, cells = self._grid
        y = (p.lat - lat0) * ys
        x = (p.lon - lon0) * xs
        if not (0.0 <= y < g and 0.0 <= x < g):  # also NaN and infinite coordinates
            return EXTERNAL
        cell = cells[int(y) * g + int(x)]
        if cell.__class__ is str:
            return cell
        candidates, label = cell
        for zone_id, poly in candidates:
            if point_in_polygon(p, poly):
                return zone_id
        return label

    @property
    def zone_ids(self) -> list[str]:
        return [z.zone_id for z in self.zones]


def _grid(entries: list[tuple[str, ZonePolygon]]) -> tuple:
    """The cell grid of `ZoneSet`: ``(lat0, ys, lon0, xs, g, cells)``, where a
    point falls in cell ``int((lat - lat0) * ys) * g + int((lon - lon0) * xs)``.

    Each polygon, in declaration order, reaches the cells its padded outer
    bounds span: those are the only cells where `point_in_polygon` can hold.
    In each of them the polygon is either decided, true or false for the
    whole cell, or left for an exact test.  A cell is decided when no edge of
    any of the polygon's rings has a bounding box within SLAB_MARGIN_DEG of
    it.  Why that is exact: every point of the cell is then more than the
    margin from every edge, so the on-edge test fails and each ray-crossing
    comparison is decided far above its rounding, and the boundary does not
    enter the cell, so every point of it gets the answer of the cell's
    centre.  A run of such cells along a row is one region, and one centre
    test serves it.  The cells a coordinate range reaches are found with the
    lookup's own arithmetic, whose floor is monotone, so no point falls in a
    cell its range misses.  A polygon with more vertices than the cells it
    spans skips the per-edge pass and leaves all of them to the exact test.

    A cell's label is the first polygon that holds the whole cell, after the
    undecided polygons before it, kept as candidates in declaration order;
    without such a polygon it is EXTERNAL.  A cell with no candidates holds
    the label as a string, any other ``(candidates, label)``.
    """
    outers = [poly.outer for _, poly in entries]
    g = 8 * math.isqrt(len(entries))
    top = g - 1
    lat0 = min(o.lat_lo for o in outers)
    lon0 = min(o.lon_lo for o in outers)
    ys = g / (max(o.lat_hi for o in outers) - lat0)
    xs = g / (max(o.lon_hi for o in outers) - lon0)

    def span(lo: float, hi: float, origin: float, scale: float) -> range:
        return range(max(int((lo - origin) * scale), 0), min(int((hi - origin) * scale), top) + 1)

    margin = SLAB_MARGIN_DEG
    done: list[str | None] = [None] * (g * g)  # the first polygon that holds the whole cell
    candidates: dict[int, list[tuple[str, ZonePolygon]]] = {}
    for entry in entries:
        zone_id, poly = entry
        o = poly.outer
        rows = span(o.lat_lo, o.lat_hi, lat0, ys)
        cols = span(o.lon_lo, o.lon_hi, lon0, xs)
        w = len(cols)
        # near[r * w + c]: cell (rows[r], cols[c]) lies within the margin of an edge's box
        near = bytearray(b"\1") * (len(rows) * w)
        rings = (o, *poly.holes)
        if sum(len(ring.lats) - 1 for ring in rings) <= len(near):
            near = bytearray(len(near))
            for ring in rings:
                lats = ring.lats
                lons = ring.lons
                for k in range(len(lats) - 1):
                    a, b = sorted(lats[k:k + 2])
                    c, d = sorted(lons[k:k + 2])
                    er = span(a - margin, b + margin, lat0, ys)
                    ec = span(c - margin, d + margin, lon0, xs)
                    c0 = max(ec.start, cols.start) - cols.start
                    c1 = min(ec.stop, cols.stop) - cols.start
                    if c0 < c1:
                        run = b"\1" * (c1 - c0)
                        for r in range(max(er.start, rows.start), min(er.stop, rows.stop)):
                            at = (r - rows.start) * w
                            near[at + c0:at + c1] = run
        for r, i in enumerate(rows):
            lat = lat0 + (i + 0.5) / ys
            inside = None  # the answer of the current run of decided cells
            for c, j in enumerate(cols):
                cell = i * g + j
                if near[r * w + c]:
                    inside = None
                    if done[cell] is None:
                        candidates.setdefault(cell, []).append(entry)
                elif done[cell] is None:
                    if inside is None:
                        inside = point_in_polygon(GeoPoint(lat, lon0 + (j + 0.5) / xs), poly)
                    if inside:
                        done[cell] = zone_id
    cells = [
        (tuple(candidates[cell]), label) if cell in candidates else label
        for cell, label in enumerate(zone_id or EXTERNAL for zone_id in done)
    ]
    return lat0, ys, lon0, xs, g, cells


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
