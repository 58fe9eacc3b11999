"""geotrips: turn geotagged point streams into displacement records and
aggregated travel-behavior products (OD matrices, time-of-day histograms,
user-group partitions)."""

from .displacement import Displacement, FilterConfig, RunReport, run_extraction
from .ingest import load_timelines
from .records import TweetRecord, UserTimeline
from .zones import EXTERNAL, ZoneSet, load_zones

__version__ = "0.1.0"

__all__ = [
    "Displacement",
    "FilterConfig",
    "RunReport",
    "run_extraction",
    "TweetRecord",
    "UserTimeline",
    "load_timelines",
    "EXTERNAL",
    "ZoneSet",
    "load_zones",
    "__version__",
]
