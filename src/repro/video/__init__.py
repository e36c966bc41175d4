"""Video substrate: source videos, encoding ladder, synthetic encoder, renderings.

The paper works with real source videos (Table 1) encoded with H.264 into
4-second chunks at five bitrate levels.  The reproduction replaces pixels
with per-chunk *content descriptors* (motion, spatial complexity,
information richness, key-moment score); everything downstream — the
synthetic encoder, the ground-truth sensitivity oracle, the QoE models and
the ABR algorithms — consumes only this metadata, exactly as the original
system consumes chunk sizes and quality scores rather than raw frames.
"""

from repro.video.chunk import EncodingLadder, DEFAULT_LADDER
from repro.video.content import ContentDescriptor, ContentGenerator
from repro.video.video import SourceVideo
from repro.video.encoder import EncodedChunk, EncodedVideo, SyntheticEncoder
from repro.video.library import VideoSpec, TEST_VIDEO_SPECS, VideoLibrary
from repro.video.rendering import (
    QualityIncident,
    RenderedVideo,
    RenderingBatch,
    render_pristine,
    inject_incident,
    inject_incidents,
    make_video_series,
)

__all__ = [
    "EncodingLadder",
    "DEFAULT_LADDER",
    "ContentDescriptor",
    "ContentGenerator",
    "SourceVideo",
    "EncodedChunk",
    "EncodedVideo",
    "SyntheticEncoder",
    "VideoSpec",
    "TEST_VIDEO_SPECS",
    "VideoLibrary",
    "QualityIncident",
    "RenderedVideo",
    "RenderingBatch",
    "render_pristine",
    "inject_incident",
    "inject_incidents",
    "make_video_series",
]
