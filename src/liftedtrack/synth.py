"""Deterministic synthetic tracking sequences.

Each identity is a textured colored patch moving on a linear plus optional
sinusoidal path. Occlusion windows delete detections while ground truth
persists. Detector noise jitters boxes and scores, pixel noise and a
per-frame global brightness factor perturb the rendered patches. Output
order and random draws are fixed, so a given (spec, seed) pair is bitwise
reproducible.
"""

import colorsys
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .affinity import MatchTable, iou_match_table
from .graph import BBox, Detection
from .motio import MotRecord


@dataclass(frozen=True)
class IdentitySpec:
    """One moving identity: path, size, occlusions, and appearance knob."""

    track_id: int
    start: Tuple[float, float]
    velocity: Tuple[float, float]
    size: Tuple[float, float] = (24.0, 24.0)
    sine_amplitude: float = 0.0
    sine_period: float = 24.0
    occlusions: Tuple[Tuple[int, int], ...] = ()
    appearance: Optional[float] = None

    def __post_init__(self):
        if self.track_id < 1:
            raise ValueError(f"track_id must be >= 1, got {self.track_id}")
        if min(self.size) <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.sine_period <= 0:
            raise ValueError(f"sine_period must be positive, got {self.sine_period}")
        for first, last in self.occlusions:
            if first > last or first < 1:
                raise ValueError(f"bad occlusion window [{first}, {last}]")

    def occluded(self, frame: int) -> bool:
        return any(first <= frame <= last for first, last in self.occlusions)

    def box_at(self, frame: int) -> BBox:
        t = frame - 1
        left = self.start[0] + self.velocity[0] * t
        top = self.start[1] + self.velocity[1] * t
        if self.sine_amplitude:
            top += self.sine_amplitude * math.sin(2.0 * math.pi * t / self.sine_period)
        return BBox(left, top, self.size[0], self.size[1])


@dataclass(frozen=True)
class SequenceSpec:
    identities: Tuple[IdentitySpec, ...]
    num_frames: int
    patch_shape: Tuple[int, int, int] = (3, 16, 16)
    box_noise: float = 0.0
    score_noise: float = 0.0
    pixel_noise: float = 0.0
    brightness_range: Tuple[float, float] = (1.0, 1.0)
    brightness_period: float = 0.0
    match_gap: int = 5

    def __post_init__(self):
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {self.num_frames}")
        if not self.identities:
            raise ValueError("need at least one identity")
        ids = [ident.track_id for ident in self.identities]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate track ids in {ids}")
        if len(self.patch_shape) != 3 or self.patch_shape[0] != 3:
            raise ValueError(f"patch_shape must be (3, h, w), got {self.patch_shape}")
        lo, hi = self.brightness_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad brightness range ({lo}, {hi})")
        if self.brightness_period < 0:
            raise ValueError(f"bad brightness period {self.brightness_period}")


@dataclass(frozen=True)
class SynthResult:
    gt: Tuple[MotRecord, ...]
    detections: Tuple[Detection, ...]
    images: np.ndarray = field(repr=False)
    table: MatchTable


def _base_patch(appearance: float, shape) -> np.ndarray:
    """Identity-specific texture: hue from the appearance knob, fixed stripes."""
    _, h, w = shape
    hue = (0.11 + appearance) % 1.0
    color = np.array(colorsys.hsv_to_rgb(hue, 0.85, 1.0))
    yy, xx = np.mgrid[0:h, 0:w]
    phase = 2.0 * math.pi * appearance
    waves = np.sin(2.0 * math.pi * (2.0 * xx / w + (1.0 + 2.0 * appearance) * yy / h) + phase)
    stripes = 0.5 + 0.5 * waves
    return color[:, None, None] * (0.3 + 0.7 * stripes)[None]


def synth_sequence(spec: SequenceSpec, seed: int = 0) -> SynthResult:
    """Render the sequence: ground truth, noisy detections, patches, matches."""
    rng = np.random.default_rng(seed)
    bases = []
    for i, ident in enumerate(spec.identities):
        appearance = ident.appearance
        if appearance is None:
            appearance = (i * 0.61803398875) % 1.0
        bases.append(_base_patch(appearance, spec.patch_shape))

    gt = []
    detections = []
    images = []
    lo, hi = spec.brightness_range
    # a nonzero period makes brightness drift slowly (seeded phase) instead
    # of resampling independently per frame
    phase = float(rng.uniform(0.0, 2.0 * math.pi)) if spec.brightness_period else 0.0
    for frame in range(1, spec.num_frames + 1):
        if spec.brightness_period:
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            brightness = mid + half * math.sin(
                2.0 * math.pi * frame / spec.brightness_period + phase
            )
        else:
            brightness = float(rng.uniform(lo, hi))
        for i, ident in enumerate(spec.identities):
            box = ident.box_at(frame)
            gt.append(
                MotRecord(frame, ident.track_id, box.left, box.top,
                          box.width, box.height, 1.0)
            )
            if ident.occluded(frame):
                continue
            jitter = spec.box_noise * rng.standard_normal(2)
            score = 1.0
            if spec.score_noise:
                score = float(np.clip(1.0 - abs(spec.score_noise * rng.standard_normal()),
                                      0.05, 1.0))
            noisy = BBox(box.left + jitter[0], box.top + jitter[1],
                         box.width, box.height)
            patch = brightness * bases[i]
            if spec.pixel_noise:
                patch = patch + spec.pixel_noise * rng.standard_normal(spec.patch_shape)
            patch = np.clip(patch, 0.0, 2.0)
            detections.append(Detection(frame=frame, box=noisy, score=score,
                                        image=patch))
            images.append(patch)

    table = iou_match_table(detections, max_frame_gap=spec.match_gap)
    stacked = (np.array(images) if images
               else np.zeros((0, *spec.patch_shape)))
    return SynthResult(tuple(gt), tuple(detections), stacked, table)


# benchmark_spec's scene: the hue gap of crossing partners, the global
# brightness range and its period in frames, and the crossing lanes'
# vertical pixels per frame
APPEARANCE_GAP = 0.12
BRIGHTNESS_RANGE = (0.3, 1.7)
BRIGHTNESS_PERIOD = 24.0
CROSSING_SLOPE = 1.6


def benchmark_spec(num_frames: int = 100) -> SequenceSpec:
    """Five-identity occlusion benchmark.

    Identities 2/3 and 4/5 swap lanes during shared occlusion windows, so
    the frames right after each window pair best with the wrong identity
    on box overlap alone; appearance and longer-range evidence are needed
    to keep identities straight. Identity 1 has a plain occlusion. The
    crossing partners sit APPEARANCE_GAP apart on the hue knob, and the
    global brightness nuisance spans BRIGHTNESS_RANGE.
    """
    cross_a = _crossing_pair(
        track_ids=(2, 3), occlusion=(34, 36), cross_frame=35,
        mid_top=120.0, appearance=(0.30, 0.30 + APPEARANCE_GAP),
    )
    cross_b = _crossing_pair(
        track_ids=(4, 5), occlusion=(64, 66), cross_frame=65,
        mid_top=400.0, appearance=(0.72, 0.72 + APPEARANCE_GAP),
    )
    plain = IdentitySpec(
        track_id=1, start=(10.0, 10.0), velocity=(1.0, 0.0),
        sine_amplitude=2.0, sine_period=30.0,
        occlusions=((50, 52),), appearance=0.08,
    )
    return SequenceSpec(
        identities=(plain, *cross_a, *cross_b),
        num_frames=num_frames,
        box_noise=0.4,
        score_noise=0.05,
        pixel_noise=0.02,
        brightness_range=BRIGHTNESS_RANGE,
        brightness_period=BRIGHTNESS_PERIOD,
    )


def _crossing_pair(track_ids, occlusion, cross_frame, mid_top, appearance):
    """Two identities whose vertical paths meet at cross_frame.

    CROSSING_SLOPE is steep enough that the pair only overlaps near the
    crossing, yet shallow enough that consecutive same-identity frames
    stay above the pre-grouping overlap threshold.
    """
    first = IdentitySpec(
        track_id=track_ids[0],
        start=(10.0, mid_top - CROSSING_SLOPE * (cross_frame - 1)),
        velocity=(1.0, CROSSING_SLOPE),
        occlusions=(occlusion,),
        appearance=appearance[0],
    )
    second = IdentitySpec(
        track_id=track_ids[1],
        start=(10.0, mid_top + CROSSING_SLOPE * (cross_frame - 1)),
        velocity=(1.0, -CROSSING_SLOPE),
        occlusions=(occlusion,),
        appearance=appearance[1],
    )
    return first, second
