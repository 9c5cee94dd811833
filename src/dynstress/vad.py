"""Binary valence/arousal/dominance codes and the emotion catalogue."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True, order=True)
class VadCode:
    """A binary (valence, arousal, dominance) triple."""

    valence: int
    arousal: int
    dominance: int

    def __post_init__(self):
        for name in ("valence", "arousal", "dominance"):
            v = getattr(self, name)
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {v!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.valence, self.arousal, self.dominance)

    def to_text(self) -> str:
        return f"{self.valence},{self.arousal},{self.dominance}"

    @classmethod
    def from_text(cls, text: str) -> "VadCode":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'v,a,d', got {text!r}")
        return cls(*(int(p.strip()) for p in parts))


class Emotion(Enum):
    HAPPINESS = "happiness"
    SADNESS = "sadness"
    ANGER = "anger"
    FEAR = "fear"
    DISGUST = "disgust"
    # Neutral is not part of the canonical catalogue but occurs in source
    # datasets; mapped to the all-low code.
    NEUTRAL = "neutral"

    @classmethod
    def from_name(cls, name: str) -> "Emotion":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown emotion {name!r}") from None


_VAD_TABLE = {
    Emotion.HAPPINESS: VadCode(1, 1, 1),
    Emotion.SADNESS: VadCode(0, 0, 0),
    Emotion.ANGER: VadCode(0, 1, 1),
    Emotion.FEAR: VadCode(0, 1, 0),
    Emotion.DISGUST: VadCode(0, 1, 1),
    Emotion.NEUTRAL: VadCode(0, 0, 0),
}

# Canonical stress code: low valence, high arousal, low dominance.  Note this
# aliases Fear's encoding; the two are indistinguishable at the code level.
STRESS_CODE = VadCode(0, 1, 0)

DEFAULT_CODE = VadCode(0, 0, 0)

ALL_CODES = tuple(
    VadCode(v, a, d) for v in (0, 1) for a in (0, 1) for d in (0, 1)
)


def encode_emotion(e: Emotion) -> VadCode:
    """Map a catalogue emotion to its binary VAD code."""
    return _VAD_TABLE[e]


def hamming_distance(a: VadCode, b: VadCode) -> int:
    """Count of differing positions between two codes (0..3)."""
    return (
        (a.valence != b.valence)
        + (a.arousal != b.arousal)
        + (a.dominance != b.dominance)
    )


def is_stress(c: VadCode) -> bool:
    """True iff the code matches the stress encoding exactly."""
    # STRESS_CODE field by field: a few times faster than the dataclass's __eq__
    return c.valence == 0 and c.arousal == 1 and c.dominance == 0


def parse_label(text: str) -> VadCode:
    """Parse a manifest label: either 'v,a,d' or an emotion name."""
    if "," in text:
        return VadCode.from_text(text)
    return encode_emotion(Emotion.from_name(text))
