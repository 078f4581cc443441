"""Seeded synthetic rating studies for the benchmark workloads.

Pure standard library, so the inputs depend only on the seed and not on
the numpy version under test.  Every rater casts at most one vote per
condition, which makes the two-stage sampling pmf of a condition equal to
the empirical distribution of its votes; the analytic oracles in
``checks.py`` rely on that.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class StudyShape:
    conditions: int
    raters: int
    coverage: float  # chance that a rater votes on a given condition


def _clip_score(x: float) -> int:
    return min(5, max(1, int(round(x))))


def write_study(shape: StudyShape, seed: int, ratings_path: Path, reference_path: Path) -> dict:
    """Write ``condition_id,user_id,score`` ratings and a ``condition_id,mos``
    reference table.  Returns the shape actually written and each file's
    sha256.

    Conditions sit on a random quality ladder; a vote is quality plus a
    per-rater bias plus noise, rounded onto 1..5.  The reference is the
    quality plus a little lab noise.  Every condition gets at least two
    votes so that every per-condition statistic is defined.
    """
    rng = random.Random(seed)
    quality = [rng.uniform(1.3, 4.7) for _ in range(shape.conditions)]
    bias = [rng.gauss(0.0, 0.3) for _ in range(shape.raters)]
    votes: list[list[tuple[int, int]]] = [[] for _ in range(shape.conditions)]
    for u in range(shape.raters):
        for c in range(shape.conditions):
            if rng.random() < shape.coverage:
                votes[c].append((u, _clip_score(quality[c] + bias[u] + rng.gauss(0.0, 0.8))))
    for c, cast in enumerate(votes):
        voted = {u for u, _ in cast}
        for u in rng.sample([u for u in range(shape.raters) if u not in voted], max(0, 2 - len(cast))):
            cast.append((u, _clip_score(quality[c] + bias[u] + rng.gauss(0.0, 0.8))))

    lines = ["condition_id,user_id,score"]
    lines += [f"c{c:04d},u{u:05d},{s}" for c, cast in enumerate(votes) for u, s in sorted(cast)]
    ratings_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ref_lines = ["condition_id,mos"]
    ref_lines += [
        f"c{c:04d},{min(5.0, max(1.0, q + rng.gauss(0.0, 0.15))):.4f}" for c, q in enumerate(quality)
    ]
    reference_path.write_text("\n".join(ref_lines) + "\n", encoding="utf-8")

    return {
        "conditions": shape.conditions,
        "raters": len({u for cast in votes for u, _ in cast}),
        "votes": sum(len(cast) for cast in votes),
        "ratings_sha256": sha256_file(ratings_path),
        "reference_sha256": sha256_file(reference_path),
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
