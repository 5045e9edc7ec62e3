"""Song-type classification of compound scenes.

The song grammar and ``classify_song_type`` live in ``model``, with the
integrity rules that check every compound scene against them, so loading a
corpus does not import this module. See ``model`` for the six song types.
"""

from __future__ import annotations

from .model import classify_song_type


def song_type_of_compound_scene(corpus, compound_scene_id: str) -> int | None:
    """Classify a compound scene by the components of its scene sequence."""
    cs = corpus.compound_scenes[compound_scene_id]
    return classify_song_type(
        corpus.scenes[sid].component for sid in cs.scene_ids
    )
