"""Process-wide memos keyed by an id plus the exact content it carries.

A refined image's id does not encode the skip depth that produced it, so
one id can carry different content under different serving configs.
Memos whose result depends on that content (refined contents, image
embeddings) therefore key on the id and a *variant index*, and keep a
reference to the content each variant was computed from beside its
value; no entry keeps a byte copy of its content.  A lookup walks the
variants ``0, 1, ...`` of a key and hits only on bitwise-equal content
(byte equality, so ``0.0`` and ``-0.0`` stay distinct).  Each fresh
result adds exactly one key.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

#: ``key + (variant,)`` -> ``(content, value)``, both read-only.
VariantMemo = Dict[tuple, Tuple[np.ndarray, np.ndarray]]


def variant_get(
    memo: VariantMemo, key: tuple, content: np.ndarray
) -> Tuple[Optional[np.ndarray], int]:
    """``(value, variant)`` memoized under ``key`` for ``content``.

    On a miss the value is ``None`` and ``variant`` is the first free
    index, to pass to :func:`variant_put`.
    """
    raw = None
    variant = 0
    while True:
        entry = memo.get(key + (variant,))
        if entry is None:
            return None, variant
        held = entry[0]
        if held is content:
            return entry[1], variant
        if raw is None:
            raw = content.tobytes()
        if held.tobytes() == raw:
            return entry[1], variant
        variant += 1


def variant_put(
    memo: VariantMemo,
    key: tuple,
    variant: int,
    content: np.ndarray,
    value: np.ndarray,
    max_entries: int,
) -> None:
    """Memoize ``value`` for ``content`` at the slot a miss returned.

    A writeable ``content`` is copied, so a caller mutating its array
    later cannot change what the memo matches against.  A full memo is
    cleared first, which frees every variant chain from index 0.
    """
    if content.flags.writeable:
        content = content.copy()
        content.flags.writeable = False
    value.flags.writeable = False
    if len(memo) >= max_entries:
        memo.clear()
        variant = 0
    memo[key + (variant,)] = (content, value)
