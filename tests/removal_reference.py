"""Reference removability queries on a shrinking product model.

``removable`` answers the interference rule for one part and one direction,
and ``reduce`` deletes a part from every matrix.  Walking a plan with these
two is an implementation independent of ``encoding.metrics``, which runs one
bitmask walk over the full model; the tests compare the two.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from adplan.product import ProductModel, removed_mask


def removable(model: ProductModel, part: int, direction: int, removed: int | Iterable[int] = 0) -> bool:
    """True if ``part`` can be removed along ``direction`` given ``removed``.

    ``removed`` is a bitmask or an iterable of already-removed component
    indices.  ``part`` itself must not be in the removed set.
    """
    if not isinstance(removed, int):
        removed = removed_mask(removed)
    return not (model.blocker_masks[direction][part] & ~removed)


def reduce(model: ProductModel, part: int) -> ProductModel:
    """Return the model with ``part`` deleted (row and column in every matrix).

    Component indices above ``part`` shift down by one.  The gripper catalog
    is kept as-is even if some grippers become unused.
    """
    n = model.n
    if not 0 <= part < n:
        raise IndexError(f"component index {part} out of range for {n} components")
    keep = [i for i in range(n) if i != part]
    return ProductModel(
        name=model.name,
        part_names=tuple(model.part_names[i] for i in keep),
        directions=model.directions,
        interference=np.delete(np.delete(model.interference, part, axis=1), part, axis=2),
        contact=np.delete(np.delete(model.contact, part, axis=1), part, axis=2),
        connection=np.delete(np.delete(model.connection, part, axis=1), part, axis=2),
        gripper_catalog=model.gripper_catalog,
        allowed_grippers=tuple(model.allowed_grippers[i] for i in keep),
    )
