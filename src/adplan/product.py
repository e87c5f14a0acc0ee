"""Product geometry model for disassembly sequence planning.

A product is a set of components plus, for every removal direction, three
boolean n x n matrices: interference (who blocks whom when moving along that
direction), contact and connection.  Removability follows the interference
rule: component ``i`` can leave along direction ``d`` once every component
``j`` with ``interference[d][i][j] == 1`` has already been removed.  Contact
and connection matrices are carried for model completeness and validation;
the planner itself only consults interference.

Removed sets are represented as integer bitmasks (bit ``i`` set means
component ``i`` is gone), which makes the removability test a single mask
operation against precomputed per-direction blocker masks.  Batched code
holds the same masks as arrays of 64-bit words (``mask_words``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

_MATRIX_KEYS = ("interference", "contact", "connection")


class ProductError(Exception):
    """Base class for product definition problems."""


class ProductParseError(ProductError):
    """The product file is not structurally well formed."""


class ProductValidationError(ProductError):
    """A structurally valid product violates a model invariant."""


def opposite_label(label: str) -> str | None:
    """Return the opposite direction label for signed labels like ``+x``.

    Labels that do not start with ``+`` or ``-`` have no declared opposite
    and yield None; assembly-order reporting leaves those blank.
    """
    if label.startswith("+"):
        return "-" + label[1:]
    if label.startswith("-"):
        return "+" + label[1:]
    return None


def removed_mask(parts: Iterable[int]) -> int:
    """Pack an iterable of component indices into a removed-set bitmask."""
    mask = 0
    for p in parts:
        mask |= 1 << int(p)  # a numpy index would make a fixed-width mask
    return mask


def mask_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a boolean array, of length n, into a read-only
    array of ceil(n / 64) ``uint64`` words: bit i of word w is entry 64·w + i."""
    padded = np.pad(bits, [(0, 0)] * (bits.ndim - 1) + [(0, -bits.shape[-1] % 64)])
    words = np.packbits(padded, axis=-1, bitorder="little").view("<u8")
    words.flags.writeable = False  # shared by every caller
    return words


@dataclass(frozen=True, eq=False)
class ProductModel:
    """Immutable product description.

    Attributes
    ----------
    name : str
        Display name of the product.
    part_names : tuple of str
        Display name per component; component IDs are the indices 0..n-1.
    directions : tuple of str
        Direction labels; direction IDs are the indices into this tuple.
    interference, contact, connection : ndarray of bool, shape (D, n, n)
        One n x n matrix per direction, stacked in direction order.
    gripper_catalog : tuple of str
        All gripper labels known to the product.
    allowed_grippers : tuple of tuple of int
        Per component, the catalog indices of grippers that can hold it.
        Never empty.
    """

    name: str
    part_names: tuple[str, ...]
    directions: tuple[str, ...]
    interference: np.ndarray
    contact: np.ndarray
    connection: np.ndarray
    gripper_catalog: tuple[str, ...]
    allowed_grippers: tuple[tuple[int, ...], ...]
    # blocker_masks[d][i] = bitmask of components that block i along d
    blocker_masks: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._validate()
        masks = tuple(
            tuple(removed_mask(np.flatnonzero(self.interference[d, i])) for i in range(self.n))
            for d in range(len(self.directions))
        )
        object.__setattr__(self, "blocker_masks", masks)

    @cached_property
    def blocker_words(self) -> np.ndarray:
        """``blocker_masks`` as ``(D, n, W)`` ``mask_words``, built on first use."""
        return mask_words(self.interference)

    @cached_property
    def gripper_choices(self) -> tuple[np.ndarray, np.ndarray]:
        """``allowed_grippers`` as read-only arrays, built on first use: the
        count per part, and an ``(n, G)`` table padded with -1 past it."""
        counts = np.array([len(a) for a in self.allowed_grippers], np.intp)
        table = np.full((self.n, counts.max(initial=0)), -1, np.intp)
        for part, allowed in enumerate(self.allowed_grippers):
            table[part, : len(allowed)] = allowed
        for array in (counts, table):
            array.flags.writeable = False  # shared by every caller
        return counts, table

    # -- invariants -------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.part_names)
        dlen = len(self.directions)
        if dlen == 0:
            raise ProductValidationError("product has no directions; at least one is required")
        if len(set(self.directions)) != dlen:
            raise ProductValidationError(f"duplicate direction labels in {list(self.directions)}")
        if len(set(self.part_names)) != n:
            raise ProductValidationError("duplicate component names")
        for key in _MATRIX_KEYS:
            mat = getattr(self, key)
            if not isinstance(mat, np.ndarray) or mat.shape != (dlen, n, n):
                shape = getattr(mat, "shape", None)
                raise ProductValidationError(
                    f"{key} matrices must form a ({dlen}, {n}, {n}) stack, got shape {shape}"
                )
            for d in range(dlen):
                diag = np.flatnonzero(np.diagonal(mat[d]))
                if diag.size:
                    raise ProductValidationError(
                        f"{key}[{self.directions[d]}] has a nonzero diagonal at "
                        f"component {int(diag[0])}; a component cannot relate to itself"
                    )
        if len(self.allowed_grippers) != n:
            raise ProductValidationError(
                f"allowed_grippers lists {len(self.allowed_grippers)} components, expected {n}"
            )
        ncat = len(self.gripper_catalog)
        if len(set(self.gripper_catalog)) != ncat:
            raise ProductValidationError("duplicate gripper labels in catalog")
        for i, allowed in enumerate(self.allowed_grippers):
            if not allowed:
                raise ProductValidationError(
                    f"component {i} ({self.part_names[i]}) has an empty gripper set"
                )
            if len(set(allowed)) != len(allowed):
                raise ProductValidationError(
                    f"component {i} ({self.part_names[i]}) lists a gripper twice"
                )
            for g in allowed:
                if not 0 <= g < ncat:
                    raise ProductValidationError(
                        f"component {i} ({self.part_names[i]}) references gripper index {g} "
                        f"outside the catalog of {ncat}"
                    )

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of components."""
        return len(self.part_names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductModel):
            return NotImplemented
        return (
            self.name == other.name
            and self.part_names == other.part_names
            and self.directions == other.directions
            and self.gripper_catalog == other.gripper_catalog
            and self.allowed_grippers == other.allowed_grippers
            and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _MATRIX_KEYS)
        )

    def __hash__(self) -> int:  # identity hash; models are compared explicitly
        return id(self)


# -- file format ----------------------------------------------------------


def _require(mapping: Mapping, key: str, kind: type, where: str):
    if key not in mapping:
        raise ProductParseError(f"missing key {key!r} in {where}")
    value = mapping[key]
    # bool is a subclass of int, but true/false is never a valid number here
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ProductParseError(f"{where}.{key} must be {kind.__name__}, got {type(value).__name__}")
    return value


def product_from_dict(data: Mapping) -> ProductModel:
    """Build a validated ProductModel from parsed JSON data."""
    if not isinstance(data, Mapping):
        raise ProductParseError(f"product document must be an object, got {type(data).__name__}")
    name = _require(data, "name", str, "product")
    components = _require(data, "components", list, "product")
    directions = _require(data, "directions", list, "product")
    catalog = _require(data, "grippers", list, "product")
    if not components:
        raise ProductParseError("product.components is empty")
    for lab in directions:
        if not isinstance(lab, str):
            raise ProductParseError("product.directions must be a list of labels")
    for lab in catalog:
        if not isinstance(lab, str):
            raise ProductParseError("product.grippers must be a list of labels")

    n = len(components)
    by_id: dict[int, tuple[str, list]] = {}
    for k, comp in enumerate(components):
        if not isinstance(comp, Mapping):
            raise ProductParseError(f"product.components[{k}] must be an object")
        cid = _require(comp, "id", int, f"components[{k}]")
        cname = _require(comp, "name", str, f"components[{k}]")
        grips = _require(comp, "grippers", list, f"components[{k}]")
        if cid in by_id:
            raise ProductValidationError(f"duplicate component id {cid}")
        by_id[cid] = (cname, grips)
    if set(by_id) != set(range(n)):
        raise ProductValidationError(
            f"component ids must be exactly 0..{n - 1}, got {sorted(by_id)}"
        )

    cat_index = {lab: i for i, lab in enumerate(catalog)}
    part_names = []
    allowed = []
    for cid in range(n):
        cname, grips = by_id[cid]
        part_names.append(cname)
        row = []
        for lab in grips:
            if lab not in cat_index:
                raise ProductValidationError(
                    f"component {cid} ({cname}) uses gripper {lab!r} not in the catalog"
                )
            row.append(cat_index[lab])
        allowed.append(tuple(row))

    stacks = {}
    for key in _MATRIX_KEYS:
        table = _require(data, key, Mapping, "product")
        missing = [lab for lab in directions if lab not in table]
        if missing:
            raise ProductParseError(f"product.{key} is missing direction {missing[0]!r}")
        extra = [lab for lab in table if lab not in directions]
        if extra:
            raise ProductValidationError(
                f"product.{key} declares unknown direction {extra[0]!r}"
            )
        mats = []
        for lab in directions:
            rows = table[lab]
            if not isinstance(rows, list):
                raise ProductParseError(f"{key}[{lab}] must be a list of rows")
            arr = _parse_matrix(rows, key, lab)
            if arr.shape != (n, n):
                raise ProductValidationError(
                    f"{key}[{lab}] must be {n}x{n}, got {arr.shape[0]}x{arr.shape[1]}"
                )
            mats.append(arr)
        # no directions leaves nothing to stack; the model reports that case
        stacks[key] = np.stack(mats) if mats else np.zeros((0, n, n), dtype=bool)

    return ProductModel(
        name=name,
        part_names=tuple(part_names),
        directions=tuple(directions),
        interference=stacks["interference"],
        contact=stacks["contact"],
        connection=stacks["connection"],
        gripper_catalog=tuple(catalog),
        allowed_grippers=tuple(allowed),
    )


def _parse_matrix(rows: list, key: str, lab: str) -> np.ndarray:
    width = None
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ProductParseError(f"{key}[{lab}] row {r} must be a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProductValidationError(
                f"{key}[{lab}] row {r} has {len(row)} entries, expected {width}"
            )
        for c, v in enumerate(row):
            if type(v) is not int or v not in (0, 1):  # no true, no 1.0
                raise ProductValidationError(
                    f"{key}[{lab}][{r}][{c}] must be 0 or 1, got {v!r}"
                )
        out.append(row)
    arr = np.array(out, dtype=bool)
    if arr.ndim != 2:
        arr = arr.reshape(len(out), width or 0)
    return arr


def load_product(path: str | Path) -> ProductModel:
    """Load and validate a product JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProductParseError(f"{path}: invalid JSON: {exc}") from exc
    return product_from_dict(data)

