"""Offer and bid books: one array per field, one entry per offer or bid.

A market takes all offers of a product as one book instead of one object
per offer, so building, validating and clearing them works on whole
columns.  Each book class declares its columns with :func:`column`; entry
``k`` of every column describes offer (or bid) ``k``.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def whole(values: np.ndarray, lowest, highest) -> np.ndarray:
    """Where ``values`` are integers in ``lowest..highest``: never for NaN,
    and nowhere in a column that does not hold numbers."""
    if values.dtype.kind not in "iuf":
        return np.zeros(values.shape, dtype=bool)
    return (values >= lowest) & (values <= highest) & (values == np.floor(values))


def column(dtype=None):
    """A book field, stored as a 1-D array of ``dtype`` (as given if None)."""
    return dataclasses.field(metadata={"dtype": dtype})


@dataclasses.dataclass(frozen=True)
class Book:
    """Columns of equal length; ``len(book)`` is the number of entries."""

    #: what one entry is called in error messages
    entry = "entry"

    def __post_init__(self):
        lengths = set()
        for f in dataclasses.fields(self):
            values = np.asarray(getattr(self, f.name), dtype=f.metadata["dtype"])
            if values.ndim != 1:
                raise ValueError(f"{type(self).__name__}.{f.name} must be one-dimensional")
            object.__setattr__(self, f.name, values)
            lengths.add(len(values))
        if len(lengths) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")

    def __len__(self) -> int:
        return len(getattr(self, dataclasses.fields(self)[0].name))

    @classmethod
    def from_rows(cls, rows):
        """The book of ``rows``, each a tuple of one entry's fields in column order."""
        columns = list(zip(*rows)) or [[]] * len(dataclasses.fields(cls))
        return cls(*columns)

    def rows(self):
        """Each entry's fields as a tuple of Python scalars, in column order."""
        return zip(*(getattr(self, f.name).tolist() for f in dataclasses.fields(self)))

    @classmethod
    def concat(cls, books):
        """One book holding the entries of ``books`` in order."""
        books = list(books)
        return cls(
            *(
                np.concatenate([getattr(book, f.name) for book in books]) if books else []
                for f in dataclasses.fields(cls)
            )
        )

    def _require(self, holds: np.ndarray, name: str, what: str) -> None:
        """Raise ``ValueError`` naming the first entry where ``holds`` is False
        and its value in column ``name``."""
        bad = np.flatnonzero(~holds)
        if bad.size:
            k = int(bad[0])
            value = getattr(self, name)[k].item()
            raise ValueError(
                f"{self.entry} {k} of actor {str(self.actor[k])!r}: {name} {value!r} {what}"
            )
