"""Named-table registry.

The catalog plays the role of the back-end DBMS's table namespace in the
Aqua architecture (Figure 1 of the paper): base relations and synopsis
relations (``bs_lineitem`` etc.) live side by side and queries resolve table
names against it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from .table import Table

__all__ = ["Catalog", "CatalogError"]


class CatalogError(KeyError):
    """Raised when a table name cannot be resolved or is already taken."""


class Catalog:
    """A mutable mapping of table names to :class:`Table` objects."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def register(self, name: str, table: Table, replace: bool = False) -> None:
        """Register ``table`` under ``name``.

        Args:
            name: table name; must be new unless ``replace`` is set.
            table: the table to register.
            replace: allow overwriting an existing entry (used by synopsis
                maintenance, which re-materializes sample relations).
        """
        if not replace and name in self._tables:
            raise CatalogError(f"table {name!r} already registered")
        self._tables[name] = table

    def replaced(self, name: str, table: Table) -> "Catalog":
        """A copy in which ``name`` resolves to ``table``; this catalog is
        left as it is."""
        copy = Catalog()
        copy._tables = {**self._tables, name: table}
        return copy

    def drop(self, name: str) -> None:
        """Remove a table; raises :class:`CatalogError` if absent."""
        if name not in self._tables:
            raise CatalogError(f"table {name!r} not registered")
        del self._tables[name]

    def get(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def names(self) -> List[str]:
        return sorted(self._tables)
