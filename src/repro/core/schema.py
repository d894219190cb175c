"""Table schemas: columns, data types, domains, primary key.

Paper section 2.1: a CrowdFill user provides column definitions (name,
data type, optional domain of allowed values) and a primary key — one or
more columns that uniquely identify each row of the *final* table.  By
default all columns together form the key.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass, field
from typing import Any


class SchemaError(ValueError):
    """Raised for malformed schemas or values violating a schema."""


class DataType(enum.Enum):
    """Data types supported for collected values."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    DATE = "date"  # ISO-8601 "YYYY-MM-DD" strings

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` unless *value* inhabits this type."""
        if self is DataType.STRING:
            ok = isinstance(value, str)
        elif self is DataType.INT:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif self is DataType.FLOAT:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif self is DataType.BOOL:
            ok = isinstance(value, bool)
        else:  # DATE
            ok = isinstance(value, str) and _is_iso_date(value)
        if not ok:
            raise SchemaError(f"value {value!r} is not a valid {self.value}")


def _is_iso_date(text: str) -> bool:
    try:
        datetime.date.fromisoformat(text)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class Column:
    """One column of the collected table.

    Attributes:
        name: unique column name.
        dtype: declared data type.
        domain: optional set of allowed values (e.g. soccer positions
            {"GK", "DF", "MF", "FW"}).
        description: free-text shown to workers in the real system.
    """

    name: str
    dtype: DataType = DataType.STRING
    domain: frozenset | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("column name must be non-empty")
        if self.domain is not None:
            object.__setattr__(self, "domain", frozenset(self.domain))
            for value in self.domain:
                self.dtype.validate(value)

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` unless *value* is legal here."""
        self.dtype.validate(value)
        if self.domain is not None and value not in self.domain:
            raise SchemaError(
                f"value {value!r} not in domain of column {self.name!r}"
            )


@dataclass(frozen=True)
class Schema:
    """A table schema: ordered columns plus a primary key.

    Example (the paper's running example):
        >>> schema = Schema(
        ...     name="SoccerPlayer",
        ...     columns=(
        ...         Column("name"),
        ...         Column("nationality"),
        ...         Column("position",
        ...                domain=frozenset({"GK", "DF", "MF", "FW"})),
        ...         Column("caps", DataType.INT),
        ...         Column("goals", DataType.INT),
        ...     ),
        ...     primary_key=("name", "nationality"),
        ... )
        >>> schema.key_columns
        ('name', 'nationality')
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        object.__setattr__(self, "columns", tuple(self.columns))
        # Not a field: equality, hashing and repr stay the fields'.
        object.__setattr__(self, "_column_names", tuple(names))
        # Default: all columns together are the key (section 2.1).
        key = tuple(self.primary_key) or tuple(names)
        for column_name in key:
            if column_name not in names:
                raise SchemaError(f"key column {column_name!r} not in schema")
        if len(set(key)) != len(key):
            raise SchemaError(f"duplicate key columns in {key}")
        object.__setattr__(self, "primary_key", key)

    @property
    def column_names(self) -> tuple[str, ...]:
        """All column names, in declared order."""
        return self._column_names

    @property
    def key_columns(self) -> tuple[str, ...]:
        """The primary-key column names."""
        return self.primary_key

    @property
    def non_key_columns(self) -> tuple[str, ...]:
        """Column names that are not part of the primary key."""
        return tuple(n for n in self.column_names if n not in self.primary_key)

    def column(self, name: str) -> Column:
        """Look up a column by name.

        Raises:
            SchemaError: if no such column exists.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column named {name!r} in schema {self.name!r}")

    def has_column(self, name: str) -> bool:
        """True when the schema declares a column called *name*."""
        return name in self.column_names

    def validate_value(self, column_name: str, value: Any) -> None:
        """Validate one cell value against its column definition."""
        self.column(column_name).validate(value)

    def validate_assignment(self, values: dict[str, Any]) -> None:
        """Validate a partial assignment of columns to values."""
        for column_name, value in values.items():
            self.validate_value(column_name, value)

    # -- (de)serialization for the front-end / docstore --------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable description of this schema."""
        return {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "dtype": c.dtype.value,
                    "domain": sorted(c.domain, key=repr) if c.domain else None,
                    "description": c.description,
                }
                for c in self.columns
            ],
            "primary_key": list(self.primary_key),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Schema":
        """Inverse of :meth:`to_dict`."""
        columns = tuple(
            Column(
                name=c["name"],
                dtype=DataType(c.get("dtype", "string")),
                domain=frozenset(c["domain"]) if c.get("domain") else None,
                description=c.get("description", ""),
            )
            for c in data["columns"]
        )
        return cls(
            name=data["name"],
            columns=columns,
            primary_key=tuple(data.get("primary_key") or ()),
        )


def soccer_player_schema(include_dob: bool = False) -> Schema:
    """The paper's running-example schema (sections 2.1 and 6).

    Args:
        include_dob: add the date-of-birth column used in section 6.
    """
    columns: list[Column] = [
        Column("name", DataType.STRING, description="player full name"),
        Column("nationality", DataType.STRING, description="country"),
        Column(
            "position",
            DataType.STRING,
            domain=frozenset({"GK", "DF", "MF", "FW"}),
            description="playing position",
        ),
        Column("caps", DataType.INT, description="international appearances"),
        Column("goals", DataType.INT, description="international goals"),
    ]
    if include_dob:
        columns.append(Column("dob", DataType.DATE, description="date of birth"))
    return Schema(
        name="SoccerPlayer",
        columns=tuple(columns),
        primary_key=("name", "nationality"),
    )
