"""Loader for the bundled regression tables (known structures and
p-primary decompositions, plus worked-example scalars)."""

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

__all__ = [
    "StructureRow",
    "PrimaryRow",
    "structures",
    "primary_rows",
    "mixed_primary_rows",
    "worked_examples",
]


@dataclass(frozen=True)
class StructureRow:
    N: int
    class_number: int
    invariants: tuple[int, ...]


@dataclass(frozen=True)
class PrimaryRow:
    key: str  # e.g. "2^5" or "3*2^4"
    level: int
    p: int
    parts: tuple[tuple[int, int], ...]  # (exponent, multiplicity), ascending

    def parts_dict(self) -> dict[int, int]:
        return dict(self.parts)


@lru_cache(maxsize=None)
def _raw() -> dict:
    path = resources.files("modunits").joinpath("data/reference_tables.json")
    return json.loads(path.read_text())


@lru_cache(maxsize=None)
def structures() -> dict[int, StructureRow]:
    out = {}
    for key, row in _raw()["structures"].items():
        n = int(key)
        out[n] = StructureRow(
            N=n,
            class_number=int(row["class_number"]),
            invariants=tuple(int(x) for x in row["invariants"]),
        )
    return out


def _primary(section: str) -> dict[str, PrimaryRow]:
    out = {}
    for key, row in _raw()[section].items():
        out[key] = PrimaryRow(
            key=key,
            level=int(row["level"]),
            p=int(row["p"]),
            parts=tuple(sorted((int(e), int(m)) for e, m in row["parts"].items())),
        )
    return out


@lru_cache(maxsize=None)
def primary_rows() -> dict[str, PrimaryRow]:
    """Prime-power p-primary rows, keyed like "2^5"."""
    return _primary("primary")


@lru_cache(maxsize=None)
def mixed_primary_rows() -> dict[str, PrimaryRow]:
    """Mixed-level p-primary rows, keyed like "3*2^4"."""
    return _primary("mixed_primary")


@lru_cache(maxsize=None)
def worked_examples() -> dict:
    return _raw()["worked_examples"]
