"""Persistent JSON cache for sequence values C_{2n}^(k).

The cache is an optimization, never a source of truth. The document stores
a SHA-256 digest of its serialized entries, so damage anywhere in them is
detected on load; three random entries are also recomputed from scratch,
which catches values that a different version of the code got wrong. A
missing or mismatched digest, a failed recomputation, a malformed document
or an unknown format_version discards the whole file, and everything is
recomputed. The sampling is seeded so repeated runs stay byte-identical.
Saves write a temporary file beside the target and rename it into place, so
an interrupted save leaves the previous document intact.

Triangle rows are not cached: the recurrence rebuilds them faster than a
cache file can be read. The spot check builds none either. It runs the
formula route's weighted-sum recurrence once per sampled k, up to the
largest n sampled at that k, and compares only the sampled entries.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from pathlib import Path

from .exact import rational_from_text, rational_to_text
from .polycauchy import _formula_numerators

__all__ = ["CACHE_FORMAT_VERSION", "CacheSession"]

CACHE_FORMAT_VERSION = 2
_REVALIDATION_SEED = 1729
_SPOT_CHECKS = 3


def _entries_digest(entries: list) -> str:
    # Imported here: importing hashlib takes about 4 ms (2-vCPU x86_64 host),
    # which every CLI start would pay, and only runs that open a cache file
    # need it.
    import hashlib

    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


class CacheSession:
    """One open cache: load, serve, record, save. ``path=None`` disables it."""

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        self.revalidated = 0
        self._values = {}
        self._dirty = False
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(document, dict):
            return
        if document.get("format_version") != CACHE_FORMAT_VERSION:
            return
        entries = document.get("polycauchy_entries", [])
        if document.get("entries_sha256") != _entries_digest(entries):
            return
        values: dict[tuple[int, int], Fraction] = {}
        try:
            for n, k, text in entries:
                values[(int(n), int(k))] = rational_from_text(text)
        except (TypeError, ValueError):
            return
        # A negative n is malformed, and the spot check would read it from the end of its pass.
        if any(n < 0 for n, _ in values) or not self._spot_check(values):
            return
        self._values = values

    def _spot_check(self, values: dict[tuple[int, int], Fraction]) -> bool:
        if not values:
            return True
        rng = random.Random(_REVALIDATION_SEED)
        keys = sorted(values)
        picks = keys if len(keys) <= _SPOT_CHECKS else sorted(rng.sample(keys, _SPOT_CHECKS))
        # Picks are sorted by n, so the last n seen for a k is its largest.
        tops = {k: n for n, k in picks}
        recomputed = {k: _formula_numerators(top, k) for k, top in tops.items()}
        for n, k in picks:
            self.revalidated += 1
            numerators, denominator = recomputed[k]
            if values[(n, k)] != Fraction(numerators[n], denominator):
                self.revalidated = 0
                return False
        return True

    def get_values(self, k: int, nmax: int) -> list[Fraction] | None:
        if all((n, k) in self._values for n in range(nmax + 1)):
            self.hits += nmax + 1
            return [self._values[(n, k)] for n in range(nmax + 1)]
        self.misses += nmax + 1
        return None

    def put_values(self, k: int, values: list[Fraction]) -> None:
        if self.path is None:
            return
        for n, value in enumerate(values):
            if self._values.get((n, k)) != value:
                self._values[(n, k)] = value
                self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        entries = [
            [n, k, rational_to_text(self._values[(n, k)])] for n, k in sorted(self._values)
        ]
        document = {
            "format_version": CACHE_FORMAT_VERSION,
            "entries_sha256": _entries_digest(entries),
            "polycauchy_entries": entries,
        }
        temporary = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        try:
            temporary.write_text(json.dumps(document) + "\n")
            os.replace(temporary, self.path)
        finally:
            temporary.unlink(missing_ok=True)
        self._dirty = False

    def stats_line(self) -> str:
        if self.path is None:
            return "cache: off"
        return f"cache: hits={self.hits} misses={self.misses} revalidated={self.revalidated}"
