"""File formats: triplet matrices, point clouds, distance matrices, images,
and JSON serializers for barcodes and generators."""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, TextIO

import numpy as np

from .coeff import GF
from .errors import UsageError
from .matrix import MatrixOracle, StoredCsMatrix


def _read_file(path: str, reader):
    """reader(lines of the file); a file that cannot be read is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return reader(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _records(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of each line that is neither
    blank nor a `#` comment."""
    for ln, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            yield ln, s


def read_triplet_text(lines: Iterable[str]) -> StoredCsMatrix:
    """Triplet text: header line `rows cols modulus`, then `i j v` (1-based)."""
    records = _records(lines)
    ln, s = next(records, (None, None))
    if ln is None:
        raise UsageError("empty triplet file")
    parts = s.split()
    if len(parts) != 3:
        raise UsageError(f"line {ln}: expected `rows cols modulus`")
    try:
        nrows, ncols, p = (int(x) for x in parts)
    except ValueError:
        raise UsageError(f"line {ln}: non-integer header field")
    field = GF(p)
    triples = []
    for ln, s in records:
        parts = s.split()
        if len(parts) != 3:
            raise UsageError(f"line {ln}: expected `i j v`")
        try:
            i, j, v = (int(x) for x in parts)
        except ValueError:
            raise UsageError(f"line {ln}: non-integer entry")
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise UsageError(f"line {ln}: entry ({i}, {j}) out of range")
        triples.append((i - 1, j - 1, v))
    return StoredCsMatrix.from_triplets(field, nrows, ncols, triples)


def load_triplet_file(path: str) -> StoredCsMatrix:
    return _read_file(path, read_triplet_text)


def write_triplet_text(out: TextIO, mat: MatrixOracle) -> None:
    out.write(f"{mat.nrows} {mat.ncols} {mat.field.p}\n")
    for i in range(mat.nrows):
        for j, v in mat.row(i).entries:
            out.write(f"{i + 1} {j + 1} {v}\n")


def read_points_csv(lines: Iterable[str]) -> np.ndarray:
    rows = []
    width = None
    for ln, s in _records(lines):
        vals = [x for x in s.replace(",", " ").split() if x]
        try:
            row = [float(x) for x in vals]
        except ValueError:
            raise UsageError(f"line {ln}: non-numeric coordinate")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise UsageError(f"line {ln}: inconsistent row width")
        rows.append(row)
    if not rows:
        raise UsageError("empty point cloud")
    return np.array(rows, dtype=float)


def load_points_csv(path: str) -> np.ndarray:
    return _read_file(path, read_points_csv)


def read_distance_csv(lines: Iterable[str]) -> np.ndarray:
    """Full symmetric or lower-triangular distance matrix, one row per line."""
    rows = []
    for ln, s in _records(lines):
        vals = [x for x in s.replace(",", " ").split() if x]
        try:
            rows.append([float(x) for x in vals])
        except ValueError:
            raise UsageError(f"line {ln}: non-numeric distance")
    if not rows:
        raise UsageError("empty distance matrix")
    n = len(rows)
    widths = [len(r) for r in rows]
    if all(w == n for w in widths):
        d = np.array(rows, dtype=float)
        if not np.allclose(d, d.T):
            raise UsageError("distance matrix is not symmetric")
        return d
    if widths == list(range(1, n + 1)):
        # lower triangular; rows ending in a zero diagonal include it, a
        # nonzero tail means the diagonal was omitted and the first row is
        # the (1, 0) distance
        with_diag = all(r[-1] == 0.0 for r in rows)
        d = np.zeros((n if with_diag else n + 1,) * 2)
        for i, r in enumerate(rows):
            ii = i if with_diag else i + 1
            for j, v in enumerate(r):
                d[ii, j] = v
                d[j, ii] = v
        return d
    raise UsageError("rows are neither square nor lower-triangular")


def load_distance_csv(path: str) -> np.ndarray:
    return _read_file(path, read_distance_csv)


def read_image_text(lines: Iterable[str]) -> np.ndarray:
    """Plain text grid: header `dims d1 d2 [d3]`, then row-major values."""
    records = _records(lines)
    ln, s = next(records, (None, None))
    if ln is None:
        raise UsageError("empty image file")
    parts = s.split()
    if parts[0] != "dims" or len(parts) not in (3, 4):
        raise UsageError(f"line {ln}: expected `dims d1 d2 [d3]`")
    try:
        dims = tuple(int(x) for x in parts[1:])
    except ValueError:
        raise UsageError(f"line {ln}: non-integer dimension")
    if min(dims) < 1:
        raise UsageError(f"line {ln}: dimensions must be positive")
    vals: list[float] = []
    for ln, s in records:
        try:
            vals.extend(float(x) for x in s.split())
        except ValueError:
            raise UsageError(f"line {ln}: non-numeric pixel")
    want = math.prod(dims)
    if len(vals) != want:
        raise UsageError(f"expected {want} pixels, got {len(vals)}")
    return np.array(vals, dtype=float).reshape(dims)


def load_image_text(path: str) -> np.ndarray:
    return _read_file(path, read_image_text)


def cell_id(engine, dim: int, pos: int):
    cell = engine.order(dim).cells[pos]
    if engine.complex.kind == "clique":
        return list(cell)
    anchor, extent = cell
    return {"anchor": list(anchor), "extent": list(extent)}


def bar_json(engine, bar, chain=None) -> dict:
    out = {
        "dimension": bar.dim,
        "birth": bar.birth_value,
        "death": None if not bar.finite else bar.death_value,
        "birth_cell": cell_id(engine, bar.dim, bar.birth_pos),
        "death_cell": None if not bar.finite else cell_id(engine, bar.dim + 1, bar.death_pos),
    }
    if chain is not None:
        out["chain"] = [
            [cell_id(engine, chain.dim, pos), v] for pos, v in chain.vector.entries
        ]
        out["chain_dimension"] = chain.dim
    return out


def barcode_json(engine, dims) -> dict:
    return {
        "field": engine.field.p,
        "bars": [bar_json(engine, b) for n in dims for b in engine.bars(n)],
    }


def dump_json(obj, out: TextIO) -> None:
    """obj as indented JSON with sorted keys and a final newline, in one
    write: json.dump would make a write per token."""
    out.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")
