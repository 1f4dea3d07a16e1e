import io
import json

import numpy as np
import pytest

import umatch.cli
from umatch import GF, PersistenceEngine, StoredCsMatrix, UsageError
from umatch.datasets import er_complex, grf2d_complex
from umatch.io import (
    bar_json,
    barcode_json,
    dump_json,
    read_distance_csv,
    read_image_text,
    read_points_csv,
    read_triplet_text,
    write_triplet_text,
)


def test_triplet_round_trip():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 0, 1], [0, 0, 5]])
    buf = io.StringIO()
    write_triplet_text(buf, d)
    back = read_triplet_text(buf.getvalue().splitlines())
    assert back.field == f
    assert back.to_dense() == d.to_dense()


def test_triplet_parse_errors_carry_line_numbers():
    with pytest.raises(UsageError, match="line 1"):
        read_triplet_text(["2 2"])
    with pytest.raises(UsageError, match="line 2"):
        read_triplet_text(["2 2 7", "1 1"])
    with pytest.raises(UsageError, match="line 3"):
        read_triplet_text(["2 2 7", "1 1 3", "5 1 1"])
    with pytest.raises(UsageError):
        read_triplet_text([])


def test_points_csv():
    pts = read_points_csv(["0.0, 1.0", "2.0, 3.0", "# comment", ""])
    assert pts.shape == (2, 2)
    with pytest.raises(UsageError):
        read_points_csv(["1.0, 2.0", "3.0"])


def test_distance_csv_full_and_lower_triangular():
    full = read_distance_csv(["0 1 2", "1 0 3", "2 3 0"])
    assert full.shape == (3, 3)
    lower = read_distance_csv(["0", "1 0", "2 3 0"])
    assert np.allclose(lower, full)
    lower_nodiag = read_distance_csv(["1", "2 3"])
    assert np.allclose(lower_nodiag, full)
    with pytest.raises(UsageError):
        read_distance_csv(["0 1", "2 0"])


def test_image_text():
    img = read_image_text(["dims 2 3", "1 2 3", "4 5 6"])
    assert img.shape == (2, 3)
    assert img[1, 2] == 6
    vol = read_image_text(["dims 2 2 2", "1 2 3 4 5 6 7 8"])
    assert vol.shape == (2, 2, 2)
    with pytest.raises(UsageError):
        read_image_text(["dims 2 2", "1 2 3"])
    with pytest.raises(UsageError):
        read_image_text(["2 2", "1 2 3 4"])


@pytest.mark.parametrize("reader, lines, message", [
    (read_triplet_text, ["# c", "", "2 2"], "line 3: expected `rows cols modulus`"),
    (read_triplet_text, ["  # c", "2 2 x"], "line 2: non-integer header field"),
    (read_triplet_text, ["2 2 7", "# c", "  ", "1 1"], "line 4: expected `i j v`"),
    (read_triplet_text, ["2 2 7", "1 1 a"], "line 2: non-integer entry"),
    (read_triplet_text, ["2 2 7", "# c", "3 1 1"], "line 3: entry (3, 1) out of range"),
    (read_triplet_text, ["# c", ""], "empty triplet file"),
    (read_points_csv, ["# c", "1, 2", "", "x, 3"], "line 4: non-numeric coordinate"),
    (read_points_csv, ["1 2", "# c", "3"], "line 3: inconsistent row width"),
    (read_points_csv, ["# c", "  "], "empty point cloud"),
    (read_distance_csv, ["0 1", "# c", "1 y"], "line 3: non-numeric distance"),
    (read_distance_csv, ["#"], "empty distance matrix"),
    (read_image_text, ["# c", "", "dims 2"], "line 3: expected `dims d1 d2 [d3]`"),
    (read_image_text, ["# c", "dims 2 x"], "line 2: non-integer dimension"),
    (read_image_text, ["dims 1 2", "# c", "1 z"], "line 3: non-numeric pixel"),
    (read_image_text, ["# c"], "empty image file"),
    (read_image_text, ["dims 2 2", "# c", "1 2", "", "3"], "expected 4 pixels, got 3"),
    (read_image_text, ["# c", "dims 0 3"], "line 2: dimensions must be positive"),
    (read_image_text, ["dims 2 -1 3"], "line 1: dimensions must be positive"),
])
def test_text_readers_skip_comments_and_blanks_in_line_numbers(reader, lines, message):
    with pytest.raises(UsageError) as exc:
        reader(lines)
    assert str(exc.value) == message


def dumps_reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_payloads():
    """Payloads of every JSON output: a barcode, generators with chains,
    cubical cells, a decompose summary, and edge cases."""
    clique = PersistenceEngine(er_complex(12, seed=1), GF(7))
    cubical = PersistenceEngine(grf2d_complex(6), GF(2))
    yield barcode_json(clique, [0, 1])
    yield {"field": 7, "bars": [bar_json(clique, b, clique.cycle_representative(b)) for b in clique.bars(1)]}
    yield barcode_json(cubical, [0, 1])
    yield {"field": 2, "bars": [bar_json(cubical, b, cubical.cycle_representative(b)) for b in cubical.bars(1)]}
    yield {"cols": 3, "field": 7, "nnz_d": 5, "nnz_matching": 3, "nnz_rbar_offdiag": 1, "rank": 3, "rows": 3,
           "verified": True}
    yield from ({}, [], {"a": {}, "b": []}, [[], {}], "", 0, None)
    yield {"name": "Ren\u00e9e \u2192 \U0001f600", "\u00e9": ["\u00fc", -0.0, 1e300, 2 ** 70]}
    # a payload of many batches
    yield {"bars": [{"birth": i / 7, "cell": [i, i + 1], "death": None} for i in range(3000)]}


@pytest.mark.parametrize("obj", list(dump_payloads()))
def test_dump_json_writes_the_bytes_of_dumps(obj):
    buf = io.StringIO()
    dump_json(obj, buf)
    assert buf.getvalue() == dumps_reference(obj)


def test_dump_json_writes_in_batches():
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    obj = {"bars": [{"birth": i / 7, "cell": [i, i + 1], "death": None} for i in range(3000)]}
    out = Recorder()
    dump_json(obj, out)
    assert out.getvalue() == dumps_reference(obj)
    # neither one write per token nor one write of the whole text
    assert 10 < len(writes) < 200


def test_dump_json_nan_keeps_existing_output(tmp_path, monkeypatch):
    with pytest.raises(ValueError):
        dump_json({"a": [1, float("nan")]}, io.StringIO())
    d = tmp_path / "dist.csv"
    d.write_text("0,1,2\n1,0,1.5\n2,1.5,0\n")
    out = tmp_path / "bars.json"
    out.write_bytes(b"earlier result\n")
    # a NaN after more than one batch of tokens has been written
    many = [{"birth": i / 7} for i in range(3000)]
    monkeypatch.setattr(umatch.cli, "barcode_json", lambda engine, dims: {"bars": many + [float("nan")]})
    with pytest.raises(ValueError):
        umatch.cli.main(["barcode", str(d), "--input-type", "distances", "--output", str(out)])
    assert out.read_bytes() == b"earlier result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bars.json", "dist.csv"]


def test_dump_json_bytes():
    buf = io.StringIO()
    dump_json({"b": [1, 0.5, None], "a": {"y": "z\u00e9", "x": []}}, buf)
    assert buf.getvalue() == (
        '{\n  "a": {\n    "x": [],\n    "y": "z\\u00e9"\n  },\n'
        '  "b": [\n    1,\n    0.5,\n    null\n  ]\n}\n'
    )
    with pytest.raises(ValueError):
        dump_json({"a": float("nan")}, io.StringIO())
