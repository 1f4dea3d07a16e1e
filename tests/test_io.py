import io

import numpy as np
import pytest

from umatch import GF, StoredCsMatrix, UsageError
from umatch.io import (
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
])
def test_text_readers_skip_comments_and_blanks_in_line_numbers(reader, lines, message):
    with pytest.raises(UsageError) as exc:
        reader(lines)
    assert str(exc.value) == message


def test_dump_json_bytes():
    buf = io.StringIO()
    dump_json({"b": [1, 0.5, None], "a": {"y": "z\u00e9", "x": []}}, buf)
    assert buf.getvalue() == (
        '{\n  "a": {\n    "x": [],\n    "y": "z\\u00e9"\n  },\n'
        '  "b": [\n    1,\n    0.5,\n    null\n  ]\n}\n'
    )
    with pytest.raises(ValueError):
        dump_json({"a": float("nan")}, io.StringIO())
