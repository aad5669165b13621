"""Matrix CSV ingestion and bit-stable report rendering.

Matrix CSV convention: UTF-8 (a leading byte-order mark is skipped),
comma-separated, one observation per row; the first row is a header only
when none of its cells is a number. Floats are written with 17 significant
digits, which round-trips IEEE doubles exactly, so a matrix written by the
tool re-ingests to the identical matrix.

The body (the rows after blank lines and any header are set aside) is parsed
by numpy's C reader, whose values equal Python ``float()`` bit for bit. Only
when that parse fails are the cells walked one by one in Python, so that an
error still names the line and column of the first bad cell.

JSON reports are rendered by a small emitter rather than ``json.dumps`` so
that float formatting (17 significant digits) and key order (insertion
order) are pinned down; identical inputs produce byte-identical files.

Only the matrix CSV functions import numpy; reports render without it.
"""

import json
import math
import sys
from typing import TYPE_CHECKING

from .errors import CsvFormatError, InputError, NumericalError

if TYPE_CHECKING:
    import numpy as np


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering; exact double round-trip."""
    if not math.isfinite(x):
        raise NumericalError(f"non-finite value {x!r} cannot appear in a report")
    return format(float(x), ".17g")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_cell(cell: str, line_no: int, col_no: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CsvFormatError(
            f"non-numeric cell {cell!r} at line {line_no}, column {col_no}"
        ) from None


def _body_lines(text: str) -> list[tuple[int, str]]:
    """The numbered data lines of matrix CSV text: blank lines and a header dropped."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip() != ""]
    if not lines:
        raise CsvFormatError("empty CSV: no rows found")
    if not any(_is_number(c) for c in lines[0][1].split(",")):
        lines = lines[1:]  # header row
    if not lines:
        raise CsvFormatError("CSV contains only a header row")
    return lines


def _walk_cells(lines: list[tuple[int, str]]) -> "np.ndarray":
    """Parse body lines cell by cell; the first bad row or cell raises CsvFormatError."""
    import numpy as np
    width = None
    rows: list[list[float]] = []
    for line_no, line in lines:
        cells = [c.strip() for c in line.split(",")]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvFormatError(
                f"row at line {line_no} has {len(cells)} cells, expected {width}"
            )
        rows.append([_parse_cell(c, line_no, j + 1) for j, c in enumerate(cells)])
    return np.array(rows, dtype=float)


def parse_matrix_csv(text: str) -> "np.ndarray":
    """Parse matrix CSV text; raises CsvFormatError with line/column context.

    Blank lines are skipped; line numbers in errors count them, so they name
    the line of the file.
    """
    import numpy as np
    lines = _body_lines(text)
    try:
        # comments=None: "1,2 # x" is a bad cell, not a row with a comment
        return np.loadtxt([ln for _, ln in lines], delimiter=",", ndmin=2,
                          comments=None, dtype=float)
    except ValueError:
        # float() also reads cells the C reader refuses ("1_0"); otherwise the
        # walk raises, naming the bad cell's line and column
        return _walk_cells(lines)


def read_matrix_csv(path) -> "np.ndarray":
    """Read a matrix CSV file; a file that cannot be read raises InputError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_csv(text)


def read_vector_csv(path) -> "np.ndarray":
    """Read a vector stored as a single CSV row or column."""
    m = read_matrix_csv(path)
    if 1 not in m.shape:
        raise CsvFormatError(f"expected a single row or column vector, got shape {m.shape}")
    return m.reshape(-1)


def _csv_lines(matrix: "np.ndarray"):
    """Newline-terminated matrix CSV rows, made one at a time.

    Each cell is rendered as ``format_float`` renders it. A non-finite entry
    raises here, before any row is made, naming the first in row-major order.
    """
    import numpy as np
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    finite = np.isfinite(matrix)
    if not finite.all():
        format_float(matrix[~finite][0])  # raises
    row = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return (row % tuple(values.tolist()) for values in matrix)


def write_matrix_csv(path, matrix: "np.ndarray") -> None:
    lines = _csv_lines(matrix)  # a non-finite entry raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _render(node, indent: int, parts: list[str]) -> None:
    """Append the JSON text of ``node``, nested ``indent`` levels deep, to ``parts``.

    A dict, list or tuple is one container rule: ``{}`` or ``[]`` when empty,
    else one item per line at ``indent + 1`` (a dict item led by its JSON key),
    ``,`` between items, and the closing bracket at this node's indent.
    """
    pad = "  " * indent
    np = sys.modules.get("numpy")  # no numpy scalar exists before numpy is loaded
    bools, ints, floats = (np.bool_, np.integer, np.floating) if np else ((), (), ())
    if isinstance(node, (dict, list, tuple)):
        keyed = isinstance(node, dict)
        opening, closing = "{}" if keyed else "[]"
        items = ([(f"{json.dumps(str(key))}: ", value) for key, value in node.items()]
                 if keyed else [("", value) for value in node])
        if not items:
            parts.append(opening + closing)
            return
        parts.append(opening + "\n")
        for i, (prefix, value) in enumerate(items):
            parts.append(f"{pad}  {prefix}")
            _render(value, indent + 1, parts)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + closing)
    elif isinstance(node, (bool, bools)):
        parts.append("true" if node else "false")
    elif node is None:
        parts.append("null")
    elif isinstance(node, (int, ints)):
        parts.append(str(int(node)))
    elif isinstance(node, (float, floats)):
        parts.append(format_float(float(node)))
    elif isinstance(node, str):
        parts.append(json.dumps(node))
    else:
        raise TypeError(f"cannot render {type(node).__name__} in a report")


def render_report(report: dict) -> str:
    """Deterministic JSON text for a report dict (insertion-ordered keys)."""
    parts: list[str] = []
    _render(report, 0, parts)
    parts.append("\n")
    return "".join(parts)


def tagged(value, path: str):
    """Wrap a numeric result with its computation-path tag; None stays None.

    ``path`` is one of "closed-form", "mc", or "bound".
    """
    if path not in ("closed-form", "mc", "bound"):
        raise ValueError(f"unknown computation path {path!r}")
    if value is None:
        return None
    np = sys.modules.get("numpy")  # an array exists only once numpy is loaded
    if np and isinstance(value, np.ndarray):
        value = [float(v) for v in value]
    return {"value": value, "path": path}


def tagged_mc(est) -> dict:
    """``tagged(est.estimate, "mc")`` followed by the estimate's uncertainty.

    The keys after ``value`` and ``path`` are ``std_error``, ``n_samples``,
    ``seed`` and, for a nested estimate, ``inner_samples``.
    """
    out = {**tagged(est.estimate, "mc"), "std_error": est.std_error,
           "n_samples": est.n_samples, "seed": est.seed}
    if est.inner_samples is not None:
        out["inner_samples"] = est.inner_samples
    return out
