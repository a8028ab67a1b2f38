"""Reading and writing matrices in the plain-text exchange format.

The format is line oriented:

    # any full line starting with '#' is a comment
    dim 2
    1.0+0.0i 0.5-0.25i
    0.5+0.25i 0.0+0.0i

Line one (after comments) is ``dim <n>``; then n rows of n
whitespace-separated entries.  An entry is ``a+bi`` or ``a-bi``; a bare
real ``a`` and a pure imaginary ``bi`` are also accepted on input, and
exponents like ``1e-09`` work in either part.  NaN and infinite values
are rejected.  Writing uses ``repr``-shortest floats, so a parse/print
round trip is value-exact for anything with up to 15 significant digits.

Observable files use the same entry grammar and come in two flavors: a
plain matrix file, or an explicit ``spectral`` block listing eigenvalue
and projector pairs:

    spectral
    dim 3
    pairs 2
    eigenvalue 2.0
    ... 3 projector rows ...
    eigenvalue 5.0
    ... 3 projector rows ...
"""

import math
import re

import numpy as np

from .errors import BadArgument, ParseError

__all__ = [
    "parse_entry",
    "format_entry",
    "parse_matrix",
    "format_matrix",
    "read_matrix",
    "write_matrix",
    "parse_observable_text",
    "read_observable_file",
]

# at most nine digits: int() refuses over 4300, and no larger count could be read anyway
_DIM_RE = re.compile(r"^dim\s+(\d{1,9})$")
_PAIRS_RE = re.compile(r"^pairs\s+(\d{1,9})$")
_EIGENVALUE_RE = re.compile(r"^eigenvalue\s+(\S+)$")
_REJECT_CHARS = set("()jJ_ \t")


def parse_entry(token: str, where: str = "entry") -> complex:
    """Parse one complex entry written with an ``i`` suffix."""
    if not token or any(c in _REJECT_CHARS for c in token):
        raise ParseError(f"{where}: bad entry {token!r}")
    body = token.replace("I", "i")
    if body.count("i") > 1 or ("i" in body and not body.endswith("i")):
        raise ParseError(f"{where}: bad entry {token!r}")
    try:
        z = complex(body.replace("i", "j"))
    except ValueError:
        raise ParseError(f"{where}: bad entry {token!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"{where}: non-finite entry {token!r}")
    return z


def _format_float(x: float) -> str:
    return repr(float(x))


def format_entry(z: complex) -> str:
    """Format a complex number as ``a+bi`` / ``a-bi`` with shortest floats."""
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{_format_float(z.real)}{sign}{_format_float(abs(z.imag))}i"


class _Cursor:
    """Significant lines of a file with one-token-lookahead access."""

    def __init__(self, text: str, name: str):
        self.name = name
        self.lines = [
            (i, line.strip())
            for i, line in enumerate(text.splitlines(), 1)
            if line.strip() and not line.strip().startswith("#")
        ]
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self, what: str):
        if self.pos >= len(self.lines):
            raise ParseError(f"{self.name}: unexpected end of input, expected {what}")
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def expect_done(self):
        if self.pos < len(self.lines):
            lineno, line = self.lines[self.pos]
            raise ParseError(f"{self.name}:{lineno}: unexpected trailing content {line!r}")


def _parse_dim(cur: _Cursor) -> int:
    lineno, line = cur.take("'dim <n>'")
    m = _DIM_RE.match(line)
    if not m:
        raise ParseError(f"{cur.name}:{lineno}: expected 'dim <n>', got {line!r}")
    dim = int(m.group(1))
    if dim < 1:
        raise ParseError(f"{cur.name}:{lineno}: dim must be at least 1")
    return dim


def _parse_rows(cur: _Cursor, dim: int) -> np.ndarray:
    rows = []
    for _ in range(dim):
        lineno, line = cur.take("matrix row")
        tokens = line.split()
        if len(tokens) != dim:
            raise ParseError(
                f"{cur.name}:{lineno}: expected {dim} entries, got {len(tokens)}"
            )
        rows.append([parse_entry(t, f"{cur.name}:{lineno}") for t in tokens])
    return np.array(rows, dtype=complex)


def parse_matrix(text: str, name: str = "matrix") -> np.ndarray:
    """Parse a complete matrix file; reject trailing content."""
    cur = _Cursor(text, name)
    dim = _parse_dim(cur)
    m = _parse_rows(cur, dim)
    cur.expect_done()
    return m


def format_matrix(m, comment: str | None = None) -> str:
    """Render a matrix in the text format, optionally with a leading comment."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadArgument(f"matrix must be square, got shape {a.shape}")
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"dim {a.shape[0]}")
    for row in a:
        lines.append(" ".join(format_entry(z) for z in row))
    return "\n".join(lines) + "\n"


def _read_text(path) -> str:
    """The file as UTF-8 text; a file that cannot be read or decoded is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_matrix(path) -> np.ndarray:
    return parse_matrix(_read_text(path), name=str(path))


def write_matrix(path, m, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(m, comment))


def parse_observable_text(text: str, name: str = "observable"):
    """Parse an observable file.

    Returns ``("matrix", M)`` for a plain matrix file, or
    ``("spectral", [(eigenvalue, projector_matrix), ...])`` for an
    explicit spectral block.  No numerical validation happens here;
    callers check hermiticity, orthogonality and completeness.
    """
    cur = _Cursor(text, name)
    head = cur.peek()
    if head is None:
        raise ParseError(f"{name}: empty file")
    if head[1] != "spectral":
        dim = _parse_dim(cur)
        m = _parse_rows(cur, dim)
        cur.expect_done()
        return "matrix", m
    cur.take("'spectral'")
    dim = _parse_dim(cur)
    lineno, line = cur.take("'pairs <k>'")
    pm = _PAIRS_RE.match(line)
    if not pm:
        raise ParseError(f"{name}:{lineno}: expected 'pairs <k>', got {line!r}")
    count = int(pm.group(1))
    if count < 1:
        raise ParseError(f"{name}:{lineno}: need at least one pair")
    pairs = []
    for _ in range(count):
        lineno, line = cur.take("'eigenvalue <r>'")
        em = _EIGENVALUE_RE.match(line)
        if not em:
            raise ParseError(f"{name}:{lineno}: expected 'eigenvalue <r>', got {line!r}")
        try:
            value = float(em.group(1))
        except ValueError:
            raise ParseError(f"{name}:{lineno}: bad eigenvalue {em.group(1)!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{name}:{lineno}: non-finite eigenvalue")
        pairs.append((value, _parse_rows(cur, dim)))
    cur.expect_done()
    return "spectral", pairs


def read_observable_file(path):
    return parse_observable_text(_read_text(path), name=str(path))
