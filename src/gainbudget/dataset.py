"""Parsing and validation of labeled prediction files.

The input format is delimited text (comma by default, tab supported) with a
header row.  Each data row carries an opaque identifier, a finite confidence
score, and a binary gold label.  Parsing is strict: every malformed row is
reported with its 1-based line number, and nothing is silently coerced.

A parsed dataset is held as two parallel columns (scores, labels): however
many rows a file has, the garbage collector tracks two containers.  The ids
are read only to check that they are unique, and are not kept.
"""

from __future__ import annotations

import csv
import hashlib
import io
from array import array
from itertools import islice
from math import isfinite
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

DEFAULT_POSITIVE_TOKENS = frozenset({"1", "true"})
DEFAULT_NEGATIVE_TOKENS = frozenset({"0", "false"})


class _ColumnSchema(NamedTuple):
    id_col: str = "id"
    score_col: str = "score"
    label_col: str = "label"
    positive_tokens: frozenset[str] = DEFAULT_POSITIVE_TOKENS
    negative_tokens: frozenset[str] = DEFAULT_NEGATIVE_TOKENS
    delimiter: str = ","


class ColumnSchema(_ColumnSchema):
    """Maps file columns onto the (id, score, label) triple.

    Label tokens match case-insensitively; any other token is a parse error,
    never a silent negative.  An unmatchable schema raises ValueError("field: ...").
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, *args: Any, **kwargs: Any) -> ColumnSchema:
        self = super().__new__(cls, *args, **kwargs)
        pos, neg = self.positive_tokens, self.negative_tokens
        columns = {"id_col": self.id_col, "score_col": self.score_col, "label_col": self.label_col}
        for field, texts in [*((f, [c]) for f, c in columns.items()),
                             ("positive_tokens", pos), ("negative_tokens", neg)]:
            if bad := sorted(t for t in texts if not t or t != t.strip()):
                raise ValueError(f"{field}: empty or padded {', '.join(map(repr, bad))}")
        # A name or token given twice is blamed on a field not left at its default.
        for field, col in columns.items():
            twins = [f.removesuffix("_col") for f, c in columns.items() if c == col and f != field]
            if twins and col != cls._field_defaults[field]:
                raise ValueError(f"{field}: {col!r} is also the {twins[0]} column")
        field, tokens, other = (("positive_tokens", pos, neg) if neg == DEFAULT_NEGATIVE_TOKENS
                                else ("negative_tokens", neg, pos))
        lowered = {token.lower() for token in other}
        if both := sorted(t for t in tokens if t.lower() in lowered):
            raise ValueError(f"{field}: {', '.join(map(repr, both))} also in the other class")
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise ValueError(f"delimiter: {self.delimiter!r} is not one character, or ends a line")
        if self.delimiter == '"':  # csv's quote character; Python 3.13's reader refuses it
            raise ValueError(f"delimiter: {self.delimiter!r} is the quote character")
        if self.delimiter == "\0":  # no file read holds a NUL; Python 3.10's csv refuses it
            raise ValueError(f"delimiter: {self.delimiter!r} is NUL, which no input file may hold")
        return self


class LabeledDataset(NamedTuple):
    """One model's output file as columns, in input-file order.

    Row i is (scores[i], labels[i]); a label byte is 1 for a positive and 0
    for a negative.  The class itself is permissive; `parse_dataset`
    enforces unique ids and at least one row.
    """

    name: str
    scores: array  # array('d')
    labels: bytearray

    @property
    def size(self) -> int:
        return len(self.scores)


#: Issues spelled out in a DatasetError message; the rest are only counted.
MAX_LISTED_ISSUES = 20


class DatasetError(ValueError):
    """A file could not be turned into a valid dataset.

    `issues` lists every (1-based line number, reason) pair; line 0 marks
    file-level problems such as a missing column.  The message names the
    first MAX_LISTED_ISSUES of them and counts the rest.
    """

    def __init__(self, message: str, issues: Sequence[tuple[int, str]] = ()):
        self.issues = tuple(issues)
        lines = [message]
        lines += [f"  line {line}: {reason}" for line, reason in self.issues[:MAX_LISTED_ISSUES]]
        if len(self.issues) > MAX_LISTED_ISSUES:
            lines.append(f"  ... and {len(self.issues) - MAX_LISTED_ISSUES} more")
        super().__init__("\n".join(lines))


def _label_of(schema: ColumnSchema) -> dict[str, int]:
    """Case-folded label token -> label byte."""
    return {**dict.fromkeys(map(str.lower, schema.negative_tokens), 0),
            **dict.fromkeys(map(str.lower, schema.positive_tokens), 1)}


def parse_dataset(
    source: Iterable[str],
    schema: ColumnSchema = ColumnSchema(),
    name: str = "dataset",
) -> LabeledDataset:
    """Parse delimited text into a dataset, preserving row order.

    Raises DatasetError listing every bad row (non-numeric or non-finite
    score, unrecognized label token, empty or duplicate id, short row), or
    a header that lacks a configured column or repeats one.  Blank lines
    are skipped.  Text the csv module cannot split (a field longer than
    csv.field_size_limit(), or a NUL byte before Python 3.11) is reported
    with the line the reader stopped on.  A seekable source is first checked
    a column at a time; on any doubt it is read again by the strict loop,
    the only one that writes error text.
    """
    start = None
    if getattr(source, "seekable", bool)():  # not a list or generator
        try:
            start = source.tell()  # OSError on a text file that next() has started
            if dataset := _parse_columns(source, schema, name):
                return dataset
        except UnicodeDecodeError:  # a ValueError; the strict loop would only meet it again
            raise
        except (OSError, ValueError, KeyError, csv.Error):
            pass
    if start is not None:
        source.seek(start)
    reader = csv.reader(source, delimiter=schema.delimiter)
    try:
        return _parse_rows(reader, schema, name)
    except csv.Error as exc:
        issue = (reader.line_num, str(exc))
        raise DatasetError(f"{name}: malformed delimited text", [issue]) from None


def _parse_rows(reader: Any, schema: ColumnSchema, name: str) -> LabeledDataset:
    if (header := next(reader, None)) is None:
        raise DatasetError(f"{name}: empty input, expected a header row")

    configured = (schema.id_col, schema.score_col, schema.label_col)
    names = [col.strip() for col in header]
    missing = [col for col in configured if col not in names]
    repeated = [col for col in configured if names.count(col) > 1]  # ColumnSchema: 3 distinct
    if missing or repeated:
        fault = (f"missing configured column(s) {', '.join(missing)}" if missing
                 else f"configured column(s) {', '.join(repeated)} appear more than once")
        raise DatasetError(f"{name}: {fault}", [(1, f"header is {header!r}")])
    id_idx, score_idx, label_idx = map(names.index, configured)
    width = max(id_idx, score_idx, label_idx) + 1

    label_of = _label_of(schema)

    scores, labels = array("d"), bytearray()
    seen: set[str] = set()
    issues: list[tuple[int, str]] = []
    for row in reader:
        # A blank row is short or has an empty id, so only those are tested.
        if len(row) < width or not (uid := row[id_idx].strip()):
            if all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                reason = f"row has {len(row)} fields, expected at least {width}"
            else:
                reason = "empty id"
            issues.append((reader.line_num, reason))
            continue
        if uid in seen:
            issues.append((reader.line_num, f"duplicate id {uid!r}"))
            continue

        text = row[score_idx]
        try:
            if "_" in text:  # float() accepts digit grouping such as 1_0
                raise ValueError(text)
            score = float(text)
        except ValueError:
            issues.append((reader.line_num, f"non-numeric score {text!r}"))
            continue
        if not isfinite(score):
            issues.append((reader.line_num, f"non-finite score {text!r}"))
            continue

        label = label_of.get(row[label_idx].strip().lower())
        if label is None:
            issues.append((reader.line_num, f"unrecognized label token {row[label_idx]!r}"))
            continue

        seen.add(uid)
        scores.append(score)
        labels.append(label)

    if issues:
        raise DatasetError(f"{name}: {len(issues)} invalid row(s)", issues)
    if not scores:
        raise DatasetError(f"{name}: dataset has zero instances")
    return LabeledDataset(name=name, scores=scores, labels=labels)


#: Characters (then up to a line end) and, once csv reads the rest, rows per column-path chunk.
BLOCK_CHARS, CHUNK_ROWS = 1 << 15, 1 << 10


def _parse_columns(source: Any, schema: ColumnSchema, name: str) -> LabeledDataset | None:
    """The dataset if the header is just the configured columns and no row is bad;
    on a doubt None, or ValueError, KeyError or csv.Error.  Unquoted, csv ends a row
    at \\r, \\n or \\r\\n and splits it at each delimiter, so str methods split a block
    of lines with two delimiters each; other blocks are read again row by row.  From a block
    with a quote, a NUL, an overlong line, or a line end that a stream without universal
    newlines may leave inside a line, csv reads on."""
    delim, limit, label_of = schema.delimiter, csv.field_size_limit(), _label_of(schema)
    mark = delim if delim.isascii() else "\0"  # NUL stands in: no block split here holds one
    drop = bytes(range(256)).replace(mark.encode(), b"").replace(b"\n", b"")
    chunks, labels, seen, order, reader = [], bytearray(), set(), None, None
    while True:
        if not reader:
            pos = source.tell()
            text = source.read(BLOCK_CHARS) + source.readline() if order else source.readline()
            if ('"' in text or "\0" in text or len(text) > limit or not order and "\n" in text[:-1]
                    or "\r" in text and getattr(source, "newlines", None) is None):
                source.seek(pos)
                reader = csv.reader(source, delimiter=delim)
            body, last = text.replace("\r\n", "\n").replace("\r", "\n").rstrip("\n"), not text
        if order is None:
            names = list(map(str.strip, next(reader, []) if reader else body.split(delim)))
            order = list(map(names.index, (schema.id_col, schema.score_col, schema.label_col)))
            if len(names) != 3:
                return None
            continue
        if reader:  # Each csv row dies as it is unpacked, so the collector seldom runs.
            columns: tuple[list[str], ...] = ([], [], [])
            first, second, third = (column.append for column in columns)
            for a, b, c in islice(filter(None, reader), CHUNK_ROWS):  # skip blank lines
                first(a)
                second(b)
                third(c)
            uids, texts, tokens = (columns[i] for i in order)
            uids, last = list(map(str.strip, uids)), len(uids) < CHUNK_ROWS
        else:
            for _ in range(2):  # The probe keeps only the block's delimiters and line ends.
                probe = body.replace(delim, mark).encode().translate(None, drop)
                cells = body.replace("\n", delim).split(delim) if body else []
                uids, texts, tokens = (cells[i::3] for i in order)
                if not body.isascii() or any(map(body.__contains__, " \t\v\f\x1c\x1d\x1e\x1f")):
                    uids = list(map(str.strip, uids))  # else each id would come back as it is
                shape = (2 * mark + "\n").encode() * probe.count(b"\n") + (2 * mark).encode()
                if (not body or probe == shape) and all(uids):
                    break
                # As in the strict loop: all-blank lines are skipped, cells past the third ignored.
                body = "\n".join(delim.join(row.split(delim, 3)[:3]) for row in body.split("\n")
                                 if row.replace(delim, " ").strip())
            else:
                return None
        chunk = array("d", map(float, texts))
        seen.update(uids)
        if ("_" in "".join(texts) or reader and not all(uids) or not isfinite(sum(chunk))
                and not all(map(isfinite, chunk)) or len(seen) != len(labels) + len(uids)):
            return None
        chunks.append(chunk)  # joined once: an array grown in place left holes in the heap
        try:  # Tokens as written first: stripping and lowering each cost 5% of a 10^6-row eval.
            labels += bytearray(map(label_of.__getitem__, tokens))
        except KeyError:
            labels += bytearray(map(label_of.__getitem__, map(str.lower, map(str.strip, tokens))))
        if last:
            seen.clear()  # first, so that the join adds nothing to the peak
            return LabeledDataset(name, array("d", b"".join(chunks)), labels) if labels else None


class _HashedFile(io.FileIO):
    """A file whose reads feed a sha256, and set `bad` on a NUL, with each byte once however
    often a seek goes back over it: only the bytes past the furthest offset read are new."""

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.sha, self.end, self.bad = hashlib.sha256(), 0, False

    def readinto(self, buffer: Any) -> int:
        start, count = self.tell() if self.seekable() else self.end, super().readinto(buffer)
        if start + count > self.end:
            new = bytes(buffer[self.end - start:count])
            self.sha.update(new)
            self.bad, self.end = self.bad or b"\0" in new, start + count
        return count


def read_dataset_file(
    path: str | Path,
    schema: ColumnSchema = ColumnSchema(),
    name: str | None = None,
) -> tuple[LabeledDataset, str]:
    """Load a dataset from disk; returns (dataset, sha256 of the bytes parsed).

    The file is read once, as a stream, and no copy of it is held.  A leading UTF-8
    byte-order mark is skipped.  A NUL or undecodable byte is reported ahead of any
    other fault, with its line: only then is the file read whole, to find that byte.
    A pipe cannot be read again, so its bad byte is reported on line 0.
    """
    path = Path(path)
    name = path.stem if name is None else name
    try:
        raw = _HashedFile(path)
    except OSError as exc:
        raise DatasetError(f"{name}: cannot read {path}: {exc.strerror or exc}") from exc
    undecodable, seekable = False, raw.seekable()
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="") as stream:
        # Skipped here: a utf-8-sig decoder would take a file of b"\xef" for an empty one.
        stream.buffer.read(3 if stream.buffer.peek(3).startswith(b"\xef\xbb\xbf") else 0)
        try:  # A parse that returns has read the text to its end, so the digest has every byte.
            try:
                dataset = parse_dataset(stream, schema, name=name)
            except DatasetError:
                while stream.read(1 << 16):  # A bad byte past the fault is reported instead.
                    pass
                if not raw.bad:
                    raise
        except UnicodeDecodeError:
            undecodable = True
            while not seekable and stream.buffer.read(1 << 16):  # as below, a NUL comes first
                pass
    if not (raw.bad or undecodable):
        return dataset, raw.sha.hexdigest()
    if not seekable:  # A pipe cannot be read again, so the bad byte's line is not known.
        fault, byte = (("holds a NUL byte", "NUL") if raw.bad
                       else ("is not valid UTF-8", "undecodable"))
        issue = (0, f"{byte} byte on an unknown line: the input cannot be read again")
        raise DatasetError(f"{name}: input {fault}", [issue])
    # csv rejects NUL before Python 3.11 and keeps it in a field after; it is rejected here.
    data = path.read_bytes()
    if (offset := data.find(b"\0")) >= 0:
        bad = f"NUL byte at byte offset {offset}"
        raise DatasetError(f"{name}: input holds a NUL byte", [(_line_at(data, offset), bad)])
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = f"undecodable byte 0x{data[exc.start]:02x} at byte offset {exc.start}"
        line = _line_at(data, exc.start)
        raise DatasetError(f"{name}: input is not valid UTF-8", [(line, bad)]) from None
    raise DatasetError(f"{name}: input changed while it was read")


def _line_at(raw: bytes, offset: int) -> int:
    """1-based line of byte `offset` under \\n, \\r\\n and \\r line endings."""
    before = raw[:offset]
    return before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
