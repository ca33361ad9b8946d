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
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain
from math import isfinite
from pathlib import Path

DEFAULT_POSITIVE_TOKENS = frozenset({"1", "true"})
DEFAULT_NEGATIVE_TOKENS = frozenset({"0", "false"})


class ColumnSchema(namedtuple("ColumnSchema", "id_col score_col label_col positive_tokens "
                                              "negative_tokens delimiter",
                              defaults=["id", "score", "label", DEFAULT_POSITIVE_TOKENS,
                                        DEFAULT_NEGATIVE_TOKENS, ","])):
    """Maps file columns onto the (id, score, label) triple.

    Label tokens match case-insensitively; any other token is a parse error,
    never a silent negative.  An unmatchable schema raises ValueError("field: ...").
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, *args: object, **kwargs: object) -> ColumnSchema:
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


class LabeledDataset(namedtuple("LabeledDataset", "name scores labels")):
    """One model's output file as columns, in input-file order.

    Row i is (scores[i], labels[i]), from an array('d') and a bytearray whose byte is 1
    for a positive and 0 for a negative.  The class itself is permissive;
    `parse_dataset` enforces unique ids and at least one row.
    """

    __slots__ = ()

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
    with the line the reader stopped on.  csv reads the header.  A text
    stream (a file, a pipe, one that next() has started) is then read forward
    once, a block of lines at a time: the column path takes each block it
    proves good, and the strict loop, the only one that writes error text,
    reads each other block, or the rest from a block only csv can split.  A
    list or generator is read by the strict loop alone.
    """
    chunks, labels, seen, issues = state = [], bytearray(), set(), []
    lines, head = iter(source), []  # head: the header's lines, as the source splits them
    reader = csv.reader((head.append(line) or line for line in lines), delimiter=schema.delimiter)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        issue = (reader.line_num, str(exc))
        raise DatasetError(f"{name}: malformed delimited text", [issue]) from None
    if header is None:
        raise DatasetError(f"{name}: empty input, expected a header row")
    configured = (schema.id_col, schema.score_col, schema.label_col)
    names = [col.strip() for col in header]
    missing = [col for col in configured if col not in names]
    repeated = [col for col in configured if names.count(col) > 1]  # 3 distinct names
    if missing or repeated:
        fault = (f"missing configured column(s) {', '.join(missing)}" if missing
                 else f"configured column(s) {', '.join(repeated)} appear more than once")
        raise DatasetError(f"{name}: {fault}", [(1, f"header is {header!r}")])
    order = list(map(names.index, configured))
    # A stream without universal newlines whose header ends in \r may split lines there.
    if isinstance(source, io.TextIOBase) and (source.newlines or "\r" not in head[-1]):
        _parse_columns(source, schema, name, state, reader.line_num, order, len(header))
    else:
        _parse_rows(lines, schema, name, state, reader.line_num, order)
    if issues:
        raise DatasetError(f"{name}: {len(issues)} invalid row(s)", issues)
    if not labels:
        raise DatasetError(f"{name}: dataset has zero instances")
    seen.clear()  # first, so that the join adds nothing to the peak
    return LabeledDataset(name, array("d", b"".join(chunks)), labels)


def _parse_rows(lines: Iterable[str], schema: ColumnSchema, name: str, state: tuple,
                before: int, order: list[int]) -> None:
    """The strict loop: add each row of `lines` to `state` (score arrays, labels, the ids
    seen, issues), a bad one as an issue on its line plus `before`.  `order` holds the
    configured columns' indices."""
    reader = csv.reader(lines, delimiter=schema.delimiter)
    id_idx, score_idx, label_idx = order
    width = max(order) + 1
    label_of = _label_of(schema)
    chunks, labels, seen, issues = state
    chunks.append(scores := array("d"))

    def bad(reason: str) -> None:
        issues.append((before + reader.line_num, reason))

    try:
        for row in reader:
            # A blank row is short or has an empty id, so only those are tested.
            if len(row) < width or not (uid := row[id_idx].strip()):
                if all(not cell.strip() for cell in row):
                    continue
                bad(f"row has {len(row)} fields, expected at least {width}" if len(row) < width
                    else "empty id")
                continue
            if uid in seen:
                bad(f"duplicate id {uid!r}")
                continue

            text = row[score_idx]
            try:
                if "_" in text:  # float() accepts digit grouping such as 1_0
                    raise ValueError(text)
                score = float(text)
            except ValueError:
                bad(f"non-numeric score {text!r}")
                continue
            if not isfinite(score):
                bad(f"non-finite score {text!r}")
                continue

            label = label_of.get(row[label_idx].strip().lower())
            if label is None:
                bad(f"unrecognized label token {row[label_idx]!r}")
                continue

            seen.add(uid)
            scores.append(score)
            labels.append(label)
    except csv.Error as exc:
        issue = (before + reader.line_num, str(exc))
        raise DatasetError(f"{name}: malformed delimited text", [issue]) from None


#: Characters per column-path block, which then reads on to a line end.
BLOCK_CHARS = 1 << 15


def _parse_columns(source: io.TextIOBase, schema: ColumnSchema, name: str, state: tuple,
                   before: int, order: list[int], width: int) -> None:
    """Add to `state` each block of whole lines that str methods prove good; the strict loop
    reads each other block.  Unquoted, csv ends a row at \\r, \\n or \\r\\n and splits it at
    each delimiter, so str methods split a block whose lines each hold `width` cells.  The
    strict loop reads on, from the text already read and then the source, from a block with
    a quote, a NUL, an overlong line, or a line end that a stream without universal newlines
    may leave inside a line: csv alone splits those.  Nothing is read twice, or seeks."""
    chunks, labels, seen, _ = state
    delim, limit, label_of = schema.delimiter, csv.field_size_limit(), _label_of(schema)
    mark = delim if delim.isascii() else "\0"  # NUL stands in: no block split here holds one
    drop = bytes(range(256)).replace(mark.encode(), b"").replace(b"\n", b"")
    gaps = mark * (width - 1)  # the delimiters of each line
    while True:
        text = source.read(BLOCK_CHARS) + source.readline()
        lines = text.replace("\r\n", "\n").replace("\r", "\n")
        body = lines.rstrip("\n")
        if ('"' in text or "\0" in text or len(text) > limit
                or "\r" in text and source.newlines is None):
            # A stream without universal newlines gets here only if it splits at \n alone.
            read = io.StringIO(text, newline="" if source.newlines else "\n")
            return _parse_rows(chain(read, source), schema, name, state, before, order)
        if not text:
            return
        # The probe keeps only the block's delimiters and line ends.
        probe = body.replace(delim, mark).encode().translate(None, drop)
        ends = probe.count(b"\n")
        cells = body.replace("\n", delim).split(delim) if body else []
        uids, texts, tokens = (cells[i::width] for i in order)
        if not body.isascii() or any(map(body.__contains__, " \t\v\f\x1c\x1d\x1e\x1f")):
            uids = list(map(str.strip, uids))  # else each id would come back as it is
        shape = (gaps + "\n").encode() * ends + gaps.encode()
        try:  # A doubt is a ValueError or KeyError: the strict loop reads the block.
            if body and probe != shape or not all(uids) or "_" in "".join(texts):
                raise ValueError("not split as csv splits it, or an empty id, or 1_0")
            scores = array("d", map(float, texts))
            try:  # Tokens as written first: each str pass costs 5% of a 10^6-row eval.
                block = bytearray(map(label_of.__getitem__, tokens))
            except KeyError:
                block = bytearray(map(label_of.__getitem__, map(str.lower, map(str.strip, tokens))))
            if (not isfinite(sum(scores)) and not all(map(isfinite, scores))
                    or not seen.isdisjoint(uids)):
                raise ValueError("a score not finite, or an id seen before")
            count = len(seen)
            seen.update(uids)
            if len(seen) != count + len(uids):
                seen.difference_update(uids)  # exact: none of them was in `seen` before
                raise ValueError("an id repeated within the block")
        except (ValueError, KeyError):
            _parse_rows(io.StringIO(text, newline=""), schema, name, state, before, order)
        else:
            chunks.append(scores)  # joined once: an array grown in place left holes in the heap
            labels += block
        before += ends + len(lines) - len(body)  # the line ends that rstrip() took


class _HashedFile(io.FileIO):
    """A file whose reads feed a sha256, and set `bad` on a NUL.  The parse reads forward
    and never seeks, so each byte is read, hashed and checked once."""

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.sha, self.bad = hashlib.sha256(), False

    def readinto(self, buffer: memoryview) -> int:
        count = super().readinto(buffer)
        self.sha.update(new := bytes(buffer[:count]))
        self.bad = self.bad or b"\0" in new
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
