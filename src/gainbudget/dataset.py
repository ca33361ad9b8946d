"""Parsing and validation of labeled prediction files.

The input format is delimited text (comma by default, tab supported) with a
header row.  Each data row carries an opaque identifier, a finite confidence
score, and a binary gold label.  Parsing is strict: every malformed row is
reported with its 1-based line number, and nothing is silently coerced.

A parsed dataset is two columns (scores, labels), so the garbage collector tracks two
containers.  Ids are held as UTF-8 bytes only while read, in a set that finds a duplicate,
which a run's later inputs skip while they repeat the first input's ids in order.
"""

from __future__ import annotations

import csv
import hashlib
import io
from array import array
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Sequence
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
    `parse_dataset` enforces unique ids and at least one row, and keeps no ids.
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


def parse_dataset(source: Iterable[str], schema: ColumnSchema = ColumnSchema(),
                  name: str = "dataset") -> LabeledDataset:
    """Parse delimited text into a dataset, preserving row order.

    Raises DatasetError listing every bad row (non-numeric or non-finite score, unrecognized
    label token, empty or duplicate id, short row, text csv cannot split), or a header that
    lacks a configured column or repeats one.  Blank lines are skipped.  Rows are read one by
    one, as iterating over `source` splits them; read_dataset_file's, in blocks of lines.
    """
    chunks, labels, seen, issues = state = [], bytearray(), set(), []
    reader = csv.reader(lines := iter(source), delimiter=schema.delimiter)
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
    if isinstance(source, _Text):
        _parse_columns(source, schema, name, state, reader.line_num, order, len(header))
    else:
        _parse_rows(lines, schema, name, state, reader.line_num, order, iter(()))
    if issues:
        raise DatasetError(f"{name}: {len(issues)} invalid row(s)", issues)
    if not labels:
        raise DatasetError(f"{name}: dataset has zero instances")
    seen.clear()  # first, so that the join adds nothing to the peak
    return LabeledDataset(name, array("d", b"".join(chunks)), labels)


def _parse_rows(lines: Iterable[str], schema: ColumnSchema, name: str, state: tuple,
                before: int, order: list[int], rest: Iterator[str]) -> int:
    """The strict loop: add each row of `lines`, then of `rest` up to the first line that ends a
    row, to `state`, a bad one as an issue on its line plus `before`; return the lines read."""
    id_idx, score_idx, label_idx = order
    width, label_of = max(order) + 1, _label_of(schema)
    chunks, labels, seen, issues = state
    chunks.append(scores := array("d"))

    def bad(reason: str) -> None:
        issues.append((before + reader.line_num, reason))

    def more() -> Iterator[str]:
        last = row
        while row is last and (line := next(rest, "")):  # csv reads no line ahead of a row
            yield line

    row, reader = None, csv.reader(chain(lines, more()), delimiter=schema.delimiter)
    try:
        for row in reader:
            # A blank row is short or has an empty id, so only those are tested.
            if len(row) < width or not (uid := row[id_idx].strip()):
                if all(not cell.strip() for cell in row):
                    continue
                bad(f"row has {len(row)} fields, expected at least {width}" if len(row) < width
                    else "empty id")
                continue
            if (key := uid.encode("utf-8", "surrogatepass")) in seen:  # exact, and less heap
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

            seen.add(key)
            scores.append(score)
            labels.append(label)
    except csv.Error as exc:
        issue = (before + reader.line_num, str(exc))
        raise DatasetError(f"{name}: malformed delimited text", [issue]) from None
    return reader.line_num


#: Bytes per raw read of a file or pipe.
BLOCK_CHARS = 1 << 15


def _parse_columns(source: _Text, schema: ColumnSchema, name: str, state: tuple,
                   before: int, order: list[int], width: int) -> None:
    """Add to `state` each block of whole lines that str methods prove good.  Unquoted, csv
    ends a row at \\r, \\n or \\r\\n and splits it at each delimiter, so str methods split a
    block whose lines each hold `width` cells.  The strict loop reads each other block (csv alone
    splits a quote or an overlong line) with its last line first in `rest`, so it reads past the
    block only to end a record.  Ids that repeat `source.ids` in order are distinct as those are:
    `seen` takes the ids so far at the first block that strays, or is doubted."""
    chunks, labels, seen, _ = state
    delim, limit, label_of = schema.delimiter, csv.field_size_limit(), _label_of(schema)
    mark = delim if delim.isascii() else "\0"  # NUL stands in: _read_blocks lets none through
    drop = bytes(range(256)).replace(mark.encode(), b"").replace(b"\n", b"")
    gaps = mark * (width - 1)  # the delimiters of each line
    fill, follow, at = source.ids == b"", source.ids or b"", 0  # follow[:at]: the ids so far
    for text in iter(source.read, ""):
        try:  # A doubt is a ValueError or KeyError: the strict loop reads the block.
            if '"' in text or len(text) > limit:
                raise ValueError("csv alone splits a quote or an overlong line")
            lines = text.replace("\r\n", "\n").replace("\r", "\n")
            body = lines.rstrip("\n")
            # The probe keeps only the block's delimiters and line ends.
            probe = body.replace(delim, mark).encode().translate(None, drop)
            ends = probe.count(b"\n")
            cells = body.replace("\n", delim).split(delim) if body else []
            uids, texts, tokens = (cells[i::width] for i in order)
            if not body.isascii() or any(map(body.__contains__, " \t\v\f\x1c\x1d\x1e\x1f")):
                uids = map(str.strip, uids)  # else each id would come back as it is
            joined = ("\n".join(uids) + "\n" if body else "").encode()
            shape = (gaps + "\n").encode() * ends + gaps.encode()
            if body and probe != shape or "_" in "".join(texts):
                raise ValueError("not split as csv splits it, or 1_0")
            scores = array("d", map(float, texts))
            try:  # Tokens as written first: each str pass costs 5% of a 10^6-row eval.
                block = bytearray(map(label_of.__getitem__, tokens))
            except KeyError:
                block = bytearray(map(label_of.__getitem__, map(str.lower, map(str.strip, tokens))))
            if not isfinite(sum(scores)) and not all(map(isfinite, scores)):
                raise ValueError("a score not finite")
            if follow.startswith(joined, at):
                at += len(joined)  # and none is empty, as none in `follow` is
            else:
                seen.update(bytes(follow[:at]).splitlines())  # no id holds \r or \n
                follow, uids = b"", joined.splitlines()
                if not all(uids) or not seen.isdisjoint(uids):
                    raise ValueError("an empty id, or an id seen before")
                count = len(seen)
                seen.update(uids)
                if len(seen) != count + len(uids):
                    seen.difference_update(uids)  # exact: none of them was in `seen` before
                    raise ValueError("an id repeated within the block")
                if fill:
                    source.ids += joined
        except (ValueError, KeyError):
            seen.update(bytes(follow[:at]).splitlines())
            follow, (*head, last) = b"", io.StringIO(text, newline="").readlines()
            before += _parse_rows(head, schema, name, state, before, order, chain([last], source))
        else:
            chunks.append(scores)  # joined once: an array grown in place left holes in the heap
            labels += block
            before += ends + len(lines) - len(body)  # the line ends that rstrip() took


def _read_blocks(raw: io.RawIOBase, sha: hashlib._Hash, name: str) -> Iterator[str]:
    """Yield the text of `raw`, read once and fed to `sha`, in blocks: BLOCK_CHARS-byte reads
    cut after their last line end, each decoded once, the first without a byte-order mark.
    A NUL, else the first undecodable byte, is raised with its line and byte offset."""
    lines = offset = 0  # the line ends and the bytes before `held`
    held, fault = bytearray(), None  # held: the bytes read since the last cut
    for data in chain(iter(lambda: raw.read(BLOCK_CHARS), b""), [b""]):  # b"" cuts at the end
        sha.update(data)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1  # \r\n may span two reads
        if data and not cut and not held.endswith(b"\r"):  # else cut after the held lone \r
            held += data  # scanned once: a long line costs time in step with its length
            continue
        block, held = held + data[:cut], bytearray(data[cut:])
        if (at := block.find(0)) >= 0:
            issue = (lines + _ends(block[:at]) + 1, f"NUL byte at byte offset {offset + at}")
            raise DatasetError(f"{name}: input holds a NUL byte", [issue])
        try:
            text = "" if fault else block.decode()
        except UnicodeDecodeError as exc:
            text, fault = "", (lines + _ends(block[:exc.start]) + 1, f"undecodable byte "
                               f"0x{block[exc.start]:02x} at byte offset {offset + exc.start}")
        text = text if offset else text.removeprefix("\ufeff")
        lines, offset, block = lines + _ends(block), offset + len(block), b""  # drop the bytes
        yield text
    if fault:
        raise DatasetError(f"{name}: input is not valid UTF-8", [fault])


def _ends(data: bytes) -> int:  # the line ends: each \n, \r\n and lone \r
    return data.count(b"\n") + (data.count(b"\r") - data.count(b"\r\n") if b"\r" in data else 0)


class _Text:
    """`_read_blocks` as the column path's source: lines split as csv splits them, or the
    rest of a block, and "" only at the end.  `ids` is read_dataset_file's id buffer."""

    def __init__(self, blocks: Iterator[str], ids: bytearray | None) -> None:
        self._blocks, self._rest, self.ids = filter(None, blocks), io.StringIO(), ids

    def read(self) -> str:
        return self._rest.read() or next(self._blocks, "")

    def __iter__(self) -> Iterator[str]:  # chained in C: no Python frame runs per line
        return chain.from_iterable(map(self._lines, iter(self.read, "")))

    def _lines(self, text: str) -> io.StringIO:
        self._rest = io.StringIO(text, newline="")
        return self._rest


def read_dataset_file(path: str | Path, schema: ColumnSchema = ColumnSchema(),
                      name: str | None = None, *,
                      ids: bytearray | None = None) -> tuple[LabeledDataset, str]:
    """Load a dataset from disk; returns (dataset, sha256 of the bytes parsed).

    The file, or pipe, is read forward once in blocks of whole lines, and no copy of it is
    held.  A leading UTF-8 byte-order mark is skipped.  A NUL, or else the first
    undecodable byte, is reported ahead of any other fault, with its line and byte offset.
    `ids` holds the ids that the column path took, each followed by \\n: an empty bytearray is
    filled, and a read whose ids repeat a filled one in order keeps no id set while they do.
    Only a buffer that an earlier read filled may be passed: its ids are not checked again.
    """
    path = Path(path)
    name = path.stem if name is None else name
    try:
        raw = open(path, "rb", buffering=0)
    except OSError as exc:
        raise DatasetError(f"{name}: cannot read {path}: {exc.strerror or exc}") from exc
    with raw:
        blocks = _read_blocks(raw, sha := hashlib.sha256(), name)
        try:  # A parse that returns has read the text to its end, so the digest has every byte.
            return parse_dataset(_Text(blocks, ids), schema, name=name), sha.hexdigest()
        except DatasetError:
            deque(blocks, 0)  # read to the end: a bad byte further on is reported instead
            raise
