import contextlib
import csv
import hashlib
import io
import os
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gainbudget import (
    ColumnSchema,
    DatasetError,
    LabeledDataset,
    dataset,
    parse_dataset,
    read_dataset_file,
)

from conftest import make_dataset, worked_path
from test_fuzz import csv_bytes, edited_inputs


def parse_text(text: str, schema: ColumnSchema = ColumnSchema(), name: str = "t", *,
               ids: bytearray | None = None) -> LabeledDataset:
    """Read `text` from a file, as the CLI reads its inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(text.encode())
        return read_dataset_file(path, schema, name=name, ids=ids)[0]


def render_csv(ids, d: LabeledDataset) -> str:
    """Write ids and the columns in the default format; repr keeps every score exact."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "score", "label"])
    for uid, score, label in zip(ids, d.scores, d.labels, strict=True):
        writer.writerow([uid, repr(score), "1" if label else "0"])
    return out.getvalue()


class TestParse:
    def test_worked_fixture(self):
        dataset, digest = read_dataset_file(worked_path("s1m1"))
        assert dataset.size == 6
        assert dataset.labels.count(1) == 3
        assert len(digest) == 64

    def test_row_order_preserved(self):
        d = parse_text("id,score,label\nb,1,0\na,2,1\n")
        assert (list(d.scores), list(d.labels)) == ([1.0, 2.0], [0, 1])

    def test_header_only_is_empty_dataset(self):
        with pytest.raises(DatasetError, match="zero instances"):
            parse_text("id,score,label\n")

    def test_empty_stream(self):
        with pytest.raises(DatasetError, match="header"):
            parse_text("")

    def test_non_numeric_score_reports_line(self):
        text = "id,score,label\na,1,1\nb,2,0\nc,abc,1\n"
        with pytest.raises(DatasetError) as exc:
            parse_text(text)
        assert exc.value.issues == ((4, "non-numeric score 'abc'"),)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DatasetError, match="non-finite"):
            parse_text(f"id,score,label\na,{bad},1\n")

    def test_unrecognized_label_token(self):
        with pytest.raises(DatasetError, match="unrecognized label token 'maybe'"):
            parse_text("id,score,label\na,1,maybe\n")

    def test_default_tokens_accept_true_false(self):
        d = parse_text("id,score,label\na,1,True\nb,2,FALSE\n")
        assert [bool(label) for label in d.labels] == [True, False]

    def test_custom_tokens_replace_defaults(self):
        schema = ColumnSchema(
            positive_tokens=frozenset({"yes"}), negative_tokens=frozenset({"no"})
        )
        d = parse_text("id,score,label\na,1,yes\nb,2,no\n", schema)
        assert d.labels.count(1) == 1
        with pytest.raises(DatasetError, match="unrecognized label"):
            parse_text("id,score,label\na,1,1\n", schema)

    def test_duplicate_id_reports_line(self):
        text = "id,score,label\nx,1,1\nx,2,0\n"
        with pytest.raises(DatasetError) as exc:
            parse_text(text)
        assert exc.value.issues[0][0] == 3
        assert "duplicate id 'x'" in exc.value.issues[0][1]

    def test_missing_column(self):
        with pytest.raises(DatasetError, match="missing configured column"):
            parse_text("id,confidence,label\na,1,1\n")

    def test_column_remapping(self):
        schema = ColumnSchema(id_col="phrase", score_col="fixedness", label_col="idiom")
        text = "phrase,fixedness,idiom\nkick the bucket,0.9,1\n"
        d = parse_text(text, schema)
        assert (list(d.scores), list(d.labels)) == ([0.9], [1])
        with pytest.raises(DatasetError) as exc:
            parse_text(text + "kick the bucket,0.5,0\n", schema)
        assert exc.value.issues == ((3, "duplicate id 'kick the bucket'"),)

    def test_tab_delimiter(self):
        schema = ColumnSchema(delimiter="\t")
        d = parse_text("id\tscore\tlabel\na\t1\t1\n", schema)
        assert d.size == 1

    def test_blank_lines_skipped(self):
        d = parse_text("id,score,label\na,1,1\n\nb,2,0\n")
        assert d.size == 2

    def test_short_row(self):
        with pytest.raises(DatasetError, match="expected at least"):
            parse_text("id,score,label\na,1\n")

    def test_all_errors_collected(self):
        text = "id,score,label\na,x,1\nb,1,huh\n"
        with pytest.raises(DatasetError) as exc:
            parse_text(text)
        assert [line for line, _ in exc.value.issues] == [2, 3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            read_dataset_file(tmp_path / "nope.csv")

    @pytest.mark.parametrize("blank", [" , , ", "\t,", " "])
    def test_rows_of_blank_cells_skipped(self, blank):
        d = parse_text(f"id,score,label\na,1,1\n{blank}\nb,2,0\n")
        assert (list(d.scores), list(d.labels)) == ([1.0, 2.0], [1, 0])

    @pytest.mark.parametrize("score", ["1_0", "0.5_5", "1e1_0"])
    def test_underscore_score_rejected(self, score):
        with pytest.raises(DatasetError) as exc:
            parse_text(f"id,score,label\na,1,1\nb,{score},0\n")
        assert exc.value.issues == ((3, f"non-numeric score {score!r}"),)

    def test_repeated_configured_column_rejected(self):
        with pytest.raises(DatasetError, match="score appear more than once") as exc:
            parse_text("id,score,label,score\na,1,1,2\n")
        assert exc.value.issues[0][0] == 1

    def test_repeated_other_column_allowed(self):
        d = parse_text("id,note,score,label,note\na,x,1,1,y\n")
        assert d.size == 1

    def test_message_lists_first_issues_only(self):
        text = "id,score,label\n" + "".join(f"r{i},bad,1\n" for i in range(10_000))
        with pytest.raises(DatasetError) as exc:
            parse_text(text)
        assert len(exc.value.issues) == 10_000
        lines = str(exc.value).splitlines()
        assert lines[0] == "t: 10000 invalid row(s)"
        assert lines[1:21] == [f"  line {i + 2}: non-numeric score 'bad'" for i in range(20)]
        assert lines[21:] == ["  ... and 9980 more"]


class TestReadFile:
    def test_byte_order_mark_skipped(self, tmp_path):
        raw = b"\xef\xbb\xbfid,score,label\na,1,1\nb,2,0\n"
        (tmp_path / "bom.csv").write_bytes(raw)
        d, digest = read_dataset_file(tmp_path / "bom.csv")
        assert (list(d.scores), list(d.labels)) == ([1.0, 2.0], [1, 0])
        assert digest == hashlib.sha256(raw).hexdigest()
        (tmp_path / "bom.csv").write_bytes(raw + b"a,3,0\n")
        with pytest.raises(DatasetError) as exc:
            read_dataset_file(tmp_path / "bom.csv")
        assert exc.value.issues == ((4, "duplicate id 'a'"),)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("rows_before", [1, 5000, 150_000])
    def test_undecodable_byte_reports_its_line(self, tmp_path, newline, rows_before):
        # 5000 rows put the bad byte well past the first chunk the reader decodes,
        # and 150,000 (over 1.6 MB) past the first 1 MiB slice of the UTF-8 check.
        good = "".join(f"r{i},1,0{newline}" for i in range(rows_before)).encode()
        raw = f"id,score,label{newline}".encode() + good + b"x,\xff,1" + newline.encode()
        (tmp_path / "bad.csv").write_bytes(raw)
        with pytest.raises(DatasetError, match="not valid UTF-8") as exc:
            read_dataset_file(tmp_path / "bad.csv")
        offset = raw.index(b"\xff")
        assert exc.value.issues == (
            (rows_before + 2, f"undecodable byte 0xff at byte offset {offset}"),
        )

    @pytest.mark.parametrize("raw,strict", [
        # A cut multibyte sequence is only decoded at end of input.
        pytest.param(b"\n\xc2", True, id="cut-sequence"),
        # A bad header is met before the chunk that holds the bad byte.
        pytest.param(b"id,score\n" + b"a,1\n" * 5000 + b"\xff", True, id="past-bad-header"),
        # The parse stops at the header; the rest of the file, over 1 MiB, is read on.
        pytest.param(b"id,score\n" + b"a,1\n" * 300_000 + b"\xff", True,
                     id="far-past-bad-header"),
        # Read a column at a time up to the bad byte, which ends the parse: the strict
        # loop, which could only read the same rows up to the same byte, is not run.
        pytest.param(b"id,score,label\n" + b"".join(b"r%d,1,0\n" % i for i in range(5000))
                     + b"\xff", False, id="past-good-rows"),
    ])
    def test_undecodable_byte_reported_before_other_faults(self, tmp_path, monkeypatch, raw,
                                                           strict):
        if not strict:
            strict_loop = mock.Mock(side_effect=AssertionError("the strict loop ran"))
            monkeypatch.setattr(dataset, "_parse_rows", strict_loop)
        (tmp_path / "bad.csv").write_bytes(raw)
        with pytest.raises(DatasetError, match="not valid UTF-8") as exc:
            read_dataset_file(tmp_path / "bad.csv")
        offset = len(raw) - 1
        assert exc.value.issues == (
            (raw.count(b"\n") + 1, f"undecodable byte 0x{raw[-1]:02x} at byte offset {offset}"),
        )

    @pytest.mark.parametrize("bad", [b"", b"\xff", b"\xc3", b"\xe2\x82"])
    def test_multibyte_text_across_slices_of_the_utf8_check(self, tmp_path, bad):
        # Ids of two-byte characters over 2 MiB, padded so that byte 2**20 falls inside
        # a sequence; then a bad or cut sequence, and one more valid row.
        rows = "".join(f"{i:06d}{chr(0xE9) * 40},1,{i % 2}\n" for i in range(30_000))
        files = (f"id,score,label\n{'a' * pad}{rows}".encode() for pad in (0, 1))
        good = next(raw for raw in files if raw[1 << 20] & 0xC0 == 0x80)
        (tmp_path / "e.csv").write_bytes(good + b"x" + bad + f",1,0\n{chr(0xE9)},2,1\n".encode())
        if not bad:
            assert read_dataset_file(tmp_path / "e.csv")[0].size == 30_002
            return
        with pytest.raises(DatasetError, match="not valid UTF-8") as exc:
            read_dataset_file(tmp_path / "e.csv")
        assert exc.value.issues == (
            (30_002, f"undecodable byte 0x{bad[0]:02x} at byte offset {len(good) + 1}"),
        )

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("where", ["id", "score", "header", "past-bad-header", "past-bad-byte"])
    def test_nul_byte_reports_its_line(self, tmp_path, newline, where):
        # Python 3.11's csv keeps a NUL inside a field, 3.10's raises; both
        # must give the same error.  It also comes ahead of a bad header that
        # stops the parse over 1 MiB before the NUL, and of an undecodable byte
        # that stops the decoder before it.
        header = {"header": b"id,sc\0ore,label", "past-bad-header": b"id,score"}.get(where)
        far = where == "past-bad-header"
        good = [b"r%d,1,0" % i for i in range(200_000)] if far else [b"a,1,0"]
        bad = {"id": [b"a\0b,1,1"], "score": [b"b,1\0,1"], "header": [b"b,1,1"],
               "past-bad-header": [b"b,\0,1"], "past-bad-byte": [b"b,\xff,1", b"c,1\0,1"]}[where]
        raw = newline.encode().join([header or b"id,score,label", *good, *bad, b""])
        (tmp_path / "nul.csv").write_bytes(raw)
        with pytest.raises(DatasetError, match="NUL byte") as exc:
            read_dataset_file(tmp_path / "nul.csv")
        line = raw.count(newline.encode(), 0, raw.index(0)) + 1
        assert exc.value.issues == ((line, f"NUL byte at byte offset {raw.index(0)}"),)

    def test_oversized_field_reports_its_line(self, tmp_path):
        raw = ("id,score,label\na,1,0\nb,1," + "x" * 140_000 + "\nc,2,1\n").encode()
        (tmp_path / "wide.csv").write_bytes(raw)
        with pytest.raises(DatasetError, match="malformed delimited text") as exc:
            read_dataset_file(tmp_path / "wide.csv")
        ((line, reason),) = exc.value.issues
        assert line == 3
        assert "field larger than field limit" in reason

    def test_a_long_line_is_read_in_linear_time(self, tmp_path, monkeypatch):
        # A line of 10^7 characters and no line end, read 1024 bytes at a time: each read is
        # scanned once for a line end, so the time grows with the line, not with its square.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 1024)
        path = tmp_path / "long.csv"
        path.write_bytes(b"id,score,label\n" + b"a" * 10**7)
        start = time.perf_counter()
        with pytest.raises(DatasetError) as exc:
            read_dataset_file(path)
        assert time.perf_counter() - start < 2.0  # 0.11 to 0.17 s on a 2-vCPU host
        assert "  line 2: field larger than field limit (131072)" in str(exc.value).splitlines()

    @pytest.mark.parametrize("ending, raw", [
        ("\n", b"\xef\xbb\xbfid,score,label\na,1,1\nb,2,0\n"),
        ("\r", b"id,score,label\ra,1,1\rb,2,0\r"),
        # The strict loop reads the block that holds the quote, past the first BLOCK_CHARS
        # characters, and the column path the blocks after it.
        ("\n", ("id,score,label\n" + "".join(f"r{i},0.5,{i % 2}\n" for i in range(5000))
                + '"q",1,1\n' + "".join(f"s{i},0.5,{i % 2}\n" for i in range(5000))).encode()),
    ], ids=["byte-order-mark", "cr", "quoted-block-past-the-first"])
    def test_digest_is_of_the_bytes_parsed_in_one_read(self, tmp_path, monkeypatch, ending, raw):
        # The file is read forward once, and nothing seeks or asks where it stands, so the
        # digest, fed by each read, is of each byte once.
        reads = []

        class Raw(io.FileIO):
            def read(self, size=-1):
                reads.append(super().read(size))
                return reads[-1]

            def seek(self, *args):
                raise AssertionError("seek")

            def tell(self):
                raise AssertionError("tell")

        monkeypatch.setattr(dataset, "open", lambda path, *args, **kwargs: Raw(path),
                            raising=False)
        path = tmp_path / "m.csv"
        path.write_bytes(raw)
        d, digest = read_dataset_file(path)
        assert b"".join(reads) == raw and reads[-1] == b""
        assert digest == hashlib.sha256(raw).hexdigest()
        assert d.size == raw.count(ending.encode()) - 1
        path.write_bytes(raw + f"zz,abc,1{ending}".encode())
        with pytest.raises(DatasetError, match="1 invalid row"):
            read_dataset_file(path)

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_pipe(self, monkeypatch):
        # A pipe is read forward once, as a file is, so a clean one never reaches the strict
        # loop, the digest is of its bytes, and a bad byte in it is placed on its line.
        def read_pipe(raw):
            read_end, write_end = os.pipe()
            os.write(write_end, raw)  # at most 64 KiB, which a pipe holds with no reader
            os.close(write_end)
            try:
                return read_dataset_file(f"/dev/fd/{read_end}", name="p")
            finally:
                os.close(read_end)

        raw = b"\xef\xbb\xbfid,score,label\na,1,1\nb,2,0\n"
        strict = strict_reads(monkeypatch)
        d, digest = read_pipe(raw)
        assert (list(d.scores), list(d.labels)) == ([1.0, 2.0], [1, 0])
        assert digest == hashlib.sha256(raw).hexdigest()
        assert strict == []
        for last, message, issue in [
            (b"zz,\0,1\n", "input holds a NUL byte", "line 4: NUL byte at byte offset 33"),
            (b"zz,\xff,1\n", "input is not valid UTF-8",
             "line 4: undecodable byte 0xff at byte offset 33"),
            # A NUL is reported ahead of an undecodable byte, as from a file, even one
            # too far on for the decoder to have read it.
            (b"zz,\xff,1\n" + b"y,1,1\n" * 4000 + b"zy,1\0,1\n", "input holds a NUL byte",
             "line 4005: NUL byte at byte offset 24041"),
        ]:
            with pytest.raises(DatasetError) as exc:
                read_pipe(raw + last)
            assert str(exc.value) == f"p: {message}\n  {issue}"


class TestColumnSchema:
    """A schema that no stripped header name or cell can match as meant is refused."""

    @pytest.mark.parametrize("kwargs,message", [
        ({"negative_tokens": frozenset({""})}, "negative_tokens: empty or padded ''"),
        ({"positive_tokens": frozenset({" 1 ", "yes", "\tb"})},
         "positive_tokens: empty or padded '\\tb', ' 1 '"),
        ({"id_col": " id "}, "id_col: empty or padded ' id '"),
        ({"label_col": ""}, "label_col: empty or padded ''"),
        ({"id_col": "score"}, "id_col: 'score' is also the score column"),
        ({"label_col": "id"}, "label_col: 'id' is also the id column"),
        ({"id_col": "x", "score_col": "x"}, "id_col: 'x' is also the score column"),
        ({"negative_tokens": frozenset({"YES", "no", "n"}),
          "positive_tokens": frozenset({"yes", "NO"})},
         "negative_tokens: 'YES', 'no' also in the other class"),
        ({"negative_tokens": frozenset({"TRUE"})},
         "negative_tokens: 'TRUE' also in the other class"),
        ({"positive_tokens": frozenset({"False"})},
         "positive_tokens: 'False' also in the other class"),
        ({"delimiter": "\r"}, "delimiter: '\\r' is not one character, or ends a line"),
        ({"delimiter": "\n"}, "delimiter: '\\n' is not one character, or ends a line"),
        ({"delimiter": ";;"}, "delimiter: ';;' is not one character, or ends a line"),
        ({"delimiter": ""}, "delimiter: '' is not one character, or ends a line"),
        ({"delimiter": '"'}, "delimiter: '\"' is the quote character"),
        ({"delimiter": "\0"}, "delimiter: '\\x00' is NUL, which no input file may hold"),
    ])
    def test_unmatchable_schema_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            ColumnSchema(**kwargs)
        assert str(exc.value) == message

    def test_matchable_schemas_accepted(self):
        # The last row repeats the id a, which only a parse of the id column as meant sees.
        yes = frozenset({"Yes", "YES"})
        for schema, text, again in (
            (ColumnSchema(positive_tokens=yes), "id,score,label\na,1,yes\nb,0,0\n", "a,2,0"),
            (ColumnSchema(id_col="score", score_col="id"), "id,score,label\n1,a,1\n0,b,0\n",
             "2,a,0"),
            (ColumnSchema(delimiter="\t"), "id\tscore\tlabel\na\t1\t1\nb\t0\t0\n", "a\t2\t0"),
            (ColumnSchema(delimiter=" "), "id score label\na 1 1\nb 0 0\n", "a 2 0"),
        ):
            d = parse_text(text, schema)
            assert (list(d.scores), list(d.labels)) == ([1.0, 0.0], [1, 0])
            with pytest.raises(DatasetError) as exc:
                parse_text(text + again + "\n", schema)
            assert exc.value.issues == ((4, "duplicate id 'a'"),)


class TestValidate:
    """The counts a dataset carries and the invariants the parser enforces."""

    def test_worked_example_counts(self, worked_datasets):
        d = worked_datasets["s1m1"]
        assert (d.size, d.labels.count(1)) == (6, 3)
        # Its ids are unique, so only a repeated row is refused.
        text = worked_path("s1m1").read_text()
        with pytest.raises(DatasetError) as exc:
            parse_text(text + text.splitlines()[1] + "\n")
        assert exc.value.issues == ((8, "duplicate id '1'"),)

    def test_case_study_counts(self, case_study_dir):
        dataset, _ = read_dataset_file(case_study_dir / "m1.csv")
        assert (dataset.size, dataset.labels.count(1)) == (2091, 414)

    def test_constructed_duplicate(self):
        # The class is permissive; writing it out and parsing it back is not.
        d = make_dataset("dup", [1.0, 2.0], [True, False])
        assert d.size == 2
        with pytest.raises(DatasetError) as exc:
            parse_text(render_csv(["x", "x"], d))
        assert exc.value.issues == ((3, "duplicate id 'x'"),)

    def test_never_throws_on_degenerate_data(self):
        d = make_dataset("empty", [], [])
        assert (d.size, d.labels.count(1)) == (0, 0)
        with pytest.raises(DatasetError, match="zero instances"):
            parse_text(render_csv([], d))


ids = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=",\"'"),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=30,
    unique=True,
)
scores = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    """(ids, dataset) with unique ids."""
    uids = draw(ids)
    rows = [(draw(scores), draw(st.booleans())) for _ in uids]
    return uids, make_dataset("prop", [s for s, _ in rows], [p for _, p in rows])


@given(datasets(), st.data())
@settings(max_examples=100)
def test_render_parse_round_trip(built, data):
    uids, d = built
    parsed = parse_dataset(io.StringIO(render_csv(uids, d)), name="prop")
    assert parsed == d
    # Any id written twice is refused, so every id was read as written.
    again = data.draw(st.sampled_from(uids))
    with pytest.raises(DatasetError) as exc:
        parse_dataset(io.StringIO(render_csv(uids, d) + f"{again},0,0\n"), name="prop")
    assert exc.value.issues == ((len(uids) + 2, f"duplicate id {again!r}"),)


@given(datasets())
@settings(max_examples=100)
def test_parsed_count_matches_data_rows(built):
    text = render_csv(*built)
    rows = text.count("\n") - 1
    assert parse_dataset(io.StringIO(text), name="prop").size == rows


def outcome(parse) -> tuple:
    """The columns a parse gives, or the text and issues of its DatasetError."""
    try:
        d = parse()
    except DatasetError as exc:
        return str(exc), exc.issues
    return d.scores, d.labels


def strict_loop_only():
    """Make the strict row-by-row loop fail, so a test shows it was never run."""
    return mock.patch.object(dataset, "_parse_rows", side_effect=AssertionError("strict loop"))


def strict_reads(monkeypatch) -> list[tuple[int, int]]:
    """Spy on the strict loop: for each call, (the lines before its first, the lines it read,
    from its block and past it)."""
    calls, parse_rows = [], dataset._parse_rows

    def spy(lines, schema, name, state, before, order, rest):
        read = 0

        def counted(lines):
            nonlocal read
            for line in lines:
                read += 1
                yield line

        try:
            got = parse_rows(counted(lines), schema, name, state, before, order, counted(rest))
        finally:
            calls.append((before, read))
        assert got == read, (got, read)
        return got

    monkeypatch.setattr(dataset, "_parse_rows", spy)
    return calls


def column_blocks(monkeypatch) -> list[list[str]]:
    """Spy on the column path: for each call, the text of each read from its source, to the
    "" that ends it.  The strict loop reads on through the same reads to end a record."""
    calls, parse_columns = [], dataset._parse_columns

    def spy(source, *args):
        calls.append(blocks := [])
        read = source.read

        def recorded():
            blocks.append(read())
            return blocks[-1]

        source.read = recorded  # iterating over the source reads through it too
        return parse_columns(source, *args)

    monkeypatch.setattr(dataset, "_parse_columns", spy)
    return calls


@given(
    st.one_of(csv_bytes(True), csv_bytes(False), st.binary(max_size=48)),
    st.sampled_from([1, 2, 3, 7, dataset.BLOCK_CHARS]),
)
# Files whose one fault, an empty or blank id after a good row, the strategies seldom draw.
@example(b"id,score,label\na,1,1\n,2,0\n", 2)
@example(b"id,score,label\na,1,1\n ,2,0\n", 2)
# Lines that end in \r\n, read 6 bytes at a time.
@example(b"id,score,label\r\na,1,1\r\nb,2,0\r\n", 6)
# A block read that stops mid-line, lines that end at \r alone, and quoted fields,
# which csv reads in each block that holds one: a later block (after a byte-order
# mark, which the strict loop must not read again), the header's, and one cut by
# the block read.
@example(b"id,score,label\na,1,1\nb,2,0\n", 7)
@example(b"id,score,label\ra,1,1\rb,2,0\r", 7)
@example(b'id,score,label\na,1,1\n"b",1,1\nc,2,0\n', 1)
@example(b'\xef\xbb\xbfid,score,label\n\xc3\xa9,1,1\n"b",1,1\nc,2,0\n', 3)
@example(b'"id",score,label\n"a",1,1\nb,2,0\n', dataset.BLOCK_CHARS)
@example(b'id,score,label\na,1,1\n"b\nc",1,0\nd,2,0\n', 2)
# str.splitlines() would also end a line at these; csv does not.
@example("id,score,label\na\x85b,1,1\nc\u2028,2,0\n".encode(), 3)
@example("id,score,label\na,1,1\u2028b,2,0\n".encode(), dataset.BLOCK_CHARS)
# Cells past the header's are ignored, so these are one row, not two.
@example(b"id,score,label\na,1,1,b,2,0\n", dataset.BLOCK_CHARS)
# An id longer than csv.field_size_limit().
@example(b"id,score,label\na,1,1\n" + b"x" * 140_000 + b",2,0\n", dataset.BLOCK_CHARS)
# The strict loop reads only the blocks the column path cannot prove, each from its own
# first line: bad rows in several blocks, under \n, \r\n and \r; a good block with a blank
# line, then good blocks; a good block that ends in blank lines, then a bad one; a quote in
# a block after a bad one; and a block whose only fault is an id of an earlier good block,
# or an id given twice within it, which must leave the ids seen as they were before it.
@example(b"id,score,label\na,x,1\nb,1,1\nc,2,z\nd,3,0\ne,,1\n", 1)
@example(b"id,score,label\r\na,1,1\r\nb,x,0\r\nc,2,0\r\nd,3,y\r\ne,4,1\r\n", 3)
@example(b"id,score,label\ra,1,1\rb,x,0\rc,2,0\rd,3,y\re,4,1\r", 3)
@example(b"id,score,label\na,1,1\n\nb,2,0\nc,3,1\nd,4,0\ne,5,1\n", 7)
@example(b"id,score,label\na,1,1\n\n\nb,x,0\n", 7)
@example(b'id,score,label\na,x,1\nb,1,1\n"c",2,0\nd,3,1\n', 2)
@example(b"id,score,label\na,1,1\nb,2,0\nc,3,1\na,4,0\nd,5,1\na,6,0\n", 7)
@example(b"id,score,label\na,1,1\nb,2,0\nc,3,1\nc,4,0\nd,5,1\nc,6,0\n", 7)
# A byte-order mark cut short is not UTF-8, though a utf-8-sig decoder reads it as no text.
@example(b"\xef\xbb", dataset.BLOCK_CHARS)
# A header wider than the configured columns, then rows of 3, 4 and 5 cells: the strict
# loop ignores cells past the configured ones, and reads the rows of other widths.
@example(b"id,score,label,note\na,1,1\nb,2,0,x\nc,3,1,y,z\nd,4,0,w\n", 1)
@example(b"id,score,label,note\na,1,1\nb,2,0,x\nc,3,1,y,z\nd,4,0,w\n", dataset.BLOCK_CHARS)
@example(b"note,label,id,score\nx,1,a\ny,0,b,2\nz,1,c,3,w\n", 3)
# A header split over two lines by a quoted line end, then a bad row: csv reads the header,
# and both readers count on from its two lines.
@example(b'id,"score\n",label\na,1,1\nb,x,0\n', 1)
@example(b'id,"score\r\n",label\r\na,1,1\r\nb,x,0\r\n', dataset.BLOCK_CHARS)
# An id of a column-path block given again after a quote, in the strict loop: both readers
# key ids alike, so both report its line.  Non-ASCII, padded with spaces and with \x1c-\x1f
# (which only str.strip() drops), and equal to the first only once stripped.
@example(b'id,score,label\n\xc3\xa9,1,1\n"b",2,0\n\xc3\xa9,3,1\n', 1)
@example(b'id,score,label\n a ,1,1\n"b",2,0\n  a\t,3,1\n', 1)
@example(b'id,score,label\n\x1ca\x1d,1,1\n"b",2,0\n\x1ea\x1f,3,1\n', 1)
@example(b'id,score,label\na,1,1\n"b",2,0\n \x1ca ,3,1\n', 1)
# The reader takes BLOCK_CHARS bytes a read, so a read's edge falls inside a \r\n (bytes 31
# and 32 at 16, 21 and 22 at 2), a 2-byte \xc3\xa9, a 4-byte character or the byte-order mark.
@example(b"id,score,label\r\na,1,1\r\nbbbb,2,0\r\nc,x,1\r\n", 1)
@example(b"id,score,label\r\na,1,1\r\nbbbb,2,0\r\nc,x,1\r\n", 2)
@example(b"id,score,label\r\na,1,1\r\nbbbb,2,0\r\nc,x,1\r\n", 16)
@example(b"id,score,label\n\xc3\xa9,1,1\nb,2,0\n", 1)
@example(b"id,score,label\n\xc3\xa9,1,1\nb,2,0\n", 2)
@example(b"id,score,label\n\xc3\xa9,1,1\nb,2,0\n", 16)
@example(b"id,score,label\n\xf0\x9f\x98\x80,1,1\nb,2,0\n", 1)
@example(b"id,score,label\n\xf0\x9f\x98\x80,1,1\nb,2,0\n", 2)
@example(b"id,score,label\n\xf0\x9f\x98\x80,1,1\nb,2,0\n", 16)
@example(b"\xef\xbb\xbfid,score,label\na,1,1\nb,2,0\n", 1)
@example(b"\xef\xbb\xbfid,score,label\na,1,1\nb,2,0\n", 2)
@settings(max_examples=1000, deadline=None)
def test_column_path_matches_the_strict_loop(raw, block_chars):
    """A file (read 1, 2, 3 and 7 bytes at a time too) parses as its text
    does in the strict loop, which a list source always takes."""
    with mock.patch.object(dataset, "BLOCK_CHARS", block_chars), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(raw)
        got = outcome(lambda: read_dataset_file(path)[0])
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        text = None
    if text is None or "\0" in text:  # rejected by read_dataset_file before csv sees it
        assert "NUL byte" in got[0] or "not valid UTF-8" in got[0]
        return
    assert got == outcome(lambda: parse_dataset(list(io.StringIO(text, newline="")), name="m"))


@st.composite
def quoted_files(draw) -> str:
    """Rows whose ids, scores and labels may be quoted, an id holding a line end, a comma or
    a doubled quote, under one line end throughout; now and then a row repeats an id."""
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    inner = st.sampled_from(["", "\n", "\r", "\r\n", ",", '""', "\n\n", ' ""x"",\r\n'])

    def cell(text: str, quoted: bool) -> str:
        return f'"{text}"' if quoted else text

    lines = ["id,score,label"]
    for i in range(draw(st.integers(1, 12))):
        uid = f"r{draw(st.integers(0, i))}" if draw(st.integers(0, 9)) == 0 else f"r{i}"
        piece = draw(inner)
        lines.append(",".join([
            cell(uid + piece, bool(piece) or draw(st.booleans())),
            cell(draw(st.sampled_from(["1", "0.25", "-3e-2"])), draw(st.booleans())),
            cell(draw(st.sampled_from(["1", "0", "true"])), draw(st.booleans())),
        ]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@given(quoted_files())
# A quoted line end at the last byte of a 16-byte read, so the record crosses the cut; a
# lone \r in a quoted id under \r line ends; a doubled quote; a quoted header.
@example('id,score,label\nr0,0,1\nr1,1,1\nr2,2,1\n"r3\nnote",3,1\nr4,4,1\n')
@example('id,score,label\r"r0\r",1,1\r"r1\r\r",0,0\rr2,1,1\r')
@example('id,score,label\r\n"r""0""",1,1\r\nr1,"1","0"\r\n')
@example('"id","score","label"\n"a\n",1,1\nb,2,0')
@settings(max_examples=600, deadline=None)
def test_quoted_records_match_the_strict_loop_at_any_block_size(text):
    """A file of quoted records, read at each block size, parses as its text does in the
    strict loop: a record whose line end falls at a cut is read on to its end."""
    strict = outcome(lambda: parse_dataset(list(io.StringIO(text, newline="")), name="m"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(text.encode())
        for block_chars in [1, 2, 3, 7, 16, 64, dataset.BLOCK_CHARS]:
            with mock.patch.object(dataset, "BLOCK_CHARS", block_chars):
                assert outcome(lambda: read_dataset_file(path)[0]) == strict, block_chars


DELIMITERS = [",", "\t", ";", " ", "\u00a7"]


@st.composite
def delimited_files(draw) -> tuple[bytes, str]:
    """A file in any of DELIMITERS, and that delimiter.  Sometimes one row passes its
    last cell to the row above, which then has four cells and leaves two: the file
    has as many delimiters as when each row had three."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    raw = draw(csv_bytes(draw(st.booleans()), delimiter=delimiter))
    text = raw.decode("utf-8")
    ending = next(end for end in ("\r\n", "\r", "\n") if end in text)
    lines = text.split(ending)
    pairs = [i for i in range(1, len(lines) - 1) if delimiter in lines[i + 1]]
    if pairs and draw(st.booleans()):
        i = draw(st.sampled_from(pairs))
        lines[i + 1], cell = lines[i + 1].rsplit(delimiter, 1)
        lines[i] += delimiter + cell
    return ending.join(lines).encode("utf-8"), delimiter


@given(delimited_files(), st.sampled_from([1, 2, 3, 7, 16, dataset.BLOCK_CHARS]))
# The 4-cell and 2-cell rows in one block, and on either side of a block edge; in the
# last file the six cells also read as two good rows of three.
@example((b"id,score,label\na,1,1,x\nb,2\n", ","), dataset.BLOCK_CHARS)
@example((b"id,score,label\na,1,1,x\nb,2\n", ","), 3)
@example((b"id,score,label\na,1,1,5\n0,1\n", ","), dataset.BLOCK_CHARS)
# Ids that only str.strip() makes equal.
@example((b"id;score;label\n\x1ca;1;1\na;2;0\n", ";"), dataset.BLOCK_CHARS)
# As above: bad rows in several blocks, under each line end; a blank line, then good
# blocks; a quote after a bad block; an earlier block's id, and an id given twice in a block.
@example((b"id;score;label\na;x;1\nb;1;1\nc;2;z\nd;3;0\ne;;1\n", ";"), 1)
@example((b"id\tscore\tlabel\r\na\t1\t1\r\nb\tx\t0\r\nc\t2\t0\r\nd\t3\ty\r\n", "\t"), 3)
@example((b"id score label\ra 1 1\rb x 0\rc 2 0\rd 3 y\r", " "), 3)
@example(("id\u00a7score\u00a7label\na\u00a71\u00a71\n\nb\u00a72\u00a70\nc\u00a73\u00a71\n"
          "d\u00a74\u00a70\n".encode(), "\u00a7"), 7)
@example((b'id;score;label\na;x;1\nb;1;1\n"c";2;0\nd;3;1\n', ";"), 2)
@example((b"id;score;label\na;1;1\nb;2;0\nc;3;1\na;4;0\nd;5;1\na;6;0\n", ";"), 7)
@example((b"id;score;label\na;1;1\nb;2;0\nc;3;1\nc;4;0\nd;5;1\nc;6;0\n", ";"), 7)
@settings(max_examples=1000, deadline=None)
def test_column_path_matches_the_strict_loop_in_any_delimiter(file, block_chars):
    """As above, in each delimiter, and with rows whose cell counts cancel out."""
    raw, delimiter = file
    schema = ColumnSchema(delimiter=delimiter)
    with mock.patch.object(dataset, "BLOCK_CHARS", block_chars), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(raw)
        got = outcome(lambda: read_dataset_file(path, schema)[0])
    text = raw.decode("utf-8-sig")
    assert got == outcome(lambda: parse_dataset(list(io.StringIO(text, newline="")), schema, "m"))


@given(csv_bytes(True))
@settings(max_examples=200, deadline=None)
def test_well_formed_files_never_reach_the_strict_loop(raw):
    with tempfile.TemporaryDirectory() as tmp, strict_loop_only():
        path = Path(tmp) / "m.csv"
        path.write_bytes(raw)
        assert read_dataset_file(path)[0].size >= 2


#: Rows that each raise a doubt, or sit next to one, after a good header and row.
DOUBTS = [
    ",1,1", " ,1,1", " , , ", "", "\t", "b,1", "b,1,1,x", "a,2,0", "b,nan,1", "b,-inf,0",
    "b,1e400,1", "b,1_0,1", "b, 1 ,1", "b,0x1,1", "b,1,yes", "b,1, TRUE ", '"b\nc",1,0',
    '"b,1,1', " b ,1,0", "b,1,1\n a,2,0",
]


class TestColumnPath:
    """The column-at-a-time path, and the strict loop reading only the blocks it doubts."""

    @pytest.mark.parametrize("header", [
        "id,score,label", "label,id,score", "id,score", "id,score,label,x", "id,id,score,label",
        " id , score,label",
    ])
    @pytest.mark.parametrize("row", DOUBTS)
    def test_doubts_match_the_strict_loop(self, monkeypatch, header, row):
        text = f"{header}\na,1,1\n{row}\n"
        strict = outcome(lambda: parse_dataset(list(io.StringIO(text, newline=""))))
        columns = column_blocks(monkeypatch)
        assert outcome(lambda: parse_text(text, name="dataset")) == strict
        # Two headers fail before a row is read; after any other, the column path reads on.
        rest = [] if header in ("id,score", "id,id,score,label") else [text.partition("\n")[2]]
        assert ["".join(blocks) for blocks in columns] == rest

    def test_underscore_in_ids_stays_on_the_column_path(self, tmp_path, monkeypatch):
        # `_` is legal in an id; only a score holding one is a doubt.  Padding and case
        # are folded on this path too.  Reads of 16 bytes cut the file after each blank
        # line, which the column path takes at a block's end: no block goes to the strict loop.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 16)
        path = tmp_path / "idioms.csv"
        path.write_text("id,score,label\nkick_the_bucket,0.97, True\n\n read_the_paper ,0.40,0\n\n")
        calls = strict_reads(monkeypatch)
        d, _ = read_dataset_file(path)
        assert list(d.scores) == [0.97, 0.40]
        assert d.labels == bytearray([1, 0])
        assert calls == []
        # Only the stripped id repeats the one above, so the column path must strip it too;
        # the strict loop reads the last block alone, the line that repeats it.
        with path.open("a") as out:
            out.write("read_the_paper,0.1,1\n")
        with pytest.raises(DatasetError) as exc:
            read_dataset_file(path)
        assert exc.value.issues == ((6, "duplicate id 'read_the_paper'"),)
        assert calls == [(5, 1)]

    def test_lone_cr_line_ends_cut_at_each_read(self, tmp_path, monkeypatch):
        # Each one-byte read that is a lone \r ends a line, as the next read shows: the file
        # is cut there, a line a block, and no block goes to the strict loop.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 1)
        blocks, read_blocks = [], dataset._read_blocks
        monkeypatch.setattr(dataset, "_read_blocks",
                            lambda *args: (blocks.append(b) or b for b in read_blocks(*args)))
        path = tmp_path / "cr.csv"
        text = "id,score,label\r" + "".join(f"r{i},{i},1\r" for i in range(40))
        path.write_text(text, newline="")
        calls = strict_reads(monkeypatch)
        d, _ = read_dataset_file(path)
        assert (list(d.scores), calls) == (list(range(40)), [])
        assert blocks == text.splitlines(True)

    def test_bad_last_row_after_a_byte_order_mark(self, tmp_path):
        # The strict loop reads the last block alone, and counts on from the lines before it.
        rows = "".join(f"r{i},0.5,{i % 2}\n" for i in range(5000))
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeffid,score,label\n" + rows + "zz,abc,1\n").encode())
        with pytest.raises(DatasetError) as exc:
            read_dataset_file(path)
        assert exc.value.issues == ((5002, "non-numeric score 'abc'"),)

    def test_lone_surrogates_in_ids(self, monkeypatch):
        # A str may hold a lone surrogate, which no UTF-8 file decodes to, so only the strict
        # loop meets one: it reads a stream of it as a list of its lines, and a repeated one
        # is a duplicate.
        text = "id,score,label\n\ud800,1,1\n\udfff,2,0\n"
        calls, columns = strict_reads(monkeypatch), column_blocks(monkeypatch)
        assert parse_dataset(io.StringIO(text, newline="")) == parse_dataset(text.splitlines(True))
        text += "\ud800,3,1\n"
        for source in [io.StringIO(text, newline=""), text.splitlines(True)]:
            with pytest.raises(DatasetError) as exc:
                parse_dataset(source)
            assert exc.value.issues == ((4, "duplicate id '\\ud800'"),)
        assert (calls, columns) == ([(1, 2), (1, 2), (1, 3), (1, 3)], [])

    def test_generator_source(self):
        lines = (line for line in ["id,score,label\n", "a,1,1\n", "b,2,0\n"])
        d = parse_dataset(lines)
        assert (list(d.scores), list(d.labels)) == ([1.0, 2.0], [1, 0])

    def test_duplicate_in_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 8)
        columns = column_blocks(monkeypatch)
        with pytest.raises(DatasetError) as exc:
            parse_text("id,score,label\na,1,1\nb,2,0\nc,3,1\na,4,0\n")
        assert exc.value.issues == ((5, "duplicate id 'a'"),)
        assert ["".join(blocks) for blocks in columns] == ["a,1,1\nb,2,0\nc,3,1\na,4,0\n"]

    @pytest.mark.parametrize("rows", [2, 3, 4])
    def test_rows_around_a_chunk_edge(self, monkeypatch, rows):
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 8)
        text = "score,label,id\n" + "".join(f"{i},1,r{i}\n" for i in range(rows))
        columns = column_blocks(monkeypatch)
        with strict_loop_only():
            d = parse_text(text)
        assert list(d.scores) == list(range(rows))
        assert list(d.labels) == [1] * rows
        assert ["".join(blocks) for blocks in columns] == [text.partition("\n")[2]]
        with pytest.raises(DatasetError) as exc:
            parse_text(text + "9,0,r0\n")
        assert exc.value.issues == ((rows + 2, "duplicate id 'r0'"),)

    @pytest.mark.parametrize("odd", [" ", " , , ", "b,1,1,x", "b,1e308,1\nc,1e308,0"])
    def test_odd_rows_cost_the_strict_loop_one_block_at_most(self, monkeypatch, odd):
        # The strict loop skips an all-blank row and ignores cells past the header's; it
        # reads the first block, which holds the odd row, and no other.  Scores whose sum
        # overflows are each finite, so their block stays on the column path.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 64)
        text = f"id,score,label\n{odd}\n" + "".join(f"r{i},1,{i % 2}\n" for i in range(40))
        strict = parse_dataset(list(io.StringIO(text, newline="")))
        calls, columns = strict_reads(monkeypatch), column_blocks(monkeypatch)
        assert parse_text(text, name="dataset") == strict
        # The first block is the rest of the first read's lines, after the 15-byte header.
        ((block, *blocks),) = columns
        assert block.startswith(f"{odd}\n") and "".join([block, *blocks]) == text[15:]
        assert len(blocks) > 2  # blocks that follow it, which the strict loop leaves alone
        assert calls == ([] if "e308" in odd else [(1, block.count("\n"))])

    def test_stream_read_from_where_it_stands(self, monkeypatch):
        # Lines are counted from where parsing began, not from the start of the stream.  The
        # strict loop reads every row of a stream.
        stream = io.StringIO("# scores of run 7\nid,score,label\na,1,1\nb,x,0\n", newline="")
        stream.readline()
        calls, columns = strict_reads(monkeypatch), column_blocks(monkeypatch)
        with pytest.raises(DatasetError) as exc:
            parse_dataset(stream)
        assert exc.value.issues == ((3, "non-numeric score 'x'"),)
        assert (calls, columns) == ([(1, 2)], [])

    @pytest.mark.parametrize("text,expected", [
        ("id,score,label\n" + "".join(f'"r{i}",{i},1\n' for i in range(40)), None),
        ("id,score,label\n" + "".join(f"r{i},{i},1\n" for i in range(40)) + '"r40",1,0\n',
         [(40, 2)]),
        ('"id","score","label"\n"a","1","1"\n\n"b\nc",2,0\r\nd,3,1', [(1, 4)]),
        ("id,score,label\nr0,0,1\n" + "".join(f'"r{i}",{i},1\n' if i == 1 else f"r{i},{i},1\n"
                                              for i in range(1, 40)), [(1, 2)]),
        ("id,score,label\n" + "".join(f'"r{i}\nnote",{i},1\n' if i == 3 else f"r{i},{i},1\n"
                                      for i in range(40)), [(3, 3)]),
    ], ids=["every-id", "last-row-only", "header-and-line-end-in-a-field", "line-3-only",
            "line-end-across-a-cut"])
    def test_quoted_fields_are_read_by_csv_from_their_block_on(self, monkeypatch, text,
                                                               expected):
        # A block that holds a quote is a doubt like any other (csv reads the header): the
        # strict loop reads it from its first line, and past its end only the lines of a
        # record still open there.  The column path goes on where that record ended.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 16)
        lines = io.StringIO(text, newline="").readlines()
        strict = parse_dataset(lines)
        calls, columns = strict_reads(monkeypatch), column_blocks(monkeypatch)
        assert parse_text(text, name="dataset") == strict
        (blocks,) = columns
        for before, read in calls:  # each starts at the first line of a quoted block
            assert any('"' in block and "".join(lines[before:]).startswith(block)
                       for block in blocks), (before, read)
        if expected is None:  # every block holds a quote: one call each, read to its end
            expected = [(1 + "".join(blocks[:i]).count("\n"), block.count("\n"))
                        for i, block in enumerate(blocks) if block]
            assert len(expected) > 20
        assert calls == expected
        # The last case's id spans a 16-byte cut: one line after its block closes the record.
        assert any(block.endswith('"r3\n') for block in blocks) == ("note" in text)

    @pytest.mark.parametrize("delimiter", ["\t", " ", "\u00a7"], ids=["tab", "space", "section"])
    def test_other_delimiters_stay_on_the_column_path(self, monkeypatch, tmp_path, delimiter):
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 16)
        schema = ColumnSchema(delimiter=delimiter)
        rows = [("label", "id", "score")] + [(str(i % 2), f"r{i}", repr(i / 7)) for i in range(40)]
        path = tmp_path / "m.csv"
        path.write_text("".join(delimiter.join(row) + "\n" for row in rows), encoding="utf-8")
        with path.open(newline="", encoding="utf-8") as lines:
            strict = parse_dataset(list(lines), schema, name="m")
        assert strict.size == 40
        with strict_loop_only():
            assert read_dataset_file(path, schema)[0] == strict

    def test_crlf_stream_without_universal_newlines_is_read_by_csv(self, monkeypatch):
        # io.StringIO's default leaves \r\n in its lines, which csv takes as line ends;
        # a stream that does not say how it ends lines is split by csv after its header.
        text = "id,score,label\r\na,1,1\r\nb,2,0\r\n"
        strict = parse_dataset(list(io.StringIO(text)))
        calls = strict_reads(monkeypatch)
        assert parse_dataset(io.StringIO(text)) == strict
        assert calls == [(1, 2)]

    @pytest.mark.parametrize("block_chars", [1, 3, 16])
    @pytest.mark.parametrize("row", ["g,7,1\rh,8,0", '"g",7,1'], ids=["cr", "quote"])
    def test_later_block_from_a_stream_without_universal_newlines(self, monkeypatch,
                                                                  block_chars, row):
        # io.StringIO's default splits lines at \n alone and leaves `newlines` unset, so the
        # strict loop reads all of it after the header, whatever the block size, as list()
        # splits it: the \r makes a csv error, not two rows.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", block_chars)
        text = "id,score,label\n" + "".join(f"r{i},{i},{i % 2}\n" for i in range(6)) + row + "\n"
        strict = outcome(lambda: parse_dataset(list(io.StringIO(text))))
        calls = strict_reads(monkeypatch)
        assert outcome(lambda: parse_dataset(io.StringIO(text))) == strict
        assert calls == [(1, 7)]
        assert ("new-line character" in strict[0]) == ("\r" in row)

    def test_a_wider_header_stays_on_the_column_path(self, tmp_path, monkeypatch):
        # Each configured column appears once; the others, wherever they stand, are skipped.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 16)
        path = tmp_path / "m.csv"
        path.write_text("id,score,label,note\n"
                        + "".join(f"r{i},{i / 7!r},{i % 2},seen by {i % 3}\n" for i in range(40)))
        with path.open(newline="") as lines:
            strict = parse_dataset(list(lines), name="m")
        assert strict.size == 40
        with strict_loop_only():
            assert read_dataset_file(path)[0] == strict

    def test_a_quoted_header_stays_on_the_column_path(self, tmp_path, monkeypatch):
        # csv reads the header, so its quotes send no row to the strict loop.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 16)
        path = tmp_path / "m.csv"
        path.write_text('"id","score","label"\n'
                        + "".join(f"r{i},{i / 7!r},{i % 2}\n" for i in range(40)))
        with path.open(newline="") as lines:
            strict = parse_dataset(list(lines), name="m")
        assert strict.size == 40
        with strict_loop_only():
            assert read_dataset_file(path)[0] == strict

    @pytest.mark.parametrize("newline, raw", [
        ("\r", b"id,score,label\ra,1,1\rb,2,0\r"),
        ("\r", b"id,score,label\ra,1,1\nb,2,0\r"),
        ("\r\n", b"id,score,label\r\na,1,1\r\nb,2,0\r\n"),
        ("\r\n", b"id,score,label\r\na,1,1\nb,2,0\r\n"),
        ("\r\n", b"id,score,label\r\na,1,1\nb,2,0"),
    ])
    def test_stream_that_splits_lines_at_cr(self, tmp_path, newline, raw):
        # Such a stream ends its header with \r, and the strict loop reads the rest as the
        # stream splits it; a \n split would make two rows of "a,1,1\nb,2,0", or one of
        # "a,1,1\rb,2,0\r".
        path = tmp_path / "m.csv"
        path.write_bytes(raw)
        with open(path, newline=newline) as stream:
            strict = outcome(lambda: parse_dataset(list(stream)))
        with open(path, newline=newline) as stream:
            assert outcome(lambda: parse_dataset(stream)) == strict

    @pytest.mark.parametrize("newline, raw", [
        ("\n", b"id,score,label\na,1,1\rb,2,0\n"),
        ("\r", b"id,score,label\na,1,1\nb,2,0\n"),
        ("\r\n", b"id,score,label\na,1,1\nb,2,0\n"),
    ])
    def test_stream_without_universal_newlines(self, tmp_path, newline, raw):
        # csv rejects a line end that such a stream leaves inside a line.
        path = tmp_path / "m.csv"
        path.write_bytes(raw)
        with open(path, newline=newline) as stream:
            strict = outcome(lambda: parse_dataset(list(stream)))
            stream.seek(0)
            assert outcome(lambda: parse_dataset(stream)) == strict
        assert "new-line character seen in unquoted field" in strict[0]

    def test_read_error_is_raised(self, tmp_path, monkeypatch):
        # A read that fails mid-file is raised, not taken for an end of input or a doubt.
        reads = []

        class Failing(io.FileIO):
            """A file whose reads fail from the third on."""

            def read(self, size=-1):
                reads.append(size)
                if len(reads) > 2:
                    raise OSError(5, "Input/output error")
                return super().read(size)

        monkeypatch.setattr(dataset, "BLOCK_CHARS", 16)
        monkeypatch.setattr(dataset, "open", lambda path, *args, **kwargs: Failing(path),
                            raising=False)
        path = tmp_path / "m.csv"
        path.write_text("id,score,label\n" + "".join(f"r{i},1,0\n" for i in range(40)))
        columns = column_blocks(monkeypatch)
        with pytest.raises(OSError, match="Input/output error"):
            read_dataset_file(path)
        assert (reads, columns) == ([16] * 3, [["r0,1,0\nr1,1,0\n"]])

    def test_text_file_that_next_has_started(self, tmp_path, monkeypatch):
        # tell() fails on such a file, but the parse never asks: the strict loop reads on.
        path = tmp_path / "m.csv"
        path.write_text("# scores of run 7\nid,score,label\na,1,1\n")
        calls, columns = strict_reads(monkeypatch), column_blocks(monkeypatch)
        with open(path, newline="") as stream:
            next(stream)
            d = parse_dataset(stream)
        assert (list(d.scores), list(d.labels)) == ([1.0], [1])
        assert (calls, columns) == ([(1, 1)], [])

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_only_read_dataset_file_feeds_the_column_path(self, tmp_path, monkeypatch):
        # Text streams, whatever their newline and started or not, and lists are read row by
        # row; a file or a pipe that read_dataset_file reads, in blocks.
        text = "id,score,label\na,1,1\nb,2,0\n"
        path, started = tmp_path / "m.csv", tmp_path / "started.csv"
        path.write_text(text)
        started.write_text("# scores of run 7\n" + text)
        expected = parse_dataset(text.splitlines(True), name="m")
        columns = column_blocks(monkeypatch)
        sources = [io.StringIO(text), io.StringIO(text, newline=""), text.splitlines(True)]
        with contextlib.ExitStack() as files:
            for newline in [None, ""]:
                sources += [files.enter_context(open(p, newline=newline)) for p in (path, started)]
                next(sources[-1])
            for source in sources:
                assert parse_dataset(source, name="m") == expected
        assert columns == []
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())
        os.close(write_end)
        try:
            assert read_dataset_file(f"/dev/fd/{read_end}", name="m")[0] == expected
        finally:
            os.close(read_end)
        assert read_dataset_file(path)[0] == expected
        assert columns == [["a,1,1\nb,2,0\n", ""]] * 2


def file_outcome(text: str, ids: bytearray | None = None) -> tuple:
    return outcome(lambda: parse_text(text, name="m", ids=ids))


@given(edited_inputs(), st.sampled_from([1, 2, 3, 7, 16, dataset.BLOCK_CHARS]))
# The same ids in order, at block edges of their own; one renamed at the end, where only a
# block's last id differs; a prefix of the first id, which must not be taken for it, then
# that id again; one that repeats an id of an earlier block; and a fault after a followed
# prefix, which the strict loop reads against the ids so far.
@example(["id,score,label\na,1,1\nb,2,0\nc,3,1\n", "id,score,label\na,10,1\nb,2,0\nc,30,1\n"], 7)
@example(["id,score,label\na,1,1\nb,2,0\nc,3,1\n", "id,score,label\na,1,1\nb,2,0\ncc,3,1\n"],
         dataset.BLOCK_CHARS)
@example(["id,score,label\nab,1,1\nc,2,0\nd,3,1\n", "id,score,label\na,1,1\nc,2,0\na,3,1\n"], 1)
@example(["id,score,label\na,1,1\nb,2,0\nc,3,1\n", "id,score,label\na,1,1\nb,2,0\na,3,1\n"], 7)
@example(["id,score,label\na,1,1\nb,2,0\nc,3,1\n", "id,score,label\na,1,1\nb,x,0\na,3,1\n"], 1)
@settings(max_examples=500, deadline=None)
def test_later_inputs_parse_as_they_do_alone(texts, block_chars):
    """A later input read with the ids of the first gives what it gives alone (its dataset,
    or its error and issues), and filling the buffer changes nothing of the first's."""
    first, *later = texts
    ids = bytearray()
    with mock.patch.object(dataset, "BLOCK_CHARS", block_chars):
        assert file_outcome(first, ids) == file_outcome(first)
        rows = first.replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:-1]
        held = "".join(row.rsplit(",", 2)[0].strip() + "\n" for row in rows)
        assert ids == held.encode()  # the column path took every row
        for text in later:
            assert file_outcome(text, ids) == file_outcome(text)
            assert ids == held.encode()


class TestRepeatedIds:
    """Later inputs that repeat the first input's ids in order need no id set."""

    def test_the_buffer_is_a_keyword_that_one_input_fills(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,score,label\n a ,1,1\nb,2,0\n")
        with pytest.raises(TypeError):
            read_dataset_file(path, ColumnSchema(), "m", bytearray())
        with pytest.raises(TypeError):  # read_dataset_file alone takes one
            parse_dataset(["id,score,label\n", "c,1,1\n"], ids=bytearray())
        ids = bytearray()
        read_dataset_file(path, ids=ids)
        assert ids == b"a\nb\n"
        path.write_text("id,score,label\nc,1,1\n")
        read_dataset_file(path, ids=ids)
        assert ids == b"a\nb\n"  # later inputs follow the first and add nothing
        read_dataset_file(path, ids=None)

    def test_a_first_input_read_row_by_row_leaves_the_buffer_to_the_next(self, monkeypatch):
        ids = bytearray()
        parse_text('id,score,label\n"a",1,1\nb,2,0\n', ids=ids)
        assert ids == b""
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 1)
        columns = column_blocks(monkeypatch)
        with pytest.raises(DatasetError):
            parse_text("id,score,label\na,1,1\nb,x,0\nc,2,0\n", ids=ids)
        assert ids == b"a\nc\n"  # the strict loop's block is skipped: c is still distinct
        assert columns == [["a,1,1\n", "b,x,0\n", "c,2,0\n", ""]]

    @pytest.mark.parametrize("line", ["r1,5,0", "r1,x,0", '"r1",5,0'])
    def test_an_earlier_id_after_a_followed_prefix(self, monkeypatch, line):
        # The blocks before it follow the buffer; its block is the first that does not, or
        # a doubted one, so the ids so far go into the set that finds it, on its line.  The
        # strict loop checks ids first, so a bad score or a quote is found as a duplicate.
        monkeypatch.setattr(dataset, "BLOCK_CHARS", 16)
        rows = [f"r{i},{i},{i % 2}\n" for i in range(40)]
        ids = bytearray()
        parse_text("id,score,label\n" + "".join(rows), ids=ids)
        rows.insert(30, line + "\n")
        text = "id,score,label\n" + "".join(rows)
        calls, columns = strict_reads(monkeypatch), column_blocks(monkeypatch)
        with pytest.raises(DatasetError) as exc:
            parse_text(text, ids=ids)
        assert exc.value.issues == ((32, "duplicate id 'r1'"),)
        assert "".join(columns[0]) == "".join(rows)
        assert outcome(lambda: parse_text(text)) == outcome(lambda: parse_text(text, ids=ids))
        (before, read), = calls[:1]
        assert 0 < before < 32 <= before + read

    def test_a_later_input_that_repeats_the_ids_builds_no_set(self, tmp_path):
        # Traced, a read that follows the buffer makes no id bytes and no set: it peaks at
        # under half of the read that makes them.
        path = tmp_path / "m.csv"
        path.write_text("id,score,label\n" + "".join(f"r{i:07d},{i % 997 / 997},{i % 2}\n"
                                                     for i in range(10**5)))
        ids = bytearray()
        alone = read_dataset_file(path, ids=ids)
        assert len(ids) == 9 * 10**5

        def traced(**kwargs) -> int:
            tracemalloc.start()
            try:
                assert read_dataset_file(path, **kwargs) == alone
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain, following = traced(), traced(ids=ids)
        assert following < plain / 2, (following, plain)
