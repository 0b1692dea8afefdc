"""Fuzzed routes, scored and model files.

Each reader either returns or raises ValueError or FlowError, whatever the
text; detect and localize on a fuzzed file exit 0, or exit 2 with one
`error:` line, and never raise. The fuzz mutates valid files line by line and
field by field, since text from scratch rarely gets past a header check.
"""

import contextlib
import io
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from flowanomaly.cli import run_command
from flowanomaly.errors import FlowError
from flowanomaly.models import load_model
from flowanomaly.recordio import (
    RECORD_HEADER,
    ROUTES_HEADER,
    SCORED_HEADER,
    read_lines,
    read_routes,
    read_significant,
)

ROUTES = ROUTES_HEADER + "\n" + (
    "s1,0,a,0\ns1,1,b,400\ns1,2,c,1000\ns1,3,d,1500\ns2,0,b,0\ns2,1,c,600\ns2,2,e,1100\n"
)
RECORDS = ",".join(RECORD_HEADER) + "\n" + (
    "r1,s1,a,d,0,200,1500\nr2,s1,b,c,60,120,600\nr3,s1,a,c,10,150,1000\n"
    "r4,s2,b,e,0,170,1100\nr5,s2,b,c,20,80,600\nr6,s1,c,d,130,190,500\n"
)
MODEL = "model edge sigma2=0.5\nseg a b 8\nseg b c 10\nseg c d 9\nseg c e 12\n"
SCORED = "# delta=0.5\n" + SCORED_HEADER + "\n" + (
    "r1,s1,a,d,0,200,200,170,2.1,1\nr2,s1,b,c,60,120,60,60,0.7,1\n"
    "r3,s1,a,c,10,150,140,110,1.9,1\nr4,s2,b,e,0,170,170,100,3.4,1\n"
    "r5,s2,b,c,20,80,60,40,0.9,1\nr6,s1,c,d,130,190,60,55,0.1,0\n"
)

NASTY = ["", " ", "nan", "inf", "-inf", "-1", "0", "-0", "1e400", "5e-324", "1e308",
         "x", "a", "b", "s1", "s2", "1", "#", "\t", " ", "\x00", "é", "1,2"]
field_text = st.one_of(st.sampled_from(NASTY), st.text(max_size=6),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr))


@st.composite
def mutated(draw, text):
    """text after one to four line or field edits, with a chosen line ending."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["field", "field", "drop", "dup", "insert"]))
        i = draw(st.integers(0, max(0, len(lines) - 1)))
        if op == "insert" or not lines:
            lines.insert(i, draw(st.one_of(field_text, st.text(max_size=30))))
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            sep = "," if "," in lines[i] else " "
            parts = lines[i].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(field_text)
            lines[i] = sep.join(parts)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def file_bytes(text):
    return st.tuples(mutated(text), st.booleans()).map(
        lambda t: t[0].encode("utf-8") + (b"\xff\n" if t[1] else b""))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in (("routes.csv", ROUTES), ("records.csv", RECORDS),
                       ("model.txt", MODEL), ("scored.csv", SCORED)):
        (d / name).write_text(text)
    return d


def run(workdir, command, files):
    """Run detect or localize with the seed files, each named one replaced by its bytes."""
    paths = {}
    for name in ("routes.csv", "records.csv", "model.txt", "scored.csv"):
        paths[name] = workdir / name
        if name in files:
            paths[name] = workdir / f"fuzzed-{name}"
            paths[name].write_bytes(files[name])
    if command == "detect":
        argv = ["detect", "--records", paths["records.csv"], "--routes", paths["routes.csv"],
                "--model", paths["model.txt"], "--out", workdir / "out-scored.csv",
                "--delta-quantile", "0.3"]
    else:
        argv = ["localize", "--scored", paths["scored.csv"], "--routes", paths["routes.csv"],
                "--out-report", workdir / "out-report.csv", "--out-daily", workdir / "out-daily.csv"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def test_the_seed_files_run_clean(workdir):
    assert run(workdir, "detect", {})[0] == 0
    assert run(workdir, "localize", {})[0] == 0
    assert len(list(read_significant(str(workdir / "scored.csv")))) == 5


def read_fuzzed(workdir, name, data, reader):
    path = workdir / f"fuzzed-{name}"
    path.write_bytes(data)
    try:
        reader(str(path))
    except (ValueError, FlowError):
        pass


@settings(max_examples=300, deadline=None)
@given(file_bytes(ROUTES))
def test_read_routes(workdir, data):
    read_fuzzed(workdir, "routes.csv", data, read_routes)


@settings(max_examples=300, deadline=None)
@given(file_bytes(SCORED))
def test_read_significant(workdir, data):
    read_fuzzed(workdir, "scored.csv", data, lambda path: list(read_significant(path)))


@settings(max_examples=300, deadline=None)
@given(file_bytes(MODEL))
def test_load_model(workdir, data):
    read_fuzzed(workdir, "model.txt", data, load_model)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just("detect"), st.just("routes.csv"), file_bytes(ROUTES)),
    st.tuples(st.just("detect"), st.just("model.txt"), file_bytes(MODEL)),
    st.tuples(st.just("localize"), st.just("routes.csv"), file_bytes(ROUTES)),
    st.tuples(st.just("localize"), st.just("scored.csv"), file_bytes(SCORED)),
))
def test_cli_end_to_end(workdir, case):
    command, name, data = case
    code, out, err = run(workdir, command, {name: data})
    assert code in (0, 2), err
    errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
    if code == 2:
        assert errors and err.splitlines()[-1] == errors[0] and len(errors) == 1, err
        assert out == ""
    else:
        assert not errors
    assert run(workdir, command, {name: data}) == (code, out, err)  # deterministic


@pytest.mark.parametrize("rows", [
    ["s1,0,a,0", "s1,0,b,100", "s1,5,c,250"],  # a repeat and a gap
    ["s1,0,a,0", "s1,2,b,100"],  # a gap
    ["s1,1,a,0", "s1,2,b,100"],  # not from 0
    ["s1,0,a,0", "s1,1,b,100", "s1,1,c,250"],  # a repeat
])
def test_routes_seq_must_run_from_zero_without_gap_or_repeat(tmp_path, rows):
    path = tmp_path / "routes.csv"
    path.write_text("\n".join([ROUTES_HEADER, "s0,0,x,0", "s0,1,y,50", *rows]) + "\n")
    with pytest.raises(ValueError) as info:
        read_routes(str(path))
    assert str(info.value) == (f"service 's1' in {str(path)!r}: seq must run 0, 1, 2, ... "
                               "with no gap or repeat")


@pytest.mark.parametrize("text, line", [
    (MODEL + "seg a b 7\n", "seg a b 7"),
    ("model baseline2 sigma2=0.5\nglobal 9\npath a>b 5\npath a>b 7\n", "path a>b 7"),
], ids=["seg", "path"])
def test_model_key_may_not_repeat(tmp_path, text, line):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_model(str(path))
    assert str(info.value) == f"bad model line: {line!r}: repeats a {line.split()[0]} key"


def whole_file_read_significant(path):
    """The reader that read and split every line of the file first: the reference."""
    body = [ln for ln in read_lines(path) if ln and not ln.startswith("#")]
    if not body or body[0] != SCORED_HEADER:
        raise ValueError(f"bad scored-file header in {path!r}")
    for ln in body[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise ValueError(f"bad scored row: {ln!r}")
        if parts[9] == "1":
            yield (*parts[:4], float(parts[4]), float(parts[5]), float(parts[7]),
                   float(parts[8]))


def outcome(reader, path):
    """The rows a reader yields, by repr (a nan row equals itself), then its error."""
    rows = []
    try:
        for row in reader(path):
            rows.append(repr(row))
    except ValueError as exc:
        return rows, f"{type(exc).__name__}: {exc}"
    return rows, None


# Every break str.splitlines() knows; "\r" and "\r\n" are read as "\n".
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
COMMENTS = ["", "#", "# delta=0.5"]
scored_line = st.one_of(
    st.sampled_from(SCORED.splitlines()[2:]),  # flagged and unflagged rows, drawn
    st.sampled_from(SCORED.splitlines()[2:]),  # twice as often as each other kind
    st.sampled_from(COMMENTS),
    st.sampled_from([" ", SCORED_HEADER, "r7,s1,a,c,0,1,1,1,nan,1", "r8,s1,a,c,0,1,1,1,x,1",
                     "r9,s1,a,c,0,1,1,1,2.5", "a,b,c,d,e,f,g,h,i,j,1",
                     "r1,s1,a,d,0,200,200,170,2.1,1 "]),
    st.text(alphabet=st.sampled_from("01,#xa.\t \r\n\x85"), max_size=24),
)


@st.composite
def scored_file(draw):
    """Comments, blanks, good and bad rows after a header, joined by any break,
    now and then without the header or with a byte that is not UTF-8."""
    lines = draw(st.lists(st.sampled_from(COMMENTS), max_size=3))
    if draw(st.integers(0, 5)):
        lines.append(SCORED_HEADER)
    lines += draw(st.lists(scored_line, max_size=12))
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    data = text.encode("utf-8")
    if not draw(st.integers(0, 5)):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=400, deadline=None)
@given(scored_file())
def test_streaming_reader_matches_whole_file_reader(workdir, data):
    path = workdir / "streamed-scored.csv"
    path.write_bytes(data)
    assert outcome(read_significant, str(path)) == outcome(whole_file_read_significant, str(path))


def test_bad_row_past_the_first_block_raises_after_the_rows_before_it(tmp_path):
    path = tmp_path / "scored.csv"
    rows = [f"r{i},s1,a,c,0,{i + 1},1,1,{i},{i % 2}" for i in range(2000)]
    path.write_text("\n".join([SCORED_HEADER, *rows, "r,s1,a,c,0,1,1,1,1", *rows]) + "\n")
    rows_read, error = outcome(read_significant, str(path))
    assert (rows_read, error) == outcome(whole_file_read_significant, str(path))
    assert len(rows_read) == 1000 and error.startswith("ValueError: bad scored row")


def test_memory_follows_the_flagged_rows_not_the_file(tmp_path):
    path = tmp_path / "scored.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# delta=2\n{SCORED_HEADER}\n")
        for i in range(100_000):  # 1% flagged
            flag = int(i % 100 == 0)
            fh.write(f"r{i:06d},s01,n{i % 7:02d},n{i % 7 + 3:02d},{i}.25,{i + 90}.5,"
                     f"90.25,80.5,{1.5 + flag},{flag}\n")
    tracemalloc.start()
    try:
        rows = list(read_significant(str(path)))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 1000
    # the file's lines as strings take about 10 MB; the flagged rows held, under 1 MB
    assert held < 1 << 20
    assert peak < held + (256 << 10), (held, peak)
