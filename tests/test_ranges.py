"""read_table in line-aligned byte ranges against the one-process parse.

A record file of more than one range is parsed a range per forked worker and
merged in file order; the table, its key order, the rejects and
AllRowsRejected must be exactly those of one csv pass over the whole file.
The merge is driven in-process through _read_ranges with explicit bounds and
no worker, and the forked path with real workers, each reaped before
read_table returns or raises.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import flowanomaly
from flowanomaly import recordio
from flowanomaly.cli import run_command
from flowanomaly.errors import AllRowsRejected, UnreadableInput
from flowanomaly.recordio import RECORD_HEADER, _read_ranges, _split_points, read_table

HEADER = ",".join(RECORD_HEADER).encode()
GOOD = [
    b"r1,s1,a,b,0,100,500", b"r2,s1,b,c,10,130,600", b"r3,s2,a,c,5,300,1100",
    b"r4,s2,c,d,1e3,1.2e3,700", b"r5,s3,d,e,2020-01-01T00:00:00Z,2020-01-01T00:02:00+00:00,900",
    b"r6,s1,a,b,2020-01-01T01:00:00+02:00,2020-01-01T01:01:30+02:00,500",
    b"\xc3\xa9t\xc3\xa9,s3,e,d,0,60,400", b"  r7 ,s2, a ,b,0,50,300",
]
BAD = [
    b"r1,s1,a,b,0,100",  # a field short
    b",s1,a,b,0,100,500",  # empty record id
    b"r 1,s1,a,b,0,100,500",  # whitespace inside a field
    b"r1,s1,a,b,x,100,500",  # unparseable time
    b"r1,s1,a,b,2020-01-01T00:00:00,2020-01-01T00:01:00,500",  # no UTC offset
    b"r1,s1,a,b,nan,100,500",
    b"r1,s1,a,b,-1e300,100,500",  # outside years 1-9999
    b"r1,s1,a,b,0,100,inf",
    b"r1,s1,a,b,0,100,1e9",  # longer than the equator
    b"r1,s1,a,a,0,100,500",  # origin is destination
    b"r1,s1,a,b,100,0,500",  # ends before it starts
    b"r1,s1,a,b,0,100,-5",
    b"\xff\xfe,s1,a,b,0,100,500",  # not UTF-8
    b"\xe2\x82r1,s1,a,b,0,100,500",  # a cut UTF-8 sequence just after a line start
    b"r1,s1,a,b,0,100,500\xe2\x82",  # ... and just before a line end
    b"r\x001,s1,a,b,0,100,500",  # a NUL byte
    b"big,s1,a,b,0,100," + b"9" * 131_073,  # past csv's field size limit
    b"", b"   ",  # blank lines
]
ENDS = [b"\n", b"\r\n", b"\r"]


@st.composite
def record_files(draw, quotes=False):
    """A record file of good, bad and blank rows with mixed line ends, as bytes."""
    header = draw(st.sampled_from([HEADER] * 8 + [b"record_id,board_stop", b""]))
    lines = [header] + draw(st.lists(st.sampled_from(GOOD + BAD), max_size=30))
    if quotes and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = b'"' + lines[i]
    ends = draw(st.lists(st.sampled_from(ENDS), min_size=len(lines), max_size=len(lines)))
    data = b"".join(line + end for line, end in zip(lines, ends))
    return data[:len(data) - draw(st.sampled_from([0, 0, len(ends[-1])]))]  # maybe no last end


def in_process(path, bounds):
    """_read_ranges with every range parsed here, as when no worker can start."""
    def no_fork(*args):
        raise OSError("no fork")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recordio, "_fork_range", no_fork)
        return outcome(lambda: _read_ranges(str(path), bounds))


def outcome(parse):
    """A parse's table (floats as bytes) and rejects, or the error it raised."""
    try:
        table, rejects = parse()
    except (AllRowsRejected, UnreadableInput) as exc:
        return type(exc), str(exc)
    return (table.record_ids, table.keys, table.key_of, table.t_start.tobytes(),
            table.t_end.tobytes(), table.distance.tobytes(), rejects)


def one_process(path):
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return outcome(lambda: read_table(fh))


def line_starts(data):
    """Offsets just after each `\\n` inside the data: where a range may begin."""
    return [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("ranges")


def assert_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=300, deadline=None)
@given(data=record_files(), cuts=st.data())
def test_ranges_merge_to_the_one_process_parse(workdir, data, cuts):
    path = workdir / "records.csv"
    path.write_bytes(data)
    starts = line_starts(data)
    drawn = cuts.draw(st.lists(st.sampled_from(starts), unique=True, max_size=4)) if starts else []
    bounds = [0, *sorted(drawn), len(data)]
    assert in_process(path, bounds) == one_process(path)


@settings(max_examples=200, deadline=None)
@given(data=record_files(quotes=True))
def test_split_points_end_ranges_after_a_newline_and_keep_quotes_whole(workdir, data):
    path = workdir / "split.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recordio, "_RANGE_MIN_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        bounds = _split_points(str(path))
    if b'"' in data:
        assert bounds is None
    if bounds is None:
        return
    assert bounds[0] == 0 and bounds[-1] == len(data) and len(bounds) > 2
    assert bounds == sorted(set(bounds))
    assert all(data[b - 1:b] == b"\n" for b in bounds[1:-1])
    assert in_process(path, bounds) == one_process(path)


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="needs os.fork")


@pytest.fixture
def one_thread():
    """Skip where this process has more threads than its own, which read_table
    would not fork, nor should a test."""
    if len(os.listdir("/proc/self/task")) > 1:
        pytest.skip("this process has more than one thread")


def write_lines(path, lines):
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


def mixed_rows(n):
    rows = GOOD + [b"r1,s1,a,b,x,100,500", b"", b"\xff\xfe,s1,a,b,0,100,500\r", b"r\x001,s1,a,b,0,1,2"]
    return [rows[(i * 7) % len(rows)] for i in range(n)]


@needs_fork
def test_read_table_forks_a_worker_per_range_and_reaps_them(tmp_path, monkeypatch,
                                                           one_thread):
    forks, fork_range = [], recordio._fork_range

    def counted(*args):
        forks.append(args)
        return fork_range(*args)

    path = write_lines(tmp_path / "records.csv", [HEADER] + mixed_rows(1500))
    monkeypatch.setattr(recordio, "_RANGE_MIN_BYTES", 8192)  # a file of 4 or more ranges
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(recordio, "_fork_range", counted)
    assert _split_points(path) is not None
    assert outcome(lambda: read_table(path)) == one_process(path)
    assert len(forks) == 3
    assert_reaped()


@needs_fork
def test_all_rows_rejected_counts_the_rows_of_every_range(tmp_path, one_thread):
    path = write_lines(tmp_path / "records.csv",
                       [HEADER] + [b"r1,s1,a,b,x,100,500", b""] * 800)
    bounds = [0, *line_starts(Path(path).read_bytes())[300::300], os.path.getsize(path)]
    with pytest.raises(AllRowsRejected) as info:
        _read_ranges(path, bounds)
    assert str(info.value) == one_process(path)[1]
    assert "800" in str(info.value)
    assert_reaped()


@needs_fork
@pytest.mark.parametrize("death", ["exit", "raise"])
def test_a_worker_that_dies_has_its_range_parsed_by_the_parent(tmp_path, monkeypatch, death,
                                                               one_thread):
    path = write_lines(tmp_path / "records.csv", [HEADER] + mixed_rows(1500))
    parent, parse_range = os.getpid(), recordio._parse_range

    def dying(*args):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(0)
            raise MemoryError
        return parse_range(*args)

    monkeypatch.setattr(recordio, "_parse_range", dying)
    size = os.path.getsize(path)
    bounds = [0, *line_starts(Path(path).read_bytes())[400::400], size]
    assert len(bounds) > 3
    assert outcome(lambda: _read_ranges(path, bounds)) == one_process(path)
    assert_reaped()


@pytest.mark.parametrize("message", [b"", b"\x05", (100).to_bytes(8, "little") + b"short"])
def test_a_short_message_is_no_range(message):
    read_fd, write_fd = os.pipe()
    os.write(write_fd, message)
    os.close(write_fd)
    assert recordio._receive(read_fd) is None


@needs_fork
def test_a_bad_header_kills_and_reaps_the_workers(tmp_path, one_thread):
    path = write_lines(tmp_path / "records.csv", [b"record_id,board_stop"] + mixed_rows(1500))
    bounds = [0, *line_starts(Path(path).read_bytes())[500::500], os.path.getsize(path)]
    with pytest.raises(UnreadableInput, match="bad header"):
        _read_ranges(path, bounds)
    assert_reaped()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two CPUs and sched_setaffinity")
def test_detect_on_one_cpu_and_on_all_writes_the_same_bytes(tmp_path):
    rec_path, routes, model = tmp_path / "records.csv", tmp_path / "routes.csv", tmp_path / "m.txt"
    assert run_command(["simulate", "--out-records", str(rec_path), "--out-truth",
                        str(tmp_path / "truth.csv"), "--services", "3", "--stops", "6",
                        "--n-records", "9000", "--seed", "4"]) == 0
    lines = rec_path.read_bytes().splitlines()
    for i in range(len(lines) - 1, 1, -997):  # bad and blank rows in every range
        lines[i:i] = [b"bad,s00,x,y,zz,1,2", b"", lines[i].replace(b",", b",,", 1)]
    rec_path.write_bytes(b"\n".join(lines) + b"\n")
    assert os.path.getsize(rec_path) >= 2 * recordio._RANGE_MIN_BYTES
    assert run_command(["infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                        "--out-rejects", str(tmp_path / "rej.csv")]) == 0
    assert run_command(["train", "--records", str(rec_path), "--routes", str(routes),
                        "--out-model", str(model)]) == 0
    src = str(Path(flowanomaly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for cpus in ("{min(os.sched_getaffinity(0))}", "os.sched_getaffinity(0)"):
        out = tmp_path / f"scored{len(runs)}.csv"
        script = (f"import os, sys\nos.sched_setaffinity(0, {cpus})\n"
                  "from flowanomaly.cli import run_command\nsys.exit(run_command(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "detect", "--records", str(rec_path), "--routes",
             str(routes), "--model", str(model), "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, proc.stderr, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][1].count(b"reject line=") == 20
