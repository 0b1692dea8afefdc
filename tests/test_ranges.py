"""read_table in line-aligned byte ranges against the one-process parse.

A record file of more than one range is parsed a range per forked worker and
merged in file order; the table, its key order, the rejects and
AllRowsRejected must be exactly those of one csv pass over the whole file.
The merge is driven through _read_ranges with explicit bounds and real
workers, each killed and reaped before it returns or raises. A worker that
cannot start, dies or sends less than it announced means a whole-file parse
in the process, and a file of one range, a pipe included, is parsed there too.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="needs os.fork")


@pytest.fixture
def one_thread():
    """Skip where this process has more threads than its own, which read_table
    would not fork, nor should a test."""
    if len(os.listdir("/proc/self/task")) > 1:
        pytest.skip("this process has more than one thread")


def parent_parses(mp):
    """Have _parse_range note each (start, end) that this process parses; the notes."""
    parsed, parent, parse_range = [], os.getpid(), recordio._parse_range

    def noted(path, start, end):
        if os.getpid() == parent:
            parsed.append((start, end))
        return parse_range(path, start, end)

    mp.setattr(recordio, "_parse_range", noted)
    return parsed


def forked(path, bounds):
    """_read_ranges with a real worker for each range after the first; checks
    that it forked them all and parsed only the first range itself, so that the
    ranges were merged, and that every worker was reaped."""
    forks, fork_range = [], recordio._fork_range

    def counted_fork(*args):
        forks.append(args)
        return fork_range(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recordio, "_fork_range", counted_fork)
        parsed = parent_parses(mp)
        result = outcome(lambda: _read_ranges(str(path), bounds))
    assert len(forks) == len(bounds) - 2
    assert parsed == [tuple(bounds[:2])]
    assert_reaped()
    return result


# one_thread holds no state, so hypothesis may share it across examples
forking_examples = settings(deadline=None,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


@needs_fork
@settings(forking_examples, max_examples=300)
@given(data=record_files(), cuts=st.data())
def test_ranges_merge_to_the_one_process_parse(workdir, one_thread, data, cuts):
    path = workdir / "records.csv"
    path.write_bytes(data)
    starts = line_starts(data)
    drawn = cuts.draw(st.lists(st.sampled_from(starts), unique=True, max_size=4)) if starts else []
    bounds = [0, *sorted(drawn), len(data)]
    assert forked(path, bounds) == one_process(path)


@needs_fork
@settings(forking_examples, max_examples=200)
@given(data=record_files(quotes=True))
def test_split_points_end_ranges_after_a_newline_and_keep_quotes_whole(workdir, one_thread, data):
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
    assert forked(path, bounds) == one_process(path)


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
    # no length, part of one, or fewer bytes than announced: _read_ranges parses the file
    read_fd, write_fd = os.pipe()
    os.write(write_fd, message)
    os.close(write_fd)
    with open(read_fd, "rb") as fh, pytest.raises(EOFError):
        recordio._message(fh)


class Overlong(bytes):
    """A message whose announced length is one byte more than it holds."""

    def __len__(self):
        return super().__len__() + 1


@needs_fork
@pytest.mark.parametrize("sent", [*range(7), "short"])
def test_a_worker_that_sends_less_than_it_announced_means_a_whole_file_parse(
        tmp_path, monkeypatch, sent, one_thread):
    # the first worker's messages stop after message `sent`, or its last is a byte short
    path = write_lines(tmp_path / "records.csv", [HEADER] + mixed_rows(1500))
    bounds = [0, *line_starts(Path(path).read_bytes())[500::500], os.path.getsize(path)]
    assert len(bounds) == 4
    fork_range, messages, cut = recordio._fork_range, recordio._messages, {}

    def marked_fork(path, start, end):
        cut["here"] = start == bounds[1]  # the worker forked next inherits the mark
        return fork_range(path, start, end)

    def stopping(*args):
        sent_all = list(messages(*args))
        if not cut["here"]:
            return sent_all
        if sent == "short":
            return [*sent_all[:-1], Overlong(sent_all[-1])]
        return sent_all[:sent]

    monkeypatch.setattr(recordio, "_fork_range", marked_fork)
    monkeypatch.setattr(recordio, "_messages", stopping)
    parsed = parent_parses(monkeypatch)
    assert outcome(lambda: _read_ranges(path, bounds)) == one_process(path)
    assert parsed == [(0, bounds[1]), (0, None)]
    assert_reaped()


@needs_fork
def test_a_fork_that_fails_kills_the_workers_and_parses_the_file_here(tmp_path, monkeypatch,
                                                                      one_thread):
    path = write_lines(tmp_path / "records.csv", [HEADER] + mixed_rows(1500))
    bounds = [0, *line_starts(Path(path).read_bytes())[400::400], os.path.getsize(path)]
    assert len(bounds) == 5  # three forks
    parent, fork_range, parse_range, waitpid = (
        os.getpid(), recordio._fork_range, recordio._parse_range, os.waitpid)
    pids, reaped = [], []

    def second_fails(*args):
        if pids:
            raise OSError("no process left")
        pid, fh = fork_range(*args)
        pids.append(pid)
        return pid, fh

    def hanging(*args):  # the first worker ends only when it is killed
        if os.getpid() != parent:
            time.sleep(60)
        return parse_range(*args)

    def recorded(pid, options):
        result = waitpid(pid, options)
        reaped.append(result)
        return result

    monkeypatch.setattr(recordio, "_fork_range", second_fails)
    monkeypatch.setattr(recordio, "_parse_range", hanging)
    monkeypatch.setattr(os, "waitpid", recorded)
    assert outcome(lambda: _read_ranges(path, bounds)) == one_process(path)
    assert [(pid, os.WIFSIGNALED(status) and os.WTERMSIG(status)) for pid, status in reaped] \
        == [(pids[0], signal.SIGKILL)]
    assert_reaped()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_parses_as_its_stream(tmp_path):
    # more rows than a pipe buffers, so the reader must follow the writer
    path = write_lines(tmp_path / "records.csv", [HEADER] + mixed_rows(8000))
    assert os.path.getsize(path) > 1 << 16
    feeder = subprocess.Popen(
        [sys.executable, "-c", "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), "
         "sys.stdout.buffer)", path], stdout=subprocess.PIPE)
    with feeder:
        piped = outcome(lambda: read_table(f"/dev/fd/{feeder.stdout.fileno()}"))
    assert feeder.returncode == 0
    assert piped == one_process(path)


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
