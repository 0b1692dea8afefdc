"""The pipeline's outputs on the golden days equal those kept in tests/golden/.

Under the Python minor version and numpy version that wrote the manifest, every
output must match its sha256. Under others, the numpy-free outputs must still
match, and every other output must match its kept copy token by token, floats
to a relative 1e-9.
"""

import json
import math
import re

from golden_runs import EVERY_DAY, GOLDEN, MANIFEST, run_day, sha256, versions

# Separators of the output formats: csv fields, key=value, report segment labels
# (|from>to@length|) and the model file's spaced fields.
TOKEN = re.compile(r"[^,=|@> \n]+|[,=|@> \n]")


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-9)
    except ValueError:
        return False


def _mismatch(got: str, kept: str) -> str | None:
    """The first line where got and kept differ beyond float rounding, or None."""
    got_lines, kept_lines = got.splitlines(), kept.splitlines()
    if len(got_lines) != len(kept_lines):
        return f"{len(got_lines)} lines, kept {len(kept_lines)}"
    for no, (a, b) in enumerate(zip(got_lines, kept_lines), start=1):
        ta, tb = TOKEN.findall(a), TOKEN.findall(b)
        if len(ta) != len(tb) or not all(map(_close, ta, tb)):
            return f"line {no}: {a!r}, kept {b!r}"
    return None


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    want = manifest["sha256"]
    got = {f"{day}/{name}": data for day in EVERY_DAY
           for name, data in run_day(day, tmp_path).items()}
    assert sorted(got) == sorted(want)
    assert [name for name in want if sha256((GOLDEN / name).read_bytes()) != want[name]] == []
    exact = versions() == {"python": manifest["python"], "numpy": manifest["numpy"]}
    mismatches = {}
    for name, data in got.items():
        if sha256(data) == want[name]:
            continue
        if exact or name.split("/")[1] in manifest["numpy_free"]:
            mismatches[name] = "sha256 differs"
        else:
            found = _mismatch(data.decode("utf-8"), (GOLDEN / name).read_text(encoding="utf-8"))
            if found is not None:
                mismatches[name] = found
    assert mismatches == {}
