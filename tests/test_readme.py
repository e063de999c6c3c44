"""The README's "Library tour" runs as written, and its suite list is the
command line's.

The block is read from README.md and executed in a fresh namespace, so an
export that is renamed or a call whose signature changes shows here and not
first in the hands of a reader.  The lines it prints are the ones its
comments state.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from qcasimir.verify import SUITES

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_tour() -> str:
    match = re.search(
        r"^## Library tour\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M
    )
    assert match, "README has no Library tour block"
    return match.group(1)


def test_library_tour_runs_as_documented():
    buf = io.StringIO()
    with redirect_stdout(buf):
        exec(compile(_library_tour(), str(README), "exec"), {})
    assert buf.getvalue().splitlines() == ["[]", "q^6"]


def test_suites_line_names_every_verify_suite():
    # a suite added to the table must also be named in the README, in order
    match = re.search(r"^Suites: (.*?)\.\s", README.read_text(), re.S | re.M)
    assert match, "README has no Suites: line"
    assert tuple(re.findall(r"`([^`]+)`", match.group(1))) == SUITES
