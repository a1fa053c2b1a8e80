"""``scripts/part_count.py`` on a 4-box stack: one row of times and call
counts, in process."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "part_count.py"
spec = importlib.util.spec_from_file_location("part_count", SCRIPT)
part_count = importlib.util.module_from_spec(spec)
spec.loader.exec_module(part_count)


def test_part_count_prints_times_and_calls_of_a_small_stack(capsys):
    """The three neighbour pairs of a 4-box stack are the only ones asked
    for contact; each sweep that the box pass keeps runs the penetration
    kernel once, and fewer than the 36 (pair, direction) entries are kept.
    The counting wrappers are removed afterwards."""
    assert part_count.main(["--parts", "4", "--runs", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["parts", "contact_s", "sweeps_s", *part_count.COUNTED]
    parts, contact_s, sweeps_s, within, sweeps, kernel = row.split()
    assert int(parts) == 4 and float(contact_s) > 0 and float(sweeps_s) > 0
    assert int(within) == 3 and 0 < int(sweeps) == int(kernel) < 36
    assert all(getattr(part_count.relations, name).__module__ != "part_count"
               for name in part_count.COUNTED)
