"""Outputs match the committed golden (see ``golden_matrix.py``).

A failure names the cell or approach call, the table, row and column of
every value that moved, with both values, then the largest absolute and
relative float difference across the file: a platform whose numpy draws
a different stream reports its own bound in its log.
"""

from golden_matrix import collect, compare, load

#: Differences quoted in the assertion message; the log gets them all.
_QUOTED = 20


def test_outputs_match_the_committed_golden():
    moved = compare(load(), collect())
    if moved:
        print("\n".join(moved))
        *differences, count, largest_abs, largest_rel = moved
        quoted = differences[:_QUOTED]
        if len(differences) > _QUOTED:
            quoted.append(f"... and {len(differences) - _QUOTED} more (see captured stdout)")
        summary = "\n".join([*quoted, count, largest_abs, largest_rel])
        raise AssertionError(f"outputs moved from tests/golden_matrix.jsonl:\n{summary}")
