"""What freezing the import-time heap buys a ``python -m repro`` process.

``python -m repro`` calls ``gc.freeze()`` once the CLI is imported, so
the collector's passes during the run and at interpreter exit skip the
objects the imports left tracked.  For each of E1-E9 this script times
the process entry, ``python -m repro run eN --full-scale --check
--format json``, against ``python -c`` making the same
``repro.cli.main`` call: the same work, with the heap not frozen.  The
two forms alternate over :data:`ROUNDS` rounds; it prints each
experiment's medians and their difference, and exits 1 if either form
exits non-zero.  It gates on no timing: shared CI runners are too noisy.

Run it from the repository root, on the ``repro`` it imports::

    PYTHONPATH=src python benchmarks/cli_process.py
"""

from __future__ import annotations

import subprocess
import sys

from repro.bench.timing import Timing, time_once
from repro.experiments import EXPERIMENTS

ROUNDS = 3

FORMS = {
    "frozen": ["-m", "repro"],
    "unfrozen": ["-c", "import sys; from repro.cli import main; sys.exit(main())"],
}


def _run(form: str, experiment: str) -> float:
    """Seconds one process of ``form`` takes to run ``experiment``."""
    argv = [sys.executable, *FORMS[form], "run", experiment, "--full-scale", "--check"]
    argv += ["--format", "json"]
    elapsed, done = time_once(
        lambda: subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    )
    if done.returncode:
        sys.exit(f"{form} {experiment} exited with status {done.returncode}:\n{done.stderr}")
    return elapsed


def main() -> None:
    times: dict[tuple[str, str], list[float]] = {}
    for round_ in range(ROUNDS):
        for experiment in sorted(EXPERIMENTS):
            # Alternate which form goes first, so neither always runs warm.
            forms = list(FORMS) if round_ % 2 == 0 else list(reversed(FORMS))
            for form in forms:
                times.setdefault((form, experiment), []).append(_run(form, experiment))
    print(f"python {sys.version.split()[0]}, medians of {ROUNDS} alternating rounds")
    print(f"{'experiment':<10} {'frozen_s':>9} {'unfrozen_s':>11} {'difference_ms':>14}")
    for experiment in sorted(EXPERIMENTS):
        frozen = Timing(tuple(times["frozen", experiment])).median
        unfrozen = Timing(tuple(times["unfrozen", experiment])).median
        difference_ms = 1000 * (frozen - unfrozen)
        print(f"{experiment:<10} {frozen:>9.4f} {unfrozen:>11.4f} {difference_ms:>+14.1f}")


if __name__ == "__main__":
    main()
