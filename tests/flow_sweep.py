"""Status of the four flow-verify checks over a range of seeds.

For each seed, runs `edgekit flow-verify` (through `edgekit.cli.main`) on a
manifest of the four checks (sum_rules, optical, cancellation, decoupling) at
the CLI's default budget of 2000 replicates, on identity and on two-point
(a=1, b=2, w=0.5, t=0.5) populations with M = N = 200, and prints each status.
It uses only the CLI, so it runs on any checkout.  pytest does not collect it.

    PYTHONPATH=src python tests/flow_sweep.py [first_seed last_seed [threads]]

defaults to seeds 1 to 20 on 2 processes.
"""

import collections
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from edgekit import cli

SPECTRA = {"identity": ("identity:M=200,N=200", 0.0),
           "twopoint": ("twopoint:a=1,b=2,w=0.5,M=200,N=200", 0.5)}
CHECKS = ("sum_rules", "optical", "cancellation", "decoupling")


def statuses(spectrum: str, t: float, seed: int, threads: int, work: Path) -> dict:
    manifest = work / "checks.json"
    manifest.write_text(json.dumps([{"check": check, "spectrum": spectrum, "t": t,
                                     "reps": 2000, "seed": seed} for check in CHECKS]))
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["flow-verify", "--manifest", str(manifest), "--threads", str(threads),
                  "--out", str(out)])
    return {r["check"]: r["status"] for r in json.loads((out / "flow_verify.json").read_text())}


def main(argv: list) -> None:
    first, last, threads = (list(map(int, argv)) + [1, 20, 2][len(argv):])[:3]
    tally = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (spectrum, t) in SPECTRA.items():
            for seed in range(first, last + 1):
                found = statuses(spectrum, t, seed, threads, Path(tmp))
                tally.update((name, check, found[check]) for check in CHECKS)
                print(f"{name:9s} seed {seed:3d}: " + " ".join(f"{c}={found[c]}" for c in CHECKS),
                      flush=True)
    for name in SPECTRA:
        for check in CHECKS:
            counts = {s: n for (sp, c, s), n in sorted(tally.items()) if (sp, c) == (name, check)}
            print(f"{name:9s} {check:12s} " + " ".join(f"{s} {n}" for s, n in counts.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
