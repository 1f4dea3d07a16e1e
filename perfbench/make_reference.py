"""Write reference.json: the rips_barcode barcode digests (one per
instance) for each seed in a range, as the current code computes them.

    python3 perfbench/make_reference.py 0 99

Run it from the root of a checkout, only when a change to the barcode is
intended and has been verified by other means; the benchmark compares
every rips_barcode run at a listed seed against this file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import RipsBarcode, Tally, load_reference, output_digest

    ref = load_reference()
    digests = ref.setdefault(RipsBarcode.name, {})
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        try:
            tally = Tally()
            wl = RipsBarcode(seed, work, tally)
            wl.run_pass()
            digests[str(seed)] = [output_digest(json.loads(out.read_text())["bars"])
                                  for _, out in wl.commands]
            if tally.failed or any(wl.codes):
                print(f"seed {seed}: input or command failed: {tally.notes}", file=sys.stderr)
                return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
    ref[RipsBarcode.name] = dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
