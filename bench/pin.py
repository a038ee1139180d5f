"""Rewrite bench/pins.json: the outcome and audit fields of every op of the
default seed, as the program prints them today.

    python3 bench/pin.py

Only rerun this for a deliberate behaviour change, and say why in the
change's notes; the pinned values are what ``run.py`` checks ops against.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if not (run.SRC / "reentryguard" / "__init__.py").is_file():
        print(f"pin: no program sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    # the verify corpus holds every fuzz and storm op of the seed, plus the
    # tables rows and the ring, each with the record its producing run printed
    corpus = run.setup("verify_corpus", run.DEFAULT_SEED, repeats=1).ops
    pins = {op.name: run.pinned_value(run.record_fields(op.record)) for op in corpus}
    run.PINS_FILE.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} ops to {run.PINS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
