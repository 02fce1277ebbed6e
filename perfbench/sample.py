"""One benchmark sample, run in a fresh process by run.py.

    python3 perfbench/sample.py REQUEST_JSON SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this
process; set-up time runs from there until ``import ethsim`` completes, so
nothing may import numpy before that. With ``setup_only`` in the request the
process is a set-up probe and stops there. The sample prints one JSON line
with its measurements (see measure.py) and exits 0; it exits non-zero only
when it cannot measure at all.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    spawned = float(sys.argv[2])
    sys.path.insert(0, request["src"])
    import ethsim

    setup_s = time.monotonic() - spawned
    if not Path(ethsim.__file__).resolve().is_relative_to(Path(request["src"]).resolve()):
        raise SystemExit(f"imported ethsim from {ethsim.__file__}, not from {request['src']}")
    result = {"setup_s": setup_s}
    if not request.get("setup_only"):
        from measure import measure

        result.update(measure(request))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
