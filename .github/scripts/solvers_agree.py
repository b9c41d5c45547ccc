"""Check that pulse, btbu1 and btbu2 agree on every task none timed out on.

Usage: python solvers_agree.py PREFIX, reading PREFIX-{pulse,btbu1,btbu2}.jsonl
(the output of ``drcr solve-drcr``) from the working directory.
"""

import json
import sys

prefix = sys.argv[1]
solvers = ("pulse", "btbu1", "btbu2")
runs = {s: {r["task"]: (r["outcome"], r.get("cost"))
            for r in map(json.loads, open(f"{prefix}-{s}.jsonl"))}
        for s in solvers}
assert all(runs[s].keys() == runs["pulse"].keys() for s in solvers)
settled = [t for t in runs["pulse"]
           if all(runs[s][t][0] != "timeout" for s in solvers)]
assert settled, "every task timed out under some solver"
for t in settled:
    assert runs["pulse"][t] == runs["btbu1"][t] == runs["btbu2"][t], t
print(f"{prefix}: {len(settled)} of {len(runs['pulse'])} tasks settled: "
      "pulse, btbu1 and btbu2 agree")
