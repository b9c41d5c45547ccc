"""Solve a task file with pulse, btbu1 and btbu2 and check that they agree.

Usage: python solvers_agree.py GRAPH TASKS, running the installed ``drcr
solve-drcr`` once per solver at a 2000 ms limit per task; every task that
none of the three timed out on must have the same outcome and cost.
"""

import json
import subprocess
import sys

graph, tasks = sys.argv[1:]
solvers = ("pulse", "btbu1", "btbu2")
runs = {}
for s in solvers:
    out = subprocess.run(["drcr", "solve-drcr", "--graph", graph, "--tasks", tasks,
                          "--solver", s, "--time-limit-ms", "2000"],
                         check=True, capture_output=True, text=True).stdout
    runs[s] = {r["task"]: (r["outcome"], r.get("cost"))
               for r in map(json.loads, out.splitlines())}
assert all(runs[s].keys() == runs["pulse"].keys() for s in solvers)
settled = [t for t in runs["pulse"]
           if all(runs[s][t][0] != "timeout" for s in solvers)]
assert settled, "every task timed out under some solver"
for t in settled:
    assert runs["pulse"][t] == runs["btbu1"][t] == runs["btbu2"][t], t
print(f"{graph}: {len(settled)} of {len(runs['pulse'])} tasks settled: "
      "pulse, btbu1 and btbu2 agree")
