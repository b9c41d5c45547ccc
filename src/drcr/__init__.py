"""Delay-range constrained routing with SRLG-disjoint protection.

Single-path solving (the pulse search and its iterated-bound schedules),
min-min disjoint-pair solving (the corridor search), dataset generators, a
brute-force oracle and a benchmark harness.
"""

from .network import (DrcrTask, Edge, IntegrityError, Network, NetworkView,
                      ParseError, Path, SrlgTask, check_path, is_connected,
                      load_network, load_tasks, remove_conflicting_edges,
                      save_network, save_tasks)
from .trees import ReverseTrees, TreeCache, build_reverse_trees
from .pulse import (UNLIMITED, SearchCancelled, SearchControl, SearchCounters,
                    SearchTimeout, build_search_order, count_paths_capped,
                    pulse_first_feasible, pulse_optimal, scan_corridor_paths)
from .report import INFEASIBLE, OPTIMAL, PAIR, TIMEOUT, SolveReport
from .btbu import BTBU1, BTBU2, solve_btbu
from .btcs import (BtcsConfig, DisjointPair, pp_delay_window, solve_btcs,
                   try_protect)
from .netgen import (GenerationError, GenSpec, SrlgSpec, filter_tasks,
                     gen_graph, gen_srlg, gen_tasks)
from .oracle import (Histogram, OracleTooLargeError, build_histogram,
                     enumerate_paths, oracle_drcr, oracle_minmin)
from .bench import BenchRecord, run_suite, summarize, sweep_alpha

__version__ = "0.1.0"

__all__ = [
    "BenchRecord", "BtcsConfig", "BTBU1", "BTBU2",
    "DisjointPair", "DrcrTask", "Edge", "GenerationError",
    "GenSpec", "Histogram", "INFEASIBLE", "IntegrityError", "Network",
    "NetworkView", "OPTIMAL", "OracleTooLargeError", "PAIR", "ParseError",
    "Path", "ReverseTrees", "SearchCancelled", "SearchControl",
    "SearchCounters", "SearchTimeout", "SolveReport", "SrlgSpec", "SrlgTask",
    "TIMEOUT", "TreeCache", "UNLIMITED", "build_histogram",
    "build_reverse_trees", "build_search_order", "check_path",
    "count_paths_capped",
    "enumerate_paths", "filter_tasks", "gen_graph", "gen_srlg", "gen_tasks",
    "is_connected", "load_network", "load_tasks", "oracle_drcr",
    "oracle_minmin", "pp_delay_window", "pulse_first_feasible",
    "pulse_optimal", "remove_conflicting_edges", "run_suite",
    "save_network", "save_tasks", "scan_corridor_paths", "solve_btbu",
    "solve_btcs", "summarize", "sweep_alpha", "try_protect",
]
