"""Child process of the benchmark: the raw-trial pipeline, or a traced CLI call.

    python3 bench/child.py [--trace SPANS] [--op N] pipeline RAW_CSV OUT_DIR
    python3 bench/child.py [--trace SPANS] [--op N] cli ARG...

`pipeline` takes a raw-trial CSV through load_csv -> aggregate_trials ->
rank_beam_pairs per point -> fit_misalignment_table(max_rank=9) ->
save_aggregated_csv, prints the pass time as JSON and leaves its results
in OUT_DIR for the harness to check. `cli` runs `a2a60.cli.main(ARG...)`;
the harness uses it only for traced runs and runs `python3 -m a2a60.cli`
otherwise.

With --trace, every public function of the six layers is wrapped with a
span timer after import. Spans stay in memory and are written to SPANS
once, when the process ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from itertools import groupby

FREQ_GHZ = 60.48
MAX_RANK = 9


def _size(source):
    if hasattr(source, "fileno"):
        return os.fstat(source.fileno()).st_size
    return os.path.getsize(source)


# (module, function, span name, counts taken from (args, result))
TARGETS = (
    ("dataset", "load_csv", "dataset.load_csv",
     lambda a, r: {"rows": len(r), "bytes": _size(a[0])}),
    ("dataset", "aggregate_trials", "dataset.aggregate_trials", lambda a, r: {"groups": len(r)}),
    ("dataset", "save_aggregated_csv", "dataset.save_aggregated_csv",
     lambda a, r: {"rows": len(a[0])}),
    ("dataset", "load_measurement_points", "dataset.fixture_load", None),
    ("dataset", "load_rank_points", "dataset.fixture_load", None),
    ("dataset", "to_fit_points", "dataset.to_fit_points", None),
    ("beams", "rank_beam_pairs", "beams.rank_beam_pairs", lambda a, r: {"pairs": len(r)}),
    ("beams", "fit_misalignment_table", "beams.fit_misalignment_table", None),
    ("fitting", "fit_ci", "fitting.fit_ci", lambda a, r: {"points": r.point_count}),
    ("fitting", "fit_fi", "fitting.fit_fi", lambda a, r: {"points": r.point_count}),
    ("pathloss", "mean_pl", "pathloss.mean_pl", None),
    ("pathloss", "free_space_pl", "pathloss.free_space_pl", None),
    ("pathloss", "sample_pl", "pathloss.sample_pl", lambda a, r: {"draws": len(r)}),
    ("tr38901", "pl_3gpp_los", "tr38901.pl_3gpp_los", None),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, counts, raised]."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None, False]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[6] = True
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                record[5] = count(args, result)
            return result
        return traced

    def install(self):
        """Wrap each target in its module and wherever `from ... import` bound it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "a2a60" or n.startswith("a2a60.")]
        for module_name, attr, name, count in TARGETS:
            original = getattr(sys.modules["a2a60." + module_name], attr)
            wrapper = self.span(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def run_pipeline(raw_csv, out_dir):
    import numpy as np
    from a2a60 import beams, dataset

    start = time.perf_counter()
    scans = dataset.aggregate_trials(dataset.load_csv(raw_csv))
    rankings = [beams.rank_beam_pairs(list(group))
                for _, group in groupby(scans, key=lambda s: (s.distance_m, s.height_m))]
    table = beams.fit_misalignment_table(rankings, FREQ_GHZ, max_rank=MAX_RANK)
    points = [dataset.AggregatedPoint(r.distance_m, r.height_m, r.pair_at(rank)[2],
                                      None if rank == 1 else rank)
              for rank in range(1, MAX_RANK + 1) for r in rankings]
    dataset.save_aggregated_csv(points, os.path.join(out_dir, "aggregated.csv"))
    pass_s = time.perf_counter() - start

    np.savez(
        os.path.join(out_dir, "pipeline.npz"),
        scan_point=np.array([(s.distance_m, s.height_m) for s in scans]),
        scan_pair=np.array([(s.tx_beam_idx, s.rx_beam_idx) for s in scans]),
        scan_mean=np.array([s.path_loss_db for s in scans]),
        scan_count=np.array([s.trial_count for s in scans]),
        rank_point=np.array([(r.distance_m, r.height_m) for r in rankings]),
        rank_pairs=np.array([[(tx, rx) for tx, rx, _ in r.pairs] for r in rankings]),
        rank1_ple=np.array(table.model_for(1).ple),
    )
    print(json.dumps({"pass_s": pass_s}))
    return 0


def main(argv):
    trace_path, op = None, 0
    while argv and argv[0] in ("--trace", "--op"):
        if argv[0] == "--trace":
            trace_path = argv[1]
        else:
            op = int(argv[1])
        argv = argv[2:]
    mode, args = argv[0], argv[1:]
    tracer = Tracer(op)

    start = time.perf_counter()
    if mode == "cli":
        import a2a60.cli as cli
        tracer.spans.append(["cli.import", start, time.perf_counter(), -1, op, None, False])
    else:
        import a2a60  # noqa: F401
    if trace_path:
        tracer.install()
    try:
        if mode == "cli":
            code = tracer.span("cli.main", cli.main)(args)
        else:
            code = run_pipeline(*args)
        sys.stdout.flush()
    finally:
        if trace_path:
            tracer.write(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
