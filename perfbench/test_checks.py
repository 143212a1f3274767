"""Planted-fault tests for the perfbench output checks.

Each test builds outputs the checks accept, plants one fault, and
expects the affected operation to be counted as failed. The batch and
simulate tests run the benchmark's own operation functions against a
stand-in `spmv-locality` that prints canned output, so the fault travels
the same path a real run's output does.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import stat
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402

# A class-3b matrix at machine scale 64, threads 1: x (160 kB) exceeds
# the 88 kB sector-0 partition of the 128 kB L2 segment.
ROWS = COLS = 20000
NNZ = 80000
A_LINES = NNZ * 8 // 256
COLIDX_LINES = NNZ * 4 // 256


def report(job, method, setting, parts, fingerprint="00000000000000aa"):
    return {
        "job": job,
        "matrix": "rand-0",
        "fingerprint": fingerprint,
        "rows": ROWS,
        "cols": COLS,
        "nnz": NNZ,
        "method": method,
        "setting": setting,
        "threads": 1,
        "l2_misses": sum(parts.values()),
        "by_array": parts,
    }


def consistent_reports():
    off = {"x": 625, "y": 625, "a": A_LINES, "colidx": COLIDX_LINES, "rowptr": 626}
    sector = {"x": 700, "y": 0, "a": A_LINES, "colidx": COLIDX_LINES, "rowptr": 0}
    return [
        report(0, "A", "off", off),
        report(1, "A", 5, sector),
        report(2, "B", "off", dict(off, x=600)),
        report(3, "B", 5, dict(sector, x=680)),
    ]


def batch_stdout(reports):
    lines = [json.dumps(r, separators=(",", ":")) for r in reports]
    summary = {"matrices": 1, "jobs": len(reports), "profile_computations": 2,
               "profile_hits": len(reports) - 2}
    lines.append(json.dumps({"summary": summary}, separators=(",", ":")))
    return "\n".join(lines) + "\n"


class StandIn:
    """Points the runner at a script that prints `stdout` and exits 0."""

    def __init__(self, stdout):
        self.dir = tempfile.TemporaryDirectory()
        out = Path(self.dir.name) / "out.txt"
        out.write_text(stdout)
        script = Path(self.dir.name) / "spmv-locality"
        script.write_text(f"#!/bin/sh\ncat '{out}'\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        self.script = script

    def __enter__(self):
        self.saved = run.BIN
        run.BIN = self.script
        return self

    def __exit__(self, *exc):
        run.BIN = self.saved
        self.dir.cleanup()


class BatchChecks(unittest.TestCase):
    def batch_op(self, reports):
        tally = run.Tally()
        saved = (run.BATCH_SCALE, run.BATCH_COUNT, run.PAPER_SETTINGS)
        run.BATCH_SCALE, run.BATCH_COUNT, run.PAPER_SETTINGS = 64, 1, 2
        try:
            with StandIn(batch_stdout(reports)):
                run.batch_op("unused.spec", tally)
        finally:
            run.BATCH_SCALE, run.BATCH_COUNT, run.PAPER_SETTINGS = saved
        return tally

    def test_consistent_output_passes(self):
        self.assertEqual(checks.classify(ROWS, COLS, NNZ, 64, 1), "3b")
        tally = self.batch_op(consistent_reports())
        self.assertEqual((tally.attempted, tally.failed), (1, 0), tally.problems)

    def test_altered_report_line_is_a_failed_operation(self):
        reports = consistent_reports()
        reports[1]["l2_misses"] += 1
        tally = self.batch_op(reports)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("sum of by_array", tally.problems[0])

    def test_class_3b_stream_below_its_line_count_fails(self):
        reports = consistent_reports()
        reports[0] = report(0, "A", "off", dict(reports[0]["by_array"], a=A_LINES - 1))
        problems = checks.check_reports(reports, 64)
        self.assertTrue(any("class 3b a misses" in p for p in problems), problems)

    def test_method_b_outside_its_envelope_fails(self):
        reports = consistent_reports()
        reports[2] = report(2, "B", "off", dict(reports[2]["by_array"], x=30000))
        problems = checks.check_reports(reports, 64)
        self.assertTrue(any("envelope" in p for p in problems), problems)


class ServeChecks(unittest.TestCase):
    def response(self, req_id, payloads, computations=0, jobs=None):
        jobs = len(payloads) if jobs is None else jobs
        lines = ['{"id":"%s","report":%s}' % (req_id, p) for p in payloads]
        lines.append(
            '{"id":"%s","done":{"matrices":1,"jobs":%d,"profile_hits":%d,'
            '"profile_computations":%d}}' % (req_id, jobs, jobs - computations, computations)
        )
        return lines

    def oracle(self):
        return checks.report_payloads(batch_stdout(consistent_reports()))

    def test_matching_warm_response_passes(self):
        oracle = self.oracle()
        lines = self.response("c0-1", oracle)
        self.assertEqual(checks.check_response("c0-1", lines, oracle, 1, 4), [])

    def test_warm_request_that_misses_the_cache_is_a_failed_operation(self):
        oracle = self.oracle()
        lines = self.response("c0-1", oracle, computations=1)
        tally = run.Tally()
        tally.op(checks.check_response("c0-1", lines, oracle, 1, 4))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("computed profiles", tally.problems[0])

    def test_report_differing_from_batch_fails(self):
        oracle = self.oracle()
        altered = list(oracle)
        altered[2] = altered[2].replace('"x":600', '"x":601')
        lines = self.response("c0-1", altered)
        problems = checks.check_response("c0-1", lines, oracle, 1, 4)
        self.assertTrue(any("differ" in p for p in problems), problems)

    def test_wrong_job_count_fails(self):
        oracle = self.oracle()
        lines = self.response("c0-1", oracle, jobs=3)
        self.assertTrue(checks.check_response("c0-1", lines, oracle, 1, 4))


class SimulateChecks(unittest.TestCase):
    def sim_op(self, measured):
        stdout = f"L2D_CACHE_REFILL    : {measured}\nL2 misses (paper)   : {measured}\n"
        shapes = {Path("c3b.mtx"): (ROWS, COLS, NNZ)}
        op = (Path("c3b.mtx"), 1, 0)
        pred = {op: 6000}
        tally = run.Tally()
        with StandIn(stdout):
            run.sim_op(op, shapes, pred, tally)
        return tally

    def test_count_inside_the_band_passes(self):
        tally = self.sim_op(6100)
        self.assertEqual((tally.attempted, tally.failed), (1, 0), tally.problems)

    def test_count_outside_the_band_is_a_failed_operation(self):
        # Band for class 3b, threads 1: 12 % of the count plus 0.75 of the
        # 5 626 working-set lines, about 6 000 lines around 6 000.
        tally = self.sim_op(20000)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("exceeds the band", tally.problems[0])


class Summaries(unittest.TestCase):
    def test_tail_is_p95_only_with_ten_samples_beyond(self):
        self.assertEqual(checks.tail(list(range(199))), 99)
        self.assertEqual(checks.tail(list(range(1000))), 949)


if __name__ == "__main__":
    unittest.main()
