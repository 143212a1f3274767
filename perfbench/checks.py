"""Output checks of the perfbench workloads.

Every check rests on a property of the locality method or on a value
computed here from the matrix shape, never on a stored copy of earlier
output. Each check returns a list of problems; an operation with any
problem counts as failed.

The constants restate the modelled machine (the A64FX preset scaled by
the spec's `scale`) and the tolerance bands the repository's validation
harness documents in `crates/valid/src/checks.rs` (`CheckPlan::new`).
"""

import json
import math

LINE_BYTES = 256
L2_SEGMENT_BYTES = 8 << 20  # one CMG's L2 at full scale
L2_WAYS = 16
CORES_PER_DOMAIN = 12
# The validation harness classifies with 5 of the 16 L2 ways given to the
# matrix stream (sector 1), leaving 11 to the reusable data.
CLASS_SECTOR1_WAYS = 5

# Model-vs-simulator band per class: (relative, capacity-cliff share of
# the working-set lines, floor in lines), plus the extra relative slack
# for multi-domain runs.
SIM_TOL = {
    "1": (0.10, 0.75, 96.0),
    "2": (0.10, 0.75, 96.0),
    "3a": (0.12, 0.75, 96.0),
    "3b": (0.12, 0.75, 96.0),
}
SIM_PARALLEL_EXTRA_REL = 0.06
# Method (B) against method (A), every class.
ENVELOPE_TOL = (0.35, 1.0, 64.0)

ARRAYS = ("x", "y", "a", "colidx", "rowptr")


def working_set_bytes(rows, cols, nnz):
    """CSR working set: values and indices, row pointers, x and y."""
    return nnz * 12 + (rows + 1) * 8 + rows * 8 + cols * 8


def ws_lines(rows, cols, nnz):
    return -(-working_set_bytes(rows, cols, nnz) // LINE_BYTES)


def classify(rows, cols, nnz, scale, threads):
    """The paper's section 3.1 class of a CSR matrix on the scaled A64FX."""
    segment = L2_SEGMENT_BYTES // scale
    domains = max(1, -(-threads // CORES_PER_DOMAIN))
    partition0 = segment * (L2_WAYS - CLASS_SECTOR1_WAYS) // L2_WAYS
    reusable = cols * 8 + rows * 8 + (rows + 1) * 8
    if working_set_bytes(rows, cols, nnz) <= segment * domains:
        return "1"
    if reusable <= partition0:
        return "2"
    if cols * 8 <= partition0:
        return "3a"
    return "3b"


def allowed(tol, expected, lines):
    rel, cliff, floor = tol
    return max(rel * abs(expected) + cliff * lines, floor)


def parse_json_lines(text):
    """Parses JSON lines; returns (objects, problems)."""
    objs, problems = [], []
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            objs.append(json.loads(line))
        except ValueError as e:
            problems.append(f"line {i + 1} is not JSON: {e}")
    return objs, problems


def check_reports(reports, scale):
    """Checks report objects of one spec (a batch run or a serve response).

    - `l2_misses` equals the sum of `by_array`;
    - on class-3b matrices with the sector cache off, the `a` and `colidx`
      misses are at least the lines those arrays occupy (every line of a
      stream that exceeds the cache misses once per iteration);
    - method B stays within the documented envelope of method A.
    """
    problems = []
    by_key = {}
    for r in reports:
        try:
            rows, cols, nnz = r["rows"], r["cols"], r["nnz"]
            misses, parts = r["l2_misses"], r["by_array"]
            if misses != sum(parts[a] for a in ARRAYS):
                problems.append(
                    f"job {r['job']}: l2_misses {misses} != sum of by_array"
                )
            cls = classify(rows, cols, nnz, scale, r["threads"])
            if cls == "3b" and r["setting"] == "off":
                for array, elem in (("a", 8), ("colidx", 4)):
                    floor = -(-nnz * elem // LINE_BYTES)
                    if parts[array] < floor:
                        problems.append(
                            f"job {r['job']}: class 3b {array} misses "
                            f"{parts[array]} < {floor} lines"
                        )
            key = (r["fingerprint"], r["threads"], json.dumps(r["setting"]))
            by_key.setdefault(key, {})[r["method"]] = r
        except (KeyError, TypeError) as e:
            problems.append(f"malformed report {r!r}: {e}")
    for key, pair in by_key.items():
        if "A" not in pair or "B" not in pair:
            continue
        a, b = pair["A"], pair["B"]
        lines = ws_lines(a["rows"], a["cols"], a["nnz"])
        ea, eb = a["l2_misses"], b["l2_misses"]
        if abs(ea - eb) > allowed(ENVELOPE_TOL, ea, lines):
            problems.append(
                f"job {b['job']}: method B {eb} outside the envelope of "
                f"method A {ea}"
            )
    return problems


def check_batch_output(stdout, scale, expect_jobs):
    """Checks one `spmv-locality batch` run; returns (reports, problems)."""
    objs, problems = parse_json_lines(stdout)
    reports = [o for o in objs if "job" in o]
    summary = [o["summary"] for o in objs if "summary" in o]
    if len(summary) != 1:
        problems.append("missing summary line")
    elif summary[0].get("jobs") != expect_jobs or len(reports) != expect_jobs:
        problems.append(
            f"expected {expect_jobs} jobs, got {len(reports)} reports "
            f"and summary {summary[0]}"
        )
    problems += check_reports(reports, scale)
    return reports, problems


def report_payloads(stdout):
    """The report lines of a batch run, as printed (summary dropped)."""
    return [l for l in stdout.splitlines() if l.startswith('{"job":')]


def check_response(req_id, lines, oracle, expect_matrices, expect_jobs):
    """Checks one warm serve response against the batch oracle.

    `lines` are the response lines for `req_id`; `oracle` the report lines
    a separate `batch` process printed for the same spec. Every report must
    match it byte for byte, and the `done` line must show the job count
    the spec implies with no profile computed (the cache was warm).
    """
    problems = []
    prefix = '{"id":"%s","report":' % req_id
    payloads = [l[len(prefix):-1] for l in lines if l.startswith(prefix)]
    if payloads != oracle:
        problems.append(
            f"{req_id}: {len(payloads)} report lines differ from the "
            f"{len(oracle)} batch lines"
        )
    done = [l for l in lines if '"done":' in l]
    if len(done) != 1:
        problems.append(f"{req_id}: no done line ({lines[-1:]})")
        return problems
    try:
        d = json.loads(done[0])["done"]
    except (ValueError, KeyError) as e:
        return problems + [f"{req_id}: malformed done line: {e}"]
    if d.get("profile_computations") != 0:
        problems.append(f"{req_id}: warm request computed profiles: {d}")
    if d.get("jobs") != expect_jobs or d.get("matrices") != expect_matrices:
        problems.append(
            f"{req_id}: done {d} but the spec implies {expect_matrices} "
            f"matrices and {expect_jobs} jobs"
        )
    return problems


def parse_simulate(stdout):
    for line in stdout.splitlines():
        if line.startswith("L2 misses (paper)"):
            return int(line.split(":")[1])
    return None


def check_simulation(measured, predicted, cls, threads, lines):
    """Simulated L2 misses against method A's prediction, within the
    validation harness's model-vs-sim band for the class."""
    if measured is None:
        return ["simulate printed no L2 miss count"]
    rel, cliff, floor = SIM_TOL[cls]
    if threads > 1:
        rel += SIM_PARALLEL_EXTRA_REL
    limit = allowed((rel, cliff, floor), measured, lines)
    if abs(measured - predicted) > limit:
        return [
            f"class {cls}, threads {threads}: simulated {measured} vs "
            f"predicted {predicted} exceeds the band {limit:.0f}"
        ]
    return []


def median(values):
    s = sorted(values)
    n = len(s)
    return (s[(n - 1) // 2] + s[n // 2]) / 2


def tail(values):
    """p95, or the median when fewer than 200 samples leave fewer than ten
    beyond it. (p99 over a 30-second serve run has about a dozen samples
    beyond it and moved by a quarter between runs on a 2-core host.)"""
    s = sorted(values)
    n = len(s)
    if n < 200:
        return median(s)
    return s[math.ceil(0.95 * n) - 1]
