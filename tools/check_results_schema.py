#!/usr/bin/env python3
"""Validate pstab-results-v1 JSON artifacts (RESULTS_*.json).

Usage: check_results_schema.py FILE [FILE...]
       check_results_schema.py --serve-responses FILE [FILE...]

Default mode checks the envelope every emitter in src/core/report_json.cpp
promises: schema tag, experiment name, an options object, a rows array whose
entries carry a matrix name plus per-format cells, and a telemetry array of
per-format counter objects.  --serve-responses instead validates JSONL files
of pstab-serve-v1 response envelopes (`pstab serve --script` / serve-client
output).  Exits nonzero on the first malformed file.
"""
import json
import sys

SCHEMA = "pstab-results-v1"
SERVE_SCHEMA = "pstab-serve-v1"
SOLVE_STATUSES = {
    "converged", "max_iterations", "breakdown", "not_positive_definite",
    "arithmetic_error", "factorization_failed", "diverged",
    "deadline_exceeded",
}


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_solve_report(path, cell, where):
    for key in ("status", "iterations", "final_relres", "true_relres"):
        if key not in cell:
            fail(path, f"{where}: missing '{key}'")
    if cell["status"] not in SOLVE_STATUSES:
        fail(path, f"{where}: unknown status {cell['status']!r}")
    if not isinstance(cell["iterations"], int):
        fail(path, f"{where}: iterations must be an integer")


def check_telemetry(path, entries):
    if not isinstance(entries, list):
        fail(path, "'telemetry' must be an array")
    for i, t in enumerate(entries):
        where = f"telemetry[{i}]"
        for key in ("format", "events", "regime_hist"):
            if key not in t:
                fail(path, f"{where}: missing '{key}'")
        if not isinstance(t["events"], dict):
            fail(path, f"{where}: events must be an object")
        for name, count in t["events"].items():
            if not isinstance(count, int) or count < 0:
                fail(path, f"{where}: event {name!r} count must be a "
                           f"non-negative integer")
        if not all(isinstance(c, int) and c >= 0 for c in t["regime_hist"]):
            fail(path, f"{where}: regime_hist must hold non-negative integers")


LU_STATUSES = {"ok", "singular", "arithmetic_error"}


def check_lu_ir_report(path, cell, where):
    """One LU-IR / GMRES-IR refinement report (report_json.cpp lu_ir_cell):
    the general-systems analogue of check_solve_report."""
    if not isinstance(cell, dict):
        fail(path, f"{where}: must be an object")
    for key in ("status", "iterations", "final_berr", "factorization_error",
                "lu_status", "inner_iterations"):
        if key not in cell:
            fail(path, f"{where}: missing '{key}'")
    if cell["status"] not in SOLVE_STATUSES:
        fail(path, f"{where}: unknown status {cell['status']!r}")
    if cell["lu_status"] not in LU_STATUSES:
        fail(path, f"{where}: unknown lu_status {cell['lu_status']!r}")
    for key in ("iterations", "inner_iterations"):
        if not isinstance(cell[key], int) or cell[key] < 0:
            fail(path, f"{where}: {key} must be a non-negative integer")


def check_refinement_precision(path, doc):
    """Refinement artifacts carry the resolved (u_f, u, u_r) triple."""
    prec = doc["options"].get("precision")
    if not isinstance(prec, dict):
        fail(path, "options: missing precision object")
    for key in ("factor", "working", "residual"):
        if not isinstance(prec.get(key), str) or not prec[key]:
            fail(path, f"options.precision: missing '{key}'")
    if prec["residual"] == "auto":
        fail(path, "options.precision: residual must be resolved, not 'auto'")


FAULT_OUTCOMES = ("masked", "corrected", "detected", "sdc", "hang")
FAULT_SITES = {"matrix_entry", "vector_entry", "dot_result"}
FAULT_FIELDS = {"any", "sign", "regime", "exponent", "fraction"}


def check_fault_campaign(path, doc):
    """Fault-injection campaign artifact (src/resilience/campaign.cpp):
    per-format clean baselines plus one cell per (format, site, bit-field)
    with outcome counts, and a determinism digest over all trial records."""
    if not isinstance(doc.get("options"), dict):
        fail(path, "missing options object")
    for key in ("seed", "solver", "trials", "recovery"):
        if key not in doc["options"]:
            fail(path, f"options: missing '{key}'")
    clean = doc.get("clean")
    if not isinstance(clean, list) or not clean:
        fail(path, "clean must be a non-empty array")
    for i, c in enumerate(clean):
        if not isinstance(c.get("format"), str):
            fail(path, f"clean[{i}]: missing format")
        if c.get("status") not in SOLVE_STATUSES:
            fail(path, f"clean[{i}]: unknown status {c.get('status')!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        fail(path, "cells must be a non-empty array")
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell.get("format"), str):
            fail(path, f"{where}: missing format")
        if cell.get("site") not in FAULT_SITES:
            fail(path, f"{where}: unknown site {cell.get('site')!r}")
        if cell.get("field") not in FAULT_FIELDS:
            fail(path, f"{where}: unknown field {cell.get('field')!r}")
        trials = cell.get("trials")
        if not isinstance(trials, int) or trials <= 0:
            fail(path, f"{where}: trials must be a positive integer")
        total = 0
        for o in FAULT_OUTCOMES:
            count = cell.get(o)
            if not isinstance(count, int) or count < 0:
                fail(path, f"{where}: outcome {o!r} must be a non-negative "
                           f"integer")
            total += count
        if total != trials:
            fail(path, f"{where}: outcome counts sum to {total}, "
                       f"expected {trials}")
    if not isinstance(doc.get("digest"), int):
        fail(path, "missing determinism digest")


def check_file(path):
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")
    if doc.get("schema") != SCHEMA:
        fail(path, f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    experiment = doc.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        fail(path, "missing experiment name")
    if experiment == "fault_campaign":
        check_fault_campaign(path, doc)
    elif experiment != "telemetry":
        if not isinstance(doc.get("options"), dict):
            fail(path, "missing options object")
        rows = doc.get("rows")
        if not isinstance(rows, list) or not rows:
            fail(path, "rows must be a non-empty array")
        for i, row in enumerate(rows):
            if not isinstance(row.get("matrix"), str):
                fail(path, f"rows[{i}]: missing matrix name")
            if experiment.startswith("lu_ir"):
                check_refinement_precision(path, doc)
                cells = row.get("cells")
                if not isinstance(cells, list) or not cells:
                    fail(path, f"rows[{i}]: cells must be a non-empty array")
                for j, c in enumerate(cells):
                    where = f"rows[{i}].cells[{j}]"
                    if not isinstance(c.get("format"), str):
                        fail(path, f"{where}: missing format")
                    check_lu_ir_report(path, c.get("report"),
                                       f"{where}.report")
                continue
            if experiment.startswith("gmres_ir"):
                check_refinement_precision(path, doc)
                cells = row.get("cells")
                if not isinstance(cells, list) or not cells:
                    fail(path, f"rows[{i}]: cells must be a non-empty array")
                rescued = 0
                for j, c in enumerate(cells):
                    where = f"rows[{i}].cells[{j}]"
                    if not isinstance(c.get("format"), str):
                        fail(path, f"{where}: missing format")
                    check_lu_ir_report(path, c.get("lu"), f"{where}.lu")
                    check_lu_ir_report(path, c.get("gmres"), f"{where}.gmres")
                    if not isinstance(c.get("rescued"), bool):
                        fail(path, f"{where}: rescued must be a boolean")
                    want = (c["gmres"]["status"] == "converged"
                            and c["lu"]["status"] != "converged")
                    if c["rescued"] is not want:
                        fail(path, f"{where}: rescued flag contradicts the "
                                   f"lu/gmres statuses")
                    rescued += c["rescued"]
                if row.get("rescue_count") != rescued:
                    fail(path, f"rows[{i}]: rescue_count "
                               f"{row.get('rescue_count')!r} != {rescued} "
                               f"rescued cells")
                continue
            if experiment.startswith("cg"):
                for fmt in ("f64", "f32", "p32_2", "p32_3"):
                    if fmt not in row:
                        fail(path, f"rows[{i}]: missing cell '{fmt}'")
                    check_solve_report(path, row[fmt], f"rows[{i}].{fmt}")
            elif experiment.startswith("cholesky"):
                # Since CholCell became la::SolveReport the cells share the
                # iterative emitters' shape (the old {ok, backward_error}
                # form is gone).
                for fmt in ("f64", "f32", "p32_2", "p32_3"):
                    if fmt not in row:
                        fail(path, f"rows[{i}]: missing cell '{fmt}'")
                    check_solve_report(path, row[fmt], f"rows[{i}].{fmt}")
            elif experiment.startswith("ir"):
                check_refinement_precision(path, doc)
                for fmt in ("f16", "p16_1", "p16_2"):
                    cell = row.get(fmt)
                    if not isinstance(cell, dict) \
                            or cell.get("status") not in SOLVE_STATUSES:
                        fail(path, f"rows[{i}].{fmt}: bad IR cell")
    check_telemetry(path, doc.get("telemetry", []))
    print(f"{path}: ok ({experiment}, {len(doc.get('rows', []))} rows, "
          f"{len(doc.get('telemetry', []))} telemetry formats)")


def check_serve_responses(path):
    """JSONL of pstab-serve-v1 response envelopes: every line is one
    response object with the schema tag, a request id, and either an ok
    result object or an error string (serve/protocol.cpp)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(path, f"unreadable: {e}")
    if not lines:
        fail(path, "no responses")
    n_ok = 0
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        try:
            doc = json.loads(line)
        except ValueError as e:
            fail(path, f"{where}: invalid JSON: {e}")
        if doc.get("schema") != SERVE_SCHEMA:
            fail(path, f"{where}: schema is {doc.get('schema')!r}, "
                       f"expected {SERVE_SCHEMA!r}")
        if not isinstance(doc.get("id"), int) or doc["id"] < 0:
            fail(path, f"{where}: id must be a non-negative integer")
        ok = doc.get("ok")
        if not isinstance(ok, bool):
            fail(path, f"{where}: 'ok' must be a boolean")
        if ok:
            if not isinstance(doc.get("result"), dict):
                fail(path, f"{where}: ok response missing result object")
            n_ok += 1
        else:
            err = doc.get("error")
            if not isinstance(err, str) or not err:
                fail(path, f"{where}: error response missing error string")
        # Responses must never leak engine state (cache_hit et al.): a warm
        # response has to be byte-identical to a cold one.
        for key in doc:
            if key not in ("schema", "id", "ok", "result", "error"):
                fail(path, f"{where}: unexpected envelope key {key!r}")
    print(f"{path}: ok ({len(lines)} responses, {n_ok} successful)")


def main(argv):
    if len(argv) >= 2 and argv[1] == "--serve-responses":
        if len(argv) < 3:
            print(__doc__.strip(), file=sys.stderr)
            return 1
        for path in argv[2:]:
            check_serve_responses(path)
        return 0
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
