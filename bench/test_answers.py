"""The answer checker accepts real answers and flags tampered ones.

    python3 -m pytest bench/test_answers.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import prismatic.cli as cli  # noqa: E402
from answers import check_bad, check_valid  # noqa: E402
from worker import run_request  # noqa: E402
from workloads import load_reference, make_pass, random_inputs, request  # noqa: E402

REF = load_reference()


def answered(kind: str, base: str, seed: int = 3):
    inputs = random_inputs(REF["bases"][base]["g6"], random.Random(seed))
    req = request(kind, base, inputs)
    _, rc, out, err, error = run_request(cli.main, req.argv)
    return req, rc, out, error


def tampered(out: str, edit) -> str:
    report = json.loads(out)
    edit(report)
    return json.dumps(report)


def test_real_answers_pass():
    for kind, base in [("aut", "paley:9"), ("autP", "cycle:5"), ("theta", "paley:13"),
                       ("spectrumP", "figure_f9:2"), ("invariants", "gnp:10")]:
        req, rc, out, error = answered(kind, base)
        assert check_valid(req.kind, req.argv, REF["answers"][req.ref], rc, out, error) is None


def test_tampered_answers_are_flagged():
    req, rc, out, error = answered("aut", "paley:9")
    expected = REF["answers"][req.ref]
    edits = [
        lambda r: r.update(order=r["order"] + 1),
        lambda r: r.update(transitive=not r["transitive"]),
        lambda r: r.pop("order"),
    ]
    for edit in edits:
        assert check_valid(req.kind, req.argv, expected, rc, tampered(out, edit), error) is not None
    assert check_valid(req.kind, req.argv, expected, rc, "", error) is not None
    assert check_valid(req.kind, req.argv, expected, 1, out, error) is not None
    assert check_valid(req.kind, req.argv, expected, rc, out, "ValueError: boom") is not None


def test_floats_compare_within_tolerance_only():
    req, rc, out, error = answered("theta", "paley:13")
    expected = REF["answers"][req.ref]
    close = tampered(out, lambda r: r.update(upper_bound=r["upper_bound"] + 1e-12))
    far = tampered(out, lambda r: r.update(upper_bound=r["upper_bound"] + 1e-6))
    assert check_valid(req.kind, req.argv, expected, rc, close, error) is None
    assert check_valid(req.kind, req.argv, expected, rc, far, error) is not None


def test_bad_requests_must_end_in_one_error_line():
    assert check_bad(2, "", "error: bad graph6: short body\n", None) is None
    assert check_bad(2, "", "usage: prismatic ...\nerror: unknown flag\n", None) is not None
    assert check_bad(0, "{}", "", None) is not None
    assert check_bad(None, "", "", "ValueError: theta eigenvalue bound requires a regular graph") is not None


def test_passes_are_seeded():
    assert make_pass("queries", 5, 0, REF) == make_pass("queries", 5, 0, REF)
    assert make_pass("queries", 5, 0, REF) != make_pass("queries", 6, 0, REF)
    assert make_pass("queries", 5, 0, REF) != make_pass("queries", 5, 1, REF)
