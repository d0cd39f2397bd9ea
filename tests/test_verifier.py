import functools
import hashlib
import io
import json
import math
import os
from fractions import Fraction

import pytest

from riley import verifier
from riley.exact import UniPoly
from riley.realroots import count_real_roots
from riley.rileypoly import riley_parabolic
from riley.twobridge import DoubleTwist, KnotId
from riley.verifier import (
    ConjectureRecord,
    check_conjecture,
    check_theorem1,
    check_theorem2,
    cross_validate,
    emit_report,
    enumerate_knots,
    record_fields,
    scan_conjecture,
    sweep_theorem1,
    sweep_theorem2,
)


def test_check_conjecture_refuses_a_parabolic_polynomial_of_wrong_degree(monkeypatch):
    monkeypatch.setattr(verifier, "riley_parabolic", lambda k: UniPoly([-3, 1]))
    with pytest.raises(verifier.RileyValidationError, match=r"has degree 1, expected \(p-1\)/2 = 3"):
        check_conjecture(KnotId(7, 3))


def test_check_conjecture_examples():
    r = check_conjecture(KnotId(3, 1))
    assert (r.sigma_abs, r.real_roots, r.holds) == (2, 1, True)
    assert r.parabolic_degree == 1

    r = check_conjecture(KnotId(5, 2))
    assert (r.sigma_abs, r.real_roots, r.holds) == (0, 0, True)

    r = check_conjecture(KnotId(7, 5))
    assert (r.sigma_abs, r.real_roots, r.holds) == (2, 1, True)


def test_enumerate_knots_small():
    assert [str(k) for k in enumerate_knots(7)] == [
        "b(3,1)", "b(5,1)", "b(5,2)", "b(7,1)", "b(7,2)", "b(7,3)",
    ]
    assert [str(k) for k in enumerate_knots(3)] == ["b(3,1)"]


def test_enumerate_knots_deduplicates_inverses():
    # at p = 11, q = 4 has inverse 3, so only (11,3) appears
    qs = [k.q for k in enumerate_knots(11) if k.p == 11]
    assert qs == [1, 2, 3, 5]


def test_scan_small():
    res = scan_conjecture(7)
    assert [str(r.knot) for r in res.records] == [
        "b(3,1)", "b(5,1)", "b(5,2)", "b(7,1)", "b(7,2)", "b(7,3)",
    ]
    assert all(r.holds for r in res.records)
    assert res.failures == []
    assert res.violations == []

    res = scan_conjecture(3)
    assert len(res.records) == 1


def test_scan_parallel_matches_serial():
    serial = scan_conjecture(25, jobs=1)
    parallel = scan_conjecture(25, jobs=2)
    strip = lambda recs: [
        (r.knot, r.sigma_abs, r.parabolic_degree, r.real_roots, r.holds) for r in recs
    ]
    assert strip(serial.records) == strip(parallel.records)


def _count_forks(monkeypatch) -> list:
    """Wrap the real os.fork so that it records each call and refuses a
    ninth, so that a broken clamp cannot start many processes."""
    real_fork = os.fork
    forks = []

    def counting_fork():
        if len(forks) >= 8:
            raise AssertionError("more than 8 forks")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_scan_pool_has_no_more_workers_than_knots(monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    result = scan_conjecture(5, jobs=64)
    assert len(forks) == 2  # three processes: the caller and two children
    assert [str(r.knot) for r in result.records] == ["b(3,1)", "b(5,1)", "b(5,2)"]
    scan_conjecture(7, jobs=2)
    assert len(forks) == 3
    assert _no_child_left()


def test_scan_pool_has_no_more_workers_than_cpus(monkeypatch):
    forks = _count_forks(monkeypatch)
    # every knot passes through untouched, so the 3,154 knots cost nothing
    monkeypatch.setattr(verifier, "_scan_worker", lambda pq: ("ok", pq))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    result = scan_conjecture(199, jobs=5000)
    assert len(forks) == 3
    assert result.records == [(k.p, k.q) for k in enumerate_knots(199)]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    scan_conjecture(199, jobs=2)
    assert len(forks) == 4
    # 6,999 knots make pieces of seven, merged back in canonical order
    result = scan_conjecture(299, jobs=2)
    assert result.records == [(k.p, k.q) for k in enumerate_knots(299)]
    assert len(forks) == 5
    # an unknown CPU count, or no fork at all, runs serially in the caller
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    scan_conjecture(199, jobs=5000)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert len(scan_conjecture(199, jobs=5000).records) == 3154
    assert len(forks) == 5
    assert _no_child_left()


def test_scan_with_dying_child_raises_and_reaps(monkeypatch):
    parent = os.getpid()
    real = verifier._scan_worker

    def dying(pq):
        if os.getpid() != parent:
            os._exit(1)
        return real(pq)

    monkeypatch.setattr(verifier, "_scan_worker", dying)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(verifier.ScanWorkerError, match=r"worker process \d+ exited with code 1"):
        scan_conjecture(21, jobs=3)
    assert _no_child_left()


def test_scan_shares_the_knots_by_speed(monkeypatch):
    # the caller is slow, so the child takes the pieces it leaves; each
    # process still starts on a piece of its own
    import time

    parent = os.getpid()
    real = verifier._scan_worker
    in_caller = []

    def slow_caller(pq):
        if os.getpid() == parent:
            in_caller.append(pq)
            time.sleep(0.02)
        return real(pq)

    monkeypatch.setattr(verifier, "_scan_worker", slow_caller)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    result = scan_conjecture(21, jobs=2)
    assert [r.knot for r in result.records] == enumerate_knots(21)
    knots = len(enumerate_knots(21))
    assert 1 <= len(in_caller) < knots // 2, (len(in_caller), knots)
    assert in_caller[0] == (21, 10)  # the heaviest piece: the last knot
    assert _no_child_left()


def test_scan_with_failing_fork_raises_and_closes_its_pipes(monkeypatch):
    # the second fork fails: its error propagates, the first child is
    # reaped, and no end of the queue or of either child's pipe stays open
    forks = _count_forks(monkeypatch)
    real_fork, real_pipe = os.fork, os.pipe
    fds = []

    def recording_pipe():
        fds.extend(real_pipe())
        return fds[-2:]

    def second_fork_fails():
        if forks:
            raise OSError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(OSError, match="fork refused"):
        scan_conjecture(21, jobs=3)
    assert len(forks) == 1 and len(fds) == 6
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert _no_child_left()


def test_scan_interrupted_in_the_caller_leaves_no_child(monkeypatch):
    # each of the two children would sleep on its one knot well past the
    # test; the caller's own first knot raises at once, and the scan must
    # kill and reap them
    import time

    parent = os.getpid()

    def interrupted(pq):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)

    monkeypatch.setattr(verifier, "_scan_worker", interrupted)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        scan_conjecture(5, jobs=3)
    assert _no_child_left()
    assert time.monotonic() - started < 20


def test_scan_rejects_tiny_pmax():
    with pytest.raises(ValueError):
        scan_conjecture(2)


def test_conjecture_data_is_presentation_invariant():
    # mirrors and inverses carry the same (|sigma|, root count) data,
    # which is what justifies scanning one representative per window.
    # A mirror has the same Phi, but the inverse presentation's Phi
    # differs on 713 of the 798 scanned knots, so there the Sturm engine
    # gets a second polynomial that must give the same count
    from riley.signature import signature_two_bridge

    counts = {}  # Phi's coefficients -> its root count
    phis = {}

    @functools.cache
    def data(p: int, q: int) -> tuple[int, int]:
        phi = phis[p, q] = riley_parabolic(KnotId(p, q))
        if phi.coeffs not in counts:
            counts[phi.coeffs] = count_real_roots(phi)
        return counts[phi.coeffs], signature_two_bridge(KnotId(p, q)).sigma_abs

    for p in range(3, 100, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            base = data(p, q)
            for other in (p - q, pow(q, -1, p)):
                assert data(p, other) == base, (p, q, other)
    inverse_differs = [
        phis[k.p, k.q] != phis[k.p, pow(k.q, -1, k.p)] for k in enumerate_knots(99)
    ]
    assert (len(inverse_differs), sum(inverse_differs)) == (798, 713)


def test_check_theorem1_at_two():
    ee, en = check_theorem1(1, 1, 2)
    assert ee.in_range is True and ee.expected == "==1"
    assert ee.observed_roots == 1 and ee.holds
    assert en.expected == "==0" and en.observed_roots == 0 and en.holds


def test_check_theorem1_range_certificates():
    ee, _ = check_theorem1(2, 3, Fraction(2) - Fraction(1, 96))
    assert ee.in_range is True  # (2 - 1/96)^2 > 4 - 1/6 exactly
    ee, _ = check_theorem1(1, 1, Fraction(3, 2))
    assert ee.in_range is False  # 9/4 < 3
    ee, _ = check_theorem1(1, 1, Fraction(5, 2))
    assert ee.in_range is False  # beyond 2


def test_check_theorem2_examples():
    oe, on = check_theorem2(1, 1, 2)
    assert on.expected == ">=1" and on.observed_roots >= 1 and on.holds
    assert oe.expected == ">=0" and oe.holds
    assert oe.in_range is True

    _, on = check_theorem2(1, 2, Fraction(5, 2))
    assert on.expected == ">=2" and on.observed_roots >= 2 and on.holds


def test_check_theorem2_uncertified_below_two():
    oe, on = check_theorem2(1, 1, Fraction(9, 5))
    assert oe.in_range is None and on.in_range is None


def test_sweeps_hold():
    recs = sweep_theorem1(2, 2)
    assert len(recs) == 16  # 4 grid points x 2 x0 x 2 families
    assert all(r.holds and r.in_range for r in recs)

    recs = sweep_theorem2(2, 2, x0s=[2, Fraction(5, 2)])
    assert len(recs) == 16
    assert all(r.holds for r in recs)


def test_check_theorem1_rejects_nonpositive_m_n():
    # the family is built before 1/(mn), so this is the documented
    # ValueError and not a ZeroDivisionError
    with pytest.raises(ValueError, match="m and n must be >= 1"):
        check_theorem1(0, 1, 2)
    with pytest.raises(ValueError, match="m and n must be >= 1"):
        check_theorem1(1, 0, 2)


def test_sweep_theorem1_rejects_empty_grid():
    with pytest.raises(ValueError, match="m_max and n_max must be >= 1"):
        sweep_theorem1(0, 4)
    with pytest.raises(ValueError, match="m_max and n_max must be >= 1"):
        sweep_theorem1(4, 0)


def test_sweep_theorem2_rejects_empty_grid():
    with pytest.raises(ValueError, match="m_max and n_max must be >= 1"):
        sweep_theorem2(0, 4)
    with pytest.raises(ValueError, match="m_max and n_max must be >= 1"):
        sweep_theorem2(3, -1, (2,))


def test_sweep_theorem2_rejects_empty_x0_list():
    with pytest.raises(ValueError, match="at least one x0"):
        sweep_theorem2(2, 2, ())
    with pytest.raises(ValueError, match="at least one x0"):
        sweep_theorem2(2, 2, [])


def test_sweep_theorem2_reads_an_iterator_of_x0_once():
    # a generator must give the whole grid, not just the first (m, n)
    listed = sweep_theorem2(2, 2, [2, Fraction(5, 2)])
    assert len(listed) == 16
    assert sweep_theorem2(2, 2, (x for x in [2, Fraction(5, 2)])) == listed
    with pytest.raises(ValueError, match="at least one x0"):
        sweep_theorem2(2, 2, iter(()))


def test_theorem_report_bytes_pinned():
    # criterion 10 on the theorem sweeps: certified, uncertified and
    # negative x0 on both sweeps; any change to a count or to the
    # serialization moves these digests
    sweeps = {
        "theorem1 5x4": sweep_theorem1(5, 4),
        "theorem2 4x4": sweep_theorem2(4, 4),
        "theorem2 3x3 at 1, 3/2, -7/3": sweep_theorem2(3, 3, (1, Fraction(3, 2), Fraction(-7, 3))),
    }
    digests = {
        (name, fmt): hashlib.sha256(emit_report(recs, format=fmt).encode()).hexdigest()
        for name, recs in sweeps.items()
        for fmt in ("jsonl", "csv")
    }
    assert digests == {
        ("theorem1 5x4", "jsonl"): "3fc0677bd61dba2bb8b7523964fb3fe0f09e06260bcc1af473b5b446c90c96ff",
        ("theorem1 5x4", "csv"): "8e2a6622f88d7e43f05470976aceba13a53cc53c7682a85270b9ec31927b927f",
        ("theorem2 4x4", "jsonl"): "2c7fd4bf97b61c0a29f58c8464dcf64a1a3c4bb541ef8332c0b31a052cdaf02e",
        ("theorem2 4x4", "csv"): "3900221bb32de62166b3047e08dbb30bcb49ba22ecd921723e9017b47758a177",
        ("theorem2 3x3 at 1, 3/2, -7/3", "jsonl"):
            "eda6b844469eee3c204f6f037fe83fa402a43b5c8697fbb7e7ec3e702f960bdc",
        ("theorem2 3x3 at 1, 3/2, -7/3", "csv"):
            "2ad282b7d6c75646e790e11d8d7fa2dac6110bef663a5cb25ab5f8ad435abd6a",
    }


def test_cross_validate_examples():
    assert cross_validate(DoubleTwist("EE", 1, 1)) is True
    assert cross_validate(DoubleTwist("EN", 1, 1)) is True
    assert cross_validate(DoubleTwist("OE", 2, 1)) is True
    assert cross_validate(DoubleTwist("ON", 1, 2)) is True


def test_cross_validate_raises_on_disagreement(monkeypatch):
    # the general route's Phi with x added to its y^0 coefficient
    from riley.rileypoly import RileyPoly

    real = verifier.riley_general
    monkeypatch.setattr(
        verifier, "riley_general", lambda k: RileyPoly(real(k).phi_xy + UniPoly.gen())
    )
    with pytest.raises(verifier.CrossValidationError) as exc:
        cross_validate(DoubleTwist("EE", 1, 1))
    assert "y^0: closed=" in exc.value.diff
    assert exc.value.diff.count("y^") == 1


def test_cross_validate_counts_across_q_conventions():
    # OE(1,1) presents b(5,3); the canonical form b(5,2) builds a different
    # polynomial, but root counts at x = 2 agree
    from riley.rileypoly import riley_closed_form

    closed = riley_closed_form(DoubleTwist("OE", 1, 1)).phi_xy.eval_x(2)
    general = riley_parabolic(KnotId(5, 2))
    assert (
        count_real_roots(closed)
        == count_real_roots(general)
        == 0
    )


def test_record_fields_jsonl_schema():
    rec = check_conjecture(KnotId(3, 1))
    fields = record_fields(rec)
    assert list(fields) == ["knot", "sigma_abs", "degree", "real_roots", "holds"]
    assert fields["knot"] == "b(3,1)"


def test_counterexample_flagging():
    fake = ConjectureRecord(
        knot=KnotId(3, 1), sigma_abs=4, parabolic_degree=1, real_roots=1,
        holds=False, timing_ms=0.0,
    )
    fields = record_fields(fake)
    assert fields["flag"] == "counterexample-candidate"
    text = emit_report([fake], format="csv")
    assert text.splitlines()[1].endswith("counterexample-candidate")


def test_emit_report_jsonl():
    rec = check_conjecture(KnotId(3, 1))
    text = emit_report([rec], format="jsonl")
    lines = text.splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed == {
        "knot": "b(3,1)", "sigma_abs": 2, "degree": 1, "real_roots": 1, "holds": True,
    }


def test_emit_report_to_a_missing_directory_raises(tmp_path):
    missing = tmp_path / "missing" / "r.jsonl"
    with pytest.raises(OSError, match=r"^cannot write report to .*r\.jsonl: "):
        emit_report([check_conjecture(KnotId(3, 1))], destination=missing)
    assert not missing.parent.exists()


def test_emit_report_empty():
    assert emit_report([], format="jsonl") == ""
    assert emit_report([], format="csv") == ""


def test_emit_report_csv_header():
    recs = scan_conjecture(5).records
    text = emit_report(recs, format="csv")
    lines = text.splitlines()
    assert lines[0] == "knot,sigma_abs,degree,real_roots,holds,flag"
    assert lines[1] == '"b(3,1)",2,1,1,true,'


def test_report_bytes_pinned_p59():
    # criterion 10: any change to a count, a signature or the serialization
    # moves these digests
    recs = scan_conjecture(59).records
    digests = {
        fmt: hashlib.sha256(emit_report(recs, format=fmt).encode()).hexdigest()
        for fmt in ("jsonl", "csv")
    }
    assert digests == {
        "jsonl": "b7985d3dddff5d40084acf22c7652996da659054ac55309b6eda472f5bfb36a1",
        "csv": "231435d237219d862c03c7e2a5af7c37952b7dd119af26dd8207623d2f0bf2c2",
    }


def test_report_bytes_pinned_p99():
    # the benchmark's scan set (798 knots); its jsonl digest is the one
    # every benchmark run gates on
    recs = scan_conjecture(99).records
    assert len(recs) == 798
    digests = {
        fmt: hashlib.sha256(emit_report(recs, format=fmt).encode()).hexdigest()
        for fmt in ("jsonl", "csv")
    }
    assert digests == {
        "jsonl": "cd67e225221674286040e93236ae9025178e614cbf370ee9f3caa9eae2174a68",
        "csv": "889ed5405980b39a649a7a5d8ca8c06ca1af7b93f458cc909d082b690c06628b",
    }


def test_emit_report_theorem_records():
    recs = sweep_theorem2(1, 1, x0s=[Fraction(9, 5)])
    text = emit_report(recs, format="jsonl")
    row = json.loads(text.splitlines()[0])
    assert row["x0"] == "9/5"
    assert row["in_range"] == "uncertified"


def test_emit_report_to_file_and_stream(tmp_path):
    recs = scan_conjecture(7).records
    path = tmp_path / "out.jsonl"
    emit_report(recs, format="jsonl", destination=path)
    buf = io.StringIO()
    emit_report(recs, format="jsonl", destination=buf)
    assert path.read_text() == buf.getvalue()
    assert len(path.read_text().splitlines()) == 6


def test_emit_report_bad_format():
    with pytest.raises(ValueError):
        emit_report([], format="xml")


def test_report_determinism():
    a = emit_report(scan_conjecture(31, jobs=1).records, format="jsonl")
    b = emit_report(scan_conjecture(31, jobs=2).records, format="jsonl")
    assert a == b
