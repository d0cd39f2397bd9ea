"""Executable checks tying the pieces together.

Three kinds of checks run here:

  * the root-count conjecture: every two-bridge knot's parabolic
    polynomial should have at least |signature|/2 distinct real roots;
    checked per knot and in batch scans with counterexample flagging,
  * the double twist root-count theorems: exact counts for the even
    families (exactly one real root / none, under an exact rational
    range certificate for x0) and lower bounds for the odd families
    (at least n-1 / at least n real roots, certified for |x0| >= 2);
    each count is taken on the closed form specialized at x0 before the
    Chebyshev recurrence (riley_closed_form_at), which is exact because
    evaluation at x0 is a ring homomorphism and root counts do not
    depend on the nonzero scalar it may leave,
  * cross-validation: the closed-form polynomial of a double twist knot
    must equal the general matrix-product polynomial exactly after
    normalization.

Scan work items are independent; scans can fan out over processes and
always emit records in canonical (p, q) order regardless of execution
order, so reports are byte-for-byte reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable

from .exact import Scalar, UniPoly, _rational, format_rational
from .realroots import count_real_roots
from .rileypoly import (
    RileyValidationError,
    riley_closed_form,
    riley_closed_form_at,
    riley_general,
    riley_parabolic,
)
from .signature import signature_two_bridge
from .twobridge import DoubleTwist, KnotId, family_to_pq


class CrossValidationError(RuntimeError):
    """Closed-form and matrix-product polynomials disagree; carries a
    coefficient-level diff."""

    def __init__(self, d: DoubleTwist, diff: str):
        self.diff = diff
        super().__init__(f"closed form and general construction disagree for {d}:\n{diff}")


@dataclass(frozen=True, slots=True)
class ConjectureRecord:
    """Outcome of the root-count conjecture for one knot."""

    knot: KnotId
    sigma_abs: int
    parabolic_degree: int
    real_roots: int
    holds: bool
    timing_ms: float


@dataclass(frozen=True, slots=True)
class TheoremRecord:
    """Observed root count of one double twist polynomial at one x0.

    in_range is True when an exact rational inequality certifies x0 is in
    the theorem's hypothesis range, and None when no rational certificate
    is attempted (reported as "uncertified").  holds always compares
    observed_roots against expected; whether that comparison carries any
    weight is exactly what in_range records.
    """

    family: DoubleTwist
    x0: Scalar
    in_range: bool | None
    expected: str  # "==1", "==0" or ">=k"
    observed_roots: int
    holds: bool


def _nonabelian_root_count(phi: UniPoly, context: object) -> int:
    """Distinct real roots, excluding y = 2 if it ever appears (that value
    does not correspond to a nonabelian representation)."""
    total = count_real_roots(phi).total_real
    if phi(2) == 0:
        warnings.warn(
            f"{context}: parabolic polynomial vanishes at y = 2; "
            "excluding that root from the nonabelian count",
            RuntimeWarning,
            stacklevel=2,
        )
        total -= 1
    return total


def check_conjecture(k: KnotId) -> ConjectureRecord:
    """Root-count conjecture for one knot: real roots >= |sigma| / 2."""
    t0 = time.perf_counter()
    phi = riley_parabolic(k)
    expected_degree = (k.p - 1) // 2
    if phi.degree != expected_degree:
        raise RileyValidationError(
            f"parabolic polynomial of {k} has degree {phi.degree}, expected (p-1)/2 = {expected_degree}"
        )
    roots = _nonabelian_root_count(phi, k)
    sig = signature_two_bridge(k)
    return ConjectureRecord(
        knot=k,
        sigma_abs=sig.sigma_abs,
        parabolic_degree=phi.degree,
        real_roots=roots,
        holds=2 * roots >= sig.sigma_abs,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
    )


def enumerate_knots(p_max: int) -> list[KnotId]:
    """Canonical scan set: for each odd p <= p_max, the identifiers
    min(q, q^-1 mod p) over coprime 1 <= q <= (p-1)/2.

    Mirror partners generically occur as separate entries; classes whose
    two presentations both exceed (p-1)/2 are mirrors of scanned knots
    and contribute no new conjecture data (|sigma| and real root counts
    are mirror-invariant)."""
    knots: list[KnotId] = []
    for p in range(3, p_max + 1, 2):
        qs = {
            min(q, pow(q, -1, p))
            for q in range(1, (p - 1) // 2 + 1)
            if math.gcd(p, q) == 1
        }
        knots.extend(KnotId(p, q) for q in sorted(qs))
    return knots


@dataclass(slots=True)
class ScanResult:
    """Batch scan outcome: records in canonical order plus any per-knot
    hard failures (recorded, never aborting the scan)."""

    records: list[ConjectureRecord]
    failures: list[tuple[tuple[int, int], str]]

    @property
    def violations(self) -> list[ConjectureRecord]:
        return [r for r in self.records if not r.holds]


def _scan_worker(pq: tuple[int, int]):
    try:
        return ("ok", check_conjecture(KnotId(*pq)))
    except Exception as exc:  # recorded by the caller, scan continues
        return ("err", (pq, f"{type(exc).__name__}: {exc}"))


def scan_conjecture(p_max: int, jobs: int = 1) -> ScanResult:
    """Run check_conjecture over the whole scan set up to p_max.

    Work items are independent and fan out over `jobs` processes, never
    more than there are knots or CPUs; results keep enumerate_knots'
    canonical order (sorted by p, then q) regardless of scheduling.  A
    worker process that dies raises BrokenExecutor.
    """
    if p_max < 3:
        raise ValueError(f"p_max must be >= 3, got {p_max}")
    pairs = [(k.p, k.q) for k in enumerate_knots(p_max)]
    # the pool starts all its workers at the first submit
    jobs = min(jobs, len(pairs), os.cpu_count() or 1)
    if jobs > 1:
        # imported here so that serial runs do not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunksize = max(1, len(pairs) // (jobs * 8))
            outcomes = list(pool.map(_scan_worker, pairs, chunksize=chunksize))
    else:
        outcomes = [_scan_worker(pq) for pq in pairs]
    records: list[ConjectureRecord] = []
    failures: list[tuple[tuple[int, int], str]] = []
    for status, payload in outcomes:
        if status == "ok":
            records.append(payload)
        else:
            failures.append(payload)
    return ScanResult(records=records, failures=failures)


def _theorem_record(
    d: DoubleTwist, x0: Scalar, in_range: bool | None, comparison: str, bound: int
) -> TheoremRecord:
    """The record of d at x0, expecting observed_roots == bound when
    comparison is "==" and observed_roots >= bound when it is ">="."""
    observed = _nonabelian_root_count(riley_closed_form_at(d, x0), d)
    return TheoremRecord(
        family=d,
        x0=x0,
        in_range=in_range,
        expected=f"{comparison}{bound}",
        observed_roots=observed,
        holds=observed >= bound if comparison == ">=" else observed == bound,
    )


def check_theorem1(m: int, n: int, x0: Scalar) -> tuple[TheoremRecord, TheoremRecord]:
    """Even-family exact counts at x0: J(2m,2n) has exactly one real root
    and J(2m,-2n) none, whenever 4 - 1/(mn) < x0^2 <= 4.

    The range certificate is an exact rational inequality; both records
    (EE then EN) are returned.  Raises ValueError unless m, n >= 1, and
    TypeError on a float x0.
    """
    ee, en = DoubleTwist("EE", m, n), DoubleTwist("EN", m, n)
    x0 = _rational(x0)
    in_range = 4 - Fraction(1, m * n) < x0 * x0 <= 4
    return (
        _theorem_record(ee, x0, in_range, "==", 1),
        _theorem_record(en, x0, in_range, "==", 0),
    )


def check_theorem2(m: int, n: int, x0: Scalar) -> tuple[TheoremRecord, TheoremRecord]:
    """Odd-family lower bounds at x0: J(2m+1,2n) has at least n-1 real
    roots and J(2m+1,-2n) at least n.

    The hypothesis range has an irrational boundary below 2, so only
    x0^2 >= 4 is certified (always sufficient); other x0 are evaluated
    but marked uncertified.  Raises ValueError unless m, n >= 1, and
    TypeError on a float x0.
    """
    oe, on = DoubleTwist("OE", m, n), DoubleTwist("ON", m, n)
    x0 = _rational(x0)
    in_range: bool | None = True if x0 * x0 >= 4 else None
    return (
        _theorem_record(oe, x0, in_range, ">=", n - 1),
        _theorem_record(on, x0, in_range, ">=", n),
    )


def _check_grid(m_max: int, n_max: int) -> None:
    # an empty grid would be a vacuous pass
    if m_max < 1 or n_max < 1:
        raise ValueError(f"m_max and n_max must be >= 1, got m_max={m_max}, n_max={n_max}")


def sweep_theorem1(m_max: int, n_max: int) -> list[TheoremRecord]:
    """Full even-family grid: m, n up to the bounds, x0 in
    {2, 2 - 1/(16mn)} (both certified in range); raises ValueError on an
    empty grid."""
    _check_grid(m_max, n_max)
    records: list[TheoremRecord] = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for x0 in (Fraction(2), 2 - Fraction(1, 16 * m * n)):
                records.extend(check_theorem1(m, n, x0))
    return records


def sweep_theorem2(
    m_max: int, n_max: int, x0s: Iterable[Scalar] = (2, Fraction(5, 2), 3)
) -> list[TheoremRecord]:
    """Full odd-family grid over the given x0 values (default {2, 5/2, 3});
    raises ValueError on an empty grid or an empty x0 list."""
    _check_grid(m_max, n_max)
    # read once: an iterator would be used up by the first grid point
    x0s = tuple(x0s)
    if not x0s:
        raise ValueError("x0s must name at least one x0")
    records: list[TheoremRecord] = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for x0 in x0s:
                records.extend(check_theorem2(m, n, x0))
    return records


def cross_validate(d: DoubleTwist) -> bool:
    """Exact equality of the closed-form and matrix-product polynomials.

    Returns True on agreement; raises CrossValidationError carrying a
    y-degree-by-y-degree coefficient diff otherwise.
    """
    closed = riley_closed_form(d).phi_xy
    general = riley_general(family_to_pq(d)).phi_xy
    if closed == general:
        return True
    lines = [
        f"  y^{j}: closed={list(closed.coeff(j).coeffs)} general={list(general.coeff(j).coeffs)}"
        for j in range(max(closed.degree, general.degree) + 1)
        if closed.coeff(j) != general.coeff(j)
    ]
    raise CrossValidationError(d, "\n".join(lines))


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------


def _in_range_field(in_range: bool | None):
    return "uncertified" if in_range is None else in_range


def record_fields(record: "ConjectureRecord | TheoremRecord") -> dict:
    """Serializable field mapping with deterministic order."""
    if isinstance(record, ConjectureRecord):
        fields = {
            "knot": str(record.knot),
            "sigma_abs": record.sigma_abs,
            "degree": record.parabolic_degree,
            "real_roots": record.real_roots,
            "holds": record.holds,
        }
        if not record.holds:
            # the conjecture is only proved for double twist knots; a
            # violation elsewhere is a reportable finding, not a crash
            fields["flag"] = "counterexample-candidate"
        return fields
    return {
        "family": record.family.family,
        "m": record.family.m,
        "n": record.family.n,
        "x0": format_rational(record.x0),
        "in_range": _in_range_field(record.in_range),
        "expected": record.expected,
        "observed_roots": record.observed_roots,
        "holds": record.holds,
    }


_CONJECTURE_CSV_FIELDS = ["knot", "sigma_abs", "degree", "real_roots", "holds", "flag"]
_THEOREM_CSV_FIELDS = ["family", "m", "n", "x0", "in_range", "expected", "observed_roots", "holds"]


def emit_report(
    records: Iterable["ConjectureRecord | TheoremRecord"],
    format: str = "jsonl",
    destination: "str | Path | IO[str] | None" = None,
) -> str:
    """Serialize records, one per line, to a file or returned string.

    jsonl: one JSON object per record.  csv: fixed header then one row
    per record, a cell holding a comma (the knot "b(p,q)") quoted.
    Field order is deterministic and rationals appear as exact "num/den"
    strings, so repeated runs emit identical bytes.
    Zero records produce an empty file.
    """
    records = list(records)
    if format not in ("jsonl", "csv"):
        raise ValueError(f"format must be jsonl or csv, got {format!r}")
    text = ""
    if records:
        rows = [record_fields(r) for r in records]
        if format == "jsonl":
            text = "".join(json.dumps(r) + "\n" for r in rows)
        else:
            fields = (
                _CONJECTURE_CSV_FIELDS
                if isinstance(records[0], ConjectureRecord)
                else _THEOREM_CSV_FIELDS
            )

            def cell(v) -> str:
                if isinstance(v, bool):
                    return "true" if v else "false"
                return str(v)

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(fields)
            writer.writerows([cell(row.get(f, "")) for f in fields] for row in rows)
            text = buf.getvalue()
    if destination is None:
        return text
    if isinstance(destination, (str, Path)):
        try:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {destination}: {exc}") from exc
    else:
        destination.write(text)
    return text
