"""Exact computation with two-bridge knot groups.

Builds Schubert presentations and Riley polynomials of two-bridge knots
in exact integer arithmetic, counts real roots with Sturm sequences
(one remainder sequence per squarefree input), computes signatures as
sign counts of even continued fraction entries, and cross-checks the
double twist closed forms against the general matrix construction.
"""

from .chebyshev import cheb_poly, trace_poly
from .exact import BiPoly, UniPoly, compose
from .realroots import count_real_roots, isolate_roots
from .rileypoly import (
    ClosedFormParams,
    RileyPoly,
    RileyValidationError,
    closed_form_params,
    riley_closed_form,
    riley_closed_form_at,
    riley_general,
    riley_parabolic,
    symmetrize_to_xy,
    word_matrix,
)
from .signature import (
    EvenCF,
    SignatureError,
    TwoBridgeSignature,
    even_cf,
    signature_two_bridge,
)
from .twobridge import (
    DoubleTwist,
    KnotId,
    SchubertWord,
    epsilon_sequence,
    family_to_pq,
    odd_representative,
    schubert_word,
)
from .verifier import (
    ConjectureRecord,
    CrossValidationError,
    ScanResult,
    TheoremRecord,
    check_conjecture,
    check_theorem1,
    check_theorem2,
    cross_validate,
    emit_report,
    enumerate_knots,
    scan_conjecture,
    sweep_theorem1,
    sweep_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "ClosedFormParams",
    "ConjectureRecord",
    "CrossValidationError",
    "DoubleTwist",
    "EvenCF",
    "KnotId",
    "RileyPoly",
    "RileyValidationError",
    "ScanResult",
    "SchubertWord",
    "SignatureError",
    "TheoremRecord",
    "TwoBridgeSignature",
    "UniPoly",
    "cheb_poly",
    "check_conjecture",
    "check_theorem1",
    "check_theorem2",
    "closed_form_params",
    "compose",
    "count_real_roots",
    "cross_validate",
    "emit_report",
    "enumerate_knots",
    "epsilon_sequence",
    "even_cf",
    "family_to_pq",
    "isolate_roots",
    "odd_representative",
    "riley_closed_form",
    "riley_closed_form_at",
    "riley_general",
    "riley_parabolic",
    "scan_conjecture",
    "schubert_word",
    "signature_two_bridge",
    "sweep_theorem1",
    "sweep_theorem2",
    "symmetrize_to_xy",
    "trace_poly",
    "word_matrix",
]
