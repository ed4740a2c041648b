"""Bounded verification of rewrite rules (the §2.4 machinery)."""

from .._lazy import lazy_exports
from .rule_verifier import (  # noqa: F401
    VerificationReport,
    verify_equivalence,
    verify_rule,
)

# the batch runs on the fabric, which a single verification never needs
__getattr__, __dir__ = lazy_exports(
    globals(), {"batch_verify_rules": ".batch"}
)
