from .classify import Regime, RegimeClassifier
from .report import ReportRow, VerificationReport
from .suites import (run_global_suite, run_kernel_suite, run_oracle_suite,
                     run_potential_suite, run_upsilon_suite)

__all__ = [
    "Regime", "RegimeClassifier",
    "ReportRow", "VerificationReport",
    "run_kernel_suite", "run_upsilon_suite", "run_potential_suite",
    "run_global_suite", "run_oracle_suite",
]
