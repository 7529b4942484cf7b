"""The byte contract as tier-1: every case of tests/golden.py against tests/golden.json.

After a deliberate output change, re-record with `PYTHONPATH=src python tests/golden.py`
and name the entries that moved in CHANGES.md. The cases run under the OpenBLAS kernel
golden.BLAS_KERNEL, so a CPU without AVX2 and FMA compares exit codes only.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from tests import golden

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def assert_none(report: list[str]) -> None:
    """Fail naming every line of report, not the first few."""
    assert not report, f"{len(report)} cases:\n" + "\n".join(report)


@pytest.fixture(scope="module")
def manifest():
    return golden.load()


@pytest.fixture(scope="module")
def outcomes():
    return golden.run_cases()


def test_manifest_holds_every_case_and_no_other(manifest, outcomes):
    assert_none(golden.unmatched(manifest, outcomes))


def test_every_case_ends_in_a_documented_exit(outcomes):
    """No exception escapes main, no case warns, and stderr starts as its exit documents."""
    assert_none(golden.faults(outcomes))


def test_exit_codes_and_written_files_match_the_manifest(manifest, outcomes):
    assert_none(golden.moved(manifest, outcomes, "exit"))


def test_output_bytes_match_the_manifest(manifest, outcomes):
    if manifest["numpy"] != np.__version__:
        pytest.skip(f"output bytes are recorded for numpy {manifest['numpy']}; "
                    f"this is numpy {np.__version__}")
    if not golden.kernel_runs_here():
        pytest.skip(f"output bytes are recorded under the OpenBLAS kernel "
                    f"{manifest['blas_kernel']}, which needs AVX2 and FMA; this CPU lacks them")
    assert manifest["blas_kernel"] == golden.BLAS_KERNEL, "recorded under another kernel"
    assert_none(golden.moved(manifest, outcomes, "bytes"))


def test_ci_pins_the_numpy_the_manifest_names(manifest):
    assert re.findall(r'numpy==([0-9.]+)"', WORKFLOW.read_text()) == [manifest["numpy"]]
