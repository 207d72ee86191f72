"""Setup shim.

This file exists so that ``pip install -e .`` works in offline environments
that lack the ``wheel`` package required by PEP 517 editable builds.

Pytest configuration (including the ``golden`` marker that the fast
``-m "not golden"`` job deselects) is registered in pytest.ini; the
coverage gate lives in scripts/coverage_gate.py and needs the ``cov``
extra below.
"""

from setuptools import setup

setup(
    install_requires=["numpy"],
    extras_require={
        # the fast suite and the property-based event-loop tests
        "test": ["pytest", "hypothesis"],
        # scripts/coverage_gate.py: pytest --cov=repro with a floor
        "cov": ["pytest", "pytest-cov", "coverage"],
    },
)
