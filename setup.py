"""Package metadata and install entry point.

There is no ``pyproject.toml``: this file holds all of the project
metadata, so ``pip install -e .`` and, in an offline environment without
the ``wheel`` package, ``pip install -e . --no-build-isolation`` (the
legacy ``setup.py develop`` path) both install from it.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Optimal quantum sampling on distributed databases' "
        "(Chen, Liu, Yao; SPAA 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23", "scipy>=1.9"],
    extras_require={
        "test": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6"],
        "analysis": ["networkx>=3"],
    },
)
