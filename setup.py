"""Packaging for the Servo (ICDCS'23) reproduction.

Installs the ``repro`` package from ``src/`` and the ``repro`` console script
(the same CLI as ``python -m repro``).  Works with plain ``setup.py`` installs
on offline hosts without ``wheel``/PEP 517.
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "version.py"), encoding="utf-8") as handle:
        match = re.search(r"__version__\s*=\s*['\"]([^'\"]+)['\"]", handle.read())
    if match is None:
        raise RuntimeError("could not parse __version__ from src/repro/version.py")
    return match.group(1)


setup(
    name="servo-repro",
    version=read_version(),
    description=(
        "Deterministic reproduction of Servo (ICDCS 2023): serverless MVE "
        "backends, grown into a sharded cluster, with a declarative run API"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.api.cli:main",
        ]
    },
)
