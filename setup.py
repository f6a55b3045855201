"""Package metadata and the ``repro`` console script.

The execution environment has no ``wheel`` package and no network, so PEP 660
editable installs fail; ``pip install -e . --no-use-pep517`` takes the
classic ``setup.py develop`` path instead.  The version is read from
``src/repro/__init__.py`` without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="TrojanZero (DATE 2019) reproduction toolkit",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
