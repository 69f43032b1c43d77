"""Legacy setup shim.

The execution environment is offline and has no ``wheel`` package, so PEP 517
editable installs (which need ``bdist_wheel``) are unavailable.  This shim
lets ``pip install -e . --no-use-pep517 --no-build-isolation`` (or
``python setup.py develop``) install the package with plain setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
