"""Legacy setup shim: the offline environment's setuptools predates
PEP 660 editable installs, so ``pip install -e .`` goes through here."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "RANBooster reproduction: fronthaul middleboxes for Open RAN "
        "(SIGCOMM 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
