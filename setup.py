"""Installable package definition: ``pip install -e .`` gives you the
``repro`` package (no PYTHONPATH juggling) and the ``repro`` /
``repro-experiments`` console scripts."""

from setuptools import find_packages, setup

setup(
    name="repro-polystyrene",
    version="1.0.0",
    description=(
        "Reproduction of 'Polystyrene: the Decentralized Data Shape That "
        "Never Dies' (Bouget, Kermarrec, Kervadec, Taiani - ICDCS 2014) "
        "with a parallel experiment runtime"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The claims gate's recorded expectations ship with the package.
    package_data={"repro.eval": ["expected.json"]},
    include_package_data=True,
    python_requires=">=3.9",
    install_requires=[
        "numpy",
    ],
    extras_require={
        "dev": [
            "pytest",
            "pytest-cov",
            "hypothesis",
            "scipy",
            "ruff",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-experiments=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "License :: OSI Approved :: MIT License",
        "Topic :: System :: Distributed Computing",
    ],
)
