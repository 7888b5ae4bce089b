from setuptools import find_packages, setup

setup(
    name="mobile-server-repro",
    version="0.2.0",
    description="Reproduction of 'The Mobile Server Problem' (SPAA 2017)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
    entry_points={
        "console_scripts": [
            "mobile-server=repro.cli:main",
        ],
    },
)
