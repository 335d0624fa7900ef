"""Setuptools shim.

The environment ships an older setuptools without the ``wheel`` package,
so PEP 517 editable installs fail with ``invalid command 'bdist_wheel'``.
This setup.py enables the legacy editable install path::

    pip install -e . --no-build-isolation --no-use-pep517
"""

from setuptools import setup

# numpy 2.0 is the first release with ``bitwise_count``, which the
# bit-sliced verdict-row kernel (repro.engine.batch_kernel) needs.
setup(install_requires=["numpy>=2.0"])
