"""End-to-end explain benchmark (run ``python3 e2ebench/run.py --help``)."""
