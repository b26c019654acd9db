"""End-to-end and per-layer benchmark of the secure-memory engine and service.

``python bench/run.py`` is the entry point; see ``bench/README.md``.
"""
