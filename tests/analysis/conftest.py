"""Shared harness for the repro.analysis fixture tests.

Each test lays out a tiny synthetic tree under ``tmp_path`` (a
``serve/`` directory triggers the serving-scoped rules via the
``*/serve/*`` glob), runs the analyzer rooted there, and asserts on
the findings.  The cross-artifact schema rule gets pointed at
fixture metrics/README/baseline files the same way.
"""

import textwrap

import pytest

from repro.analysis import AnalysisConfig, Analyzer


@pytest.fixture
def check(tmp_path):
    """Write ``files`` (rel path -> source) and analyze the tree."""

    def run(files, **cfg):
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        config = AnalysisConfig(root=tmp_path, **cfg)
        return Analyzer(config).run([tmp_path])

    run.root = tmp_path
    return run
