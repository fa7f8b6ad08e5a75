"""Unit tests for the byte constants."""

from repro.util import GB, KB, MB


def test_byte_constants():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB

