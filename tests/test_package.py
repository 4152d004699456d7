"""Package-level surface checks."""
import mzq


def test_every_exported_name_resolves():
    missing = [name for name in mzq.__all__ if not hasattr(mzq, name)]
    assert missing == []
    assert len(set(mzq.__all__)) == len(mzq.__all__)
