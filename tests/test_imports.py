"""The command-line entry point stays light: no heavy scipy submodule."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_skips_heavy_scipy_modules():
    probe = ("import json, sys; import mzq.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    loaded = set(json.loads(out))
    assert "scipy.special" in loaded
    assert loaded.isdisjoint({"scipy.stats", "scipy.optimize", "scipy.constants"})
