"""Interferometer-with-scatterer simulator and rate-estimation toolkit.

Each public name loads its submodule on first use (PEP 562), so `import mzq`
loads no numpy and `mzq.cli` can set up OpenBLAS before numpy starts.
"""
from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    **dict.fromkeys(["BeamSplitterModel", "CircuitSpec", "DegenerateScatterer", "LineParams",
                     "QubitScatterer", "SpectrumTrace", "make_interferometer", "read_trace",
                     "sweep", "synthesize"], "components"),
    **dict.fromkeys(["FitResult", "IllPosed", "NoConvergence", "NoFeature", "RateDataset",
                     "RegimeLabel", "classify_regime", "fit_gamma1", "fit_gamma_phi_power",
                     "fit_ou", "fit_spectrum"], "estimate"),
    "SingularSystem": "netcore",
    **dict.fromkeys(["BathModel", "CouplingParams", "DegenerateFlux", "OUNoise",
                     "TransmonParams", "domega01_dflux", "gamma1_model", "gamma_phi_model",
                     "omega01", "ou_coherence", "ou_spectrum"], "physics"),
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
