"""Interferometer-with-scatterer simulator and rate-estimation toolkit."""

from .components import (
    BeamSplitterModel,
    CircuitSpec,
    DegenerateScatterer,
    LineParams,
    QubitScatterer,
    SpectrumTrace,
    make_interferometer,
    read_trace,
    sweep,
    synthesize,
)
from .estimate import (
    FitResult,
    IllPosed,
    NoConvergence,
    NoFeature,
    RateDataset,
    RegimeLabel,
    classify_regime,
    fit_gamma1,
    fit_gamma_phi_power,
    fit_ou,
    fit_spectrum,
)
from .netcore import SingularSystem
from .physics import (
    BathModel,
    CouplingParams,
    DegenerateFlux,
    OUNoise,
    TransmonParams,
    domega01_dflux,
    gamma1_model,
    gamma_phi_model,
    omega01,
    ou_coherence,
    ou_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitterModel", "CircuitSpec", "DegenerateScatterer", "LineParams",
    "QubitScatterer", "SpectrumTrace", "make_interferometer", "read_trace",
    "sweep", "synthesize", "FitResult", "IllPosed", "NoConvergence",
    "NoFeature", "RateDataset", "RegimeLabel", "classify_regime", "fit_gamma1",
    "fit_gamma_phi_power", "fit_ou", "fit_spectrum", "SingularSystem",
    "BathModel", "CouplingParams", "DegenerateFlux", "OUNoise",
    "TransmonParams", "domega01_dflux", "gamma1_model", "gamma_phi_model",
    "omega01", "ou_coherence", "ou_spectrum", "__version__",
]
