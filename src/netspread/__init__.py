"""netspread: propagation dynamics on networks.

Graph generators, continuous compartment models, discrete mean-field
dynamics, a spectral extinction threshold, Monte Carlo validation and
edge-isolation strategies, plus a config-driven experiment harness.
"""

__version__ = "0.1.0"

from .graphs import (
    EdgeListFormatError,
    Graph,
    gen_binomial,
    gen_exponential,
    gen_lattice4,
    gen_powerlaw,
    load_edge_list,
    save_edge_list,
)
from .meanfield import (
    LinkProbs,
    MeanFieldBoundsError,
    MfState,
    NodeParams,
    ParamRegimeError,
)
from .meanfield import run as meanfield_run
from .montecarlo import EnsembleResult, mc_ensemble, mc_run
from .ode import (
    IntegrationInstabilityError,
    OdeParams,
    OdeState,
    integrate,
)
from .spectral import (
    SpectralResult,
    SurvivabilityResult,
    SystemMatrix,
    adjacency_spectral_radius,
    build_system_matrix,
    survivability_score,
)
from .isolation import (
    CycleSearchResult,
    IsolationReport,
    greedy_edge_removal,
    nn_hamiltonian_cycle,
    prune_to_cycle,
    rewire_to_lattice,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    reproduce_figures,
    run_experiment,
)
from .trajectory import Trajectory
