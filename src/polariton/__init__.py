"""Driven qubit-photon-phonon simulator: steady states, boson-number
correlations, blockade/tunnelling case analysis, manifold spectra, and the
weak-drive analytic oracle."""

from .errors import (ClassificationError, ConfigError, DimensionError,
                     InsufficientDataError, IntegrationError,
                     NonUniqueSteadyStateError, ParameterError, PolaritonError,
                     ResonanceSingularityError, SteadyStateError,
                     UndefinedCorrelationError)
from .hilbert import FockLabel, TruncationConfig, annihilation, embed, qubit_lowering
from .model import (GAMMA_RAD_PER_US, MODES, SystemParams, hamiltonian_qd_driven,
                    hamiltonian_smr_driven, hamiltonian_undriven, hybrid_mode_operator,
                    linear_coupler, tau_to_us)
from .lindblad import DensityMatrix, Liouvillian, build_liouvillian, steady_state
from .correlations import (DynamicsLabel, StatisticsCase, classify_dynamics,
                           classify_statistics, dominant_period, g2_tau, g_k_zero,
                           hybrid_moments_from_local)
from .spectrum import (JCDoublet, ManifoldSpectrum, ResonanceDistances,
                       analytic_manifolds, jc_spectrum, manifold_spectrum,
                       minimum_gap, resonance_distances)
from .weakdrive import (AmplitudeSet, HybridAmplitudeSet, OracleG2,
                        bs_transform_amplitudes, closed_form_double,
                        closed_form_single, oracle_g2, solve_double_excitation,
                        solve_single_excitation, steady_amplitudes)
from .scenarios import (OVERRIDE_BUNDLES, PRESETS, OracleComparison, Preset,
                        SweepResult, SweepSpec, bundle_params, compare_oracle,
                        g2tau_point, preset_params, resonance_distance_sweep,
                        run_g2tau, run_sweep, solve_point, spectrum_sweep)

__version__ = "0.1.0"
