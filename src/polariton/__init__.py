"""Driven qubit-photon-phonon simulator: steady states, boson-number
correlations, blockade/tunnelling case analysis, manifold spectra, and the
weak-drive analytic oracle."""

from .errors import (ClassificationError, ConfigError, DimensionError,
                     InsufficientDataError, IntegrationError,
                     NonUniqueSteadyStateError, ParameterError, PolaritonError,
                     ResonanceSingularityError, SteadyStateError, TruncationError,
                     UndefinedCorrelationError)
from .hilbert import (FockLabel, QOperator, TruncationConfig, annihilation,
                      basis_state, embed, expect, qubit_lowering)
from .model import (GAMMA_RAD_PER_US, ModeSelector, SystemParams, bs_fock_map,
                    hamiltonian_qd_driven, hamiltonian_smr_driven,
                    hamiltonian_smr_driven_bs, hamiltonian_undriven,
                    hybrid_mode_operator, linear_coupler, polariton_number,
                    tau_to_us, us_to_tau)
from .lindblad import (DensityMatrix, Liouvillian, build_liouvillian, evolve,
                       steady_state)
from .correlations import (CorrelationPoint, DynamicsLabel, G234Signature,
                           G2TauCurve, StatisticsCase, classify_dynamics,
                           classify_statistics, dominant_period,
                           g234_signature, g2_tau, g_k_zero,
                           hybrid_moments_from_local)
from .spectrum import (JCDoublet, ManifoldSpectrum, ResonanceDistances,
                       analytic_manifolds, jc_spectrum, manifold_spectrum,
                       minimum_gap, resonance_distances)
from .weakdrive import (AmplitudeSet, HybridAmplitudeSet, OracleG2,
                        bs_transform_amplitudes, closed_form_double,
                        closed_form_report, closed_form_single, oracle_g2,
                        solve_double_excitation, solve_single_excitation,
                        steady_amplitudes)
from .scenarios import (OVERRIDE_BUNDLES, PRESETS, OracleComparison, Preset,
                        SweepResult, SweepSpec, bundle_params, compare_oracle,
                        g2tau_point, preset_params, resonance_distance_sweep,
                        run_g2tau, run_sweep, solve_point, spectrum_sweep)

__version__ = "0.1.0"
