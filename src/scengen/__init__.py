"""Generative sequence models for failure/repair scenarios of small systems.

Two model families share one evaluation path: classical categorical HMMs
(forward/backward, Baum-Welch) and Kraus-operator models whose belief
state is a density matrix, trained by gradient descent constrained to the
complex Stiefel manifold. Scenario datasets are enumerated exactly from a
component-system description, and paired per-class models classify
sequences by description accuracy.
"""

from .classifier import (ClassificationResult, ClassifierEvaluation,
                         TwoModelClassifier, classify, evaluate_classifier,
                         write_classification_report)
from .errors import (AlphabetMismatchError, DatasetConstructionError,
                     GradientUndefinedError, InputError,
                     PosteriorUndefinedError, ResourceLimitError,
                     ScengenError, StepFailureError, TrainingError,
                     TransitionError)
from .hmm import (BaumWelchResult, CategoricalHmm, TrellisResult,
                  baum_welch_fit, baum_welch_fits, hmm_backward, hmm_forward,
                  hmm_posterior, hmm_sample, hmm_samples)
from .metrics import (average_da, da_for_sequence, da_nonlinearity, da_score,
                      da_scores, log_likelihoods, sequence_log_prob,
                      write_da_report)
from .psa import (FAIL, NO_PROBABLE, PROBABLE, REPAIR, BasicEvent, Scenario,
                  ScenarioDataset, ScenarioRecord, SystemModel, apply_event,
                  build_datasets, decode_scenario, encode_scenario,
                  enumerate_scenarios, is_severe, legal_walks, load_dataset,
                  reference_four_event_system, reference_three_event_system,
                  save_dataset, scenario_probability)
from .qhmm import (DensityMatrix, KrausModel, KrausValidationReport,
                   belief_update, embed_hmm, next_symbol_distribution,
                   orthonormality_residual, qhmm_log_likelihood, qhmm_sample,
                   qhmm_samples, validate_kraus)
from .serialization import load_model, save_model
from .trainer import (StiefelPoint, TrainConfig, TrainRecord, cayley_step,
                      nll_gradient, nll_loss, random_stiefel, train_qhmm,
                      train_qhmm_datasets, write_training_log)

__version__ = "0.1.0"
