"""Vocoder-free speech restoration with conditional flow matching on
compressed complex-STFT features.

Submodules:
    audio       mono waveform container and WAV I/O
    spectral    STFT analysis/synthesis and magnitude-compressed features
    flowpath    conditional probability path, target field, training loss
    masking     span masking and condition dropout for pretraining
    vectorfield transformer field estimator with manual backprop
    sampler     Euler ODE integration and the restoration pipeline
    tasks       task conditions and degradation synthesis
    metrics     SI-SDR, SI-SDR improvement, failure rate, LSD
    training    schedules, Adam, pretrain/finetune gradients, checkpoints
    harness     CLI, manifests, toy corpus synthesis
"""

from .audio import AudioSignal, read_wav, write_wav
from .flowpath import (TrainingTuple, cfm_loss, conditional_vector_field, mu_t,
                       psi_t, sample_training_tuple, sigma_t,
                       target_vector_field)
from .masking import apply_mask, maybe_drop_condition, sample_mask
from .metrics import (MetricsReport, UtteranceScores, failure_rate,
                      format_summary, lsd, score_utterance, si_sdr,
                      si_sdr_improvement, write_report)
from .sampler import (FieldDivergenceError, SolverConfig, euler_solve,
                      generate, sample_features)
from .spectral import (CompressionParams, StftParams, audio_from_features,
                       features_from_audio, stft)
from .tasks import (TaskKind, bandwidth_reduce, build_condition, codec_degrade,
                    mix_at_snr, mix_two_speakers, prepend_tse_prompt,
                    trim_tse_output)
from .training import (LossSupport, TrainConfig, TrainMode, TrainPair,
                       TrainState, WaveformDataset, adam_update,
                       apply_gradients, clip_global_norm, finetune_gradients,
                       init_train_state, load_checkpoint, load_model,
                       lr_schedule, pretrain_gradients, run_training,
                       save_checkpoint)
from .vectorfield import (ModelConfig, VectorFieldModel, alibi_bias,
                          alibi_slopes, backward, forward_batch,
                          init_parameters, parameter_count, time_embedding)

__all__ = [name for name in dir() if not name.startswith("_")]
