"""How target-speaker extraction rides the same conditional model.

The only mechanical difference from denoising: a reference recording of the
target speaker is prepended to the mixture before feature extraction, and the
generated output is trimmed back to the mixture's span. The prompt length is
one constant, `tasks.TSE_PROMPT_SECONDS`. This walks the length arithmetic end
to end with a freshly initialized (untrained) model.
"""

import numpy as np

from flowsr.audio import AudioSignal
from flowsr.harness import RunConfig
from flowsr.sampler import generate
from flowsr.spectral import features_from_audio
from flowsr.tasks import (TSE_PROMPT_SECONDS, TaskKind, build_condition,
                          mix_two_speakers, prepend_tse_prompt, trim_tse_output,
                          tse_prompt_samples)
from flowsr.vectorfield import init_parameters

rate = 16000


def voice(f0, seconds, seed):
    g = np.random.default_rng(seed)
    t = np.arange(int(seconds * rate)) / rate
    x = sum(0.2 / k * np.sin(2 * np.pi * k * f0 * t + g.uniform(0, 2 * np.pi))
            for k in range(1, 4))
    return AudioSignal(x, rate)


target = voice(170.0, 2.0, seed=1)
interferer = voice(262.0, 2.0, seed=2)
mixture, target = mix_two_speakers(target, interferer, 0.0)
reference = voice(170.0, 3.4, seed=3)  # same speaker, different recording

prompt = tse_prompt_samples(rate)
print(f"mixture: {len(mixture)} samples, reference: {len(reference)} samples, "
      f"prompt span: {prompt} samples ({TSE_PROMPT_SECONDS} s)")

extended = prepend_tse_prompt(mixture, reference)
print(f"prepended input: {len(extended)} samples "
      f"= {prompt} prompt + {len(mixture)} mixture")

cfg = RunConfig(window_size=126, hop_size=63, num_layers=1, model_dim=32,
                num_heads=2, time_embed_dim=32, feedforward_dim=64,
                step_size=1.0)
cond = build_condition(TaskKind.TARGET_SPEAKER_EXTRACT, mixture,
                       cfg.stft_params(), cfg.compression(),
                       reference=reference)
frames = cfg.stft_params().num_frames(len(extended))
print(f"condition features: {cond.shape} "
      f"(channels x frames), expected frames {frames}")

# a fresh model predicts zero velocity, so the 'extraction' is just the prior
# draw - this demo checks plumbing, not quality
model = init_parameters(cfg.model_config(), np.random.default_rng(0))
out = generate(model, TaskKind.TARGET_SPEAKER_EXTRACT, mixture,
               np.random.default_rng(5), cfg.stft_params(), cfg.compression(),
               cfg.solver(), reference=reference)
print(f"generated output: {len(out)} samples "
      f"(= mixture length: {len(out) == len(mixture)})")

trimmed = trim_tse_output(extended, len(mixture))
print(f"trim on the raw prepended audio recovers the mixture exactly: "
      f"{np.array_equal(trimmed.samples, mixture.samples)}")
