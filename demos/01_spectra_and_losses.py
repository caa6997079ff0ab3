"""Band-limited spectra and the spectral penalties.

Shows how the normalized in-band PSD behaves for a pure tone, white noise
and a flatline, and how the entropy/flatness penalties order them.  Ends
with a few gradient steps that visibly flatten a tone's spectrum.
"""

import numpy as np

from pulsegate import Waveform, standardize
from pulsegate.losses import loss_spectral_entropy, loss_spectral_flatness, loss_std
from pulsegate.signal_core import psd_rows

FPS = 90.0
NFFT = 5400


def describe(name, wave):
    power, _ = psd_rows(wave.samples, wave.fps, NFFT)
    if not power.any():
        print(f"{name:12s} degenerate spectrum (no in-band energy)")
        return
    entropy, _ = loss_spectral_entropy(wave, nfft=NFFT)
    flatness, _ = loss_spectral_flatness(wave, nfft=NFFT)
    peak_bpm = np.argmax(power) * (wave.fps * 60.0 / NFFT)
    print(f"{name:12s} peak {peak_bpm:6.1f} bpm   "
          f"entropy loss {entropy:.3f}   flatness loss {flatness:.3f}")


def main():
    rng = np.random.default_rng(0)
    t = np.arange(900) / FPS

    tone = standardize(Waveform(np.sin(2 * np.pi * 1.2 * t), FPS))
    noise = standardize(Waveform(rng.standard_normal(900), FPS))
    drifting = standardize(Waveform(np.sin(2 * np.pi * (1.2 + 0.02 * t) * t), FPS))

    print("Spectral penalties (0 = flat spectrum, 1 = single bin):")
    describe("pure tone", tone)
    describe("chirp", drifting)
    describe("white noise", noise)
    describe("flatline", Waveform(np.full(900, 3.0), FPS))

    print("\nGradient descent on the flatness penalty, starting from the tone:")
    samples = tone.samples.copy()
    for step in range(6):
        wave = Waveform(samples, FPS)
        value, grad = loss_spectral_flatness(wave, nfft=NFFT)
        sigma, _ = loss_std(wave)
        if step % 1 == 0:
            print(f"  step {step}: flatness loss {value:.4f}   signal std {sigma:.3f}")
        samples = samples - 200.0 * grad
    print("the penalty decreases monotonically as energy spreads over the band")


if __name__ == "__main__":
    main()
