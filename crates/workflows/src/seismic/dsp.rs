//! Signal-processing kernels for the seismic phase-1 pipeline.
//!
//! Real implementations (not stubs): least-squares detrend, demean, a
//! single-pole band-pass, decimation with a pre-averaging anti-alias step,
//! spectral whitening, RMS normalisation, and an amplitude spectrum — the
//! per-PE operations of the Seismic Cross-Correlation pre-processing phase.
//! The transforms are a radix-2 FFT, O(n log n), on the power-of-two
//! lengths the pipeline makes (512 samples decimated to 256), and the
//! O(n²) DFT on any other length.

use std::f64::consts::PI;

/// Removes the least-squares straight line from `x` in place.
pub fn detrend(x: &mut [f64]) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let nf = n as f64;
    let t_mean = (nf - 1.0) / 2.0;
    let x_mean = x.iter().sum::<f64>() / nf;
    let mut num = 0.0;
    let mut den = 0.0;
    for (k, &v) in x.iter().enumerate() {
        let dt = k as f64 - t_mean;
        num += dt * (v - x_mean);
        den += dt * dt;
    }
    let slope = if den == 0.0 { 0.0 } else { num / den };
    let intercept = x_mean - slope * t_mean;
    for (k, v) in x.iter_mut().enumerate() {
        *v -= intercept + slope * k as f64;
    }
}

/// Subtracts the mean in place.
pub fn demean(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

/// Single-pole recursive band-pass: a high-pass at `low_hz` cascaded with a
/// low-pass at `high_hz`. Good enough for the pipeline's "remove drift and
/// high-frequency noise" role, cheap, and fully testable.
pub fn bandpass(x: &mut [f64], sample_rate: f64, low_hz: f64, high_hz: f64) {
    if x.is_empty() {
        return;
    }
    let dt = 1.0 / sample_rate;
    // High-pass.
    let rc_h = 1.0 / (2.0 * PI * low_hz);
    let alpha_h = rc_h / (rc_h + dt);
    let mut prev_in = x[0];
    let mut prev_out = 0.0;
    for v in x.iter_mut() {
        let cur = *v;
        let out = alpha_h * (prev_out + cur - prev_in);
        prev_in = cur;
        prev_out = out;
        *v = out;
    }
    // Low-pass.
    let rc_l = 1.0 / (2.0 * PI * high_hz);
    let alpha_l = dt / (rc_l + dt);
    let mut acc = x[0];
    for v in x.iter_mut() {
        acc += alpha_l * (*v - acc);
        *v = acc;
    }
}

/// Decimates by `factor` with block averaging (anti-alias).
pub fn decimate(x: &[f64], factor: usize) -> Vec<f64> {
    if factor <= 1 {
        return x.to_vec();
    }
    x.chunks(factor)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// DFT of a real signal: returns (re, im) for bins `0..n`. A radix-2 FFT
/// when `n` is a power of two (every trace the pipeline makes), the O(n²)
/// sum otherwise.
pub fn dft(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    if !x.len().is_power_of_two() {
        return naive_dft(x);
    }
    let mut re = x.to_vec();
    let mut im = vec![0.0; x.len()];
    fft(&mut re, &mut im, -1.0);
    (re, im)
}

/// Inverse of [`dft`] for real output.
pub fn idft(re: &[f64], im: &[f64]) -> Vec<f64> {
    let n = re.len();
    if !n.is_power_of_two() {
        return naive_idft(re, im);
    }
    let mut out = re.to_vec();
    let mut imag = im.to_vec();
    fft(&mut out, &mut imag, 1.0);
    for v in out.iter_mut() {
        *v /= n as f64;
    }
    out
}

/// Iterative in-place radix-2 FFT of `(re, im)`, whose length must be a
/// power of two; `sign` is -1 forward and +1 inverse (unscaled). The
/// twiddles of the longest stage are computed once per call and strided
/// for the shorter ones.
fn fft(re: &mut [f64], im: &mut [f64], sign: f64) {
    let n = re.len();
    // Bit-reversal permutation.
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let twiddles: Vec<(f64, f64)> = (0..n / 2)
        .map(|k| {
            let phase = sign * 2.0 * PI * k as f64 / n as f64;
            (phase.cos(), phase.sin())
        })
        .collect();
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let (wr, wi) = twiddles[k * stride];
                let (a, b) = (start + k, start + k + half);
                let tr = re[b] * wr - im[b] * wi;
                let ti = re[b] * wi + im[b] * wr;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len *= 2;
    }
}

/// The O(n²) DFT, one `sin`/`cos` pair per (bin, sample): [`dft`] for
/// lengths that are not a power of two, and the tests' reference.
fn naive_dft(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = x.len();
    let mut re = vec![0.0; n];
    let mut im = vec![0.0; n];
    for (k, (rk, ik)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
        let w = -2.0 * PI * k as f64 / n as f64;
        for (t, &v) in x.iter().enumerate() {
            let phase = w * t as f64;
            *rk += v * phase.cos();
            *ik += v * phase.sin();
        }
    }
    (re, im)
}

/// The O(n²) inverse of [`naive_dft`].
fn naive_idft(re: &[f64], im: &[f64]) -> Vec<f64> {
    let n = re.len();
    let mut out = vec![0.0; n];
    for (t, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in 0..n {
            let phase = 2.0 * PI * k as f64 * t as f64 / n as f64;
            acc += re[k] * phase.cos() - im[k] * phase.sin();
        }
        *o = acc / n as f64;
    }
    out
}

/// Spectral whitening: flattens the amplitude spectrum to unit magnitude
/// (bins below `floor` are zeroed to avoid noise blow-up), then transforms
/// back. The standard step before ambient-noise cross-correlation.
pub fn whiten(x: &[f64], floor: f64) -> Vec<f64> {
    let (mut re, mut im) = dft(x);
    for (r, i) in re.iter_mut().zip(im.iter_mut()) {
        let mag = (*r * *r + *i * *i).sqrt();
        if mag > floor {
            *r /= mag;
            *i /= mag;
        } else {
            *r = 0.0;
            *i = 0.0;
        }
    }
    idft(&re, &im)
}

/// RMS of a signal.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Normalises to unit RMS in place (no-op on silent traces).
pub fn normalize_rms(x: &mut [f64]) {
    let r = rms(x);
    if r > 0.0 {
        for v in x.iter_mut() {
            *v /= r;
        }
    }
}

/// Amplitude spectrum (first n/2 bins).
pub fn amplitude_spectrum(x: &[f64]) -> Vec<f64> {
    let (re, im) = dft(x);
    re.iter()
        .zip(im.iter())
        .take(x.len() / 2)
        .map(|(r, i)| (r * r + i * i).sqrt())
        .collect()
}

/// Normalised cross-correlation at each lag in `-max_lag..=max_lag`;
/// returns `(best_lag, best_r)` by absolute correlation — the phase-2
/// measurement (inter-station travel-time estimation uses the lag of the
/// correlation peak).
pub fn cross_correlation_max_lag(a: &[f64], b: &[f64], max_lag: usize) -> (i64, f64) {
    assert_eq!(a.len(), b.len(), "traces must be equal length");
    let n = a.len();
    let (ra, rb) = (rms(a), rms(b));
    if ra == 0.0 || rb == 0.0 || n == 0 {
        return (0, 0.0);
    }
    let norm = n as f64 * ra * rb;
    let mut best = (0i64, 0.0f64);
    let max_lag = max_lag.min(n.saturating_sub(1)) as i64;
    for lag in -max_lag..=max_lag {
        let mut dot = 0.0;
        for i in 0..n as i64 {
            let j = i + lag;
            if (0..n as i64).contains(&j) {
                dot += a[i as usize] * b[j as usize];
            }
        }
        let r = dot / norm;
        if r.abs() > best.1.abs() {
            best = (lag, r);
        }
    }
    best
}

/// Normalised cross-correlation of two equal-length signals at zero lag —
/// the phase-2 computation, exposed for the example binaries.
pub fn cross_correlation_zero_lag(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "traces must be equal length");
    let (ra, rb) = (rms(a), rms(b));
    if ra == 0.0 || rb == 0.0 {
        return 0.0;
    }
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    dot / (a.len() as f64 * ra * rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_sync::rng::{Rng, StdRng};

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn detrend_removes_line() {
        let mut x: Vec<f64> = (0..100).map(|k| 3.0 + 0.5 * k as f64).collect();
        detrend(&mut x);
        assert!(x.iter().all(|v| v.abs() < 1e-9), "pure line must vanish");
    }

    #[test]
    fn detrend_preserves_oscillation() {
        let mut x: Vec<f64> = (0..128)
            .map(|k| (k as f64 * 0.3).sin() + 10.0 + 0.2 * k as f64)
            .collect();
        detrend(&mut x);
        assert!(rms(&x) > 0.5, "the sinusoid must survive detrending");
        // And the residual trend is tiny: compare first/last quarters' means.
        let q = x.len() / 4;
        let head: f64 = x[..q].iter().sum::<f64>() / q as f64;
        let tail: f64 = x[x.len() - q..].iter().sum::<f64>() / q as f64;
        assert!(approx(head, tail, 0.5), "head {head} vs tail {tail}");
    }

    #[test]
    fn demean_zeroes_mean() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        demean(&mut x);
        assert!(approx(x.iter().sum::<f64>(), 0.0, 1e-12));
    }

    #[test]
    fn bandpass_kills_dc_and_high_freq() {
        let n = 512;
        let fs = 20.0;
        // DC + in-band 1 Hz + out-of-band 9 Hz.
        let mut x: Vec<f64> = (0..n)
            .map(|k| {
                let t = k as f64 / fs;
                5.0 + (2.0 * PI * 1.0 * t).sin() + (2.0 * PI * 9.0 * t).sin()
            })
            .collect();
        let before_dc = x.iter().sum::<f64>() / n as f64;
        bandpass(&mut x, fs, 0.3, 3.0);
        let after_dc = x[n / 2..].iter().sum::<f64>() / (n / 2) as f64;
        assert!(
            after_dc.abs() < before_dc.abs() / 5.0,
            "DC must be attenuated"
        );
        // In-band energy survives.
        assert!(rms(&x[n / 4..]) > 0.2, "in-band signal must survive");
    }

    #[test]
    fn decimate_shrinks_and_averages() {
        let x = vec![1.0, 3.0, 5.0, 7.0];
        assert_eq!(decimate(&x, 2), vec![2.0, 6.0]);
        assert_eq!(decimate(&x, 1), x);
        assert_eq!(decimate(&x, 3), vec![3.0, 7.0]); // ragged tail averaged
    }

    #[test]
    fn dft_roundtrip() {
        let x: Vec<f64> = (0..64).map(|k| (k as f64 * 0.37).sin() + 0.3).collect();
        let (re, im) = dft(&x);
        let back = idft(&re, &im);
        for (a, b) in x.iter().zip(back.iter()) {
            assert!(approx(*a, *b, 1e-9), "{a} vs {b}");
        }
    }

    /// `n` seeded samples in [-1, 1) over a DC offset.
    fn seeded(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0) + 0.25).collect()
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fft_matches_the_reference_at_every_power_of_two() {
        for log in 0..=10u64 {
            let n = 1usize << log;
            let x = seeded(n, 100 + log);
            let scale: f64 = x.iter().map(|v| v.abs()).sum();
            let (re, im) = dft(&x);
            let (ref_re, ref_im) = naive_dft(&x);
            let forward = max_diff(&re, &ref_re).max(max_diff(&im, &ref_im)) / scale;
            assert!(forward <= 1e-12, "dft at n = {n}: error {forward:e}");
            let inverse = max_diff(&idft(&ref_re, &ref_im), &naive_idft(&ref_re, &ref_im)) / scale;
            assert!(inverse <= 1e-12, "idft at n = {n}: error {inverse:e}");
            let round_trip = max_diff(&idft(&re, &im), &x) / scale;
            assert!(
                round_trip <= 1e-12,
                "round trip at n = {n}: error {round_trip:e}"
            );
        }
    }

    #[test]
    fn other_lengths_round_trip_through_the_reference() {
        for n in [3, 100, 257] {
            let x = seeded(n, n as u64);
            let (re, im) = dft(&x);
            assert_eq!((re.clone(), im.clone()), naive_dft(&x), "n = {n}");
            let back = idft(&re, &im);
            assert_eq!(back, naive_idft(&re, &im), "n = {n}");
            assert!(max_diff(&back, &x) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn dft_finds_pure_tone() {
        let n = 64;
        let x: Vec<f64> = (0..n)
            .map(|k| (2.0 * PI * 4.0 * k as f64 / n as f64).sin())
            .collect();
        let spec = amplitude_spectrum(&x);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 4, "tone at bin 4");
    }

    #[test]
    fn whiten_flattens_spectrum() {
        let n = 64;
        let x: Vec<f64> = (0..n)
            .map(|k| {
                5.0 * (2.0 * PI * 3.0 * k as f64 / n as f64).sin()
                    + 0.5 * (2.0 * PI * 9.0 * k as f64 / n as f64).sin()
            })
            .collect();
        let w = whiten(&x, 1e-6);
        let spec = amplitude_spectrum(&w);
        // The two tones had 10:1 amplitude; after whitening they are ≈1:1.
        let ratio = spec[3] / spec[9];
        assert!((0.5..2.0).contains(&ratio), "whitened ratio {ratio}");
    }

    #[test]
    fn normalize_rms_gives_unit_rms() {
        let mut x: Vec<f64> = (0..100).map(|k| (k as f64 * 0.2).sin() * 7.0).collect();
        normalize_rms(&mut x);
        assert!(approx(rms(&x), 1.0, 1e-9));
        let mut silent = vec![0.0; 8];
        normalize_rms(&mut silent);
        assert_eq!(silent, vec![0.0; 8]);
    }

    #[test]
    fn max_lag_correlation_finds_the_shift() {
        // b is a delayed copy of a: the peak must sit at that lag.
        let n = 128;
        let a: Vec<f64> = (0..n).map(|k| (k as f64 * 0.23).sin()).collect();
        let shift = 5usize;
        let mut b = vec![0.0; n];
        b[..n - shift].copy_from_slice(&a[shift..]);
        let (lag, r) = cross_correlation_max_lag(&b, &a, 10);
        assert_eq!(lag, shift as i64, "peak lag");
        assert!(r > 0.8, "strong correlation at the peak, got {r}");
    }

    #[test]
    fn max_lag_zero_lag_matches_direct_formula() {
        let a: Vec<f64> = (0..64).map(|k| (k as f64 * 0.31).sin()).collect();
        let b: Vec<f64> = (0..64).map(|k| (k as f64 * 0.31 + 0.4).sin()).collect();
        let (_, r_any) = cross_correlation_max_lag(&a, &b, 0);
        let r_zero = cross_correlation_zero_lag(&a, &b);
        assert!(approx(r_any, r_zero, 1e-12));
    }

    #[test]
    fn max_lag_handles_silence() {
        assert_eq!(cross_correlation_max_lag(&[0.0; 8], &[0.0; 8], 3), (0, 0.0));
    }

    #[test]
    fn cross_correlation_of_identical_signals_is_one() {
        let x: Vec<f64> = (0..128).map(|k| (k as f64 * 0.3).sin()).collect();
        assert!(approx(cross_correlation_zero_lag(&x, &x), 1.0, 1e-9));
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!(approx(cross_correlation_zero_lag(&x, &neg), -1.0, 1e-9));
    }

    #[test]
    fn edge_cases_do_not_panic() {
        let mut empty: Vec<f64> = vec![];
        detrend(&mut empty);
        demean(&mut empty);
        bandpass(&mut empty, 20.0, 0.1, 1.0);
        assert_eq!(rms(&empty), 0.0);
        let mut one = vec![5.0];
        detrend(&mut one);
        assert_eq!(one, vec![5.0]);
    }
}
