//! Request arrival processes: homogeneous Poisson traffic, the
//! flash-crowd burst, and ramped diurnal traffic — plus the batched
//! [`ArrivalSampler`] that generates their arrival times on a dedicated
//! RNG stream.
//!
//! Non-stationary arrival times are generated by Ogata-style thinning:
//! candidate points come from a homogeneous Poisson process at an
//! envelope rate above the true rate, and each candidate survives with
//! probability `rate(t) / envelope`. The flash crowd thins against its
//! global peak; the diurnal sinusoid thins against a **piecewise-
//! constant K-segment majorisation** — each period is cut into
//! [`DIURNAL_SEGMENTS`] segments, each carrying the tight local
//! maximum of the sinusoid (crest-aware), so trough-side candidates
//! are generated at roughly the trough rate instead of the crest rate
//! and the acceptance ratio stays near one across the whole cycle. A
//! candidate overshooting its segment boundary is discarded and the
//! clock restarts at the boundary with a fresh exponential —
//! memorylessness makes that exact. Candidate gaps — homogeneous and
//! thinned alike — are pre-sampled in blocks through
//! [`ExponentialBlock`] (ziggurat-backed: no `ln` on the fast path),
//! while acceptance uniforms draw from a separate thinning stream; the
//! homogeneous process skips the (always-successful) acceptance draw
//! entirely. Each sampler owns its own derived RNG streams, so the
//! block layout is invisible to every other stream in the simulation
//! and traces stay a pure function of `(process, seed)`.

use bnb_distributions::{derive_seed, ExponentialBlock, Xoshiro256PlusPlus};
use bnb_queueing::events::Time;

/// Sub-stream id of the block-sampled homogeneous gap stream.
const GAP_SUBSTREAM: u64 = 1;
/// Sub-stream id of the thinning (candidate + acceptance) stream.
const THIN_SUBSTREAM: u64 = 2;

/// Segments per period of the diurnal thinning envelope. At 32, the
/// sinusoid moves by at most `2π/32 ≈ 0.20 · amplitude · base` within
/// a segment, so the per-segment envelope sits within a few percent of
/// the local rate and the candidate acceptance ratio stays near one
/// even at amplitude 0.9 (global crest-rate thinning accepts only
/// `1/(1+amplitude)` of its candidates).
pub const DIURNAL_SEGMENTS: usize = 32;

/// The per-segment envelope table of a diurnal process: for each of
/// the [`DIURNAL_SEGMENTS`] segments of one period, the reciprocal of
/// a tight constant majorant of the rate and the squeeze floor
/// `segment_min / segment_max`. Crest/trough aware: a segment
/// containing the sinusoid's crest (or trough) uses the true extremum,
/// not just the endpoint values. The envelope is inflated by one part
/// in 10¹² so a candidate landing a float ulp outside its nominal
/// segment still sits under it.
fn diurnal_segments(base_rate: f64, amplitude: f64, period: Time) -> (Vec<f64>, Vec<f64>) {
    let rate_at =
        |t: Time| base_rate * (1.0 + amplitude * (std::f64::consts::TAU * t / period).sin());
    let seg_len = period / DIURNAL_SEGMENTS as f64;
    let crest = 0.25 * period;
    let trough = 0.75 * period;
    let mut inv_env = Vec::with_capacity(DIURNAL_SEGMENTS);
    let mut floor = Vec::with_capacity(DIURNAL_SEGMENTS);
    for j in 0..DIURNAL_SEGMENTS {
        let a = j as f64 * seg_len;
        let b = (j + 1) as f64 * seg_len;
        let (ra, rb) = (rate_at(a), rate_at(b));
        let mut hi = ra.max(rb);
        let mut lo = ra.min(rb);
        if (a..=b).contains(&crest) {
            hi = base_rate * (1.0 + amplitude);
        }
        if (a..=b).contains(&trough) {
            lo = base_rate * (1.0 - amplitude);
        }
        let env = hi * (1.0 + 1e-12);
        inv_env.push(1.0 / env);
        floor.push(lo / env);
    }
    (inv_env, floor)
}

/// When requests enter the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` requests per unit time.
    Poisson {
        /// Mean arrivals per unit time.
        rate: f64,
    },
    /// A flash crowd: Poisson at `base_rate`, except during
    /// `[burst_start, burst_end)` where the rate jumps to `peak_rate` —
    /// the "millions of users pile onto one page" workload.
    FlashCrowd {
        /// Rate outside the burst window.
        base_rate: f64,
        /// Rate inside the burst window (must be ≥ `base_rate`).
        peak_rate: f64,
        /// Burst window start time.
        burst_start: Time,
        /// Burst window end time (exclusive).
        burst_end: Time,
    },
    /// Ramped diurnal traffic: a sinusoidal day/night cycle,
    /// `rate(t) = base_rate · (1 + amplitude · sin(2πt / period))` —
    /// the non-stationary path every long-running service actually
    /// serves. Sampled by thinning against a piecewise-constant
    /// [`DIURNAL_SEGMENTS`]-segment majorisation of the sinusoid.
    Diurnal {
        /// Mean rate over a full cycle.
        base_rate: f64,
        /// Relative swing in `[0, 1]`: 0 is flat, 1 dips to zero at the
        /// trough.
        amplitude: f64,
        /// Cycle length in simulation-time units.
        period: Time,
    },
}

impl ArrivalProcess {
    /// Validates the parameters; call once at scenario construction.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite rates, a peak below the
    /// base, an empty burst window, an amplitude outside `[0, 1]`, or a
    /// non-positive period.
    pub fn validate(&self) {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
            }
            ArrivalProcess::FlashCrowd {
                base_rate,
                peak_rate,
                burst_start,
                burst_end,
            } => {
                assert!(
                    base_rate.is_finite() && base_rate > 0.0,
                    "base rate must be positive"
                );
                assert!(
                    peak_rate.is_finite() && peak_rate >= base_rate,
                    "peak rate must be at least the base rate"
                );
                assert!(
                    burst_start >= 0.0 && burst_end > burst_start,
                    "burst window must be non-empty"
                );
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                assert!(
                    base_rate.is_finite() && base_rate > 0.0,
                    "base rate must be positive"
                );
                assert!(
                    (0.0..=1.0).contains(&amplitude),
                    "amplitude must be in [0, 1], got {amplitude}"
                );
                assert!(
                    period.is_finite() && period > 0.0,
                    "period must be positive"
                );
            }
        }
    }

    /// The instantaneous rate at time `t`.
    #[must_use]
    pub fn rate_at(&self, t: Time) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::FlashCrowd {
                base_rate,
                peak_rate,
                burst_start,
                burst_end,
            } => {
                if t >= burst_start && t < burst_end {
                    peak_rate
                } else {
                    base_rate
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
            } => base_rate * (1.0 + amplitude * (std::f64::consts::TAU * t / period).sin()),
        }
    }

    /// The maximum rate over all times (the thinning envelope).
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::FlashCrowd { peak_rate, .. } => peak_rate,
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                ..
            } => base_rate * (1.0 + amplitude),
        }
    }

    /// Whether the rate is constant (the thinning acceptance draw would
    /// always succeed, so the sampler skips it and block-samples gaps).
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        matches!(self, ArrivalProcess::Poisson { .. })
    }

    /// The minimum rate over all times — the floor of the thinning
    /// acceptance probability (`min_rate / peak`), which the sampler
    /// uses as a *squeeze bound*: an acceptance uniform at or below it
    /// accepts without evaluating [`ArrivalProcess::rate_at`] at all.
    #[must_use]
    pub fn min_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::FlashCrowd { base_rate, .. } => base_rate,
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                ..
            } => base_rate * (1.0 - amplitude),
        }
    }
}

/// The batched arrival-time generator: owns the process, its dedicated
/// RNG streams, and a pre-sampled Exp(1) gap block.
///
/// Homogeneous Poisson consumes one Exp(1) variate per arrival from an
/// [`ExponentialBlock`]; non-stationary processes thin candidates with
/// one block-sampled gap plus one acceptance uniform per candidate.
/// Either way the arrival trace is a pure function of
/// `(process, seed)` and of nothing else — the stream is not shared
/// with placement, service or churn.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    /// Acceptance-uniform RNG (non-stationary processes only).
    rng: Xoshiro256PlusPlus,
    /// Block-sampled Exp(1) gaps: arrival gaps for the homogeneous
    /// process, candidate gaps for the thinned ones.
    gaps: ExponentialBlock,
    /// `1 / rate` for the homogeneous fast path.
    inv_rate: f64,
    /// `1 / peak_rate` — the thinning envelope, hoisted off the
    /// per-candidate path (it was a divide per candidate).
    inv_peak: f64,
    /// The squeeze floor `min_rate / peak`: an acceptance uniform at or
    /// below it is accepted without evaluating the rate function (the
    /// diurnal `sin` is the whole per-candidate story). Trace-exact —
    /// `u ≤ floor ≤ rate(t)/peak` implies the full test passes, and the
    /// draw count is unchanged.
    accept_floor: f64,
    /// Thinning candidates accepted (non-stationary processes only —
    /// the homogeneous fast path never thins and never counts).
    thin_accepted: u64,
    /// Thinning candidates rejected.
    thin_rejected: u64,
    /// Accepts decided by the squeeze floor alone, without evaluating
    /// the rate function — how much work the squeeze actually saves.
    squeeze_accepts: u64,
    /// Per-segment envelope reciprocals of the diurnal K-segment
    /// majorisation (empty for every other process — emptiness is the
    /// dispatch flag).
    seg_inv_env: Vec<f64>,
    /// Per-segment squeeze floors `segment_min / segment_envelope`.
    seg_floor: Vec<f64>,
    /// Segment length `period / DIURNAL_SEGMENTS`.
    seg_len: Time,
}

impl ArrivalSampler {
    /// Builds the sampler on its dedicated stream seed (already derived
    /// from the run seed by the caller).
    ///
    /// # Panics
    /// Panics if the process parameters are invalid.
    #[must_use]
    pub fn new(process: ArrivalProcess, stream_seed: u64) -> Self {
        process.validate();
        let inv_rate = match process {
            ArrivalProcess::Poisson { rate } => 1.0 / rate,
            _ => 0.0,
        };
        let (seg_inv_env, seg_floor, seg_len) = match process {
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                let (inv_env, floor) = diurnal_segments(base_rate, amplitude, period);
                (inv_env, floor, period / DIURNAL_SEGMENTS as f64)
            }
            _ => (Vec::new(), Vec::new(), 0.0),
        };
        // The gap block and the thinning RNG get *separate* derived
        // sub-streams: only one is consumed per process variant today,
        // but a future mixed variant must never find them correlated.
        ArrivalSampler {
            rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(stream_seed, THIN_SUBSTREAM, 0)),
            gaps: ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(derive_seed(
                stream_seed,
                GAP_SUBSTREAM,
                0,
            ))),
            inv_rate,
            inv_peak: 1.0 / process.peak_rate(),
            accept_floor: process.min_rate() / process.peak_rate(),
            thin_accepted: 0,
            thin_rejected: 0,
            squeeze_accepts: 0,
            seg_inv_env,
            seg_floor,
            seg_len,
            process,
        }
    }

    /// The time of the next arrival strictly after `now`.
    #[inline]
    #[must_use]
    pub fn next_after(&mut self, now: Time) -> Time {
        if self.process.is_homogeneous() {
            return now + self.gaps.next() * self.inv_rate;
        }
        if !self.seg_inv_env.is_empty() {
            return self.next_after_segmented(now);
        }
        // Ogata thinning against the global peak-rate envelope:
        // block-sampled exponential candidate gaps, acceptance with
        // probability rate(t)/peak from the dedicated thinning stream.
        // The squeeze floor short-circuits the rate evaluation —
        // uniforms at or below `min_rate/peak` accept without touching
        // the rate function — while leaving every accept/reject
        // decision and draw count bitwise unchanged.
        let mut t = now;
        loop {
            t += self.gaps.next() * self.inv_peak;
            let accept = self.rng.next_f64();
            if accept <= self.accept_floor {
                self.squeeze_accepts += 1;
                self.thin_accepted += 1;
                return t;
            }
            if accept <= self.process.rate_at(t) * self.inv_peak {
                self.thin_accepted += 1;
                return t;
            }
            self.thin_rejected += 1;
        }
    }

    /// Thinning against the diurnal K-segment envelope: candidates are
    /// generated at the *local* segment majorant, not the global crest
    /// rate, so the trough half of the cycle stops burning `1+amplitude`
    /// candidates (and uniforms, and `sin` calls) per arrival.
    ///
    /// A candidate overshooting its segment boundary is discarded: the
    /// clock moves to the boundary and the next segment draws a fresh
    /// exponential — exact by memorylessness of the candidate process.
    /// The segment cursor is an **integer** that only ever advances, so
    /// float rounding at a boundary can shift work between neighbouring
    /// segments by an ulp but can never loop. Acceptance first tries
    /// the per-segment squeeze floor (`segment_min / envelope`, close
    /// to one for a tight envelope), touching the sinusoid only for
    /// uniforms landing in the narrow band between floor and envelope.
    #[inline]
    fn next_after_segmented(&mut self, now: Time) -> Time {
        let seg_len = self.seg_len;
        let k = self.seg_inv_env.len() as u64;
        let mut t = now;
        let mut j_abs = (t / seg_len) as u64;
        loop {
            let seg_end = (j_abs + 1) as f64 * seg_len;
            if t >= seg_end {
                j_abs += 1;
                continue;
            }
            let j = (j_abs % k) as usize;
            let inv_env = self.seg_inv_env[j];
            let cand = t + self.gaps.next() * inv_env;
            if cand >= seg_end {
                t = seg_end;
                j_abs += 1;
                continue;
            }
            t = cand;
            let accept = self.rng.next_f64();
            if accept <= self.seg_floor[j] {
                self.squeeze_accepts += 1;
                self.thin_accepted += 1;
                return t;
            }
            if accept <= self.process.rate_at(t) * inv_env {
                self.thin_accepted += 1;
                return t;
            }
            self.thin_rejected += 1;
        }
    }

    /// Thinning telemetry: `(accepted, rejected, squeeze_accepts)`
    /// candidate counts. All zero for homogeneous processes (which
    /// never thin) — the counters live on the thinning loop only, off
    /// the homogeneous fast path. Plain increments on a path that
    /// already evaluates a sinusoid: schedule-invisible by
    /// construction (no RNG, no clock).
    #[must_use]
    pub fn thinning_counts(&self) -> (u64, u64, u64) {
        (self.thin_accepted, self.thin_rejected, self.squeeze_accepts)
    }

    /// Pre-samples the next `n` arrival times strictly after `now` into
    /// `out` (cleared first), each chaining off its predecessor —
    /// exactly the sequence `n` successive [`ArrivalSampler::next_after`]
    /// calls produce, drawn from the same streams in the same order (the
    /// bitwise-equivalence test pins it). The drive loop consumes
    /// arrivals through this, keeping the thinning loop hot across a
    /// block instead of re-entering it per request.
    pub fn fill_after(&mut self, now: Time, n: usize, out: &mut Vec<Time>) {
        out.clear();
        out.reserve(n);
        let mut t = now;
        for _ in 0..n {
            t = self.next_after(t);
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_interarrivals_have_the_right_mean() {
        let p = ArrivalProcess::Poisson { rate: 4.0 };
        let mut s = ArrivalSampler::new(p, 1);
        let n = 100_000;
        let mut t = 0.0;
        for _ in 0..n {
            t = s.next_after(t);
        }
        let mean_gap = t / n as f64;
        assert!(
            (mean_gap - 0.25).abs() < 0.005,
            "mean interarrival {mean_gap} vs 1/4"
        );
    }

    #[test]
    fn flash_crowd_rate_profile() {
        let p = ArrivalProcess::FlashCrowd {
            base_rate: 2.0,
            peak_rate: 10.0,
            burst_start: 5.0,
            burst_end: 7.0,
        };
        p.validate();
        assert_eq!(p.rate_at(0.0), 2.0);
        assert_eq!(p.rate_at(5.0), 10.0);
        assert_eq!(p.rate_at(6.999), 10.0);
        assert_eq!(p.rate_at(7.0), 2.0);
        assert_eq!(p.peak_rate(), 10.0);
    }

    #[test]
    fn diurnal_rate_profile() {
        let p = ArrivalProcess::Diurnal {
            base_rate: 10.0,
            amplitude: 0.5,
            period: 4.0,
        };
        p.validate();
        assert!((p.rate_at(0.0) - 10.0).abs() < 1e-12, "base at phase 0");
        assert!((p.rate_at(1.0) - 15.0).abs() < 1e-12, "crest at quarter");
        assert!((p.rate_at(3.0) - 5.0).abs() < 1e-12, "trough at 3/4");
        assert!((p.peak_rate() - 15.0).abs() < 1e-12);
        assert!(!p.is_homogeneous());
    }

    #[test]
    fn diurnal_concentrates_arrivals_on_the_crest() {
        let p = ArrivalProcess::Diurnal {
            base_rate: 50.0,
            amplitude: 0.9,
            period: 10.0,
        };
        let mut s = ArrivalSampler::new(p, 7);
        // Count arrivals in the crest half vs the trough half over many
        // cycles; the crest must dominate.
        let (mut crest, mut trough) = (0u64, 0u64);
        let mut t = 0.0;
        while t < 200.0 {
            t = s.next_after(t);
            let phase = (t / 10.0).fract();
            if phase < 0.5 {
                crest += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            crest as f64 > 1.5 * trough as f64,
            "crest {crest} vs trough {trough}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        let p = ArrivalProcess::FlashCrowd {
            base_rate: 1.0,
            peak_rate: 20.0,
            burst_start: 10.0,
            burst_end: 12.0,
        };
        let mut s = ArrivalSampler::new(p, 2);
        let mut t = 0.0;
        let mut in_window = 0u64;
        let mut total = 0u64;
        while t < 22.0 {
            t = s.next_after(t);
            if t >= 22.0 {
                break;
            }
            total += 1;
            if (10.0..12.0).contains(&t) {
                in_window += 1;
            }
        }
        // Expected: 20 base arrivals over 20 units, 40 burst arrivals
        // over 2 units — roughly two thirds of the mass in the window.
        assert!(
            in_window as f64 > 0.45 * total as f64,
            "only {in_window}/{total} arrivals in the burst window"
        );
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        for p in [
            ArrivalProcess::FlashCrowd {
                base_rate: 3.0,
                peak_rate: 9.0,
                burst_start: 1.0,
                burst_end: 2.0,
            },
            ArrivalProcess::Poisson { rate: 5.0 },
            ArrivalProcess::Diurnal {
                base_rate: 5.0,
                amplitude: 0.7,
                period: 3.0,
            },
        ] {
            let run = |seed: u64| {
                let mut s = ArrivalSampler::new(p, seed);
                let mut times = Vec::new();
                let mut t = 0.0;
                for _ in 0..2_000 {
                    let next = s.next_after(t);
                    assert!(next > t, "arrival times must strictly increase");
                    times.push(next);
                    t = next;
                }
                times
            };
            assert_eq!(run(7), run(7));
            assert_ne!(run(7), run(8));
        }
    }

    #[test]
    fn fill_after_is_bitwise_the_sequential_stream() {
        for p in [
            ArrivalProcess::Poisson { rate: 230.0 },
            ArrivalProcess::FlashCrowd {
                base_rate: 3.0,
                peak_rate: 9.0,
                burst_start: 1.0,
                burst_end: 2.0,
            },
            ArrivalProcess::Diurnal {
                base_rate: 40.0,
                amplitude: 0.5,
                period: 7.0,
            },
        ] {
            let mut seq = ArrivalSampler::new(p, 11);
            let mut blk = ArrivalSampler::new(p, 11);
            let mut expect = Vec::new();
            let mut t = 0.0;
            for _ in 0..1_000 {
                t = seq.next_after(t);
                expect.push(t);
            }
            // Uneven block sizes must tile the identical sequence.
            let mut got: Vec<Time> = Vec::new();
            let mut buf = Vec::new();
            let mut last = 0.0;
            for n in [1usize, 7, 64, 128, 800] {
                blk.fill_after(last, n, &mut buf);
                got.extend_from_slice(&buf);
                last = *buf.last().unwrap();
            }
            assert_eq!(
                got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "block fill must replay the scalar stream bitwise"
            );
        }
    }

    #[test]
    fn squeeze_floor_matches_unsqueezed_thinning() {
        // Replay the sampler's global thinning by hand without the
        // squeeze floor: identical streams must yield identical
        // arrivals, so the floor can only ever skip the rate
        // evaluation, never flip a decision. (The flash crowd is the
        // global-envelope process; the diurnal sinusoid thins against
        // its own segment envelope, replayed in the test below.)
        let p = ArrivalProcess::FlashCrowd {
            base_rate: 8.0,
            peak_rate: 40.0,
            burst_start: 2.0,
            burst_end: 5.0,
        };
        let mut s = ArrivalSampler::new(p, 23);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(23, THIN_SUBSTREAM, 0));
        let mut gaps = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(derive_seed(
            23,
            GAP_SUBSTREAM,
            0,
        )));
        let inv_peak = 1.0 / p.peak_rate();
        let mut t_ref = 0.0f64;
        let mut t = 0.0f64;
        for _ in 0..5_000 {
            loop {
                t_ref += gaps.next() * inv_peak;
                if rng.next_f64() <= p.rate_at(t_ref) * inv_peak {
                    break;
                }
            }
            t = s.next_after(t);
            assert_eq!(t.to_bits(), t_ref.to_bits());
        }
    }

    #[test]
    fn diurnal_segment_envelope_majorises_the_rate() {
        // The correctness precondition of thinning: every segment's
        // constant envelope must sit at or above the true rate across
        // the whole segment, and the squeeze floor at or below the
        // segment minimum. Checked on a dense grid over two periods
        // (crest and trough segments included) for several amplitudes.
        for &amplitude in &[0.0, 0.3, 0.9, 1.0] {
            let (base_rate, period) = (40.0, 7.0);
            let p = ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
            };
            let (inv_env, floor) = diurnal_segments(base_rate, amplitude, period);
            let seg_len = period / DIURNAL_SEGMENTS as f64;
            for i in 0..20_000 {
                let t = 2.0 * period * i as f64 / 20_000.0;
                let j = ((t / seg_len) as u64 % DIURNAL_SEGMENTS as u64) as usize;
                let ratio = p.rate_at(t) * inv_env[j];
                assert!(
                    ratio <= 1.0,
                    "amplitude {amplitude}: rate at t={t} exceeds segment {j} envelope ({ratio})"
                );
                assert!(
                    floor[j] <= ratio + 1e-9,
                    "amplitude {amplitude}: squeeze floor above the rate at t={t} in segment {j}"
                );
            }
        }
    }

    #[test]
    fn segmented_thinning_replays_by_hand() {
        // Independent replay of the segmented algorithm from the same
        // streams: candidates at the per-segment envelope rate,
        // boundary overshoots discarded (one gap draw each), accepts
        // with probability rate/envelope and no squeeze floor. The
        // sampler must emit the identical arrival stream — so the
        // squeeze floor and the integer segment cursor are pure
        // optimisations.
        let (base_rate, amplitude, period) = (40.0, 0.8, 7.0);
        let p = ArrivalProcess::Diurnal {
            base_rate,
            amplitude,
            period,
        };
        let mut s = ArrivalSampler::new(p, 29);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(29, THIN_SUBSTREAM, 0));
        let mut gaps = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(derive_seed(
            29,
            GAP_SUBSTREAM,
            0,
        )));
        let (inv_env, _) = diurnal_segments(base_rate, amplitude, period);
        let seg_len = period / DIURNAL_SEGMENTS as f64;
        let mut t_ref = 0.0f64;
        let mut t = 0.0f64;
        for _ in 0..5_000 {
            let mut j_abs = (t_ref / seg_len) as u64;
            'accepted: loop {
                let seg_end = (j_abs + 1) as f64 * seg_len;
                if t_ref >= seg_end {
                    j_abs += 1;
                    continue;
                }
                let j = (j_abs % DIURNAL_SEGMENTS as u64) as usize;
                let cand = t_ref + gaps.next() * inv_env[j];
                if cand >= seg_end {
                    t_ref = seg_end;
                    j_abs += 1;
                    continue;
                }
                t_ref = cand;
                if rng.next_f64() <= p.rate_at(t_ref) * inv_env[j] {
                    break 'accepted;
                }
            }
            t = s.next_after(t);
            assert_eq!(t.to_bits(), t_ref.to_bits());
        }
    }

    #[test]
    fn segmented_thinning_matches_global_thinning_distribution() {
        // Distributional exactness: the segment-envelope sampler and a
        // hand-rolled global crest-rate thinner target the same
        // inhomogeneous Poisson process, so their arrival mass per
        // phase-of-cycle bucket must agree to Monte Carlo noise.
        let (base_rate, amplitude, period) = (50.0, 0.9, 10.0);
        let p = ArrivalProcess::Diurnal {
            base_rate,
            amplitude,
            period,
        };
        const BUCKETS: usize = 8;
        let horizon = 400.0;
        let mut seg_counts = [0u64; BUCKETS];
        let mut s = ArrivalSampler::new(p, 101);
        let mut t = 0.0;
        loop {
            t = s.next_after(t);
            if t >= horizon {
                break;
            }
            seg_counts[((t / period).fract() * BUCKETS as f64) as usize % BUCKETS] += 1;
        }
        let mut glob_counts = [0u64; BUCKETS];
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(202, THIN_SUBSTREAM, 0));
        let mut gaps = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(derive_seed(
            202,
            GAP_SUBSTREAM,
            0,
        )));
        let inv_peak = 1.0 / p.peak_rate();
        let mut t = 0.0;
        loop {
            t += gaps.next() * inv_peak;
            if t >= horizon {
                break;
            }
            if rng.next_f64() <= p.rate_at(t) * inv_peak {
                glob_counts[((t / period).fract() * BUCKETS as f64) as usize % BUCKETS] += 1;
            }
        }
        let seg_total: u64 = seg_counts.iter().sum();
        let glob_total: u64 = glob_counts.iter().sum();
        // ≈ 20k arrivals each; per-bucket shares carry ~1–2% noise.
        for b in 0..BUCKETS {
            let fs = seg_counts[b] as f64 / seg_total as f64;
            let fg = glob_counts[b] as f64 / glob_total as f64;
            assert!(
                (fs - fg).abs() < 0.02,
                "phase bucket {b}: segmented share {fs} vs global share {fg}"
            );
        }
        let expected = base_rate * horizon;
        assert!(
            (seg_total as f64 - expected).abs() < 0.05 * expected,
            "segmented total {seg_total} vs expected {expected}"
        );
    }

    #[test]
    fn segmented_envelope_slashes_thinning_rejections() {
        // The point of the majorisation: at amplitude 0.9 the global
        // crest envelope accepts only 1/(1+0.9) ≈ 53% of candidates,
        // the 32-segment envelope well over 85% — and almost every
        // accept is decided by the per-segment squeeze floor, so the
        // sinusoid is rarely evaluated at all.
        let p = ArrivalProcess::Diurnal {
            base_rate: 50.0,
            amplitude: 0.9,
            period: 10.0,
        };
        let mut s = ArrivalSampler::new(p, 303);
        let mut t = 0.0;
        for _ in 0..20_000 {
            t = s.next_after(t);
        }
        let (accepted, rejected, squeeze) = s.thinning_counts();
        assert_eq!(accepted, 20_000);
        let ratio = accepted as f64 / (accepted + rejected) as f64;
        assert!(
            ratio > 0.85,
            "segment-envelope acceptance ratio {ratio} should beat the global 0.53 by far"
        );
        assert!(
            squeeze as f64 > 0.8 * accepted as f64,
            "squeeze floor decided only {squeeze}/{accepted} accepts"
        );
    }

    #[test]
    #[should_panic(expected = "peak rate must be at least")]
    fn inverted_burst_rejected() {
        ArrivalProcess::FlashCrowd {
            base_rate: 5.0,
            peak_rate: 1.0,
            burst_start: 0.0,
            burst_end: 1.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "amplitude must be in")]
    fn oversized_amplitude_rejected() {
        ArrivalProcess::Diurnal {
            base_rate: 1.0,
            amplitude: 1.5,
            period: 1.0,
        }
        .validate();
    }
}
