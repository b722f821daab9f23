//! The doubly-stochastic attack-arrival process.
//!
//! Daily attack counts per family are Poisson draws around a latent
//! log-normal AR(1) rate. The construction is calibrated so that, over the
//! family's active days, the observed mean and coefficient of variation
//! reproduce Table I:
//!
//! * mean: the latent multiplier has unit expectation (`exp(z − σ²/2)`),
//! * CV: `CV² = 1/m + (e^{σ²} − 1)` with σ from
//!   [`FamilyProfile::rate_sigma`],
//! * autocorrelation: the AR(1) persistence (`rate_phi`) is what gives the
//!   paper's temporal ARIMA model something real to fit — attack volume
//!   today predicts attack volume tomorrow.
//!
//! Hours within a day follow the family's diurnal launch profile.

use crate::family::FamilyProfile;
use crate::scenario::{RegimeParams, RegimeSchedule};
use crate::time::Timestamp;
use crate::Result;
use ddos_stats::distributions::{poisson, standard_normal, DiurnalProfile};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One active day in a family's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DayPlan {
    /// Day index since trace start.
    pub day: u32,
    /// Number of attacks to launch that day.
    pub count: u32,
    /// The latent rate that produced the count (useful for diagnostics).
    pub rate: f64,
}

/// A family's full arrival schedule over the trace window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSchedule {
    days: Vec<DayPlan>,
}

impl ArrivalSchedule {
    /// Generates the schedule under a regime timeline: each day's latent
    /// rate is scaled by the regime's intensity before the Poisson draw,
    /// so bursts and lulls shift both the counts and (through the
    /// activity multiplier downstream) the magnitude distribution.
    ///
    /// With [`RegimeSchedule::stationary`] this is the calibrated static
    /// process: the intensity multiplier is exactly 1.0 and regime lookups
    /// consume no randomness.
    ///
    /// # Errors
    ///
    /// Propagates sampler parameter errors (none occur for validated
    /// profiles).
    pub fn generate_in_scenario<R: Rng + ?Sized>(
        profile: &FamilyProfile,
        total_days: u32,
        slot: usize,
        regimes: &RegimeSchedule,
        rng: &mut R,
    ) -> Result<Self> {
        let (first_day, window_len, p_active) = profile.activity_window(total_days, slot);
        let sigma = profile.rate_sigma();
        let phi = profile.rate_phi;
        // Counts are floored at 1 on active days (a zero-attack "active day"
        // is a contradiction), which would inflate the observed mean by
        // E[e^{-λ}]; solve λ + e^{-λ} = m so the floored mean lands on the
        // Table I average.
        let base = floor_adjusted_rate(profile.avg_attacks_per_day);
        // Stationary AR(1) start.
        let mut z = sigma * standard_normal(rng);
        let innov_std = sigma * (1.0 - phi * phi).sqrt();
        let mut days = Vec::new();
        for d in 0..window_len {
            // Advance the latent state every day, active or not, so
            // dormancy does not freeze the process.
            z = phi * z + innov_std * standard_normal(rng);
            if !rng.gen_bool(p_active) {
                continue;
            }
            // `x * 1.0` is bit-exact, so the stationary single-regime
            // schedule reproduces the unscaled rate to the last bit.
            let rate =
                base * regimes.params_at(first_day + d).intensity * (z - sigma * sigma / 2.0).exp();
            let count = poisson(rng, rate)? as u32;
            if count == 0 {
                // An "active day" with zero attacks would not appear as an
                // active day in the data; launch at least one attack.
                days.push(DayPlan { day: first_day + d, count: 1, rate });
            } else {
                days.push(DayPlan { day: first_day + d, count, rate });
            }
        }
        Ok(ArrivalSchedule { days })
    }

    /// The active days, chronologically.
    pub fn days(&self) -> &[DayPlan] {
        &self.days
    }

    /// Number of active days.
    pub fn active_days(&self) -> usize {
        self.days.len()
    }

    /// Total attacks across the schedule.
    pub fn total_attacks(&self) -> u64 {
        self.days.iter().map(|d| d.count as u64).sum()
    }

    /// Daily counts as an f64 series (for CV checks and model input).
    pub fn daily_counts(&self) -> Vec<f64> {
        self.days.iter().map(|d| d.count as f64).collect()
    }
}

/// Solves `λ + e^{-λ} = m` (fixed-point iteration): the Poisson rate whose
/// floored-at-one expectation equals `m`. For large `m` this is `m` itself.
fn floor_adjusted_rate(m: f64) -> f64 {
    if m > 30.0 {
        return m;
    }
    let mut lambda = (m - (-m).exp()).max(0.01);
    for _ in 0..50 {
        lambda = (m - (-lambda).exp()).max(0.01);
    }
    lambda
}

/// Draws launch timestamps for the attacks of one day: hours follow the
/// family's diurnal profile, phase-shifted by the regime (a zero shift is
/// the static placement), seconds are uniform within the hour, and the
/// result is sorted.
pub fn place_within_day_in_regime<R: Rng + ?Sized>(
    day: u32,
    count: u32,
    profile: &FamilyProfile,
    params: &RegimeParams,
    rng: &mut R,
) -> Result<Vec<Timestamp>> {
    let diurnal =
        DiurnalProfile::sinusoidal(profile.shifted_peak(params), profile.diurnal_amplitude)?;
    let mut out: Vec<Timestamp> = (0..count)
        .map(|_| {
            let hour = diurnal.sample_hour(rng);
            let sec = rng.gen_range(0..crate::time::HOUR);
            Timestamp::from_day_hour(day, hour) + sec
        })
        .collect();
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyCatalog;
    use ddos_stats::metrics::{coefficient_of_variation, mean};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile(name: &str) -> FamilyProfile {
        let c = FamilyCatalog::icdcs2017();
        c.profile(c.by_name(name).unwrap()).unwrap().clone()
    }

    fn stationary_schedule(
        p: &FamilyProfile,
        total_days: u32,
        slot: usize,
        rng: &mut StdRng,
    ) -> ArrivalSchedule {
        ArrivalSchedule::generate_in_scenario(
            p,
            total_days,
            slot,
            &RegimeSchedule::stationary(p),
            rng,
        )
        .unwrap()
    }

    #[test]
    fn schedule_respects_window() {
        let p = profile("YZF"); // 72 active days
        let mut rng = StdRng::seed_from_u64(1);
        let s = stationary_schedule(&p, 220, 9, &mut rng);
        let (first, len, _) = p.activity_window(220, 9);
        for d in s.days() {
            assert!(d.day >= first && d.day < first + len);
            assert!(d.count >= 1);
        }
    }

    #[test]
    fn active_day_count_near_table1() {
        let p = profile("Pandora"); // 165 active days
        let mut totals = Vec::new();
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = stationary_schedule(&p, 220, 8, &mut rng);
            totals.push(s.active_days() as f64);
        }
        let avg = mean(&totals).unwrap();
        assert!((avg - 165.0).abs() < 12.0, "avg active days {avg}");
    }

    #[test]
    fn mean_daily_count_near_table1() {
        let p = profile("DirtJumper");
        let mut rng = StdRng::seed_from_u64(3);
        let s = stationary_schedule(&p, 220, 5, &mut rng);
        let m = mean(&s.daily_counts()).unwrap();
        assert!((m - 144.3).abs() < 25.0, "mean daily {m}");
    }

    #[test]
    fn cv_calibration_overdispersed_family() {
        let p = profile("Pandora"); // CV 1.27
        let mut cvs = Vec::new();
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let s = stationary_schedule(&p, 220, 8, &mut rng);
            cvs.push(coefficient_of_variation(&s.daily_counts()).unwrap());
        }
        let avg_cv = mean(&cvs).unwrap();
        assert!((avg_cv - 1.27).abs() < 0.4, "CV {avg_cv} should be near 1.27");
    }

    #[test]
    fn cv_ordering_stable_vs_bursty() {
        // DirtJumper (0.77) should come out less variable than Colddeath (1.53).
        let stable = profile("DirtJumper");
        let bursty = profile("Colddeath");
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = stationary_schedule(&stable, 220, 5, &mut rng);
        let s2 = stationary_schedule(&bursty, 220, 2, &mut rng);
        let cv1 = coefficient_of_variation(&s1.daily_counts()).unwrap();
        let cv2 = coefficient_of_variation(&s2.daily_counts()).unwrap();
        assert!(cv1 < cv2, "DirtJumper CV {cv1} should be below Colddeath CV {cv2}");
    }

    #[test]
    fn daily_rates_are_autocorrelated() {
        let p = profile("DirtJumper");
        let mut rng = StdRng::seed_from_u64(8);
        let s = stationary_schedule(&p, 220, 5, &mut rng);
        let rates: Vec<f64> = s.days().iter().map(|d| d.rate).collect();
        let acf = ddos_stats::acf::acf(&rates, 1).unwrap();
        assert!(acf[1] > 0.3, "lag-1 rate ACF {} should be positive", acf[1]);
    }

    #[test]
    fn total_attacks_in_expected_range() {
        let p = profile("BlackEnergy"); // 5.93 × 220 ≈ 1305
        let mut rng = StdRng::seed_from_u64(9);
        let s = stationary_schedule(&p, 220, 1, &mut rng);
        let total = s.total_attacks() as f64;
        assert!(total > 700.0 && total < 2_200.0, "total {total}");
    }

    #[test]
    fn floor_adjustment_fixes_small_family_means() {
        // AldiBot: m = 1.29. Floored Poisson at the adjusted rate must
        // average ~1.29, not ~1.57.
        let lambda = super::floor_adjusted_rate(1.29);
        assert!((lambda + (-lambda).exp() - 1.29).abs() < 1e-6);
        assert!(lambda < 1.29);
        // Large means are untouched.
        assert_eq!(super::floor_adjusted_rate(144.3), 144.3);
    }

    #[test]
    fn small_family_observed_mean_near_target() {
        let p = profile("AldiBot"); // 1.29/day
        let mut means = Vec::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let s = stationary_schedule(&p, 220, 0, &mut rng);
            means.push(mean(&s.daily_counts()).unwrap());
        }
        let avg = mean(&means).unwrap();
        assert!((avg - 1.29).abs() < 0.15, "AldiBot mean {avg} should be near 1.29");
    }

    #[test]
    fn place_within_day_sorted_and_in_day() {
        let p = profile("Optima");
        let mut rng = StdRng::seed_from_u64(10);
        let ts = place_within_day_in_regime(12, 40, &p, &p.stationary_regime(), &mut rng).unwrap();
        assert_eq!(ts.len(), 40);
        for w in ts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(ts.iter().all(|t| t.day() == 12));
    }

    #[test]
    fn placement_follows_diurnal_peak() {
        let p = profile("YZF"); // peak at 22, strong amplitude
        let stationary = p.stationary_regime();
        let mut rng = StdRng::seed_from_u64(11);
        let mut hour_counts = [0usize; 24];
        for _ in 0..60 {
            for t in place_within_day_in_regime(0, 50, &p, &stationary, &mut rng).unwrap() {
                hour_counts[t.hour() as usize] += 1;
            }
        }
        let trough = hour_counts[10]; // 12h away from the peak
        assert!(hour_counts[22] > trough * 2, "peak {} vs trough {trough}", hour_counts[22]);
    }
}
