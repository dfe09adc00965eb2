//! E-chaos: manifestation rates quiet and under one fault plan.
//!
//! The study's testing implication says naive stress rarely hits the
//! narrow buggy windows; ConTest-style noise making — spurious wakeups,
//! failed `try_lock`s, forced aborts, and bounded stalls, here the
//! deterministic [`FaultPlan`] — is the usual remedy. This experiment
//! reruns the same seeded walker with and without a fault plan on the
//! simulator and, for scale, runs the native kernels under the
//! watchdog-supervised stress harness whose built-in yield noise plays
//! the same role on real threads.
//!
//! The plan does not amplify manifestation here; it biases it. At seed
//! 42 over 200 trials `counter_rmw` falls from 50% to 0% and
//! `toctou_flag` from 29% to 0%, while `cache_pair_invariant` rises
//! from 16% to 100%. The cause is the stall decision:
//! [`FaultPlan::fires`] keys [`FaultKind::Stall`] on the plan seed, the
//! step window and the thread, but not on the trial, so every walk of a
//! campaign meets the same stall windows. That is a fixed bias, not
//! noise: it serializes the two short read-modify-write races in every
//! trial and forces the one interleaving that breaks the cache pair.
//! With stalls stripped (`FaultPlan::without_stalls`) all three rows
//! equal their quiet rates. The experiment keeps its seed, trial count
//! and plan so that the bias stays visible.
//!
//! [`FaultKind::Stall`]: lfm_sim::FaultKind::Stall

use lfm_kernels::registry;
use lfm_native::{stress_with, NativeOutcome, StressConfig};
use lfm_sim::{FaultPlan, RandomWalker};
use lfm_study::Table;
use std::time::Duration;

/// The chaos seed used for the experiment (also the CI smoke seed).
pub const CHAOS_SEED: u64 = 42;

/// One kernel's quiet-vs-noisy manifestation rates.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// `"sim"` or `"native"`.
    pub substrate: &'static str,
    /// Trials per campaign.
    pub trials: u64,
    /// Manifestation rate without noise.
    pub quiet_rate: f64,
    /// Manifestation rate under the fault plan (sim only — native
    /// kernels carry their own yield-based noise).
    pub chaos_rate: Option<f64>,
    /// Trials lost to the native watchdog or to panics.
    pub lost: usize,
}

/// Runs the comparison: seeded random walks with and without a
/// [`FaultPlan`] on the simulator, watchdog-supervised stress natively.
pub fn chaos_comparison(trials: u64) -> Vec<ChaosRow> {
    const SIM_KERNELS: [&str; 3] = ["counter_rmw", "toctou_flag", "cache_pair_invariant"];
    let mut rows = Vec::new();
    for id in SIM_KERNELS {
        let kernel = registry::by_id(id).expect("known kernel");
        let program = kernel.buggy();
        let quiet = RandomWalker::new(&program, 7).run_trials(trials);
        let noisy = RandomWalker::new(&program, 7)
            .with_faults(FaultPlan::new(CHAOS_SEED))
            .run_trials(trials);
        rows.push(ChaosRow {
            kernel: id,
            substrate: "sim",
            trials,
            quiet_rate: quiet.failure_rate(),
            chaos_rate: Some(noisy.failure_rate()),
            lost: 0,
        });
    }

    // Native campaigns are orders of magnitude slower per trial, so run
    // fewer of them; each trial is supervised by a scaled watchdog and
    // retried once on a timeout or panic.
    let native_trials = ((trials / 8).max(4)) as usize;
    let config = StressConfig::new(native_trials)
        .per_trial_timeout(lfm_native::scaled(Duration::from_secs(5)))
        .retries(1);
    type NativeKernel = fn() -> NativeOutcome;
    let native: [(&'static str, NativeKernel); 2] = [
        ("racy_counter", || {
            lfm_native::kernels::racy_counter(2, 500, false)
        }),
        ("double_check_init", || {
            lfm_native::kernels::double_check_init(3, false)
        }),
    ];
    for (id, kernel) in native {
        let report = stress_with(&config, kernel);
        rows.push(ChaosRow {
            kernel: id,
            substrate: "native",
            trials: report.trials as u64,
            quiet_rate: report.rate(),
            chaos_rate: None,
            lost: report.timeouts + report.panics,
        });
    }
    rows
}

/// Renders the comparison as the E-chaos table.
pub fn chaos_table(trials: u64) -> Table {
    let rows = chaos_comparison(trials);
    let mut t = Table::new(
        "E-chaos",
        format!("Manifestation rates quiet vs under one fault plan (seed {CHAOS_SEED})"),
        vec!["kernel", "substrate", "trials", "quiet rate", "chaos rate"],
    );
    let mut lost = 0;
    for r in &rows {
        t.row(vec![
            r.kernel.to_string(),
            r.substrate.to_string(),
            r.trials.to_string(),
            format!("{:.0}%", 100.0 * r.quiet_rate),
            match r.chaos_rate {
                Some(rate) => format!("{:.0}%", 100.0 * rate),
                None => "—".to_string(),
            },
        ]);
        lost += r.lost;
    }
    t.note(
        "sim rows rerun the same seeded walker with a FaultPlan (spurious \
         wakeups, trylock failures, forced aborts, stalls); native rows are \
         watchdog-supervised stress campaigns whose yield noise is baked in",
    );
    if lost > 0 {
        t.note(format!(
            "{lost} native trial(s) lost to the per-trial watchdog or panics \
             (after one retry each)"
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Structure-only assertions: native manifestation rates vary by
    // scheduler and machine, so the numbers themselves are not stable
    // test targets.
    #[test]
    fn chaos_table_has_expected_shape() {
        let t = chaos_table(40);
        assert_eq!(t.id, "E-chaos");
        assert_eq!(t.len(), 5, "3 sim rows + 2 native rows");
        let rendered = t.to_string();
        assert!(rendered.contains("counter_rmw"));
        assert!(rendered.contains("native"));
        assert!(rendered.contains("chaos rate"));
    }

    #[test]
    fn sim_rows_have_chaos_rates_and_native_rows_do_not() {
        let rows = chaos_comparison(20);
        for r in &rows {
            match r.substrate {
                "sim" => assert!(r.chaos_rate.is_some()),
                "native" => assert!(r.chaos_rate.is_none()),
                other => panic!("unexpected substrate {other}"),
            }
        }
    }
}
