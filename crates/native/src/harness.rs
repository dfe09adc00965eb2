//! Manifestation-rate measurement under the real OS scheduler.
//!
//! The study's testing implication: naive stress testing rarely hits the
//! narrow buggy windows, so manifestation probability per run — not just
//! possibility — is the quantity that matters. [`stress`] runs a native
//! kernel many times and reports the observed rate, the native analogue
//! of `lfm_sim::RandomWalker`.
//!
//! Native kernels run on the real scheduler, so unlike the simulator
//! they can genuinely hang (a deadlock parks its threads forever) or
//! panic. The harness therefore also provides *containment*:
//! [`run_with_deadline`] executes a closure on a watchdog-supervised
//! thread and classifies the result as completed, timed out, or
//! panicked, and [`stress_with`] applies a per-trial timeout with a
//! bounded retry policy and a fixed pause between attempts, so one
//! wedged trial cannot wedge a whole campaign. All timeouts pass
//! through [`scaled`], which applies
//! the `LFM_TIMEOUT_SCALE` environment variable — slow CI runners set
//! it above `1.0` instead of patching constants.

use std::any::Any;
use std::fmt;
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::kernels::NativeOutcome;

/// Multiplier applied by [`scaled`], read once from `LFM_TIMEOUT_SCALE`.
/// Unset, unparsable, non-finite, or non-positive values mean `1.0`.
pub fn timeout_scale() -> f64 {
    static SCALE: OnceLock<f64> = OnceLock::new();
    *SCALE.get_or_init(|| {
        std::env::var("LFM_TIMEOUT_SCALE")
            .ok()
            .and_then(|raw| raw.trim().parse::<f64>().ok())
            .filter(|v| v.is_finite() && *v > 0.0)
            .unwrap_or(1.0)
    })
}

/// Scales a base timeout by [`timeout_scale`]. Every wait and watchdog
/// delay in this crate goes through here, so one environment variable
/// adapts the whole suite to a slow machine.
pub fn scaled(base: Duration) -> Duration {
    base.mul_f64(timeout_scale())
}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// How one supervised execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialResult<T> {
    /// The closure returned normally.
    Completed(T),
    /// The deadline elapsed first. The worker thread is *leaked* — it
    /// may be deadlocked, and a deadlocked thread cannot be cancelled.
    TimedOut,
    /// The closure panicked; the payload is rendered as text.
    Panicked(String),
}

impl<T> TrialResult<T> {
    /// The completed value, when there is one.
    pub fn completed(self) -> Option<T> {
        match self {
            TrialResult::Completed(v) => Some(v),
            _ => None,
        }
    }
}

/// Runs `f` on a dedicated thread and waits at most `deadline` for it.
///
/// This generalizes the ad-hoc ABBA watchdog: the worker reports its
/// result over a channel, a panic is caught and rendered instead of
/// propagated, and a missed deadline returns [`TrialResult::TimedOut`]
/// while the worker is leaked (parked threads cannot be reclaimed —
/// the cost of observing real deadlocks; call from short-lived
/// processes or accept the leak, exactly like the studied bugs).
pub fn run_with_deadline<T: Send + 'static>(
    deadline: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> TrialResult<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(deadline) {
        Ok(Ok(value)) => TrialResult::Completed(value),
        Ok(Err(payload)) => TrialResult::Panicked(panic_message(payload.as_ref())),
        Err(_) => TrialResult::TimedOut,
    }
}

/// Policy for a [`stress_with`] campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressConfig {
    /// Independent trials to run.
    pub trials: usize,
    /// Watchdog deadline per trial; `None` runs trials inline (panics
    /// are still caught, but a hung trial hangs the campaign).
    pub per_trial_timeout: Option<Duration>,
    /// How many times a timed-out or panicked trial is re-attempted
    /// before being recorded as lost.
    pub retries: usize,
    /// Pause before each re-attempt (transient contention dissipates).
    pub backoff: Duration,
}

impl StressConfig {
    /// A plain campaign: no watchdog, no retries.
    pub fn new(trials: usize) -> StressConfig {
        StressConfig {
            trials,
            per_trial_timeout: None,
            retries: 0,
            backoff: Duration::from_millis(10),
        }
    }

    /// Adds a per-trial watchdog deadline (scaled by the caller).
    pub fn per_trial_timeout(mut self, deadline: Duration) -> StressConfig {
        self.per_trial_timeout = Some(deadline);
        self
    }

    /// Adds a retry budget for timed-out or panicked trials.
    pub fn retries(mut self, retries: usize) -> StressConfig {
        self.retries = retries;
        self
    }
}

/// Result of a stress campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StressReport {
    /// Trials executed.
    pub trials: usize,
    /// Trials in which the bug manifested.
    pub manifested: usize,
    /// Wall-clock duration of the campaign in milliseconds.
    pub elapsed_ms: u128,
    /// Trials lost to the per-trial watchdog (after retries).
    pub timeouts: usize,
    /// Trials lost to a panic (after retries).
    pub panics: usize,
    /// Re-attempts spent on timed-out or panicked trials.
    pub retries: usize,
}

impl StressReport {
    /// Manifestation rate in `[0, 1]`, over the trials that completed.
    pub fn rate(&self) -> f64 {
        let completed = self.trials - self.timeouts - self.panics;
        if completed == 0 {
            0.0
        } else {
            self.manifested as f64 / completed as f64
        }
    }
}

impl fmt::Display for StressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} trials manifested ({:.1}%) in {} ms",
            self.manifested,
            self.trials,
            100.0 * self.rate(),
            self.elapsed_ms
        )?;
        if self.timeouts > 0 {
            write!(f, ", {} timed out", self.timeouts)?;
        }
        if self.panics > 0 {
            write!(f, ", {} panicked", self.panics)?;
        }
        if self.retries > 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        Ok(())
    }
}

/// Runs `kernel` for `trials` independent executions and measures the
/// manifestation rate. Panics inside the kernel are caught and counted,
/// never propagated into the campaign.
pub fn stress(trials: usize, mut kernel: impl FnMut() -> NativeOutcome) -> StressReport {
    campaign(&StressConfig::new(trials), || inline(&mut kernel))
}

/// [`stress`] with an explicit policy: per-trial watchdog deadline and
/// bounded retry/backoff for trials that time out or panic.
///
/// The kernel closure must be `Clone + Send + 'static` when a per-trial
/// timeout is configured, because each supervised trial runs on its own
/// watchdog thread (and a timed-out trial's thread is leaked, taking
/// its clone of the closure with it).
pub fn stress_with(
    config: &StressConfig,
    kernel: impl Fn() -> NativeOutcome + Clone + Send + 'static,
) -> StressReport {
    match config.per_trial_timeout {
        Some(deadline) => campaign(config, || run_with_deadline(deadline, kernel.clone())),
        None => campaign(config, || inline(&kernel)),
    }
}

/// One unsupervised attempt on the caller's thread: a panic is caught,
/// a hang hangs.
fn inline(kernel: impl FnOnce() -> NativeOutcome) -> TrialResult<NativeOutcome> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(kernel)) {
        Ok(outcome) => TrialResult::Completed(outcome),
        Err(payload) => TrialResult::Panicked(panic_message(payload.as_ref())),
    }
}

/// The campaign loop behind [`stress`] and [`stress_with`]: each trial
/// runs `attempt` until one completes, pausing [`StressConfig::backoff`]
/// before each of at most [`StressConfig::retries`] re-attempts; a
/// trial whose last attempt failed is recorded as lost.
fn campaign(
    config: &StressConfig,
    mut attempt: impl FnMut() -> TrialResult<NativeOutcome>,
) -> StressReport {
    let start = Instant::now();
    let mut report = StressReport {
        trials: config.trials,
        manifested: 0,
        elapsed_ms: 0,
        timeouts: 0,
        panics: 0,
        retries: 0,
    };
    for _ in 0..config.trials {
        let mut lost = None;
        for retry in 0..=config.retries {
            if retry > 0 {
                report.retries += 1;
                std::thread::sleep(config.backoff);
            }
            match attempt() {
                TrialResult::Completed(outcome) if outcome.panics.is_empty() => {
                    report.manifested += usize::from(outcome.manifested);
                    lost = None;
                    break;
                }
                // A worker panic inside the kernel spoils the trial
                // just like a harness-level panic.
                TrialResult::Completed(_) | TrialResult::Panicked(_) => lost = Some(true),
                TrialResult::TimedOut => lost = Some(false),
            }
        }
        match lost {
            Some(true) => report.panics += 1,
            Some(false) => report.timeouts += 1,
            None => {}
        }
    }
    report.elapsed_ms = start.elapsed().as_millis();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{racy_counter, NativeOutcome};

    #[test]
    fn stress_counts_manifestations() {
        // A fixed kernel never manifests; rate is exactly zero.
        let report = stress(20, || racy_counter(2, 200, true));
        assert_eq!(report.trials, 20);
        assert_eq!(report.manifested, 0);
        assert_eq!(report.rate(), 0.0);
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.panics, 0);
    }

    #[test]
    fn stress_display_mentions_rate() {
        let report = StressReport {
            trials: 10,
            manifested: 3,
            elapsed_ms: 5,
            timeouts: 0,
            panics: 0,
            retries: 0,
        };
        let s = report.to_string();
        assert!(s.contains("3/10"));
        assert!(s.contains("30.0%"));
        assert!(!s.contains("timed out"));
        assert!(!s.contains("panicked"));
    }

    #[test]
    fn stress_display_mentions_losses_when_present() {
        let report = StressReport {
            trials: 10,
            manifested: 3,
            elapsed_ms: 5,
            timeouts: 2,
            panics: 1,
            retries: 4,
        };
        let s = report.to_string();
        assert!(s.contains("2 timed out"));
        assert!(s.contains("1 panicked"));
        assert!(s.contains("4 retries"));
    }

    #[test]
    fn empty_campaign_has_zero_rate() {
        let report = stress(0, || racy_counter(2, 10, true));
        assert_eq!(report.rate(), 0.0);
    }

    #[test]
    fn run_with_deadline_completes_fast_work() {
        let result = run_with_deadline(Duration::from_secs(5), || 41 + 1);
        assert_eq!(result, TrialResult::Completed(42));
    }

    #[test]
    fn run_with_deadline_times_out_on_a_wedged_worker() {
        // The worker parks forever; the watchdog gives up and leaks it.
        let result = run_with_deadline(Duration::from_millis(50), || loop {
            std::thread::park();
        });
        assert_eq!(result, TrialResult::TimedOut);
    }

    #[test]
    fn run_with_deadline_renders_panics() {
        let result: TrialResult<()> =
            run_with_deadline(Duration::from_secs(5), || panic!("injected failure"));
        assert_eq!(result, TrialResult::Panicked("injected failure".to_owned()));
    }

    #[test]
    fn stress_with_contains_panicking_trials() {
        let config = StressConfig::new(5)
            .per_trial_timeout(Duration::from_secs(5))
            .retries(1);
        let report = stress_with(&config, || -> NativeOutcome { panic!("kernel exploded") });
        assert_eq!(report.trials, 5);
        assert_eq!(report.panics, 5);
        assert_eq!(report.retries, 5, "each lost trial retried once");
        assert_eq!(report.manifested, 0);
    }

    #[test]
    fn stress_with_times_out_wedged_trials_and_continues() {
        let config = StressConfig::new(3).per_trial_timeout(Duration::from_millis(30));
        let report = stress_with(&config, || -> NativeOutcome {
            loop {
                std::thread::park();
            }
        });
        assert_eq!(report.trials, 3);
        assert_eq!(report.timeouts, 3);
        assert_eq!(report.rate(), 0.0);
    }

    #[test]
    fn stress_catches_inline_panics() {
        // No timeout configured: the inline path still contains panics.
        let report = stress(4, || panic!("inline"));
        assert_eq!(report.trials, 4);
        assert_eq!(report.panics, 4);
    }

    #[test]
    fn worker_panic_reported_by_the_kernel_spoils_the_trial() {
        let config = StressConfig::new(2).per_trial_timeout(Duration::from_secs(5));
        let report = stress_with(&config, || NativeOutcome {
            manifested: true,
            observed: 0,
            panics: vec!["worker died".to_owned()],
        });
        assert_eq!(report.panics, 2);
        assert_eq!(report.manifested, 0, "a spoiled trial never counts");
    }

    #[test]
    fn timeout_scale_defaults_to_identity() {
        // The scale is read from the environment once; unless the
        // surrounding environment overrides it, scaling is the identity.
        if std::env::var("LFM_TIMEOUT_SCALE").is_err() {
            assert_eq!(
                scaled(Duration::from_millis(300)),
                Duration::from_millis(300)
            );
        }
    }
}
