//! The implication experiments: E-scope (small-scope manifestation),
//! E-detect (detector coverage across kernels), E-tm (executable TM
//! verdicts vs. the corpus classification), E-wit (minimized witness
//! size vs. the paper's manifestation bands).

use std::fmt;

use lfm_corpus::{Corpus, TmApplicability};
use lfm_detect::{
    AtomicityDetector, DetectorKind, HappensBeforeDetector, LockOrderDetector, LocksetDetector,
    MuviDetector, OrderDetector,
};
use lfm_kernels::{registry, Family, Kernel};
use lfm_sim::{
    explore::trace_of, minimize, random::PctScheduler, ExploreLimits, Explorer, PairCoverage,
    RandomWalker, Trace, Witness,
};
use lfm_stm::{evaluate_all, TmVerdict};

use crate::table::{with_pct, Table};

// ---------------------------------------------------------------- E-scope

/// Per-kernel small-scope measurement.
#[derive(Debug, Clone)]
pub struct ScopeRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// Kernel family.
    pub family: Family,
    /// Threads in the program.
    pub threads: usize,
    /// Schedules explored exhaustively.
    pub schedules: u64,
    /// Whether `schedules` hit the exploration cap.
    pub truncated: bool,
    /// Schedules explored under the sleep-set partial-order reduction.
    pub schedules_reduced: u64,
    /// Schedules that manifest the bug.
    pub failures: u64,
    /// Smallest preemption bound at which the bug manifests (0..=3), or
    /// `None` if it needs more.
    pub min_preemption_bound: Option<u32>,
}

/// Runs the small-scope experiment over every kernel: the study's
/// Findings 2/4 imply bugs manifest in tiny schedule spaces; we measure
/// the exact spaces.
pub fn scope_experiment() -> Vec<ScopeRow> {
    registry::all()
        .iter()
        .map(|kernel| {
            let program = kernel.buggy();
            let report = Explorer::new(&program).run();
            let reduced = Explorer::new(&program).sleep_sets().run();
            let mut min_bound = None;
            for bound in 0..=3 {
                let bounded = Explorer::new(&program).preemption_bound(bound).run();
                if bounded.counts.failures() > 0 {
                    min_bound = Some(bound);
                    break;
                }
            }
            ScopeRow {
                kernel: kernel.id,
                family: kernel.family,
                threads: program.n_threads(),
                schedules: report.schedules_run,
                truncated: report.truncated,
                schedules_reduced: reduced.schedules_run,
                failures: report.counts.failures(),
                min_preemption_bound: min_bound,
            }
        })
        .collect()
}

/// Renders the E-scope experiment as a table.
pub fn scope_table() -> Table {
    let rows = scope_experiment();
    let mut t = Table::new(
        "E-scope",
        "Small-scope manifestation (exhaustive exploration per kernel)",
        vec![
            "kernel",
            "family",
            "threads",
            "schedules",
            "sleep-set",
            "failing",
            "min preemptions",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.kernel.to_string(),
            r.family.to_string(),
            r.threads.to_string(),
            format!("{}{}", r.schedules, if r.truncated { "+" } else { "" }),
            r.schedules_reduced.to_string(),
            r.failures.to_string(),
            r.min_preemption_bound
                .map_or("> 3".to_string(), |b| b.to_string()),
        ]);
    }
    let within2 = rows
        .iter()
        .filter(|r| r.min_preemption_bound.is_some_and(|b| b <= 2))
        .count();
    t.note(format!(
        "{} of {} kernels manifest within a preemption bound of 2 — the \
         executable form of Findings 2/4",
        within2,
        rows.len()
    ));
    if rows.iter().any(|r| r.truncated) {
        t.note("'+' marks explorations cut off at the schedule cap");
    }
    t
}

// --------------------------------------------------------------- E-detect

/// Which detectors flag one kernel.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// Kernel family.
    pub family: Family,
    /// Variables the kernel involves.
    pub variables: usize,
    /// Detectors that flagged the kernel.
    pub flagged_by: Vec<DetectorKind>,
}

impl CoverageRow {
    /// `true` when the given detector flagged this kernel.
    pub fn flagged(&self, kind: DetectorKind) -> bool {
        self.flagged_by.contains(&kind)
    }
}

fn failing_trace(kernel: &Kernel) -> Option<(lfm_sim::Program, Trace)> {
    let program = kernel.buggy();
    let report = Explorer::new(&program).stop_on_first_failure().run();
    let (schedule, _) = report.first_failure?;
    let (trace, _) = trace_of(&program, &schedule, 5_000);
    Some((program, trace))
}

/// Runs every detector against every kernel: training traces come from
/// seeded random passing runs, the test trace is the model checker's
/// failure witness.
pub fn detector_coverage() -> Vec<CoverageRow> {
    registry::all()
        .iter()
        .map(|kernel| {
            let Some((program, test)) = failing_trace(kernel) else {
                return CoverageRow {
                    kernel: kernel.id,
                    family: kernel.family,
                    variables: kernel.variables,
                    flagged_by: Vec::new(),
                };
            };
            // Passing training runs for the invariant-based detectors.
            let training: Vec<Trace> = RandomWalker::new(&program, 7)
                .collect_traces(12)
                .into_iter()
                .filter(|(_, outcome)| outcome.is_ok())
                .map(|(t, _)| t)
                .collect();

            let mut flagged = Vec::new();
            if !HappensBeforeDetector::new().analyze(&test).is_empty() {
                flagged.push(DetectorKind::HappensBefore);
            }
            if !LocksetDetector::new().analyze(&test).is_empty() {
                flagged.push(DetectorKind::Lockset);
            }
            if !AtomicityDetector::train(training.iter())
                .analyze(&test)
                .is_empty()
            {
                flagged.push(DetectorKind::Atomicity);
            }
            if !OrderDetector::train(training.iter())
                .analyze(&test)
                .is_empty()
            {
                flagged.push(DetectorKind::Order);
            }
            if !MuviDetector::train(training.iter())
                .analyze(&test)
                .is_empty()
            {
                flagged.push(DetectorKind::Muvi);
            }
            let mut lockorder = LockOrderDetector::new();
            for t in training.iter().chain(std::iter::once(&test)) {
                lockorder.observe(t);
            }
            if !lockorder.cycles().is_empty() {
                flagged.push(DetectorKind::LockOrder);
            }
            CoverageRow {
                kernel: kernel.id,
                family: kernel.family,
                variables: kernel.variables,
                flagged_by: flagged,
            }
        })
        .collect()
}

/// Renders the E-detect experiment as a table.
pub fn coverage_table() -> Table {
    let rows = detector_coverage();
    let mut t = Table::new(
        "E-detect",
        "Detector coverage per kernel (x = flagged)",
        vec![
            "kernel",
            "family",
            "HB race",
            "lockset",
            "AVIO",
            "order",
            "MUVI",
            "lock-order",
        ],
    );
    for r in &rows {
        let mark = |k| if r.flagged(k) { "x" } else { "." };
        t.row(vec![
            r.kernel.to_string(),
            r.family.to_string(),
            mark(DetectorKind::HappensBefore).to_string(),
            mark(DetectorKind::Lockset).to_string(),
            mark(DetectorKind::Atomicity).to_string(),
            mark(DetectorKind::Order).to_string(),
            mark(DetectorKind::Muvi).to_string(),
            mark(DetectorKind::LockOrder).to_string(),
        ]);
    }
    let nd: Vec<_> = rows
        .iter()
        .filter(|r| r.family != Family::Deadlock)
        .collect();
    let caught_by_any = nd.iter().filter(|r| !r.flagged_by.is_empty()).count();
    let missed_by_hb = nd
        .iter()
        .filter(|r| !r.flagged(DetectorKind::HappensBefore))
        .count();
    t.note(format!(
        "non-deadlock kernels: {} flagged by at least one detector; \
         {} escape the race detector — no single detector family covers the \
         study's bug spectrum",
        with_pct(caught_by_any, nd.len()),
        missed_by_hb
    ));
    t
}

// ---------------------------------------------------------------- E-test

/// Per-kernel scheduler comparison: manifestation under naive random
/// scheduling vs. PCT vs. systematic exploration.
#[derive(Debug, Clone)]
pub struct SchedulerRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// Manifestation rate over the random trials.
    pub random_rate: f64,
    /// Manifestation rate over the PCT trials (depth 3).
    pub pct_rate: f64,
    /// Trials used for each sampler.
    pub trials: u64,
    /// Schedules the bounded systematic search needed to find the bug
    /// (preemption bound 2, stop at first failure).
    pub systematic_schedules: u64,
}

/// Compares naive stress, PCT and bounded-systematic testing on every
/// kernel — the study's testing implication, measured. Seeded and
/// deterministic.
pub fn scheduler_comparison(trials: u64) -> Vec<SchedulerRow> {
    registry::all()
        .iter()
        .map(|kernel| {
            let program = kernel.buggy();
            let random = RandomWalker::new(&program, 0xC0FFEE).run_trials(trials);
            let pct = PctScheduler::new(&program, 0xC0FFEE, 3).run_trials(trials);
            let systematic = Explorer::new(&program)
                .preemption_bound(2)
                .stop_on_first_failure()
                .run();
            SchedulerRow {
                kernel: kernel.id,
                random_rate: random.failure_rate(),
                pct_rate: pct.failure_rate(),
                trials,
                systematic_schedules: systematic.schedules_run,
            }
        })
        .collect()
}

/// Renders the E-test experiment as a table.
pub fn scheduler_table(trials: u64) -> Table {
    let rows = scheduler_comparison(trials);
    let mut t = Table::new(
        "E-test",
        format!("Scheduler comparison over {trials} trials per sampler"),
        vec![
            "kernel",
            "random hit-rate",
            "PCT(d=3) hit-rate",
            "systematic schedules to bug",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.kernel.to_string(),
            format!("{:.0}%", 100.0 * r.random_rate),
            format!("{:.0}%", 100.0 * r.pct_rate),
            r.systematic_schedules.to_string(),
        ]);
    }
    let random_missed = rows.iter().filter(|r| r.random_rate == 0.0).count();
    let pct_missed = rows.iter().filter(|r| r.pct_rate == 0.0).count();
    t.note(format!(
        "random stress missed {random_missed} kernels entirely, PCT missed \
         {pct_missed}; bounded-systematic search found every bug — the \
         study's testing implication"
    ));
    t
}

// ----------------------------------------------------------------- E-cov

/// Per-kernel interleaving-coverage measurement.
#[derive(Debug, Clone)]
pub struct CoverageGrowthRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// Total distinct conflicting access pairs across the exhaustive
    /// exploration (the coverage universe).
    pub total_pairs: usize,
    /// Pairs covered by 5 random trials.
    pub pairs_at_5: usize,
    /// Pairs covered by 25 random trials.
    pub pairs_at_25: usize,
    /// Whether those 25 random trials manifested the bug at least once.
    pub bug_found_at_25: bool,
}

/// Measures access-pair coverage growth under random testing against the
/// exhaustive-universe baseline — the executable form of "coverage
/// saturates while bugs lurk".
pub fn coverage_growth() -> Vec<CoverageGrowthRow> {
    registry::all()
        .iter()
        .filter(|k| k.id != "livelock_retry") // its exhaustive space is capped
        .map(|kernel| {
            let program = kernel.buggy();
            // The universe: union over every interleaving. Full
            // exploration, not sleep sets — pair coverage distinguishes
            // read-read orderings that partial-order reduction collapses.
            let mut universe = PairCoverage::new();
            let max_steps = ExploreLimits::default().max_steps;
            Explorer::new(&program).run_with_callback(|exec, _| {
                let (trace, _) = trace_of(&program, &exec.schedule_taken(), max_steps);
                universe.observe_events(&trace.events);
            });
            // Random campaigns.
            let traces = RandomWalker::new(&program, 0xBEEF).collect_traces(25);
            let mut cov5 = PairCoverage::new();
            let mut cov25 = PairCoverage::new();
            let mut bug_found = false;
            for (i, (trace, outcome)) in traces.iter().enumerate() {
                if i < 5 {
                    cov5.observe_events(&trace.events);
                }
                cov25.observe_events(&trace.events);
                if outcome.is_failure() {
                    bug_found = true;
                }
            }
            CoverageGrowthRow {
                kernel: kernel.id,
                total_pairs: universe.len(),
                pairs_at_5: cov5.len(),
                pairs_at_25: cov25.len(),
                bug_found_at_25: bug_found,
            }
        })
        .collect()
}

/// Renders the E-cov experiment as a table.
pub fn coverage_growth_table() -> Table {
    let rows = coverage_growth();
    let mut t = Table::new(
        "E-cov",
        "Access-pair coverage growth under random testing (vs exhaustive universe)",
        vec![
            "kernel",
            "universe",
            "@5 trials",
            "@25 trials",
            "bug found @25",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.kernel.to_string(),
            r.total_pairs.to_string(),
            r.pairs_at_5.to_string(),
            r.pairs_at_25.to_string(),
            if r.bug_found_at_25 { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let blind = rows.iter().filter(|r| r.total_pairs == 0).count();
    let saturated = rows
        .iter()
        .filter(|r| r.total_pairs > 0 && r.pairs_at_25 == r.total_pairs)
        .count();
    let with_pairs = rows.iter().filter(|r| r.total_pairs > 0).count();
    t.note(format!(
        "{saturated}/{with_pairs} memory-access kernels saturate their pair \
         universe within 25 random trials — yet E-test shows random testing \
         still misses manifestations at small budgets: covering pairs is not \
         the same as forcing the buggy conjunction"
    ));
    t.note(format!(
        "{blind} kernels (pure-synchronization deadlocks and lost wakeups) \
         have an EMPTY pair universe: access-pair coverage cannot even \
         express their bugs"
    ));
    t
}

// ----------------------------------------------------------------- E-wit

/// Per-kernel minimized-witness measurement: how small the bug's
/// manifestation really is once ddmin strips the exploration accidents
/// away.
#[derive(Debug, Clone)]
pub struct WitnessRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// Kernel family.
    pub family: Family,
    /// Distinct threads the minimized schedule runs.
    pub threads: usize,
    /// Context switches in the minimized schedule.
    pub switches: usize,
    /// Operations in cross-thread conflicts (a deadlock's attempted
    /// acquisitions included).
    pub conflicting_accesses: usize,
    /// Distinct shared objects involved in those conflicts — the
    /// "resources" of the paper's deadlock bands.
    pub conflict_objects: usize,
    /// Choices in the explorer's first failing schedule.
    pub schedule_before: usize,
    /// Choices in the minimized schedule.
    pub schedule_after: usize,
    /// Validation replays ddmin spent.
    pub replays: usize,
}

/// The paper's manifestation bands, per family kind (non-deadlock vs
/// deadlock), as fractions of bugs in the band.
///
/// Findings 2/3/9/10 of the study: 96% of non-deadlock bugs involve at
/// most 2 threads and 92% at most 4 memory accesses; 97% of deadlock
/// bugs involve at most 2 threads and 96% at most 2 resources.
pub mod witness_bands {
    /// Non-deadlock: share of bugs with ≤ 2 threads.
    pub const NONDEADLOCK_THREADS_LE2: f64 = 0.96;
    /// Non-deadlock: share of bugs with ≤ 4 involved accesses.
    pub const NONDEADLOCK_ACCESSES_LE4: f64 = 0.92;
    /// Deadlock: share of bugs with ≤ 2 threads.
    pub const DEADLOCK_THREADS_LE2: f64 = 0.97;
    /// Deadlock: share of bugs with ≤ 2 resources.
    pub const DEADLOCK_RESOURCES_LE2: f64 = 0.96;
}

/// Runs the witness experiment: for every kernel, find the first failing
/// schedule, minimize it (each ddmin candidate validated by replay), and
/// measure the minimized witness — the executable counterpart of the
/// paper's "bugs manifest small" findings.
pub fn witness_experiment() -> Vec<WitnessRow> {
    registry::all()
        .iter()
        .filter_map(|kernel| {
            let program = kernel.buggy();
            let report = Explorer::new(&program).stop_on_first_failure().run();
            let (schedule, _) = report.first_failure?;
            let min = minimize(&program, &schedule, 5_000);
            let w = Witness::capture(&program, kernel.id, &min.schedule, 5_000);
            Some(WitnessRow {
                kernel: kernel.id,
                family: kernel.family,
                threads: w.stats.threads,
                switches: w.stats.switches,
                conflicting_accesses: w.stats.conflicting_accesses,
                conflict_objects: w.stats.conflict_objects,
                schedule_before: schedule.len(),
                schedule_after: min.schedule.len(),
                replays: min.replays,
            })
        })
        .collect()
}

/// Renders the E-wit experiment as a table, with the paper-band
/// comparison (and any deviating kernels, by name) in the notes.
pub fn witness_table() -> Table {
    let rows = witness_experiment();
    let mut t = Table::new(
        "E-wit",
        "Minimized witness size per kernel (ddmin, every candidate replay-validated)",
        vec![
            "kernel",
            "family",
            "threads",
            "switches",
            "confl. accesses",
            "objects",
            "schedule",
            "replays",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.kernel.to_string(),
            r.family.to_string(),
            r.threads.to_string(),
            r.switches.to_string(),
            r.conflicting_accesses.to_string(),
            r.conflict_objects.to_string(),
            format!("{} -> {}", r.schedule_before, r.schedule_after),
            r.replays.to_string(),
        ]);
    }
    let (dead, nondead): (Vec<_>, Vec<_>) = rows.iter().partition(|r| r.family == Family::Deadlock);
    let nd_threads = nondead.iter().filter(|r| r.threads <= 2).count();
    let nd_accesses = nondead
        .iter()
        .filter(|r| r.conflicting_accesses <= 4)
        .count();
    let d_threads = dead.iter().filter(|r| r.threads <= 2).count();
    let d_resources = dead.iter().filter(|r| r.conflict_objects <= 2).count();
    t.note(format!(
        "non-deadlock: {} witnesses need <= 2 threads (paper: {:.0}%), \
         {} need <= 4 conflicting accesses (paper: {:.0}%)",
        with_pct(nd_threads, nondead.len()),
        100.0 * witness_bands::NONDEADLOCK_THREADS_LE2,
        with_pct(nd_accesses, nondead.len()),
        100.0 * witness_bands::NONDEADLOCK_ACCESSES_LE4,
    ));
    t.note(format!(
        "deadlock: {} witnesses need <= 2 threads (paper: {:.0}%), \
         {} need <= 2 resources (paper: {:.0}%)",
        with_pct(d_threads, dead.len()),
        100.0 * witness_bands::DEADLOCK_THREADS_LE2,
        with_pct(d_resources, dead.len()),
        100.0 * witness_bands::DEADLOCK_RESOURCES_LE2,
    ));
    let deviating: Vec<&str> = rows
        .iter()
        .filter(|r| {
            if r.family == Family::Deadlock {
                r.threads > 2 || r.conflict_objects > 2
            } else {
                r.threads > 2 || r.conflicting_accesses > 4
            }
        })
        .map(|r| r.kernel)
        .collect();
    if deviating.is_empty() {
        t.note("no kernel exceeds its paper band");
    } else {
        t.note(format!(
            "outside the paper bands: {} — kernels modeling the paper's \
             own >2-thread / >4-access tail",
            deviating.join(", ")
        ));
    }
    t
}

// ------------------------------------------------------------------ E-tm

/// The E-tm experiment: executable TM verdicts joined with the corpus
/// classification of the bugs each kernel models.
#[derive(Debug, Clone)]
pub struct TmExperiment {
    /// Verdicts per kernel from the STM evaluator.
    pub verdicts: Vec<TmVerdict>,
    /// Kernels where the executable verdict agrees with the corpus TM
    /// classification of the kernel's source bug.
    pub agreements: usize,
    /// Kernels with a linked source bug to compare against.
    pub comparable: usize,
}

/// Runs the E-tm experiment.
pub fn tm_experiment(corpus: &Corpus) -> TmExperiment {
    let verdicts = evaluate_all();
    let mut agreements = 0;
    let mut comparable = 0;
    for kernel in registry::all() {
        let Some(source) = kernel.source_bug else {
            continue;
        };
        let Some(bug) = corpus.get_str(source) else {
            continue;
        };
        let Some(verdict) = verdicts.iter().find(|v| v.kernel == kernel.id) else {
            continue;
        };
        comparable += 1;
        // `MaybeHelps` is the study's hedge (help requires restructuring
        // or has caveats); either executable verdict is consistent with
        // it. `Helps`/`CannotHelp` must match the verdict exactly.
        let agrees = match bug.tm {
            TmApplicability::Helps => verdict.helps,
            TmApplicability::MaybeHelps => true,
            TmApplicability::CannotHelp(_) => !verdict.helps,
        };
        if agrees {
            agreements += 1;
        }
    }
    TmExperiment {
        verdicts,
        agreements,
        comparable,
    }
}

impl fmt::Display for TmExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E-tm: executable TM applicability")?;
        for v in &self.verdicts {
            writeln!(f, "  {v}")?;
        }
        writeln!(
            f,
            "  verdicts agree with the corpus classification on {}/{} comparable kernels",
            self.agreements, self.comparable
        )
    }
}

/// Renders the E-tm experiment as a table.
pub fn tm_table(corpus: &Corpus) -> Table {
    let exp = tm_experiment(corpus);
    let mut t = Table::new(
        "E-tm",
        "Executable TM verdicts per kernel",
        vec!["kernel", "verdict", "io duplicated under aborts"],
    );
    for v in &exp.verdicts {
        let verdict = if v.helps {
            "helps".to_string()
        } else {
            match v.obstacle {
                Some(o) => format!("cannot ({o})"),
                None => "n/a".to_string(),
            }
        };
        t.row(vec![
            v.kernel.clone(),
            verdict,
            if v.io_duplicated() { "yes" } else { "-" }.to_string(),
        ]);
    }
    let helped = exp.verdicts.iter().filter(|v| v.helps).count();
    t.note(format!(
        "TM removes the bug in {} kernels; agreement with corpus \
         classification: {}/{}",
        with_pct(helped, exp.verdicts.len()),
        exp.agreements,
        exp.comparable
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_rows_cover_all_kernels() {
        let rows = scope_experiment();
        assert_eq!(rows.len(), registry::all().len());
        for r in &rows {
            assert!(r.failures > 0, "{} must manifest", r.kernel);
            assert!(
                r.min_preemption_bound.is_some(),
                "{} should manifest within 3 preemptions",
                r.kernel
            );
        }
    }

    #[test]
    fn coverage_shows_detector_blind_spots() {
        let rows = detector_coverage();
        assert_eq!(rows.len(), registry::all().len());

        // The pure-atomic multi-variable kernel escapes the race detector
        // — but the MUVI correlation detector catches it (and it alone).
        let dc = rows
            .iter()
            .find(|r| r.kernel == "double_counter_invariant")
            .unwrap();
        assert!(
            !dc.flagged(DetectorKind::HappensBefore),
            "{:?}",
            dc.flagged_by
        );
        assert!(dc.flagged(DetectorKind::Muvi), "{:?}", dc.flagged_by);

        // Every multi-variable kernel is covered by MUVI.
        for r in rows.iter().filter(|r| r.family == Family::MultiVariable) {
            assert!(
                r.flagged(DetectorKind::Muvi),
                "{}: {:?}",
                r.kernel,
                r.flagged_by
            );
        }

        // The single-variable racy counter is caught by HB and AVIO.
        let cr = rows.iter().find(|r| r.kernel == "counter_rmw").unwrap();
        assert!(cr.flagged(DetectorKind::HappensBefore));
        assert!(cr.flagged(DetectorKind::Atomicity));

        // The ABBA cycle is predicted by the lock-order graph.
        let abba = rows.iter().find(|r| r.kernel == "abba").unwrap();
        assert!(abba.flagged(DetectorKind::LockOrder));

        // The use-before-init order violation is caught by the order
        // detector.
        let ubi = rows
            .iter()
            .find(|r| r.kernel == "use_before_init_mozilla")
            .unwrap();
        assert!(ubi.flagged(DetectorKind::Order), "{:?}", ubi.flagged_by);
    }

    #[test]
    fn coverage_growth_is_monotone_and_bounded() {
        let rows = coverage_growth();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.pairs_at_5 <= r.pairs_at_25, "{}", r.kernel);
            assert!(
                r.pairs_at_25 <= r.total_pairs,
                "{}: sampled coverage exceeded the universe ({} > {})",
                r.kernel,
                r.pairs_at_25,
                r.total_pairs
            );
        }
        // Memory-access bugs have a non-empty pair universe…
        let counter = rows.iter().find(|r| r.kernel == "counter_rmw").unwrap();
        assert!(counter.total_pairs > 0);
        // …while the pure-synchronization lost-wakeup bug is *invisible*
        // to access-pair coverage: zero pairs, bug anyway. Another
        // coverage blind spot, measured.
        let missed = rows.iter().find(|r| r.kernel == "missed_signal").unwrap();
        assert_eq!(missed.total_pairs, 0);
    }

    #[test]
    fn tm_experiment_agrees_with_corpus_mostly() {
        let corpus = Corpus::full();
        let exp = tm_experiment(&corpus);
        assert!(exp.comparable >= 20);
        assert!(
            exp.agreements * 10 >= exp.comparable * 8,
            "agreement too low: {}/{}",
            exp.agreements,
            exp.comparable
        );
    }

    #[test]
    fn tables_render() {
        assert!(!scope_table().is_empty());
        assert!(!coverage_table().is_empty());
        assert!(!tm_table(&Corpus::full()).is_empty());
    }

    #[test]
    fn witness_rows_cover_all_kernels_and_shrink() {
        let rows = witness_experiment();
        assert_eq!(rows.len(), registry::all().len());
        for r in &rows {
            assert!(r.schedule_after > 0, "{}", r.kernel);
            assert!(r.threads >= 1, "{}", r.kernel);
            assert!(r.replays >= 2, "{}", r.kernel);
            // Deadlocks other than the self-deadlock (relocking a held
            // mutex) involve a second thread — possibly one that never
            // ran a step and is only blocked at the end.
            if r.family == Family::Deadlock && r.kernel != "self_relock" {
                assert!(r.threads >= 2, "{}", r.kernel);
                assert!(r.conflict_objects >= 1, "{}", r.kernel);
            }
        }
        // The self-deadlock is the 1-thread/1-resource extreme of the
        // paper's deadlock distribution.
        let relock = rows.iter().find(|r| r.kernel == "self_relock").unwrap();
        assert_eq!(relock.threads, 1);
        assert!(relock.conflict_objects <= 1, "{relock:?}");
        // The single-variable race shrinks to the paper's minimal shape.
        let counter = rows.iter().find(|r| r.kernel == "counter_rmw").unwrap();
        assert!(counter.threads <= 2);
        assert!(counter.conflicting_accesses <= 4, "{counter:?}");
        // ABBA is the canonical 2-thread / 2-resource deadlock.
        let abba = rows.iter().find(|r| r.kernel == "abba").unwrap();
        assert_eq!(abba.threads, 2);
        assert_eq!(abba.conflict_objects, 2);
    }

    #[test]
    fn witness_table_reports_band_comparison() {
        let t = witness_table();
        assert!(!t.is_empty());
        let s = t.to_string();
        assert!(s.contains("E-wit"), "{s}");
        assert!(s.contains("paper: 96%"), "{s}");
        assert!(s.contains("paper: 97%"), "{s}");
    }
}
