//! Machine-readable metrics snapshots (`lfm-obs/v1`).
//!
//! [`obs_snapshot`] exercises each instrumented subsystem once —
//! exploration per kernel family, the detector pipeline, the TL2 STM,
//! and the table generators — and serializes the collected metrics as
//! one JSON document. `lfm tables --json <path>` writes it
//! so benchmark runs leave a comparable artifact next to the tables.

use std::sync::Arc;

use lfm_kernels::{registry, Family};
use lfm_obs::{json, Sink};
use lfm_sim::{ExploreLimits, ExploreReport, Explorer, RandomWalker};
use lfm_stm::tl2::TSpace;
use lfm_study::experiments::WitnessRow;

use crate::{push_fields, push_objects};

/// Schema identifier embedded in every snapshot.
pub const SNAPSHOT_SCHEMA: &str = "lfm-obs/v1";

/// Builds the full metrics snapshot as a JSON document, streaming the
/// per-family explorations' `explore` events, the detector pipeline's
/// `detect` events and the table builds' `study` events to `sink`. The
/// timed E-perf and E-obs runs stay unobserved: E-obs measures what
/// observation costs itself.
///
/// Deliberately small budgets: the snapshot is a smoke-level profile of
/// every subsystem, not a benchmark — `cargo bench` owns the real
/// measurements.
pub fn obs_snapshot(sink: &Arc<dyn Sink>) -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    push_fields(&mut out, &[("schema", json::quote(SNAPSHOT_SCHEMA))]);

    // Exploration, aggregated per kernel family over the buggy variants.
    out.push_str(",\"explore\":");
    push_objects(&mut out, Family::ALL, |family| {
        let reports: Vec<ExploreReport> = registry::by_family(family)
            .iter()
            .map(|kernel| {
                Explorer::new(&kernel.buggy())
                    .with_sink(Arc::clone(sink))
                    .limits(ExploreLimits {
                        max_schedules: 2_000,
                        sleep_sets: true,
                        ..ExploreLimits::default()
                    })
                    .run()
            })
            .collect();
        let sum = |field: fn(&ExploreReport) -> u64| reports.iter().map(field).sum::<u64>();
        let steps = sum(|r| r.steps_total);
        let wall_us = sum(|r| r.stats.wall.as_micros() as u64);
        vec![
            ("family", json::quote(&family.to_string())),
            ("kernels", reports.len().to_string()),
            ("schedules", sum(|r| r.schedules_run).to_string()),
            ("failures", sum(|r| r.counts.failures()).to_string()),
            ("branch_points", sum(|r| r.stats.branch_points).to_string()),
            ("snapshots", sum(|r| r.stats.snapshots).to_string()),
            (
                "snapshot_bytes_saved",
                sum(|r| r.stats.snapshot_bytes_saved).to_string(),
            ),
            ("sleep_pruned", sum(|r| r.sleep_pruned).to_string()),
            ("wall_us", wall_us.to_string()),
            (
                "states_per_sec",
                json::number_f64(steps as f64 / (wall_us.max(1) as f64 / 1e6)),
            ),
        ]
    });

    // The detector pipeline on a representative kernel's sampled traces.
    let kernel = registry::by_id("counter_rmw").expect("known kernel");
    let program = kernel.buggy();
    let sampled = RandomWalker::new(&program, 7).collect_traces(6);
    let (training, test): (Vec<_>, Vec<_>) = sampled.into_iter().partition(|(_, o)| o.is_ok());
    let training: Vec<_> = training.into_iter().map(|(t, _)| t).collect();
    let test: Vec<_> = test.into_iter().map(|(t, _)| t).collect();
    let (_, detect_stats) = lfm_detect::detect_all_with_stats(&training, &test, sink.as_ref());
    out.push_str(",\"detect\":{\"passes\":");
    push_objects(&mut out, &detect_stats.passes, |pass| {
        vec![
            ("detector", json::quote(&pass.kind.to_string())),
            ("events", pass.counts.events.to_string()),
            ("candidates", pass.counts.candidates.to_string()),
            ("reports", pass.reports.to_string()),
            ("wall_us", pass.wall.as_micros().to_string()),
        ]
    });
    out.push(',');
    push_fields(
        &mut out,
        &[(
            "training_wall_us",
            detect_stats.training_wall.as_micros().to_string(),
        )],
    );
    out.push('}');

    // A short single-threaded TL2 workload: exact, deterministic counts.
    let space = TSpace::new(1);
    for _ in 0..100 {
        space.atomically(|tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 1);
            Ok(())
        });
    }
    let stm = space.stats();
    out.push_str(",\"stm\":{");
    push_fields(
        &mut out,
        &[
            ("starts", stm.starts.to_string()),
            ("commits", stm.commits.to_string()),
            ("aborts", stm.aborts.to_string()),
            ("body_retries", stm.body_retries.to_string()),
            ("commit_rate", json::number_f64(stm.commit_rate())),
        ],
    );
    out.push('}');

    // Minimized witnesses: the E-wit measurement, one record per kernel
    // plus the paper-band tallies the study table reports.
    let rows = lfm_study::experiments::witness_experiment();
    out.push_str(",\"witness\":{\"schema\":\"lfm-trace/v1\",\"kernels\":");
    push_objects(&mut out, &rows, |r| {
        vec![
            ("kernel", json::quote(r.kernel)),
            ("family", json::quote(&r.family.to_string())),
            ("threads", r.threads.to_string()),
            ("switches", r.switches.to_string()),
            ("conflicting_accesses", r.conflicting_accesses.to_string()),
            ("conflict_objects", r.conflict_objects.to_string()),
            ("schedule_before", r.schedule_before.to_string()),
            ("schedule_after", r.schedule_after.to_string()),
            ("replays", r.replays.to_string()),
        ]
    });
    let (dead, nondead): (Vec<_>, Vec<_>) = rows.iter().partition(|r| r.family == Family::Deadlock);
    let count = |rows: &[&WitnessRow], keep: fn(&WitnessRow) -> bool| {
        rows.iter().filter(|r| keep(r)).count().to_string()
    };
    out.push(',');
    push_fields(
        &mut out,
        &[
            (
                "nondeadlock_threads_le2",
                count(&nondead, |r| r.threads <= 2),
            ),
            (
                "nondeadlock_accesses_le4",
                count(&nondead, |r| r.conflicting_accesses <= 4),
            ),
            ("nondeadlock_total", nondead.len().to_string()),
            ("deadlock_threads_le2", count(&dead, |r| r.threads <= 2)),
            (
                "deadlock_resources_le2",
                count(&dead, |r| r.conflict_objects <= 2),
            ),
            ("deadlock_total", dead.len().to_string()),
        ],
    );
    out.push('}');

    // Exploration hot-path throughput: the E-perf measurement on the
    // two deepest kernels. The rates are host properties.
    // (Smoke budget here; BENCH_explore.json carries the reference run
    // at the full PERF_BUDGET.)
    let perf = crate::perf::perf_measure(500);
    out.push_str(",\"perf\":{");
    push_fields(&mut out, &[("budget", perf.budget.to_string())]);
    out.push_str(",\"deepest\":");
    push_objects(&mut out, &perf.speedups, |s| {
        vec![
            ("kernel", json::quote(s.kernel)),
            ("max_depth", s.max_depth.to_string()),
            ("cow_states_per_sec", json::number_f64(s.cow_states_per_sec)),
        ]
    });
    out.push(',');
    let saved: u64 = perf.rows.iter().map(|r| r.snapshot_bytes_saved).sum();
    push_fields(
        &mut out,
        &[("snapshot_bytes_saved_total", saved.to_string())],
    );
    out.push('}');

    // Observability overhead: the E-obs measurement — profiler +
    // progress estimation + flight recorder against observation-off on
    // the two deepest kernels. The overhead percentage is a host
    // property; `reports_identical` must be true everywhere. (Smoke
    // budget, like the perf section above.)
    let obs = crate::obs::obs_measure(300);
    out.push_str(",\"obs\":");
    out.push_str(&crate::obs::obs_json(&obs));

    // Table-generator timings over the full corpus.
    let corpus = lfm_corpus::Corpus::full();
    let (_, timings) = lfm_study::profile_tables(&corpus, sink.as_ref());
    out.push_str(",\"study\":{\"tables\":");
    push_objects(&mut out, &timings, |timing| {
        vec![
            ("id", json::quote(&timing.id)),
            ("wall_us", timing.wall.as_micros().to_string()),
        ]
    });
    out.push(',');
    let total_us: u128 = timings.iter().map(|t| t.wall.as_micros()).sum();
    push_fields(&mut out, &[("total_wall_us", total_us.to_string())]);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_covers_every_subsystem() {
        let sink = Arc::new(lfm_obs::MemorySink::new());
        let snap = obs_snapshot(&(Arc::clone(&sink) as Arc<dyn Sink>));
        // The table builds and the per-family explorations stream to the
        // session sink: one exploration per buggy kernel, each too short
        // for a progress event.
        assert_eq!(sink.events_named("study", "table").len(), 9);
        assert_eq!(sink.events_named("study", "tables").len(), 1);
        assert_eq!(sink.events_named("explore", "start").len(), 29);
        assert_eq!(sink.events_named("explore", "report").len(), 29);
        assert_eq!(sink.events_named("explore", "progress").len(), 0);
        assert!(snap.starts_with('{') && snap.ends_with('}'));
        assert!(snap.contains("\"schema\":\"lfm-obs/v1\""));
        for family in Family::ALL {
            assert!(
                snap.contains(&json::quote(&family.to_string())),
                "missing family {family}"
            );
        }
        for key in [
            "\"detect\":",
            "\"stm\":",
            "\"reports_identical\":true",
            "\"host_parallelism\":",
            "\"perf\":{",
            "\"cow_states_per_sec\":",
            "\"obs\":{",
            "\"target_overhead_pct\":",
            "\"top_phase\":",
            "\"snapshot_bytes_saved_total\":",
            "\"snapshot_bytes_saved\":",
            "\"states_per_sec\":",
            "\"study\":",
            "\"T9\"",
            "\"commits\":100",
            "\"witness\":{\"schema\":\"lfm-trace/v1\"",
            "\"nondeadlock_threads_le2\":",
            "\"deadlock_resources_le2\":",
        ] {
            assert!(snap.contains(key), "missing {key} in {snap}");
        }
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        let opens = snap.matches('{').count() + snap.matches('[').count();
        let closes = snap.matches('}').count() + snap.matches(']').count();
        assert_eq!(opens, closes);
    }
}
