//! The scheduling laboratory: one kernel, every exploration strategy.
//!
//! Compares full DFS, CHESS-style preemption bounding, state
//! deduplication and the sleep-set partial-order reduction on the same
//! bug; prints the witness as a paper-style interleaving timeline; and
//! measures access-pair coverage growth under random testing.
//!
//! ```text
//! cargo run --example schedule_lab [kernel-id]
//! ```

use learning_from_mistakes::kernels::registry;
use learning_from_mistakes::sim::{
    explore::trace_of, render_timeline, ExploreLimits, Explorer, PairCoverage, RandomWalker,
};

fn main() {
    let kernel_id = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "cache_pair_invariant".to_string());
    let kernel = registry::by_id(&kernel_id).unwrap_or_else(|| {
        eprintln!("unknown kernel `{kernel_id}`");
        std::process::exit(2);
    });
    let program = kernel.buggy();
    println!("{kernel}\n");

    // --- exploration strategies -------------------------------------
    println!("exploration strategies:");
    let full = Explorer::new(&program).run();
    println!(
        "  full DFS           : {:6} schedules, {:5} failing",
        full.schedules_run,
        full.counts.failures()
    );
    for bound in [0u32, 1, 2] {
        let b = Explorer::new(&program).preemption_bound(bound).run();
        println!(
            "  preemption bound {bound} : {:6} schedules, {:5} failing",
            b.schedules_run,
            b.counts.failures()
        );
    }
    let dedup = Explorer::new(&program).dedup_states().run();
    println!(
        "  state dedup        : {:6} schedules, {:5} failing ({} states deduped)",
        dedup.schedules_run,
        dedup.counts.failures(),
        dedup.states_deduped
    );
    let sleep = Explorer::new(&program).sleep_sets().run();
    println!(
        "  sleep sets         : {:6} schedules, {:5} failing ({} branches pruned)",
        sleep.schedules_run,
        sleep.counts.failures(),
        sleep.sleep_pruned
    );
    assert_eq!(
        full.counts.failures() > 0,
        sleep.counts.failures() > 0,
        "the reduction must preserve the bug"
    );

    // --- the witness as a paper-style timeline -----------------------
    let (schedule, outcome) = full.first_failure.expect("kernel manifests");
    println!("\nwitness interleaving ({outcome}):\n");
    let (witness_trace, _) = trace_of(&program, &schedule, 5_000);
    print!("{}", render_timeline(&witness_trace, Some(&program)));

    // --- access-pair coverage growth ---------------------------------
    println!("\naccess-pair coverage under random testing:");
    let mut universe = PairCoverage::new();
    let max_steps = ExploreLimits::default().max_steps;
    Explorer::new(&program).run_with_callback(|exec, _| {
        let (trace, _) = trace_of(&program, &exec.schedule_taken(), max_steps);
        universe.observe_events(&trace.events);
    });
    let traces = RandomWalker::new(&program, 0xBEEF).collect_traces(25);
    let mut cov = PairCoverage::new();
    for (i, (trace, _)) in traces.iter().enumerate() {
        cov.observe_events(&trace.events);
        if [0, 4, 9, 24].contains(&i) {
            println!(
                "  after {:2} random trials: {:2}/{} pairs covered",
                i + 1,
                cov.len(),
                universe.len()
            );
        }
    }
    println!(
        "\nPair coverage saturates quickly, yet E-test shows small random \
         budgets still miss bugs: coverage does not force the buggy \
         conjunction — the study's argument for systematic interleaving \
         testing."
    );
}
