//! Figure demos (F1–F5).
//!
//! The paper's figures are code excerpts of representative bugs. The
//! executable equivalent: run the corresponding kernel's buggy variant
//! under the model checker (exhibiting the witness interleaving the
//! figure's caption describes) and each fixed variant to proof.

use std::fmt;

use lfm_kernels::{registry, FixKind, Kernel, Variant};
use lfm_sim::{pseudocode, Explorer, Outcome, Schedule};

/// The result of one figure demo.
#[derive(Debug, Clone)]
pub struct FigureDemo {
    /// Figure id, e.g. `"F1"`.
    pub id: &'static str,
    /// Paper-figure description.
    pub caption: &'static str,
    /// The kernel demonstrated.
    pub kernel_id: &'static str,
    /// Interleavings explored on the buggy variant.
    pub schedules_explored: u64,
    /// Interleavings that manifested the bug.
    pub failing_schedules: u64,
    /// One witness interleaving.
    pub witness: Option<(Schedule, Outcome)>,
    /// Fix strategies proved correct by exhaustive exploration.
    pub fixes_proved: Vec<FixKind>,
    /// The buggy variant rendered as paper-figure pseudo-code.
    pub source: String,
}

impl fmt::Display for FigureDemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} (kernel `{}`)",
            self.id, self.caption, self.kernel_id
        )?;
        for line in self.source.lines() {
            writeln!(f, "  | {line}")?;
        }
        writeln!(
            f,
            "  buggy: {}/{} interleavings manifest the bug",
            self.failing_schedules, self.schedules_explored
        )?;
        if let Some((schedule, outcome)) = &self.witness {
            writeln!(f, "  witness: [{schedule}] -> {outcome}")?;
        }
        if self.fixes_proved.is_empty() {
            writeln!(f, "  fixes: (none implemented)")?;
        } else {
            let fixes: Vec<String> = self.fixes_proved.iter().map(|x| x.to_string()).collect();
            writeln!(f, "  fixes proved correct: {}", fixes.join(", "))?;
        }
        Ok(())
    }
}

fn demo(id: &'static str, caption: &'static str, kernel: &Kernel) -> FigureDemo {
    let buggy = kernel.buggy();
    let source = pseudocode(&buggy);
    let report = Explorer::new(&buggy).run();
    let mut fixes_proved = Vec::new();
    for &fix in kernel.fixes {
        let program = kernel.build(Variant::Fixed(fix));
        if Explorer::new(&program).run().proved_ok() {
            fixes_proved.push(fix);
        }
    }
    FigureDemo {
        id,
        caption,
        kernel_id: kernel.id,
        schedules_explored: report.schedules_run,
        failing_schedules: report.counts.failures(),
        witness: report.first_failure,
        fixes_proved,
        source,
    }
}

/// F1 — the Apache log-buffer atomicity violation.
pub fn figure1() -> FigureDemo {
    demo(
        "F1",
        "atomicity violation: Apache shared log buffer",
        &registry::by_id("log_buffer_apache").expect("kernel exists"),
    )
}

/// F2 — the Mozilla use-before-init order violation.
pub fn figure2() -> FigureDemo {
    demo(
        "F2",
        "order violation: Mozilla nsThread used before init",
        &registry::by_id("use_before_init_mozilla").expect("kernel exists"),
    )
}

/// F3 — the Mozilla multi-variable cache invariant violation.
pub fn figure3() -> FigureDemo {
    demo(
        "F3",
        "multi-variable violation: js cache count vs entries",
        &registry::by_id("cache_pair_invariant").expect("kernel exists"),
    )
}

/// F4 — the ABBA deadlock.
pub fn figure4() -> FigureDemo {
    demo(
        "F4",
        "deadlock: two locks acquired in opposite orders",
        &registry::by_id("abba").expect("kernel exists"),
    )
}

/// F5 — fix-strategy comparison on the check-then-act shape.
pub fn figure5() -> FigureDemo {
    demo(
        "F5",
        "fix strategies on a check-then-act bug (condition check vs lock vs TM)",
        &registry::by_id("check_then_act_null").expect("kernel exists"),
    )
}

/// The five figure demos, F1 first.
pub const FIGURES: [fn() -> FigureDemo; 5] = [figure1, figure2, figure3, figure4, figure5];

/// All five figure demos.
pub fn all_figures() -> Vec<FigureDemo> {
    FIGURES.iter().map(|figure| figure()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_manifests_and_proves_fixes() {
        for fig in all_figures() {
            assert!(fig.failing_schedules > 0, "{}: no manifestation", fig.id);
            assert!(fig.witness.is_some(), "{}: no witness", fig.id);
            assert!(
                !fig.fixes_proved.is_empty(),
                "{}: no fix proved correct",
                fig.id
            );
            assert!(
                fig.failing_schedules < fig.schedules_explored,
                "{}: bug should hide in most interleavings",
                fig.id
            );
        }
    }

    #[test]
    fn figure4_is_a_deadlock() {
        let fig = figure4();
        let (_, outcome) = fig.witness.unwrap();
        assert!(outcome.is_deadlock());
    }

    #[test]
    fn figure5_proves_multiple_strategies() {
        let fig = figure5();
        assert!(fig.fixes_proved.len() >= 2, "{:?}", fig.fixes_proved);
        assert!(fig.fixes_proved.contains(&FixKind::CondCheck));
    }

    #[test]
    fn display_mentions_witness_and_source() {
        let s = figure1().to_string();
        assert!(s.contains("witness"));
        assert!(s.contains("log_buffer_apache"));
        // The paper-figure pseudo-code is embedded.
        assert!(s.contains("| thread w1() {"));
        assert!(s.contains("p = buf_pos;"));
    }
}
