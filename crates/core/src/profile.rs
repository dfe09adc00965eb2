//! Per-table build timings for the study pipeline.
//!
//! [`build_table`] is one [`TABLES`](crate::tables::TABLES) generator
//! with a stopwatch around it and a `study` event after it, so
//! regressions in corpus-query cost show up per table instead of as one
//! opaque total; [`profile_tables`] builds all nine that way. The tables
//! produced are identical to the plain path — timing is observation
//! only.

use std::time::Duration;

use lfm_corpus::Corpus;
use lfm_obs::{Event, Sink, Stopwatch, Value};

use crate::table::Table;
use crate::tables;

/// Wall-clock time of one table's build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableTiming {
    /// Table identifier (`"T1"` … `"T9"`).
    pub id: String,
    /// Time spent generating the table from the corpus.
    pub wall: Duration,
}

/// Builds table `T<n>` (`n` in 1..=9) with its [`tables::TABLES`]
/// generator, timing the build and streaming its `study` scope `table`
/// event (`id`, `rows`, `wall_us`) to `sink`.
pub fn build_table(n: usize, corpus: &Corpus, sink: &dyn Sink) -> (Table, Duration) {
    let watch = Stopwatch::start();
    let table = tables::TABLES[n - 1](corpus);
    let wall = watch.elapsed();
    if sink.enabled() {
        sink.emit(&Event {
            scope: "study",
            name: "table",
            fields: &[
                ("id", Value::Str(&table.id)),
                ("rows", Value::U64(table.len() as u64)),
                ("wall_us", Value::U64(wall.as_micros() as u64)),
            ],
        });
    }
    (table, wall)
}

/// Streams the `study` scope `tables` event that ends a run of every
/// table: `tables` built, in `wall`.
pub fn emit_tables_total(sink: &dyn Sink, tables: usize, wall: Duration) {
    if sink.enabled() {
        sink.emit(&Event {
            scope: "study",
            name: "tables",
            fields: &[
                ("tables", Value::U64(tables as u64)),
                ("wall_us", Value::U64(wall.as_micros() as u64)),
            ],
        });
    }
}

/// Builds all nine tables with [`build_table`], then streams the
/// [`emit_tables_total`] event to `sink`.
pub fn profile_tables(corpus: &Corpus, sink: &dyn Sink) -> (Vec<Table>, Vec<TableTiming>) {
    let total_watch = Stopwatch::start();
    let (out, timings): (Vec<Table>, Vec<TableTiming>) = (1..=tables::TABLES.len())
        .map(|n| {
            let (table, wall) = build_table(n, corpus, sink);
            let id = table.id.clone();
            (table, TableTiming { id, wall })
        })
        .unzip();
    emit_tables_total(sink, out.len(), total_watch.elapsed());
    (out, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_obs::MemorySink;

    #[test]
    fn profiled_tables_match_plain_build() {
        let corpus = Corpus::full();
        let sink = MemorySink::new();
        let (tables, timings) = profile_tables(&corpus, &sink);
        assert_eq!(tables, tables::all_tables(&corpus));
        assert_eq!(timings.len(), 9);
        assert_eq!(timings[0].id, "T1");
        assert_eq!(timings[8].id, "T9");
        assert_eq!(sink.events_named("study", "table").len(), 9);
        assert_eq!(sink.events_named("study", "tables").len(), 1);
    }
}
