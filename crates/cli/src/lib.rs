//! # lfm-cli — the `lfm` command line
//!
//! A small, dependency-free CLI over the reproduction:
//!
//! ```text
//! lfm list bugs [--app mysql] [--class deadlock]   # browse the corpus
//! lfm list kernels [--family deadlock]             # browse the kernels
//! lfm show <bug-id>                                # one record, full detail
//! lfm kernel <id>                                  # explore a kernel
//! lfm kernel <id> --source                         # paper-figure pseudo-code
//! lfm kernel <id> --stats                          # exploration metrics
//! lfm kernel <id> --chaos 42                       # seeded fault injection
//! lfm kernel <id> --deadline 10                    # budgeted, may degrade
//! lfm explore <id> --dpor --stats                 # reduced search + counters
//! lfm explore <id> --progress                      # periodic progress estimates
//! lfm witness <id> --out w.json --chrome t.json   # minimized portable witness
//! lfm replay w.json                                # verify a saved witness
//! lfm tables [t1..t9|f1..f5|escope|edetect|etest|ecov|etm|echaos|eperf|edpor|efuse|ewit|eobs|eserve|findings]
//! lfm tables --check-explore BENCH_explore.json   # a benchmark gate
//! lfm serve --addr 127.0.0.1:0 --workers 4         # model-checking service
//! lfm bench-serve --chaos-net 42 --shutdown        # closed-loop load run
//! lfm version                                      # binary + schema versions
//! lfm --log-jsonl run.jsonl kernel <id>            # structured event log
//! lfm --metrics m.txt explore <id>                 # OpenMetrics exposition
//! ```
//!
//! The argument parser is hand-rolled (the workspace is std-only) and
//! unit-tested here; `src/bin/lfm.rs` is a thin shim.
//!
//! # Exit status
//!
//! The binary exits 0 on success, **1 degraded** (a table generator
//! panicked and was contained, a `tables` benchmark gate failed, or
//! `--log-jsonl` lost events to write errors), and **2** on a usage
//! error.

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use lfm_bench::{Artifact, Mode};
use lfm_corpus::{App, BugClass, Corpus};
use lfm_kernels::{registry, Family, Kernel, Variant};
use lfm_obs::{
    fmt_duration, ChromeTrace, NoopSink, PhaseProfiler, ProgressLineSink, ProgressTracker,
    Registry, Sink, StatsTable, Stopwatch, TeeSink,
};
use lfm_sim::{
    minimize, pseudocode, Budget, BudgetedExplorer, Explorer, FaultPlan, Truncation, Witness,
};

// `lfm_serve` items are used through their crate path in the serve
// runners — the service surface is small enough that qualified names
// read better than another import block.

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `lfm list bugs [--app X] [--class Y]`
    ListBugs {
        /// Application filter.
        app: Option<App>,
        /// Class filter.
        class: Option<BugClass>,
    },
    /// `lfm list kernels [--family X]`
    ListKernels {
        /// Family filter.
        family: Option<Family>,
    },
    /// `lfm show <bug-id>`
    Show {
        /// The record id.
        id: String,
    },
    /// `lfm kernel <id> [--source] [--witness] [--stats]`
    Kernel {
        /// The kernel id.
        id: String,
        /// Print pseudo-code instead of exploring.
        source: bool,
        /// Print the failure witness as an interleaving timeline.
        witness: bool,
        /// Print exploration metrics (schedules/sec, snapshots, prunes,
        /// per-phase wall time) after the results.
        stats: bool,
    },
    /// `lfm explore <id> [--dpor] [--no-fuse] [--stats] [--progress]`
    Explore {
        /// The kernel id.
        id: String,
        /// Source-set dynamic partial-order reduction with sleep sets:
        /// prune interleavings that only reorder independent steps.
        /// Outcome kinds and final states are preserved; schedule
        /// counts shrink. Ignored under `--chaos` (step-indexed faults
        /// break trace equivalence).
        dpor: bool,
        /// Disable invisible-step fusion, restoring a branch point at
        /// every multi-enabled state. Fusion is on by default (it
        /// preserves outcome sets and shrinks schedule counts); the
        /// flag exists as the differential baseline and escape hatch.
        no_fuse: bool,
        /// Print search counters and phase-attributed wall time after
        /// the report.
        stats: bool,
        /// Emit periodic progress-estimate lines (tree-size estimate,
        /// fraction explored, throughput trend, ETA) to stderr.
        progress: bool,
    },
    /// `lfm witness <kernel-id> [--out <path>] [--chrome <path>]`
    Witness {
        /// The kernel id.
        id: String,
        /// Where to save the witness artifact (default:
        /// `<id>.witness.json`).
        out: Option<String>,
        /// Also export a Chrome trace-event file for Perfetto.
        chrome: Option<String>,
    },
    /// `lfm replay <witness.json>`
    Replay {
        /// Path to a saved `lfm-trace/v1` witness.
        path: String,
    },
    /// `lfm export`
    Export,
    /// `lfm version`: binary version plus every artifact schema.
    Version,
    /// `lfm tables [artifact]`
    Tables {
        /// Specific artifact, or everything.
        only: Option<Artifact>,
        /// Markdown output.
        markdown: bool,
    },
    /// `lfm tables --json|--bench-explore|--check-explore|--bench-serve|--check-serve <path>`:
    /// a metrics snapshot, benchmark document or gate instead of the
    /// tables.
    TablesMode {
        /// Which one.
        mode: Mode,
        /// The document it writes or checks against.
        path: String,
    },
    /// `lfm serve [--addr A] [--workers N] [--queue N] [--max-conns N]
    /// [--dpor] [--trace <path>] [--trace-slow-ms N]`
    Serve {
        /// Bind address (default `127.0.0.1:0`, a free port).
        addr: Option<String>,
        /// Run every DFS rung with source-set DPOR and sleep sets (chaos
        /// requests and the preemption-bounded rung fall back to the
        /// classic search).
        dpor: bool,
        /// Checks that explore at once (the exploration slots).
        workers: Option<usize>,
        /// Checks that may wait for a slot (also the admission
        /// ladder's shed point).
        queue: Option<usize>,
        /// Maximum simultaneously open connections.
        max_conns: Option<usize>,
        /// Capture every request's stage timeline and write a
        /// Perfetto-loadable `lfm-serve-trace/v1` dump here at drain.
        trace: Option<String>,
        /// Always capture requests slower than this, even without
        /// `--trace` (the slow-request flight recorder).
        trace_slow_ms: Option<u64>,
    },
    /// `lfm top --addr A [--interval-ms N] [--once]`
    Top {
        /// Server to poll (required: there is no default port).
        addr: String,
        /// Refresh interval.
        interval_ms: u64,
        /// Print one snapshot and exit (scripts, CI).
        once: bool,
    },
    /// `lfm bench-serve [--addr A] [--clients N] [--requests N]
    /// [--seed S] [--chaos-net S] [--out path] [--shutdown]`
    BenchServe {
        /// Target server; when absent an in-process server is started.
        addr: Option<String>,
        /// Concurrent client threads.
        clients: Option<usize>,
        /// Requests per client.
        requests: Option<usize>,
        /// Seed for the zipf mix and retry jitter.
        seed: Option<u64>,
        /// Put a seeded chaos proxy between clients and server.
        chaos_net: Option<u64>,
        /// Write the `lfm-bench-serve/v1` report here.
        out: Option<String>,
        /// Send the server a graceful wire shutdown after the run.
        shutdown: bool,
    },
    /// `lfm help`
    Help,
}

/// A CLI usage error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

fn parse_app(s: &str) -> Result<App, UsageError> {
    match s.to_ascii_lowercase().as_str() {
        "mysql" => Ok(App::MySql),
        "apache" => Ok(App::Apache),
        "mozilla" => Ok(App::Mozilla),
        "openoffice" => Ok(App::OpenOffice),
        other => Err(UsageError(format!(
            "unknown app `{other}` (mysql|apache|mozilla|openoffice)"
        ))),
    }
}

fn parse_class(s: &str) -> Result<BugClass, UsageError> {
    match s.to_ascii_lowercase().as_str() {
        "deadlock" | "d" => Ok(BugClass::Deadlock),
        "non-deadlock" | "nondeadlock" | "nd" => Ok(BugClass::NonDeadlock),
        other => Err(UsageError(format!(
            "unknown class `{other}` (deadlock|non-deadlock)"
        ))),
    }
}

fn parse_family(s: &str) -> Result<Family, UsageError> {
    match s.to_ascii_lowercase().as_str() {
        "atomicity" => Ok(Family::AtomicitySingleVar),
        "order" => Ok(Family::Order),
        "multivar" | "multi-variable" => Ok(Family::MultiVariable),
        "deadlock" => Ok(Family::Deadlock),
        "other" => Ok(Family::OtherNonDeadlock),
        other => Err(UsageError(format!(
            "unknown family `{other}` (atomicity|order|multivar|deadlock|other)"
        ))),
    }
}

/// A parsed invocation: the command plus global options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// The command to run.
    pub command: Command,
    /// `--log-jsonl <path>`: stream structured events to a JSONL file.
    pub log_jsonl: Option<String>,
    /// `--chaos <seed>`: inject a deterministic [`FaultPlan`].
    pub chaos: Option<u64>,
    /// `--deadline <secs>`: wall-clock budget for kernel exploration.
    pub deadline: Option<Duration>,
    /// `--metrics <path>`: write an OpenMetrics text exposition.
    pub metrics: Option<String>,
}

impl Invocation {
    /// The [`RunOptions`] carried by this invocation's global flags.
    pub fn options(&self) -> RunOptions {
        RunOptions {
            chaos: self.chaos,
            deadline: self.deadline,
            metrics: self.metrics.clone(),
        }
    }
}

/// Parses the argument vector (without the program name), extracting
/// global options (`--log-jsonl <path>`, `--chaos <seed>`,
/// `--deadline <secs>`, `--metrics <path>`, accepted anywhere) before
/// the command grammar.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, UsageError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut log_jsonl = None;
    let mut chaos = None;
    let mut deadline = None;
    let mut metrics = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--log-jsonl" => log_jsonl = Some(value(&mut it, arg, "a file path")?.to_owned()),
            "--chaos" => {
                chaos = Some(number(&mut it, arg, "a seed", |v| {
                    format!("--chaos seed `{v}` is not a u64")
                })?);
            }
            "--deadline" => {
                let v = value(&mut it, arg, "a duration in seconds")?;
                let secs: f64 = v.parse().map_err(|_| {
                    UsageError(format!("--deadline `{v}` is not a number of seconds"))
                })?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(UsageError(format!(
                        "--deadline must be a positive number of seconds (got `{v}`)"
                    )));
                }
                deadline = Some(Duration::from_secs_f64(secs));
            }
            "--metrics" => metrics = Some(value(&mut it, arg, "a file path")?.to_owned()),
            _ => rest.push(arg.to_owned()),
        }
    }
    Ok(Invocation {
        command: parse(&rest)?,
        log_jsonl,
        chaos,
        deadline,
        metrics,
    })
}

/// The one flag-value reader: the argument after `flag`, or the usage
/// error "`flag` needs `what`".
fn value<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
) -> Result<&'a str, UsageError> {
    args.next()
        .ok_or_else(|| UsageError(format!("{flag} needs {what}")))
}

/// [`value`] parsed as a `T`; `bad` words the error for a value that
/// does not parse.
fn number<'a, T: std::str::FromStr>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
    bad: impl FnOnce(&str) -> String,
) -> Result<T, UsageError> {
    let v = value(args, flag, what)?;
    v.parse().map_err(|_| UsageError(bad(v)))
}

/// A count of at least 1 after `flag`, such as `--workers 4`.
fn count<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
) -> Result<usize, UsageError> {
    match number(args, flag, what, |v| format!("{flag} `{v}` is not {what}"))? {
        0 => Err(UsageError(format!("{flag} must be at least 1"))),
        n => Ok(n),
    }
}

/// The usage error for an unexpected argument.
fn unknown(flag: &str) -> UsageError {
    UsageError(format!("unknown flag `{flag}`"))
}

/// Parses the argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("list") => match it.next() {
            Some("bugs") => {
                let mut app = None;
                let mut class = None;
                while let Some(flag) = it.next() {
                    match flag {
                        "--app" => app = Some(parse_app(value(&mut it, flag, "a value")?)?),
                        "--class" => class = Some(parse_class(value(&mut it, flag, "a value")?)?),
                        other => return Err(unknown(other)),
                    }
                }
                Ok(Command::ListBugs { app, class })
            }
            Some("kernels") => {
                let mut family = None;
                while let Some(flag) = it.next() {
                    match flag {
                        "--family" => {
                            family = Some(parse_family(value(&mut it, flag, "a value")?)?);
                        }
                        other => return Err(unknown(other)),
                    }
                }
                Ok(Command::ListKernels { family })
            }
            other => Err(UsageError(format!(
                "usage: lfm list bugs|kernels (got {other:?})"
            ))),
        },
        Some("show") => {
            let id = it
                .next()
                .ok_or_else(|| UsageError("usage: lfm show <bug-id>".into()))?;
            Ok(Command::Show { id: id.to_owned() })
        }
        Some("kernel") => {
            let id = it.next().ok_or_else(|| {
                UsageError("usage: lfm kernel <id> [--source] [--witness] [--stats]".into())
            })?;
            let mut source = false;
            let mut witness = false;
            let mut stats = false;
            for flag in it {
                match flag {
                    "--source" => source = true,
                    "--witness" => witness = true,
                    "--stats" => stats = true,
                    other => return Err(unknown(other)),
                }
            }
            Ok(Command::Kernel {
                id: id.to_owned(),
                source,
                witness,
                stats,
            })
        }
        Some("explore") => {
            let id = it.next().ok_or_else(|| {
                UsageError(
                    "usage: lfm explore <id> [--dpor] [--no-fuse] [--stats] [--progress]".into(),
                )
            })?;
            let mut dpor = false;
            let mut no_fuse = false;
            let mut stats = false;
            let mut progress = false;
            for flag in it {
                match flag {
                    "--dpor" => dpor = true,
                    "--no-fuse" => no_fuse = true,
                    "--stats" => stats = true,
                    "--progress" => progress = true,
                    other => return Err(unknown(other)),
                }
            }
            Ok(Command::Explore {
                id: id.to_owned(),
                dpor,
                no_fuse,
                stats,
                progress,
            })
        }
        Some("witness") => {
            let id = it.next().ok_or_else(|| {
                UsageError("usage: lfm witness <kernel-id> [--out <path>] [--chrome <path>]".into())
            })?;
            let mut out = None;
            let mut chrome = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--out" => out = Some(value(&mut it, flag, "a file path")?.to_owned()),
                    "--chrome" => chrome = Some(value(&mut it, flag, "a file path")?.to_owned()),
                    other => return Err(unknown(other)),
                }
            }
            Ok(Command::Witness {
                id: id.to_owned(),
                out,
                chrome,
            })
        }
        Some("replay") => match (it.next(), it.next()) {
            (Some(path), None) => Ok(Command::Replay {
                path: path.to_owned(),
            }),
            _ => Err(UsageError("usage: lfm replay <witness.json>".into())),
        },
        Some("export") => Ok(Command::Export),
        Some("version") | Some("--version") | Some("-V") => Ok(Command::Version),
        Some("tables") => {
            let mut only = None;
            let mut markdown = false;
            let mut mode = None;
            while let Some(arg) = it.next() {
                match (arg, Mode::parse(arg)) {
                    (_, Some(m)) if mode.is_none() => {
                        mode = Some((m, value(&mut it, arg, "a file path")?.to_owned()));
                    }
                    ("--markdown", _) => markdown = true,
                    (sel, None) => {
                        only = Some(Artifact::parse(sel).ok_or_else(|| {
                            UsageError(format!(
                                "unknown artifact `{sel}` ({})",
                                Artifact::selectors()
                            ))
                        })?);
                    }
                    (_, Some(_)) => return Err(UsageError(TABLES_MODE_USAGE.into())),
                }
            }
            match mode {
                None => Ok(Command::Tables { only, markdown }),
                Some((mode, path)) if only.is_none() && !markdown => {
                    Ok(Command::TablesMode { mode, path })
                }
                Some(_) => Err(UsageError(TABLES_MODE_USAGE.into())),
            }
        }
        Some("serve") => {
            let mut addr = None;
            let mut dpor = false;
            let mut workers = None;
            let mut queue = None;
            let mut max_conns = None;
            let mut trace = None;
            let mut trace_slow_ms = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => addr = Some(value(&mut it, flag, "a bind address")?.to_owned()),
                    "--workers" => workers = Some(count(&mut it, flag, "a worker count")?),
                    "--queue" => queue = Some(count(&mut it, flag, "a queue bound")?),
                    "--max-conns" => max_conns = Some(count(&mut it, flag, "a connection cap")?),
                    "--trace" => trace = Some(value(&mut it, flag, "a file path")?.to_owned()),
                    "--trace-slow-ms" => {
                        trace_slow_ms =
                            Some(number(&mut it, flag, "a millisecond threshold", |v| {
                                format!("--trace-slow-ms `{v}` is not a millisecond count")
                            })?);
                    }
                    "--dpor" => dpor = true,
                    other => return Err(unknown(other)),
                }
            }
            Ok(Command::Serve {
                addr,
                dpor,
                workers,
                queue,
                max_conns,
                trace,
                trace_slow_ms,
            })
        }
        Some("top") => {
            let mut addr = None;
            let mut interval_ms = 1_000;
            let mut once = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => addr = Some(value(&mut it, flag, "a server address")?.to_owned()),
                    "--interval-ms" => {
                        interval_ms = number(&mut it, flag, "a millisecond interval", |v| {
                            format!("--interval-ms `{v}` is not a millisecond count")
                        })?;
                        if interval_ms == 0 {
                            return Err(UsageError("--interval-ms must be at least 1".into()));
                        }
                    }
                    "--once" => once = true,
                    other => return Err(unknown(other)),
                }
            }
            let addr = addr
                .ok_or_else(|| UsageError("usage: lfm top --addr <host:port> [--once]".into()))?;
            Ok(Command::Top {
                addr,
                interval_ms,
                once,
            })
        }
        Some("bench-serve") => {
            let mut addr = None;
            let mut clients = None;
            let mut requests = None;
            let mut seed = None;
            let mut chaos_net = None;
            let mut out = None;
            let mut shutdown = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => addr = Some(value(&mut it, flag, "a server address")?.to_owned()),
                    "--clients" => clients = Some(count(&mut it, flag, "a client count")?),
                    "--requests" => requests = Some(count(&mut it, flag, "a request count")?),
                    "--seed" => {
                        seed = Some(number(&mut it, flag, "a u64 seed", |v| {
                            format!("--seed `{v}` is not a u64")
                        })?);
                    }
                    "--chaos-net" => {
                        chaos_net = Some(number(&mut it, flag, "a u64 seed", |v| {
                            format!("--chaos-net seed `{v}` is not a u64")
                        })?);
                    }
                    "--out" => out = Some(value(&mut it, flag, "a file path")?.to_owned()),
                    "--shutdown" => shutdown = true,
                    other => return Err(unknown(other)),
                }
            }
            Ok(Command::BenchServe {
                addr,
                clients,
                requests,
                seed,
                chaos_net,
                out,
                shutdown,
            })
        }
        Some(other) => Err(UsageError(format!(
            "unknown command `{other}`; try `lfm help`"
        ))),
    }
}

/// The usage error for a `tables` mode flag given with an artifact,
/// `--markdown` or a second mode: each mode replaces the tables.
const TABLES_MODE_USAGE: &str = "usage: lfm tables [ARTIFACT] [--markdown], or lfm tables \
     --json|--bench-explore|--check-explore|--bench-serve|--check-serve <path> alone";

/// The help text.
pub const HELP: &str = "\
lfm — Learning from Mistakes (ASPLOS 2008) reproduction CLI

USAGE:
  lfm list bugs [--app mysql|apache|mozilla|openoffice] [--class deadlock|non-deadlock]
  lfm list kernels [--family atomicity|order|multivar|deadlock|other]
  lfm show <bug-id>                 full detail of one corpus record
  lfm kernel <id>                   model-check a kernel (buggy + fixes)
  lfm kernel <id> --source          print the kernel as paper-figure pseudo-code
  lfm kernel <id> --witness         show the failure witness as a timeline
  lfm kernel <id> --stats           also print exploration metrics
  lfm explore <id> [--dpor] [--no-fuse] [--stats] [--progress]
                                    model-check the buggy variant with
                                    state dedup; --dpor prunes
                                    interleavings that only reorder
                                    independent steps (source-set dynamic
                                    partial-order reduction with sleep
                                    sets; ignored under --chaos); --no-fuse
                                    disables invisible-step fusion (on by
                                    default: ops that touch nothing shared
                                    run inside their parent edge instead of
                                    branching); --stats adds search
                                    counters and phase-attributed wall
                                    time; --progress
                                    streams periodic tree-size estimates
                                    (fraction explored, trend, ETA) to
                                    stderr
  lfm witness <id> [--out <path>] [--chrome <path>]
                                    find, minimize and save a portable
                                    lfm-trace/v1 witness (default out:
                                    <id>.witness.json); --chrome also writes
                                    a Perfetto-loadable trace-event file
  lfm replay <witness.json>         re-execute a saved witness and verify
                                    the recorded outcome bit-for-bit
  lfm export                        dump the corpus as JSON to stdout
  lfm tables [ARTIFACT] [--markdown]
                                    regenerate tables/figures/experiments
                                    (t1..t9, f1..f5, escope, edetect, etest,
                                     ecov, etm, echaos, eperf, edpor, efuse,
                                     ewit, eobs, eserve, findings;
                                     default: everything)
  lfm tables --json|--bench-explore|--check-explore|--bench-serve|--check-serve <path>
                                    instead of the tables: an lfm-obs/v1
                                    metrics snapshot, the explore or serve
                                    benchmark document, or a gate against
                                    the committed one (reductions and
                                    correctness everywhere, throughput
                                    floors on multi-core hosts)
  lfm serve [--addr A] [--workers N] [--queue N] [--max-conns N]
            [--dpor] [--trace <path>] [--trace-slow-ms N]
                                    run the fingerprint-keyed model-checking
                                    service (lfm-serve/v1 JSONL over TCP):
                                    caches reports by program fingerprint,
                                    explores a miss on its connection's
                                    thread once one of --workers slots is
                                    free (--queue more checks may wait),
                                    degrades down the budget ladder as
                                    they wait, sheds past capacity;
                                    stops on a wire shutdown request and
                                    drains in-flight work; --chaos seeds
                                    sim-level faults into every exploration,
                                    --deadline sets the default per-request
                                    wall budget, --metrics writes a final
                                    exposition at drain; --trace captures
                                    every request's stage timeline and
                                    writes a Perfetto-loadable
                                    lfm-serve-trace/v1 dump at drain;
                                    --trace-slow-ms always captures
                                    requests slower than N ms even without
                                    --trace
  lfm top --addr A [--interval-ms N] [--once]
                                    live server introspection over the wire
                                    (lfm-serve-stats/v1): uptime, queue
                                    depth, in-flight, hit/shed rates,
                                    per-stage and per-degrade-level p50/p99;
                                    refreshes every second until the server
                                    goes away; --once prints a single
                                    snapshot and exits (scripts, CI)
  lfm bench-serve [--addr A] [--clients N] [--requests N] [--seed S]
                  [--chaos-net S] [--out path] [--shutdown]
                                    closed-loop zipf load against a server
                                    (an in-process one when --addr is
                                    absent): p50/p99 latency, cache hit
                                    rate, shed rate, degrade histogram,
                                    wrong-answer count; --chaos-net puts a
                                    seeded fault-injecting proxy on the
                                    wire; --out writes lfm-bench-serve/v1;
                                    --shutdown drains the server afterwards
  lfm version                       binary version + artifact schema versions
  lfm help

GLOBAL OPTIONS:
  --log-jsonl <path>                stream structured run events (explore,
                                    budget, study and serve scopes) to
                                    <path> as JSONL
  --chaos <seed>                    inject a seeded deterministic fault plan
                                    (spurious wakeups, try_lock failures,
                                    forced tx aborts) into kernel exploration
  --deadline <secs>                 wall-clock budget for kernel exploration;
                                    degrades exhaustive -> sleep-set ->
                                    preemption-bounded -> PCT sampling and
                                    reports the level and confidence used
  --metrics <path>                  write an OpenMetrics/Prometheus text
                                    exposition describing the run (explore
                                    and tables commands)

EXIT STATUS:
  0  success
  1  degraded: a table generator panicked (contained, see FAILED lines),
     a tables benchmark gate failed, or --log-jsonl lost events to write
     errors
  2  usage error

On panic or degraded exit the binary dumps its flight recorder (the
last structured events, lfm-obs/v1 JSONL) to lfm-flight.jsonl or
$LFM_FLIGHT_DUMP; a wall-deadline trip dumps too but still exits 0.
";

/// Options carried by the global `--chaos` / `--deadline` /
/// `--metrics` flags. Chaos and deadline affect the `kernel` and
/// `explore` commands only: `witness` and `source` renderings are
/// deterministic and ignore them. Metrics are honored by `explore`
/// and `tables`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Seed for a deterministic [`FaultPlan`] (`--chaos`).
    pub chaos: Option<u64>,
    /// Wall-clock budget across all variants of a kernel (`--deadline`).
    pub deadline: Option<Duration>,
    /// Path for an OpenMetrics text exposition (`--metrics`).
    pub metrics: Option<String>,
}

impl RunOptions {
    fn active(&self) -> bool {
        self.chaos.is_some() || self.deadline.is_some()
    }
}

/// What a command run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The text to print.
    pub text: String,
    /// `true` when part of the work failed but was contained (a table
    /// generator panicked, a benchmark gate failed, or an artifact
    /// could not be written); the binary exits 1.
    pub degraded: bool,
    /// `true` when exploration was cut short by the `--deadline` wall
    /// budget. Not an error (the binary still exits 0), but the binary
    /// dumps its flight recorder so the truncated run can be inspected.
    pub deadline_tripped: bool,
}

impl RunOutput {
    /// The output of a run that degraded when `degraded` holds.
    fn new(text: String, degraded: bool) -> RunOutput {
        RunOutput {
            text,
            degraded,
            deadline_tripped: false,
        }
    }

    /// A clean run's output.
    fn clean(text: String) -> RunOutput {
        RunOutput::new(text, false)
    }

    /// A degraded run's output.
    fn degraded(text: String) -> RunOutput {
        RunOutput::new(text, true)
    }

    /// The same output, noting whether a `--deadline` trip cut the run
    /// short.
    fn with_deadline_trip(self, deadline_tripped: bool) -> RunOutput {
        RunOutput {
            deadline_tripped,
            ..self
        }
    }
}

/// Executes a parsed command, returning the text to print.
pub fn run(command: Command) -> String {
    run_with(command, Arc::new(NoopSink))
}

/// [`run`] with a structured-event sink: exploration streams `explore`
/// scope events to `sink` (the `--log-jsonl` path). Output text is
/// identical whatever the sink.
pub fn run_with(command: Command, sink: Arc<dyn Sink>) -> String {
    run_opts(command, sink, &RunOptions::default()).text
}

/// [`run_with`] plus [`RunOptions`]: the full entry point used by the
/// binary. Chaos/deadline route the `kernel` command through a
/// [`BudgetedExplorer`]; the `tables` command renders each artifact
/// under panic isolation and reports degradation instead of aborting.
pub fn run_opts(command: Command, sink: Arc<dyn Sink>, opts: &RunOptions) -> RunOutput {
    match command {
        Command::Help => RunOutput::clean(HELP.to_owned()),
        Command::ListBugs { app, class } => {
            let corpus = Corpus::full();
            let mut query = corpus.query();
            if let Some(app) = app {
                query = query.app(app);
            }
            if let Some(class) = class {
                query = query.class(class);
            }
            let bugs = query.collect();
            let mut out = format!("{} bugs\n", bugs.len());
            for bug in bugs {
                out.push_str(&format!(
                    "  {:22} {:11} {:12} {}\n",
                    bug.id.as_str(),
                    bug.app.to_string(),
                    bug.class().to_string(),
                    bug.title
                ));
            }
            RunOutput::clean(out)
        }
        Command::ListKernels { family } => {
            let kernels = match family {
                Some(f) => registry::by_family(f),
                None => registry::all(),
            };
            let mut out = format!("{} kernels\n", kernels.len());
            for k in kernels {
                out.push_str(&format!("  {k}\n"));
            }
            RunOutput::clean(out)
        }
        Command::Show { id } => RunOutput::clean(show_bug(&id)),
        Command::Kernel {
            id,
            source,
            witness,
            stats,
        } => with_kernel(&id, |kernel| {
            if witness {
                RunOutput::clean(kernel_witness(&kernel, &id, &sink))
            } else if source {
                RunOutput::clean(kernel_source(&kernel))
            } else if opts.active() {
                run_kernel_budgeted(&kernel, &id, stats, opts, &sink)
            } else {
                RunOutput::clean(run_kernel(&kernel, &id, stats, &sink))
            }
        }),
        Command::Explore {
            id,
            dpor,
            no_fuse,
            stats,
            progress,
        } => with_kernel(&id, |kernel| {
            run_explore(&kernel, &id, dpor, no_fuse, stats, progress, opts, &sink)
        }),
        Command::Witness { id, out, chrome } => with_kernel(&id, |kernel| {
            run_witness(&kernel, &id, out.as_deref(), chrome.as_deref(), &sink)
        }),
        Command::Replay { path } => run_replay(&path),
        Command::Serve {
            addr,
            dpor,
            workers,
            queue,
            max_conns,
            trace,
            trace_slow_ms,
        } => run_serve(
            ServeArgs {
                addr,
                dpor,
                workers,
                queue,
                max_conns,
                trace,
                trace_slow_ms,
            },
            opts,
            &sink,
        ),
        Command::Top {
            addr,
            interval_ms,
            once,
        } => run_top(&addr, interval_ms, once),
        Command::BenchServe {
            addr,
            clients,
            requests,
            seed,
            chaos_net,
            out,
            shutdown,
        } => run_bench_serve(
            &BenchServeArgs {
                addr,
                clients,
                requests,
                seed,
                chaos_net,
                out,
                shutdown,
            },
            opts,
            &sink,
        ),
        Command::Export => RunOutput::clean(lfm_corpus::to_json(&Corpus::full())),
        Command::Version => RunOutput::clean(version_text()),
        Command::Tables { only, markdown } => run_tables(only, markdown, opts, sink.as_ref()),
        Command::TablesMode { mode, path } => {
            let verdict = mode.run(&path, &sink);
            let text = verdict
                .lines
                .iter()
                .map(|line| format!("{line}\n"))
                .collect();
            RunOutput::new(text, !verdict.pass)
        }
    }
}

/// Runs `f` on the kernel `id` names, or says there is none.
fn with_kernel(id: &str, f: impl FnOnce(Kernel) -> RunOutput) -> RunOutput {
    match registry::by_id(id) {
        Some(kernel) => f(kernel),
        None => RunOutput::clean(format!("no kernel `{id}` (try `lfm list kernels`)\n")),
    }
}

/// Writes the `--metrics` exposition to `path`. A failure adds a
/// `METRICS FAILED` line to `out` and returns `false` (the run
/// degrades); `announce` also reports a success.
fn write_metrics(registry: &Registry, path: &str, announce: bool, out: &mut String) -> bool {
    match registry.write_to(path) {
        Ok(()) => {
            if announce {
                out.push_str(&format!("metrics: {path}\n"));
            }
            true
        }
        Err(e) => {
            out.push_str(&format!("METRICS FAILED: {path}: {e}\n"));
            false
        }
    }
}

/// A report line's truncation suffix: empty for an exhausted search.
fn truncated_suffix(truncation: Option<Truncation>) -> String {
    truncation
        .map(|reason| format!("  [truncated: {reason}]"))
        .unwrap_or_default()
}

/// A stats table's truncation cell.
fn truncation_cell(truncation: Option<Truncation>) -> String {
    truncation.map_or_else(
        || "none (exhausted)".to_owned(),
        |reason| reason.to_string(),
    )
}

/// Resolves a server address, or says it cannot.
fn resolve(addr: &str) -> Result<std::net::SocketAddr, RunOutput> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| RunOutput::degraded(format!("cannot resolve server address `{addr}`\n")))
}

/// The `show` command: one corpus record in full.
fn show_bug(id: &str) -> String {
    let corpus = Corpus::full();
    let Some(bug) = corpus.get_str(id) else {
        return format!("no bug `{id}` in the corpus (try `lfm list bugs`)\n");
    };
    let mut out = format!("{bug}\n\n{}\n\n", bug.description);
    out.push_str(&format!("  class:    {}\n", bug.class()));
    if let Some(p) = bug.patterns() {
        out.push_str(&format!("  pattern:  {p}\n"));
    }
    out.push_str(&format!("  threads:  {}\n", bug.threads));
    if let Some(v) = bug.variables() {
        out.push_str(&format!("  vars:     {v}\n"));
    }
    if let Some(a) = bug.accesses() {
        out.push_str(&format!("  accesses: {a}\n"));
    }
    if let Some(r) = bug.resources() {
        out.push_str(&format!("  resources:{r}\n"));
    }
    out.push_str(&format!("  fix:      {}\n", bug.fix()));
    out.push_str(&format!("  TM:       {}\n", bug.tm));
    if let Some(k) = &bug.kernel {
        out.push_str(&format!("  kernel:   {k}   (run `lfm kernel {k}`)\n"));
    }
    out
}

/// `lfm kernel <id> --witness`: the first failing schedule as a
/// timeline.
fn kernel_witness(kernel: &Kernel, id: &str, sink: &Arc<dyn Sink>) -> String {
    let program = kernel.buggy();
    let report = Explorer::new(&program)
        .stop_on_first_failure()
        .with_sink(Arc::clone(sink))
        .run();
    let Some((schedule, outcome)) = report.first_failure else {
        return format!("kernel `{id}` produced no failure?!\n");
    };
    let (trace, _) = lfm_sim::explore::trace_of(&program, &schedule, 5_000);
    let mut out = format!("{kernel}\nwitness outcome: {outcome}\n\n");
    out.push_str(&lfm_sim::render_timeline(&trace, Some(&program)));
    out
}

/// `lfm kernel <id> --source`: every variant as pseudo-code.
fn kernel_source(kernel: &Kernel) -> String {
    let mut out = format!("// {kernel}\n// {}\n\n", kernel.description);
    out.push_str("// ---- buggy variant ----\n");
    out.push_str(&pseudocode(&kernel.buggy()));
    for &fix in kernel.fixes {
        out.push_str(&format!("\n// ---- fixed: {fix} ----\n"));
        out.push_str(&pseudocode(&kernel.build(Variant::Fixed(fix))));
    }
    out
}

/// `lfm kernel <id>`: the buggy variant fully explored, each fix
/// checked with dedup, and (with `--stats`) the buggy run's metrics.
fn run_kernel(kernel: &Kernel, id: &str, stats: bool, sink: &Arc<dyn Sink>) -> String {
    let mut out = format!("{kernel}\n  {}\n\n", kernel.description);
    let buggy = Explorer::new(&kernel.buggy())
        .with_sink(Arc::clone(sink))
        .run();
    out.push_str(&format!(
        "buggy: {} interleavings, {} manifest ({})\n",
        buggy.schedules_run,
        buggy.counts.failures(),
        buggy.counts
    ));
    if let Some((schedule, outcome)) = &buggy.first_failure {
        out.push_str(&format!("witness: [{schedule}] -> {outcome}\n"));
    }
    if let Some(reason) = buggy.truncation {
        out.push_str(&format!("truncated by: {reason}\n"));
    }
    let mut fix_walls = Vec::new();
    for &fix in kernel.fixes {
        let fixed = kernel.build(Variant::Fixed(fix));
        let report = Explorer::new(&fixed)
            .dedup_states()
            .with_sink(Arc::clone(sink))
            .run();
        out.push_str(&format!(
            "fix {:20} -> {} failures over {} schedules{}{}\n",
            fix.to_string(),
            report.counts.failures(),
            report.schedules_run,
            if report.counts.failures() == 0 {
                "  (proved)"
            } else {
                "  (BROKEN)"
            },
            truncated_suffix(report.truncation)
        ));
        fix_walls.push((fix, report.stats.wall));
    }
    if stats {
        let mut table = StatsTable::new(format!("stats ({id}, buggy variant)"));
        table
            .row("schedules", buggy.schedules_run)
            .row("schedules/sec", format!("{:.1}", buggy.schedules_per_sec()))
            .row("steps", buggy.steps_total)
            .row("states/sec", format!("{:.1}", buggy.states_per_sec()))
            .row("branch points", buggy.stats.branch_points)
            .row("snapshots", buggy.stats.snapshots)
            .row("max depth", buggy.stats.max_depth)
            .row("sleep-set prunes", buggy.sleep_pruned)
            .row("dedup hits", buggy.states_deduped)
            .row("preemption cutoffs", buggy.stats.preemption_limited)
            .row("truncation", truncation_cell(buggy.truncation))
            .row("wall (buggy)", fmt_duration(buggy.stats.wall));
        for (fix, wall) in fix_walls {
            table.row(format!("wall (fix: {fix})"), fmt_duration(wall));
        }
        out.push('\n');
        out.push_str(&table.to_string());
    }
    out
}

/// The `tables` command: every selected artifact rendered under panic
/// isolation (a panicking generator degrades the run but every other
/// artifact still renders), plus the `--metrics` exposition. Each table
/// T1–T9 streams a `study`/`table` event to `sink`, and a run of every
/// artifact ends with `study`/`tables`.
fn run_tables(
    only: Option<Artifact>,
    markdown: bool,
    opts: &RunOptions,
    sink: &dyn Sink,
) -> RunOutput {
    let corpus = Corpus::full();
    let artifacts = match only {
        Some(a) => vec![a],
        None => Artifact::all(),
    };
    let stopwatch = Stopwatch::start();
    let mut failed = 0u64;
    let mut tables_built = 0;
    let mut out = String::new();
    for artifact in &artifacts {
        match artifact.render_isolated(&corpus, markdown, sink) {
            Ok(rendered) => {
                tables_built += usize::from(matches!(artifact, Artifact::Table(_)));
                out.push_str(&rendered);
            }
            Err(payload) => {
                failed += 1;
                out.push_str(&format!("FAILED {}: {payload}\n", artifact.id()));
            }
        }
        out.push('\n');
    }
    if only.is_none() {
        lfm_study::emit_tables_total(sink, tables_built, stopwatch.elapsed());
    }
    let mut degraded = failed > 0;
    if let Some(path) = &opts.metrics {
        let mut registry = Registry::new();
        registry.counter(
            "lfm_tables_artifacts_rendered",
            "Artifacts rendered successfully.",
            artifacts.len() as u64 - failed,
        );
        registry.counter(
            "lfm_tables_artifacts_failed",
            "Artifacts whose generator panicked (contained).",
            failed,
        );
        registry.gauge(
            "lfm_tables_wall_seconds",
            "Wall-clock time regenerating the artifacts.",
            stopwatch.elapsed().as_secs_f64(),
        );
        degraded |= !write_metrics(&registry, path, false, &mut out);
    }
    RunOutput::new(out, degraded)
}

/// The `version` command: the binary version plus the schema version of
/// every machine-readable artifact the toolchain writes, so a consumer
/// can check compatibility without generating one of each.
fn version_text() -> String {
    let mut out = format!("lfm {}\nschemas:\n", env!("CARGO_PKG_VERSION"));
    for (artifact, schema) in [
        ("flight recorder/metrics", lfm_obs::FLIGHT_SCHEMA),
        ("witness", lfm_sim::WITNESS_SCHEMA),
        ("bench explore baseline", lfm_bench::BENCH_EXPLORE_SCHEMA),
        ("serve protocol", lfm_serve::SERVE_SCHEMA),
        ("serve stats", lfm_serve::STATS_SCHEMA),
        ("serve trace dump", lfm_serve::TRACE_DUMP_SCHEMA),
        ("bench serve baseline", lfm_bench::BENCH_SERVE_SCHEMA),
    ] {
        out.push_str(&format!("  {artifact:24}{schema}\n"));
    }
    out
}

/// The `explore` command: one [`Explorer`] run over the kernel's
/// buggy variant with dedup, reporting its verdict plus (with
/// `--stats`) search counters and phase-attributed wall time. `--progress` tees periodic tree-size estimates to stderr;
/// `--metrics` writes an OpenMetrics exposition.
/// Observation never changes the report: profiling is write-only and
/// sampling-gated, and the estimator runs unconditionally.
#[allow(clippy::too_many_arguments)]
fn run_explore(
    kernel: &Kernel,
    id: &str,
    dpor: bool,
    no_fuse: bool,
    stats: bool,
    progress: bool,
    opts: &RunOptions,
    sink: &Arc<dyn Sink>,
) -> RunOutput {
    let program = kernel.buggy();
    // Phase attribution rides on --stats or --metrics (the two surfaces
    // that show it); otherwise the profiler is a disabled no-op.
    let profiler = if stats || opts.metrics.is_some() {
        Arc::new(PhaseProfiler::sampling(PhaseProfiler::DEFAULT_SHIFT))
    } else {
        Arc::new(PhaseProfiler::disabled())
    };
    let run_sink: Arc<dyn Sink> = if progress {
        Arc::new(TeeSink::new(vec![
            Arc::clone(sink),
            Arc::new(ProgressLineSink::stderr()),
        ]))
    } else {
        Arc::clone(sink)
    };
    let mut explorer = Explorer::new(&program)
        .dedup_states()
        .with_sink(run_sink)
        .profile(Arc::clone(&profiler));
    if dpor {
        explorer = explorer.dpor();
    }
    if no_fuse {
        explorer = explorer.no_fuse();
    }
    if progress {
        explorer = explorer.progress_every(ProgressTracker::DEFAULT_EVERY);
    }
    if let Some(seed) = opts.chaos {
        explorer = explorer.chaos(FaultPlan::new(seed));
    }
    if let Some(deadline) = opts.deadline {
        explorer = explorer.deadline(deadline);
    }
    let report = explorer.run();

    let mut out = format!("{kernel}\n  {}\n\n", kernel.description);
    if let Some(seed) = opts.chaos {
        out.push_str(&format!("chaos seed: {seed}\n"));
    }
    if dpor {
        out.push_str(if opts.chaos.is_some() {
            "dpor: requested, disabled by --chaos (fault injection breaks trace equivalence)\n"
        } else {
            "dpor: on (source sets + sleep sets)\n"
        });
    }
    if no_fuse {
        out.push_str("fuse: off (every multi-enabled state branches)\n");
    } else if opts.chaos.is_some() {
        out.push_str("fuse: disabled by --chaos (fault decisions are step-indexed)\n");
    }
    if let Some(deadline) = opts.deadline {
        out.push_str(&format!("deadline: {}\n", fmt_duration(deadline)));
    }
    out.push_str(&format!(
        "buggy: {} interleavings, {} manifest ({})\n",
        report.schedules_run,
        report.counts.failures(),
        report.counts
    ));
    if let Some((schedule, outcome)) = &report.first_failure {
        out.push_str(&format!("witness: [{schedule}] -> {outcome}\n"));
    }
    if let Some(reason) = report.truncation {
        out.push_str(&format!("truncated by: {reason}\n"));
    }
    if report.est_total_schedules > 0.0 {
        out.push_str(&format!(
            "est. total schedules: {:.0}\n",
            report.est_total_schedules
        ));
    }
    out.push_str(&format!(
        "wall: {}  ({:.1} schedules/sec)\n",
        fmt_duration(report.stats.wall),
        report.schedules_per_sec()
    ));
    // The walk's phases (snapshot/step/hash/dedup): one profile
    // answering "where did the wall time go".
    let profile = profiler.snapshot();
    if stats {
        let mut table = StatsTable::new(format!("explore stats ({id})"));
        table
            .row("states/sec", format!("{:.1}", report.states_per_sec()))
            .row("dedup hits", report.states_deduped)
            .row("sleep-set prunes", report.sleep_pruned)
            .row("dpor prunes", report.dpor_pruned)
            .row("branch points", report.stats.branch_points)
            .row("fused steps", report.stats.fused_steps)
            .row("snapshots elided", report.stats.snapshots_elided);
        for (phase, attribution) in profile.rows() {
            table.row(phase, attribution);
        }
        out.push('\n');
        out.push_str(&table.to_string());
    }
    let degraded = match &opts.metrics {
        Some(path) => !write_metrics(
            &explore_metrics(id, &report, &profile),
            path,
            false,
            &mut out,
        ),
        None => false,
    };
    RunOutput::new(out, degraded)
        .with_deadline_trip(report.truncation == Some(Truncation::WallDeadline))
}

/// Builds the OpenMetrics registry describing one `explore` run:
/// exploration counters, throughput and estimate gauges, and per-phase
/// attributed nanoseconds.
fn explore_metrics(
    id: &str,
    report: &lfm_sim::ExploreReport,
    profile: &lfm_obs::PhaseProfile,
) -> Registry {
    let mut r = Registry::new();
    let kernel_label: &[(&str, &str)] = &[("kernel", id)];
    let counters = [
        (
            "lfm_explore_schedules",
            "Schedules the exploration ran.",
            report.schedules_run,
        ),
        (
            "lfm_explore_steps",
            "Visible steps (states visited).",
            report.steps_total,
        ),
        (
            "lfm_explore_failures",
            "Schedules that manifested the bug.",
            report.counts.failures(),
        ),
        (
            "lfm_explore_dedup_hits",
            "States pruned by the seen-set.",
            report.states_deduped,
        ),
        (
            "lfm_explore_sleep_pruned",
            "Schedules pruned by sleep sets.",
            report.sleep_pruned,
        ),
        (
            "lfm_explore_dpor_pruned",
            "Schedules proved redundant by source-set DPOR.",
            report.dpor_pruned,
        ),
        (
            "lfm_explore_branch_points",
            "States with more than one enabled thread that were expanded.",
            report.stats.branch_points,
        ),
        (
            "lfm_explore_fused_steps",
            "Invisible steps fused into their parent edge instead of branching.",
            report.stats.fused_steps,
        ),
        (
            "lfm_explore_snapshots_elided",
            "Branch-point children that popped their frame early (final survivor).",
            report.stats.snapshots_elided,
        ),
    ];
    for (name, help, value) in counters {
        r.counter_with(name, help, kernel_label, value);
    }
    let gauges = [
        (
            "lfm_explore_states_per_sec",
            "Exploration throughput.",
            report.states_per_sec(),
        ),
        (
            "lfm_explore_est_total_schedules",
            "Knuth tree-size estimate of the full schedule space.",
            report.est_total_schedules,
        ),
        (
            "lfm_explore_max_depth",
            "Deepest DFS stack observed.",
            report.stats.max_depth as f64,
        ),
        (
            "lfm_explore_wall_seconds",
            "Wall-clock time of the exploration.",
            report.stats.wall.as_secs_f64(),
        ),
    ];
    for (name, help, value) in gauges {
        r.gauge_with(name, help, kernel_label, value);
    }
    for stat in profile.phases() {
        if stat.entries == 0 {
            continue;
        }
        let labels: &[(&str, &str)] = &[("kernel", id), ("phase", stat.phase.name())];
        r.gauge_with(
            "lfm_explore_phase_nanos",
            "Estimated wall nanoseconds attributed to a hot-path phase.",
            labels,
            stat.est_total_nanos() as f64,
        );
        r.counter_with(
            "lfm_explore_phase_entries",
            "Times a hot-path phase was entered.",
            labels,
            stat.entries,
        );
    }
    r
}

/// The `kernel` command under `--chaos` / `--deadline`: every variant
/// runs through a [`BudgetedExplorer`], the wall budget split evenly
/// across the buggy program and each fix, and every line states the
/// degradation level and confidence its numbers carry.
fn run_kernel_budgeted(
    kernel: &Kernel,
    id: &str,
    stats: bool,
    opts: &RunOptions,
    sink: &Arc<dyn Sink>,
) -> RunOutput {
    let variants = 1 + kernel.fixes.len() as u32;
    let budget = Budget {
        deadline: opts.deadline.map(|total| total / variants),
        ..Budget::default()
    };
    let explore = |program: &lfm_sim::Program| {
        let mut explorer = BudgetedExplorer::new(program)
            .budget(budget)
            .with_sink(Arc::clone(sink));
        if let Some(seed) = opts.chaos {
            explorer = explorer.chaos(FaultPlan::new(seed));
        }
        explorer.run()
    };

    let mut out = format!("{kernel}\n  {}\n\n", kernel.description);
    if let Some(seed) = opts.chaos {
        out.push_str(&format!("chaos seed: {seed}\n"));
    }
    if let Some(total) = opts.deadline {
        out.push_str(&format!(
            "deadline: {} total, {} per variant\n",
            fmt_duration(total),
            fmt_duration(total / variants)
        ));
    }
    out.push('\n');

    let buggy = explore(&kernel.buggy());
    let mut deadline_tripped = buggy.truncation == Some(Truncation::WallDeadline);
    out.push_str(&format!(
        "buggy: {} schedules, {} manifest ({})\n",
        buggy.schedules_run,
        buggy.counts.failures(),
        buggy.counts
    ));
    out.push_str(&format!(
        "level: {}  confidence: {}{}\n",
        buggy.level,
        buggy.confidence,
        truncated_suffix(buggy.truncation)
    ));
    if let Some((schedule, outcome)) = &buggy.first_failure {
        out.push_str(&format!("witness: [{schedule}] -> {outcome}\n"));
    }
    for &fix in kernel.fixes {
        let fixed = kernel.build(Variant::Fixed(fix));
        let report = explore(&fixed);
        deadline_tripped |= report.truncation == Some(Truncation::WallDeadline);
        out.push_str(&format!(
            "fix {:20} -> {} failures over {} schedules  [{}/{}]{}{}\n",
            fix.to_string(),
            report.counts.failures(),
            report.schedules_run,
            report.level,
            report.confidence,
            if report.proved_ok() { "  (proved)" } else { "" },
            if report.found_failure() {
                "  (BROKEN)"
            } else {
                ""
            },
        ));
    }
    if stats {
        let mut table = StatsTable::new(format!("budget stats ({id}, buggy variant)"));
        let levels = buggy
            .levels_tried
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" -> ");
        table
            .row("level", buggy.level.to_string())
            .row("confidence", buggy.confidence.to_string())
            .row("levels tried", levels)
            .row("schedules", buggy.schedules_run)
            .row("truncation", truncation_cell(buggy.truncation))
            .row("wall (buggy)", fmt_duration(buggy.wall));
        out.push('\n');
        out.push_str(&table.to_string());
    }
    RunOutput::clean(out).with_deadline_trip(deadline_tripped)
}

/// The `witness` command: search for the kernel's first failing
/// schedule, minimize it (ddmin, replay-validated), capture the
/// `lfm-trace/v1` artifact, save it, optionally export a Chrome trace,
/// and pretty-print the witness.
fn run_witness(
    kernel: &Kernel,
    id: &str,
    out_path: Option<&str>,
    chrome_path: Option<&str>,
    sink: &Arc<dyn Sink>,
) -> RunOutput {
    let program = kernel.buggy();
    let report = Explorer::new(&program)
        .stop_on_first_failure()
        .with_sink(Arc::clone(sink))
        .run();
    let Some((schedule, _)) = report.first_failure else {
        return RunOutput::clean(format!("kernel `{id}` produced no failure to witness\n"));
    };
    let min = minimize(&program, &schedule, 5_000);
    let witness = Witness::capture(&program, id, &min.schedule, 5_000);

    let mut degraded = false;
    let default_path = format!("{id}.witness.json");
    let path = out_path.unwrap_or(&default_path);
    let mut out = format!("{kernel}\nwitness outcome: {}\n", witness.outcome_display);
    match witness.save(path) {
        Ok(()) => out.push_str(&format!("saved: {path}\n")),
        Err(e) => {
            degraded = true;
            out.push_str(&format!("SAVE FAILED: {e}\n"));
        }
    }
    if let Some(chrome) = chrome_path {
        // One pid per kernel: its 1-based position in the registry.
        let pid = registry::all()
            .iter()
            .position(|k| k.id == kernel.id)
            .map_or(0, |p| p as u64 + 1);
        let mut trace = ChromeTrace::new();
        match witness.emit_chrome(&program, pid, &mut trace) {
            Ok(()) => match trace.write_to(chrome) {
                Ok(()) => out.push_str(&format!("chrome trace: {chrome}\n")),
                Err(e) => {
                    degraded = true;
                    out.push_str(&format!("CHROME TRACE FAILED: {chrome}: {e}\n"));
                }
            },
            Err(e) => {
                degraded = true;
                out.push_str(&format!("CHROME TRACE FAILED: {e}\n"));
            }
        }
    }

    let mut table = StatsTable::new(format!("witness ({id})"));
    table
        .row("schema", lfm_sim::WITNESS_SCHEMA)
        .row("fingerprint", format!("{:016x}", witness.fingerprint))
        .row(
            "schedule",
            format!("{} -> {} choices", schedule.len(), witness.schedule.len()),
        )
        .row(
            "switches",
            format!("{} -> {}", min.switches_before, min.switches_after),
        )
        .row("threads", witness.stats.threads)
        .row("conflicting accesses", witness.stats.conflicting_accesses)
        .row("conflict objects", witness.stats.conflict_objects)
        .row("events", witness.stats.events)
        .row("ddmin replays", min.replays)
        .histogram("replay steps", &min.replay_steps);
    out.push('\n');
    out.push_str(&table.to_string());

    let (trace, _) =
        lfm_sim::explore::trace_of(&program, &witness.schedule, witness.schedule.len());
    out.push('\n');
    out.push_str(&lfm_sim::render_timeline(&trace, Some(&program)));
    RunOutput::new(out, degraded)
}

/// The `replay` command: load a saved witness, re-execute it against the
/// named kernel, and verify the recorded outcome bit-for-bit. Any
/// load/verification failure is a degraded (exit 1) run with the
/// diagnostic printed.
fn run_replay(path: &str) -> RunOutput {
    let witness = match Witness::load(path) {
        Ok(w) => w,
        Err(e) => return RunOutput::degraded(format!("cannot load witness: {e}\n")),
    };
    let Some(kernel) = registry::by_id(&witness.kernel) else {
        return RunOutput::degraded(format!(
            "witness names unknown kernel `{}` (try `lfm list kernels`)\n",
            witness.kernel
        ));
    };
    match witness.replay(&kernel.buggy()) {
        Ok(outcome) => RunOutput::clean(format!(
            "replay OK: kernel `{}`, {} events, {} switches\noutcome verified: {outcome}\n",
            witness.kernel, witness.stats.events, witness.stats.switches
        )),
        Err(e) => RunOutput::degraded(format!("replay FAILED: {e}\n")),
    }
}

/// `serve` parameters (one struct so the runner's signature stays
/// readable).
struct ServeArgs {
    addr: Option<String>,
    dpor: bool,
    workers: Option<usize>,
    queue: Option<usize>,
    max_conns: Option<usize>,
    trace: Option<String>,
    trace_slow_ms: Option<u64>,
}

/// The `serve` command: start the fingerprint-keyed model-checking
/// service and block until a wire shutdown request drains it. The
/// listening address is printed (and flushed) *before* blocking so a
/// caller can scrape it; the drain summary is the command's output.
/// `--chaos` seeds sim-level faults into every exploration (and the
/// cache key), `--deadline` becomes the default per-request wall
/// budget, and `--metrics` writes a final OpenMetrics exposition at
/// drain — so a crashed or drained server always leaves its counters
/// behind, next to the flight-recorder tail the binary dumps on panic.
fn run_serve(args: ServeArgs, opts: &RunOptions, sink: &Arc<dyn Sink>) -> RunOutput {
    let defaults = lfm_serve::ServerConfig::default();
    let config = lfm_serve::ServerConfig {
        addr: args.addr.unwrap_or(defaults.addr),
        workers: args.workers.unwrap_or(defaults.workers),
        queue_cap: args.queue.unwrap_or(defaults.queue_cap),
        max_conns: args.max_conns.unwrap_or(defaults.max_conns),
        // --trace turns full capture on; --trace-slow-ms alone arms
        // only the slow-request recorder. Both feed the same ring the
        // dump drains at shutdown.
        trace: args.trace.is_some(),
        trace_slow_ms: args.trace_slow_ms,
        caps: lfm_serve::LevelCaps {
            dpor: args.dpor,
            ..defaults.caps
        },
        chaos: opts.chaos,
        default_deadline: opts.deadline,
        ..defaults
    };
    let handle = match lfm_serve::Server::start(config, Arc::clone(sink)) {
        Ok(handle) => handle,
        Err(e) => return RunOutput::degraded(format!("cannot start server: {e}\n")),
    };
    // Printed eagerly: run_opts returns its text only after the server
    // exits, and anyone scripting this (CI included) needs the port now.
    println!("lfm serve listening on {}", handle.addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());

    let stats = handle.stats();
    let cache = handle.cache();
    let tracer = handle.tracer();
    let summary = handle.wait();
    let drained = &summary.stats;

    let mut degraded = !summary.clean;
    let mut out = format!(
        "drained: requests={} checks={} hits={} misses={} shed={} errors={} \
         write_errors={} worker_panics={} cache_entries={} clean={}\n",
        drained.requests,
        drained.checks,
        drained.hits,
        drained.misses,
        drained.shed,
        drained.errors,
        drained.write_errors,
        drained.worker_panics,
        drained.cache_entries,
        summary.clean,
    );
    out.push_str(&format!(
        "degrade histogram: exhaustive={} sleep-set={} preemption-bounded={} pct-sampling={}\n",
        drained.degrade[0], drained.degrade[1], drained.degrade[2], drained.degrade[3],
    ));
    if let Some(path) = &opts.metrics {
        let mut registry = Registry::new();
        stats.fill_registry(&mut registry, &cache);
        degraded |= !write_metrics(&registry, path, true, &mut out);
    }
    if let Some(path) = &args.trace {
        match tracer.dump_chrome(path) {
            Ok(spans) => out.push_str(&format!("trace: {path} ({spans} spans)\n")),
            Err(e) => {
                degraded = true;
                out.push_str(&format!("TRACE FAILED: {path}: {e}\n"));
            }
        }
    }
    RunOutput::new(out, degraded)
}

/// The `top` command: poll a running server's `stats` wire op and
/// render the rolling snapshot — uptime, queue, in-flight, rates,
/// per-stage and per-level quantiles. Loops until the server goes away
/// (or forever); `--once` prints a single snapshot for scripts and CI.
fn run_top(addr: &str, interval_ms: u64, once: bool) -> RunOutput {
    let resolved = match resolve(addr) {
        Ok(resolved) => resolved,
        Err(out) => return out,
    };
    let client = lfm_serve::Client::new(resolved).with_timeout(Duration::from_secs(5));
    let mut rounds = 0u64;
    loop {
        match client.stats() {
            Ok(snapshot) => {
                if once {
                    return RunOutput::clean(render_top(addr, &snapshot));
                }
                // Live mode: clear the screen between refreshes, like
                // any top. Printed eagerly — the loop only returns when
                // the server goes away.
                print!("\x1b[2J\x1b[H{}", render_top(addr, &snapshot));
                let _ = std::io::Write::flush(&mut std::io::stdout());
                rounds += 1;
            }
            Err(e) => {
                // Losing a server we were watching is a normal ending;
                // never reaching it is a failure.
                return RunOutput::new(
                    format!("lfm top: server at {addr} unreachable: {e}\n"),
                    rounds == 0,
                );
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Renders one stats snapshot as the `top` screen.
fn render_top(addr: &str, s: &lfm_serve::StatsSnapshot) -> String {
    let mut out = format!(
        "lfm top — {addr}   uptime {:.1}s\n\
         requests {}   checks {}   in-flight {}   queue {}/{}   conns {}\n\
         hits {} ({:.0}%)   misses {}   coalesced {}   shed {} ({:.0}%)   errors {}\n\
         cache entries {}   write errors {}   worker panics {}\n\
         degrade: exhaustive={} sleep-set={} preemption-bounded={} pct-sampling={}\n\
         latency: n={} p50 {} us p99 {} us\n",
        s.uptime_ms as f64 / 1000.0,
        s.requests,
        s.checks,
        s.in_flight,
        s.queue_depth,
        s.queue_cap,
        s.conns,
        s.hits,
        s.hit_rate * 100.0,
        s.misses,
        s.coalesced,
        s.shed,
        s.shed_rate * 100.0,
        s.errors,
        s.cache_entries,
        s.write_errors,
        s.worker_panics,
        s.degrade[0],
        s.degrade[1],
        s.degrade[2],
        s.degrade[3],
        s.latency.count,
        s.latency.p50_us,
        s.latency.p99_us,
    );
    out.push_str("stage                 count        p50 us        p99 us\n");
    for (stage, row) in &s.stages {
        out.push_str(&format!(
            "{stage:<18} {:>9} {:>13} {:>13}\n",
            row.count, row.p50_us, row.p99_us
        ));
    }
    for (level, row) in &s.levels {
        out.push_str(&format!(
            "level {level:<12} {:>9} {:>13} {:>13}\n",
            row.count, row.p50_us, row.p99_us
        ));
    }
    out
}

/// `bench-serve` parameters (one struct so the runner's signature stays
/// readable).
struct BenchServeArgs {
    addr: Option<String>,
    clients: Option<usize>,
    requests: Option<usize>,
    seed: Option<u64>,
    chaos_net: Option<u64>,
    out: Option<String>,
    shutdown: bool,
}

/// The `bench-serve` command: a closed-loop zipf load run against a
/// server — an in-process one unless `--addr` points elsewhere —
/// optionally behind a seeded chaos proxy. Wrong answers or an unclean
/// drain degrade the exit; `--out` writes the `lfm-bench-serve/v1`
/// document the CI gate compares against. The degrade histogram is the
/// server's admissions per level during the run: read from the drained
/// in-process server, or from an external one's wire `stats` op before
/// and after the load.
fn run_bench_serve(args: &BenchServeArgs, opts: &RunOptions, sink: &Arc<dyn Sink>) -> RunOutput {
    let seed = args.seed.unwrap_or(lfm_bench::SERVE_SEED);
    let load = lfm_serve::LoadConfig {
        clients: args.clients.unwrap_or(8),
        requests_per_client: args.requests.unwrap_or(15),
        seed,
        deadline_ms: opts.deadline.map(|d| d.as_millis() as u64),
        ..lfm_serve::LoadConfig::default()
    };
    let mut degraded = false;
    // What follows the load lines: the in-process drain, or the
    // external server's shutdown.
    let mut tail = String::new();
    let (row, report, target) = match &args.addr {
        None => {
            let scenario = lfm_bench::serve::Scenario {
                server: lfm_serve::ServerConfig {
                    chaos: opts.chaos,
                    default_deadline: opts.deadline,
                    ..lfm_serve::ServerConfig::default()
                },
                load: load.clone(),
                chaos_net: args.chaos_net,
            };
            let run = match scenario.run(Arc::clone(sink)) {
                Ok(run) => run,
                Err(e) => return RunOutput::degraded(format!("{e}\n")),
            };
            let drained = &run.drain.stats;
            degraded |= !run.drain.clean;
            tail.push_str(&format!(
                "drained: requests={} hits={} misses={} shed={} worker_panics={} clean={}\n",
                drained.requests,
                drained.hits,
                drained.misses,
                drained.shed,
                drained.worker_panics,
                run.drain.clean,
            ));
            if let Some(path) = &opts.metrics {
                degraded |= !write_metrics(&run.metrics, path, true, &mut tail);
            }
            (run.row, run.load, run.target)
        }
        Some(addr) => {
            let server = match resolve(addr) {
                Ok(server) => server,
                Err(out) => return out,
            };
            // The server's admissions during the load: its running
            // totals after, less those before.
            let client = lfm_serve::Client::new(server);
            let admitted = || client.stats().map(|stats| stats.degrade);
            let before = admitted();
            let (report, faults_injected, target) =
                match lfm_bench::serve::drive_load(server, args.chaos_net, &load) {
                    Ok(driven) => driven,
                    Err(e) => return RunOutput::degraded(format!("{e}\n")),
                };
            let degrade = match (before, admitted()) {
                (Ok(before), Ok(after)) => {
                    std::array::from_fn(|level| after[level].saturating_sub(before[level]))
                }
                (Err(e), _) | (_, Err(e)) => {
                    degraded = true;
                    tail.push_str(&format!("STATS FAILED: {e}\n"));
                    [0; 4]
                }
            };
            // Graceful shutdown: request it over the wire for an
            // external server; an in-process one is always drained.
            if args.shutdown {
                match client.shutdown() {
                    Ok(()) => tail.push_str("shutdown: requested, server acknowledged\n"),
                    Err(e) => {
                        degraded = true;
                        tail.push_str(&format!("SHUTDOWN FAILED: {e}\n"));
                    }
                }
            }
            let scenario = lfm_bench::serve::scenario_name(args.chaos_net, false);
            let row = lfm_bench::ServeRow::new(scenario, &report, degrade, faults_injected, true);
            (row, report, target)
        }
    };

    let mut out = format!(
        "bench-serve: {} clients x {} requests, seed {seed}, scenario {}, target {target}\n",
        load.clients, load.requests_per_client, row.scenario,
    );
    out.push_str(&format!(
        "requests: {} ({} ok, {} failed, {} wrong)\n",
        row.requests, row.ok, row.failed, row.wrong
    ));
    out.push_str(&format!(
        "cache hit rate: {:.2}   shed rate: {:.2}   transport errors: {}   faults injected: {}\n",
        row.hit_rate, row.shed_rate, report.transport_errors, row.faults_injected,
    ));
    out.push_str(&format!(
        "latency: p50 {} us, p99 {} us   throughput: {:.0} req/sec\n",
        row.p50_us, row.p99_us, row.requests_per_sec,
    ));
    out.push_str(&format!(
        "retries: {} total, worst request {}\n",
        row.retries_total, row.max_retries,
    ));
    out.push_str(&format!(
        "degrade histogram: exhaustive={} sleep-set={} preemption-bounded={} pct-sampling={}\n",
        row.degrade[0], row.degrade[1], row.degrade[2], row.degrade[3],
    ));
    if row.wrong > 0 {
        degraded = true;
        out.push_str(&format!(
            "WRONG ANSWERS: {} — the service broke the correctness contract\n",
            row.wrong
        ));
    }
    out.push_str(&tail);

    if let Some(path) = &args.out {
        let doc = lfm_bench::serve_json(&lfm_bench::ServeReport {
            seed,
            host_parallelism: lfm_bench::host_parallelism(),
            rows: vec![row],
        });
        match std::fs::write(path, &doc) {
            Ok(()) => out.push_str(&format!("report: {path}\n")),
            Err(e) => {
                degraded = true;
                out.push_str(&format!("REPORT FAILED: {path}: {e}\n"));
            }
        }
    }
    RunOutput::new(out, degraded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_help_variants() {
        assert_eq!(parse(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parses_list_bugs_with_filters() {
        assert_eq!(
            parse(&args(&["list", "bugs"])).unwrap(),
            Command::ListBugs {
                app: None,
                class: None
            }
        );
        assert_eq!(
            parse(&args(&[
                "list", "bugs", "--app", "mysql", "--class", "deadlock"
            ]))
            .unwrap(),
            Command::ListBugs {
                app: Some(App::MySql),
                class: Some(BugClass::Deadlock)
            }
        );
        assert!(parse(&args(&["list", "bugs", "--app", "xyz"])).is_err());
        assert!(parse(&args(&["list", "bugs", "--app"])).is_err());
    }

    #[test]
    fn parses_list_kernels() {
        assert_eq!(
            parse(&args(&["list", "kernels", "--family", "deadlock"])).unwrap(),
            Command::ListKernels {
                family: Some(Family::Deadlock)
            }
        );
        assert!(parse(&args(&["list", "widgets"])).is_err());
    }

    #[test]
    fn parses_show_and_kernel() {
        assert_eq!(
            parse(&args(&["show", "mysql-791"])).unwrap(),
            Command::Show {
                id: "mysql-791".into()
            }
        );
        assert_eq!(
            parse(&args(&["kernel", "abba", "--source"])).unwrap(),
            Command::Kernel {
                id: "abba".into(),
                source: true,
                witness: false,
                stats: false
            }
        );
        assert_eq!(
            parse(&args(&["kernel", "abba", "--witness"])).unwrap(),
            Command::Kernel {
                id: "abba".into(),
                source: false,
                witness: true,
                stats: false
            }
        );
        assert_eq!(
            parse(&args(&["kernel", "abba", "--stats"])).unwrap(),
            Command::Kernel {
                id: "abba".into(),
                source: false,
                witness: false,
                stats: true
            }
        );
        assert!(parse(&args(&["show"])).is_err());
        assert!(parse(&args(&["kernel"])).is_err());
        assert!(parse(&args(&["kernel", "abba", "--bogus"])).is_err());
    }

    #[test]
    fn parses_explore() {
        assert_eq!(
            parse(&args(&["explore", "abba"])).unwrap(),
            Command::Explore {
                id: "abba".into(),
                dpor: false,
                no_fuse: false,
                stats: false,
                progress: false
            }
        );
        assert_eq!(
            parse(&args(&["explore", "abba", "--stats"])).unwrap(),
            Command::Explore {
                id: "abba".into(),
                dpor: false,
                no_fuse: false,
                stats: true,
                progress: false
            }
        );
        assert_eq!(
            parse(&args(&["explore", "abba", "--progress"])).unwrap(),
            Command::Explore {
                id: "abba".into(),
                dpor: false,
                no_fuse: false,
                stats: false,
                progress: true
            }
        );
        assert_eq!(
            parse(&args(&["explore", "abba", "--dpor"])).unwrap(),
            Command::Explore {
                id: "abba".into(),
                dpor: true,
                no_fuse: false,
                stats: false,
                progress: false
            }
        );
        assert_eq!(
            parse(&args(&["explore", "abba", "--no-fuse"])).unwrap(),
            Command::Explore {
                id: "abba".into(),
                dpor: false,
                no_fuse: true,
                stats: false,
                progress: false
            }
        );
        assert!(parse(&args(&["explore"])).is_err());
        assert!(parse(&args(&["explore", "abba", "--jobs", "4"])).is_err());
        assert!(parse(&args(&["explore", "abba", "--bogus"])).is_err());
    }

    #[test]
    fn parses_version() {
        assert_eq!(parse(&args(&["version"])).unwrap(), Command::Version);
        assert_eq!(parse(&args(&["--version"])).unwrap(), Command::Version);
        assert_eq!(parse(&args(&["-V"])).unwrap(), Command::Version);
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&args(&["serve"])).unwrap(),
            Command::Serve {
                addr: None,
                dpor: false,
                workers: None,
                queue: None,
                max_conns: None,
                trace: None,
                trace_slow_ms: None,
            }
        );
        assert_eq!(
            parse(&args(&[
                "serve",
                "--addr",
                "127.0.0.1:7777",
                "--workers",
                "3",
                "--queue",
                "8",
                "--max-conns",
                "64",
                "--dpor",
                "--trace",
                "spans.json",
                "--trace-slow-ms",
                "250"
            ]))
            .unwrap(),
            Command::Serve {
                addr: Some("127.0.0.1:7777".into()),
                dpor: true,
                workers: Some(3),
                queue: Some(8),
                max_conns: Some(64),
                trace: Some("spans.json".into()),
                trace_slow_ms: Some(250),
            }
        );
        assert!(parse(&args(&["serve", "--addr"])).is_err());
        assert!(parse(&args(&["serve", "--workers"])).is_err());
        assert!(parse(&args(&["serve", "--workers", "0"])).is_err());
        assert!(parse(&args(&["serve", "--workers", "many"])).is_err());
        assert!(parse(&args(&["serve", "--queue", "0"])).is_err());
        assert!(parse(&args(&["serve", "--trace"])).is_err());
        assert!(parse(&args(&["serve", "--trace-slow-ms"])).is_err());
        assert!(parse(&args(&["serve", "--trace-slow-ms", "soon"])).is_err());
        assert!(parse(&args(&["serve", "--bogus"])).is_err());
        assert!(parse(&args(&["serve", "extra"])).is_err());
    }

    #[test]
    fn parses_top() {
        assert_eq!(
            parse(&args(&["top", "--addr", "127.0.0.1:7777"])).unwrap(),
            Command::Top {
                addr: "127.0.0.1:7777".into(),
                interval_ms: 1_000,
                once: false,
            }
        );
        assert_eq!(
            parse(&args(&[
                "top",
                "--addr",
                "127.0.0.1:7777",
                "--interval-ms",
                "250",
                "--once"
            ]))
            .unwrap(),
            Command::Top {
                addr: "127.0.0.1:7777".into(),
                interval_ms: 250,
                once: true,
            }
        );
        assert!(parse(&args(&["top"])).is_err(), "--addr is required");
        assert!(parse(&args(&["top", "--addr"])).is_err());
        assert!(parse(&args(&["top", "--addr", "a:1", "--interval-ms"])).is_err());
        assert!(parse(&args(&["top", "--addr", "a:1", "--interval-ms", "0"])).is_err());
        assert!(parse(&args(&["top", "--addr", "a:1", "--bogus"])).is_err());
    }

    #[test]
    fn parses_bench_serve() {
        assert_eq!(
            parse(&args(&["bench-serve"])).unwrap(),
            Command::BenchServe {
                addr: None,
                clients: None,
                requests: None,
                seed: None,
                chaos_net: None,
                out: None,
                shutdown: false,
            }
        );
        assert_eq!(
            parse(&args(&[
                "bench-serve",
                "--addr",
                "127.0.0.1:7777",
                "--clients",
                "4",
                "--requests",
                "10",
                "--seed",
                "9",
                "--chaos-net",
                "42",
                "--out",
                "b.json",
                "--shutdown"
            ]))
            .unwrap(),
            Command::BenchServe {
                addr: Some("127.0.0.1:7777".into()),
                clients: Some(4),
                requests: Some(10),
                seed: Some(9),
                chaos_net: Some(42),
                out: Some("b.json".into()),
                shutdown: true,
            }
        );
        assert!(parse(&args(&["bench-serve", "--clients"])).is_err());
        assert!(parse(&args(&["bench-serve", "--clients", "0"])).is_err());
        assert!(parse(&args(&["bench-serve", "--seed", "pi"])).is_err());
        assert!(parse(&args(&["bench-serve", "--chaos-net"])).is_err());
        assert!(parse(&args(&["bench-serve", "--bogus"])).is_err());
        assert!(parse(&args(&["bench-serve", "extra"])).is_err());
    }

    #[test]
    fn run_version_prints_binary_and_schema_versions() {
        let out = run(Command::Version);
        assert!(out.starts_with(&format!("lfm {}", env!("CARGO_PKG_VERSION"))));
        assert!(out.contains("lfm-obs/v1"), "{out}");
        assert!(out.contains("lfm-trace/v1"), "{out}");
        assert!(out.contains("lfm-bench-explore/v1"), "{out}");
        assert!(out.contains("lfm-serve/v1"), "{out}");
        assert!(out.contains("lfm-serve-stats/v1"), "{out}");
        assert!(out.contains("lfm-serve-trace/v1"), "{out}");
        assert!(out.contains("lfm-bench-serve/v1"), "{out}");
    }

    #[test]
    fn run_explore_matches_serial_kernel_numbers() {
        let out = run(Command::Explore {
            id: "counter_rmw".into(),
            dpor: false,
            no_fuse: false,
            stats: false,
            progress: false,
        });
        // Same counts the explorer reports for this kernel under dedup.
        let program = registry::by_id("counter_rmw").unwrap().buggy();
        let serial = Explorer::new(&program).dedup_states().run();
        assert!(out.contains(&format!(
            "buggy: {} interleavings, {} manifest",
            serial.schedules_run,
            serial.counts.failures()
        )));
    }

    #[test]
    fn run_explore_dpor_reports_the_reduction() {
        let out = run(Command::Explore {
            id: "counter_rmw".into(),
            dpor: true,
            no_fuse: false,
            stats: true,
            progress: false,
        });
        assert!(out.contains("dpor: on"), "{out}");
        assert!(out.contains("dpor prunes"), "{out}");
        // The same counts the DPOR explorer reports.
        let program = registry::by_id("counter_rmw").unwrap().buggy();
        let serial = Explorer::new(&program).dpor().run();
        assert!(
            out.contains(&format!(
                "buggy: {} interleavings, {} manifest",
                serial.schedules_run,
                serial.counts.failures()
            )),
            "{out}"
        );
    }

    #[test]
    fn run_explore_no_fuse_matches_fused_verdicts_and_prints_counters() {
        // livelock_retry is full of yields: fused and unfused runs must
        // agree on the verdict while the fused one runs fewer
        // schedules, and --stats surfaces all three fusion counters.
        let fused = run(Command::Explore {
            id: "livelock_retry".into(),
            dpor: false,
            no_fuse: false,
            stats: true,
            progress: false,
        });
        assert!(fused.contains("fused steps"), "{fused}");
        assert!(fused.contains("branch points"), "{fused}");
        assert!(fused.contains("snapshots elided"), "{fused}");
        let unfused = run(Command::Explore {
            id: "livelock_retry".into(),
            dpor: false,
            no_fuse: true,
            stats: true,
            progress: false,
        });
        assert!(unfused.contains("fuse: off"), "{unfused}");
        assert!(!fused.contains("fuse: off"), "{fused}");
        let schedules = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("buggy: "))
                .and_then(|l| l.strip_prefix("buggy: "))
                .and_then(|l| l.split(' ').next())
                .and_then(|n| n.parse::<u64>().ok())
                .expect("report line present")
        };
        assert!(
            schedules(&fused) < schedules(&unfused),
            "fusion did not shrink the schedule count:\n{fused}\n{unfused}"
        );
    }

    #[test]
    fn run_explore_stats_prints_counters_and_phases() {
        let out = run(Command::Explore {
            id: "counter_rmw".into(),
            dpor: false,
            no_fuse: false,
            stats: true,
            progress: false,
        });
        assert!(out.contains("explore stats (counter_rmw)"), "{out}");
        assert!(out.contains("dedup hits"), "{out}");
        // Phase attribution: --stats enables the sampling profiler, so
        // the hot-path phases show up with their estimated share.
        assert!(out.contains("phase step"), "missing phase rows:\n{out}");
        assert!(out.contains("phase hash"), "missing phase rows:\n{out}");
        // And the progress estimator's prediction is always reported.
        assert!(out.contains("est. total schedules:"), "{out}");
    }

    #[test]
    fn run_explore_writes_openmetrics_exposition() {
        let path = std::env::temp_dir().join("lfm_cli_explore_metrics.txt");
        let opts = RunOptions {
            metrics: Some(path.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };
        let out = run_opts(
            Command::Explore {
                id: "counter_rmw".into(),
                dpor: false,
                no_fuse: false,
                stats: false,
                progress: false,
            },
            Arc::new(NoopSink),
            &opts,
        );
        assert!(!out.degraded, "{}", out.text);
        assert!(!out.deadline_tripped);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let samples = lfm_obs::check_exposition(&text).expect("exposition parses");
        assert!(samples > 10, "only {samples} samples:\n{text}");
        for needle in [
            "# TYPE lfm_explore_schedules counter",
            "lfm_explore_schedules_total{kernel=\"counter_rmw\"}",
            "lfm_explore_branch_points_total{kernel=\"counter_rmw\"}",
            "lfm_explore_fused_steps_total{kernel=\"counter_rmw\"}",
            "lfm_explore_snapshots_elided_total{kernel=\"counter_rmw\"}",
            "lfm_explore_states_per_sec{kernel=\"counter_rmw\"}",
            "lfm_explore_est_total_schedules{kernel=\"counter_rmw\"}",
            "lfm_explore_phase_nanos{kernel=\"counter_rmw\",phase=\"step\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn run_explore_observed_output_matches_unobserved() {
        // --progress and --metrics must not change the report the user
        // sees: same schedules, failures, estimate — the whole stdout
        // text is identical (progress lines go to stderr).
        let base = run(Command::Explore {
            id: "counter_rmw".into(),
            dpor: false,
            no_fuse: false,
            stats: false,
            progress: false,
        });
        let path = std::env::temp_dir().join("lfm_cli_observed_metrics.txt");
        let opts = RunOptions {
            metrics: Some(path.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };
        let observed = run_opts(
            Command::Explore {
                id: "counter_rmw".into(),
                dpor: false,
                no_fuse: false,
                stats: false,
                progress: true,
            },
            Arc::new(NoopSink),
            &opts,
        );
        let _ = std::fs::remove_file(&path);
        // Everything except the measured wall line (a clock writes
        // that, not the search) must match byte for byte.
        let semantic = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("wall:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(semantic(&base), semantic(&observed.text));
    }

    #[test]
    fn run_explore_unknown_kernel_reports_error() {
        let out = run(Command::Explore {
            id: "nope".into(),
            dpor: false,
            no_fuse: false,
            stats: false,
            progress: false,
        });
        assert!(out.contains("no kernel `nope`"));
    }

    #[test]
    fn parses_global_log_jsonl_anywhere() {
        let inv = parse_invocation(&args(&["--log-jsonl", "run.jsonl", "kernel", "abba"])).unwrap();
        assert_eq!(inv.log_jsonl.as_deref(), Some("run.jsonl"));
        assert_eq!(
            inv.command,
            Command::Kernel {
                id: "abba".into(),
                source: false,
                witness: false,
                stats: false
            }
        );
        // Also accepted after the command.
        let inv = parse_invocation(&args(&["kernel", "abba", "--log-jsonl", "x.jsonl"])).unwrap();
        assert_eq!(inv.log_jsonl.as_deref(), Some("x.jsonl"));
        // Without it, nothing changes.
        let inv = parse_invocation(&args(&["help"])).unwrap();
        assert_eq!(inv.log_jsonl, None);
        assert_eq!(inv.command, Command::Help);
        assert!(parse_invocation(&args(&["kernel", "abba", "--log-jsonl"])).is_err());
    }

    #[test]
    fn parses_tables() {
        assert_eq!(
            parse(&args(&["tables"])).unwrap(),
            Command::Tables {
                only: None,
                markdown: false
            }
        );
        assert_eq!(
            parse(&args(&["tables", "t3", "--markdown"])).unwrap(),
            Command::Tables {
                only: Some(Artifact::Table(3)),
                markdown: true
            }
        );
        assert!(parse(&args(&["tables", "t42"])).is_err());
    }

    #[test]
    fn parses_tables_modes() {
        for mode in Mode::ALL {
            assert_eq!(
                parse(&args(&["tables", mode.flag(), "out.json"])).unwrap(),
                Command::TablesMode {
                    mode,
                    path: "out.json".into()
                }
            );
            let err = parse(&args(&["tables", mode.flag()])).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("{} needs a file path", mode.flag())
            );
        }
        // A mode replaces the tables: no artifact, no --markdown, no
        // second mode; `--only` is not a tables flag.
        for bad in [
            &["tables", "--json", "o.json", "t1"][..],
            &["tables", "t1", "--check-explore", "b.json"],
            &["tables", "--bench-serve", "s.json", "--markdown"],
            &["tables", "--json", "o.json", "--check-serve", "b.json"],
            &["tables", "--only", "t1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn tables_usage_error_lists_every_artifact() {
        let err = parse(&args(&["tables", "t42"])).unwrap_err().to_string();
        for artifact in Artifact::all() {
            let id = artifact.id();
            assert!(
                err.split(|c: char| !c.is_ascii_alphanumeric())
                    .any(|w| w == id),
                "`{id}` missing from: {err}"
            );
        }
    }

    #[test]
    fn parses_and_runs_export() {
        assert_eq!(parse(&args(&["export"])).unwrap(), Command::Export);
        let out = run(Command::Export);
        assert!(out.contains("\"count\": 105"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = parse(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn run_list_bugs_filters() {
        let out = run(Command::ListBugs {
            app: Some(App::Apache),
            class: Some(BugClass::Deadlock),
        });
        assert!(out.starts_with("4 bugs"));
        assert!(out.contains("apache-dl-"));
    }

    #[test]
    fn run_show_known_and_unknown() {
        let out = run(Command::Show {
            id: "mozilla-61369".into(),
        });
        assert!(out.contains("nsThread"));
        assert!(out.contains("kernel:   use_before_init_mozilla"));
        let out = run(Command::Show {
            id: "nope-1".into(),
        });
        assert!(out.contains("no bug"));
    }

    #[test]
    fn run_kernel_source_prints_pseudocode() {
        let out = run(Command::Kernel {
            id: "counter_rmw".into(),
            source: true,
            witness: false,
            stats: false,
        });
        assert!(out.contains("// ---- buggy variant ----"));
        assert!(out.contains("tmp = counter;"));
        assert!(out.contains("// ---- fixed: add/change lock ----"));
        assert!(out.contains("lock(m0);"));
    }

    #[test]
    fn run_kernel_explore_proves_fixes() {
        let out = run(Command::Kernel {
            id: "abba".into(),
            source: false,
            witness: false,
            stats: false,
        });
        assert!(out.contains("deadlock"));
        assert!(out.contains("(proved)"));
        assert!(!out.contains("BROKEN"));
        // The one-line histogram is the counts rendering.
        assert!(out.contains("ok=") && out.contains("total="));
    }

    #[test]
    fn run_kernel_stats_prints_metrics_block() {
        let out = run(Command::Kernel {
            id: "counter_rmw".into(),
            source: false,
            witness: false,
            stats: true,
        });
        for needle in [
            "stats (counter_rmw, buggy variant)",
            "schedules/sec",
            "branch points",
            "snapshots",
            "sleep-set prunes",
            "dedup hits",
            "wall (buggy)",
            "wall (fix:",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
    }

    #[test]
    fn run_with_sink_streams_explore_events_without_changing_output() {
        let command = Command::Kernel {
            id: "counter_rmw".into(),
            source: false,
            witness: false,
            stats: false,
        };
        let sink = Arc::new(lfm_obs::MemorySink::new());
        let logged = run_with(command.clone(), Arc::clone(&sink) as Arc<dyn Sink>);
        assert_eq!(logged, run(command));
        // One report per exploration: the buggy variant plus every fix.
        let kernel = registry::by_id("counter_rmw").unwrap();
        let reports = sink.events_named("explore", "report");
        assert_eq!(reports.len(), 1 + kernel.fixes.len());
        assert!(reports[0].get("schedules").is_some());
    }

    #[test]
    fn run_kernel_witness_prints_timeline() {
        let out = run(Command::Kernel {
            id: "counter_rmw".into(),
            source: false,
            witness: true,
            stats: false,
        });
        assert!(out.contains("witness outcome:"));
        assert!(out.contains("seq | t1"));
        assert!(out.contains("read counter -> 0"));
    }

    #[test]
    fn parses_witness_and_replay() {
        assert_eq!(
            parse(&args(&["witness", "abba"])).unwrap(),
            Command::Witness {
                id: "abba".into(),
                out: None,
                chrome: None
            }
        );
        assert_eq!(
            parse(&args(&[
                "witness", "abba", "--out", "w.json", "--chrome", "t.json"
            ]))
            .unwrap(),
            Command::Witness {
                id: "abba".into(),
                out: Some("w.json".into()),
                chrome: Some("t.json".into())
            }
        );
        assert!(parse(&args(&["witness"])).is_err());
        assert!(parse(&args(&["witness", "abba", "--out"])).is_err());
        assert!(parse(&args(&["witness", "abba", "--bogus"])).is_err());
        assert_eq!(
            parse(&args(&["replay", "w.json"])).unwrap(),
            Command::Replay {
                path: "w.json".into()
            }
        );
        assert!(parse(&args(&["replay"])).is_err());
        assert!(parse(&args(&["replay", "a", "b"])).is_err());
    }

    #[test]
    fn witness_save_replay_round_trip() {
        let dir = std::env::temp_dir();
        let wpath = dir.join("lfm_cli_witness_test.json");
        let cpath = dir.join("lfm_cli_witness_test.trace.json");
        let out = run_opts(
            Command::Witness {
                id: "counter_rmw".into(),
                out: Some(wpath.to_string_lossy().into_owned()),
                chrome: Some(cpath.to_string_lossy().into_owned()),
            },
            Arc::new(NoopSink),
            &RunOptions::default(),
        );
        assert!(!out.degraded, "{}", out.text);
        assert!(out.text.contains("saved: "), "{}", out.text);
        assert!(out.text.contains("chrome trace: "), "{}", out.text);
        assert!(out.text.contains("witness (counter_rmw)"), "{}", out.text);
        assert!(out.text.contains("replay steps p50"), "{}", out.text);
        assert!(out.text.contains("seq | t1"), "{}", out.text);

        let chrome = std::fs::read_to_string(&cpath).unwrap();
        assert!(chrome.contains("\"traceEvents\""));

        let replay = run_opts(
            Command::Replay {
                path: wpath.to_string_lossy().into_owned(),
            },
            Arc::new(NoopSink),
            &RunOptions::default(),
        );
        assert!(!replay.degraded, "{}", replay.text);
        assert!(replay.text.contains("replay OK"), "{}", replay.text);
        assert!(replay.text.contains("outcome verified:"), "{}", replay.text);
        let _ = std::fs::remove_file(&wpath);
        let _ = std::fs::remove_file(&cpath);
    }

    #[test]
    fn replay_of_missing_or_corrupt_witness_degrades() {
        let out = run_opts(
            Command::Replay {
                path: "/nonexistent/lfm/w.json".into(),
            },
            Arc::new(NoopSink),
            &RunOptions::default(),
        );
        assert!(out.degraded);
        assert!(out.text.contains("cannot load witness"), "{}", out.text);

        let path = std::env::temp_dir().join("lfm_cli_corrupt_witness.json");
        std::fs::write(&path, "{\"schema\":\"lfm-trace/v1\",").unwrap();
        let out = run_opts(
            Command::Replay {
                path: path.to_string_lossy().into_owned(),
            },
            Arc::new(NoopSink),
            &RunOptions::default(),
        );
        let _ = std::fs::remove_file(&path);
        assert!(out.degraded);
        assert!(out.text.contains("malformed witness"), "{}", out.text);
    }

    #[test]
    fn witness_of_unknown_kernel_is_not_degraded() {
        let out = run_opts(
            Command::Witness {
                id: "bogus".into(),
                out: None,
                chrome: None,
            },
            Arc::new(NoopSink),
            &RunOptions::default(),
        );
        assert!(!out.degraded);
        assert!(out.text.contains("no kernel"));
    }

    #[test]
    fn run_list_kernels_counts() {
        let out = run(Command::ListKernels { family: None });
        assert!(out.starts_with("29 kernels"));
    }

    #[test]
    fn run_tables_single_artifact() {
        let out = run(Command::Tables {
            only: Some(Artifact::Table(2)),
            markdown: false,
        });
        assert!(out.contains("T2:"));
        assert!(out.contains("105"));
    }

    #[test]
    fn parses_chaos_and_deadline_flags_anywhere() {
        let inv = parse_invocation(&args(&[
            "kernel",
            "abba",
            "--chaos",
            "42",
            "--deadline",
            "10",
        ]))
        .unwrap();
        assert_eq!(inv.chaos, Some(42));
        assert_eq!(inv.deadline, Some(Duration::from_secs(10)));
        assert!(inv.options().active());
        // Fractional seconds, flags before the command.
        let inv = parse_invocation(&args(&["--deadline", "0.5", "kernel", "abba"])).unwrap();
        assert_eq!(inv.deadline, Some(Duration::from_millis(500)));
        assert_eq!(inv.chaos, None);
        // Without them, options are inert.
        let inv = parse_invocation(&args(&["kernel", "abba"])).unwrap();
        assert!(!inv.options().active());
    }

    #[test]
    fn parses_metrics_flag_anywhere() {
        let inv = parse_invocation(&args(&["--metrics", "m.txt", "explore", "abba"])).unwrap();
        assert_eq!(inv.metrics.as_deref(), Some("m.txt"));
        assert_eq!(inv.options().metrics.as_deref(), Some("m.txt"));
        let inv = parse_invocation(&args(&["tables", "t1", "--metrics", "m.txt"])).unwrap();
        assert_eq!(inv.metrics.as_deref(), Some("m.txt"));
        assert!(parse_invocation(&args(&["explore", "abba", "--metrics"])).is_err());
    }

    #[test]
    fn run_opts_tables_writes_metrics() {
        let path = std::env::temp_dir().join("lfm_cli_tables_metrics.txt");
        let opts = RunOptions {
            metrics: Some(path.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };
        let out = run_opts(
            Command::Tables {
                only: Some(Artifact::Table(2)),
                markdown: false,
            },
            Arc::new(NoopSink),
            &opts,
        );
        assert!(!out.degraded, "{}", out.text);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(lfm_obs::check_exposition(&text).is_ok(), "{text}");
        assert!(
            text.contains("lfm_tables_artifacts_rendered_total 1"),
            "{text}"
        );
        assert!(
            text.contains("lfm_tables_artifacts_failed_total 0"),
            "{text}"
        );
        assert!(text.contains("lfm_tables_wall_seconds"), "{text}");
    }

    #[test]
    fn rejects_malformed_chaos_and_deadline() {
        assert!(parse_invocation(&args(&["kernel", "abba", "--chaos"])).is_err());
        assert!(parse_invocation(&args(&["kernel", "abba", "--chaos", "banana"])).is_err());
        assert!(parse_invocation(&args(&["kernel", "abba", "--deadline"])).is_err());
        assert!(parse_invocation(&args(&["kernel", "abba", "--deadline", "-3"])).is_err());
        assert!(parse_invocation(&args(&["kernel", "abba", "--deadline", "0"])).is_err());
        assert!(parse_invocation(&args(&["kernel", "abba", "--deadline", "nan"])).is_err());
        assert!(parse_invocation(&args(&["kernel", "abba", "--deadline", "inf"])).is_err());
    }

    fn kernel_cmd(id: &str, stats: bool) -> Command {
        Command::Kernel {
            id: id.into(),
            source: false,
            witness: false,
            stats,
        }
    }

    #[test]
    fn run_opts_deadline_reports_level_and_confidence() {
        let opts = RunOptions {
            chaos: None,
            deadline: Some(Duration::from_secs(10)),
            metrics: None,
        };
        let out = run_opts(kernel_cmd("abba", false), Arc::new(NoopSink), &opts);
        assert!(!out.degraded);
        assert!(out.text.contains("deadline:"), "{}", out.text);
        assert!(out.text.contains("per variant"), "{}", out.text);
        assert!(out.text.contains("level: "), "{}", out.text);
        assert!(out.text.contains("confidence: "), "{}", out.text);
        assert!(out.text.contains("(proved)"), "{}", out.text);
        assert!(!out.text.contains("BROKEN"), "{}", out.text);
    }

    #[test]
    fn run_opts_chaos_still_proves_fixes() {
        let opts = RunOptions {
            chaos: Some(42),
            deadline: None,
            metrics: None,
        };
        let out = run_opts(kernel_cmd("counter_rmw", false), Arc::new(NoopSink), &opts);
        assert!(!out.degraded);
        assert!(out.text.contains("chaos seed: 42"), "{}", out.text);
        assert!(out.text.contains("witness:"), "{}", out.text);
        assert!(out.text.contains("(proved)"), "{}", out.text);
        assert!(!out.text.contains("BROKEN"), "{}", out.text);
    }

    #[test]
    fn run_opts_budget_path_streams_budget_events() {
        let sink = Arc::new(lfm_obs::MemorySink::new());
        let opts = RunOptions {
            chaos: Some(7),
            deadline: Some(Duration::from_secs(5)),
            metrics: None,
        };
        run_opts(
            kernel_cmd("counter_rmw", false),
            Arc::clone(&sink) as Arc<dyn Sink>,
            &opts,
        );
        let kernel = registry::by_id("counter_rmw").unwrap();
        let reports = sink.events_named("budget", "report");
        assert_eq!(reports.len(), 1 + kernel.fixes.len());
        assert!(reports[0].get("level").is_some());
        assert!(reports[0].get("confidence").is_some());
    }

    #[test]
    fn run_opts_budget_stats_block() {
        let opts = RunOptions {
            chaos: None,
            deadline: Some(Duration::from_secs(10)),
            metrics: None,
        };
        let out = run_opts(kernel_cmd("counter_rmw", true), Arc::new(NoopSink), &opts);
        for needle in [
            "budget stats (counter_rmw, buggy variant)",
            "levels tried",
            "confidence",
            "wall (buggy)",
        ] {
            assert!(
                out.text.contains(needle),
                "missing {needle:?}:\n{}",
                out.text
            );
        }
    }

    #[test]
    fn run_opts_tables_streams_one_study_event_per_table() {
        let sink = Arc::new(lfm_obs::MemorySink::new());
        run_opts(
            Command::Tables {
                only: Some(Artifact::Table(1)),
                markdown: false,
            },
            Arc::clone(&sink) as Arc<dyn Sink>,
            &RunOptions::default(),
        );
        let tables = sink.events_named("study", "table");
        assert_eq!(tables.len(), 1, "{tables:?}");
        assert_eq!(tables[0].get("id").and_then(|id| id.as_str()), Some("T1"));
        // Only a run of every artifact ends with the total.
        assert!(sink.events_named("study", "tables").is_empty());
    }

    #[test]
    fn run_opts_tables_is_not_degraded_on_success() {
        let out = run_opts(
            Command::Tables {
                only: Some(Artifact::Table(2)),
                markdown: false,
            },
            Arc::new(NoopSink),
            &RunOptions::default(),
        );
        assert!(!out.degraded);
        assert!(out.text.contains("T2:"));
        // Identical to the un-optioned renderer.
        assert_eq!(
            out.text,
            run(Command::Tables {
                only: Some(Artifact::Table(2)),
                markdown: false,
            })
        );
    }

    #[test]
    fn help_documents_the_robustness_surface() {
        for needle in [
            "--chaos",
            "--deadline",
            "--metrics",
            "--progress",
            "echaos",
            "edpor",
            "efuse",
            "--no-fuse",
            "eobs",
            "eserve",
            "lfm serve",
            "lfm bench-serve",
            "lfm top",
            "--trace",
            "--trace-slow-ms",
            "--interval-ms",
            "--once",
            "--chaos-net",
            "--shutdown",
            "lfm version",
            "EXIT STATUS",
            "flight recorder",
        ] {
            assert!(HELP.contains(needle), "missing {needle:?} in HELP");
        }
    }

    #[test]
    fn run_bench_serve_in_process_round_trip() {
        let dir = std::env::temp_dir().join(format!("lfm-cli-bench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("bench_serve.json");
        let sink: Arc<dyn Sink> = Arc::new(NoopSink);
        let out = run_bench_serve(
            &BenchServeArgs {
                addr: None,
                clients: Some(2),
                requests: Some(4),
                seed: Some(7),
                chaos_net: None,
                out: Some(out_path.to_string_lossy().into_owned()),
                shutdown: false,
            },
            &RunOptions::default(),
            &sink,
        );
        assert!(!out.degraded, "{}", out.text);
        for needle in [
            "bench-serve: 2 clients x 4 requests",
            "requests: 8 (",
            "cache hit rate:",
            "latency: p50",
            "retries: ",
            "degrade histogram:",
            "drained:",
            "clean=true",
            "report: ",
        ] {
            assert!(
                out.text.contains(needle),
                "missing {needle:?}:\n{}",
                out.text
            );
        }
        assert!(!out.text.contains("WRONG"), "{}", out.text);
        let doc = std::fs::read_to_string(&out_path).unwrap();
        assert!(doc.contains("\"schema\":\"lfm-bench-serve/v1\""), "{doc}");
        assert!(doc.contains("\"scenario\":\"no-chaos\""), "{doc}");
        assert!(doc.contains("\"retries_total\":"), "{doc}");
        assert!(doc.contains("\"max_retries\":"), "{doc}");
        assert!(doc.contains("\"clean_drain\":true"), "{doc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_top_once_renders_a_live_snapshot() {
        let handle = lfm_serve::Server::start(
            lfm_serve::ServerConfig::default(),
            Arc::new(NoopSink) as Arc<dyn Sink>,
        )
        .expect("server starts");
        let addr = handle.addr().to_string();
        // Warm one check so the stage table has rows with counts.
        lfm_serve::Client::new(handle.addr())
            .check("counter_rmw", "buggy", None)
            .expect("check answers");
        let out = run_top(&addr, 1_000, true);
        assert!(!out.degraded, "{}", out.text);
        for needle in [
            "lfm top —",
            "uptime",
            "in-flight",
            "hits",
            "degrade:",
            "stage",
            "explore",
            "reply_write",
            "level exhaustive",
        ] {
            assert!(
                out.text.contains(needle),
                "missing {needle:?}:\n{}",
                out.text
            );
        }
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }

    #[test]
    fn run_top_against_nothing_degrades() {
        // A dead port: bind, learn the address, drop the listener.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let out = run_top(&addr, 1_000, true);
        assert!(out.degraded, "{}", out.text);
        assert!(out.text.contains("unreachable"), "{}", out.text);
    }

    #[test]
    fn run_serve_writes_a_trace_dump_at_drain() {
        let dir = std::env::temp_dir().join(format!("lfm-cli-serve-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("serve-trace.json");
        let sink: Arc<dyn Sink> = Arc::new(NoopSink);
        // Drive the server from a second thread: one check, then a wire
        // shutdown so run_serve's wait() returns.
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<String>();
        let driver = std::thread::spawn(move || {
            let addr = addr_rx.recv().expect("server address");
            let resolved: std::net::SocketAddr = addr.parse().expect("addr parses");
            let client = lfm_serve::Client::new(resolved);
            client
                .check("counter_rmw", "buggy", None)
                .expect("check answers");
            client.shutdown().expect("shutdown acknowledged");
        });
        // run_serve announces its port on stdout, which this test can't
        // capture — so pick a free port up front (bind, read, release)
        // and pass it in explicitly.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        addr_tx.send(addr.clone()).unwrap();
        let out = run_serve(
            ServeArgs {
                addr: Some(addr),
                dpor: false,
                workers: Some(2),
                queue: None,
                max_conns: None,
                trace: Some(trace_path.to_string_lossy().into_owned()),
                trace_slow_ms: None,
            },
            &RunOptions::default(),
            &sink,
        );
        driver.join().expect("driver thread");
        assert!(!out.degraded, "{}", out.text);
        assert!(out.text.contains("trace: "), "{}", out.text);
        let doc = std::fs::read_to_string(&trace_path).unwrap();
        assert!(doc.contains("\"schema\":\"lfm-serve-trace/v1\""), "{doc}");
        assert!(doc.contains("\"name\":\"explore\""), "{doc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_bench_serve_unresolvable_addr_degrades() {
        let sink: Arc<dyn Sink> = Arc::new(NoopSink);
        let out = run_bench_serve(
            &BenchServeArgs {
                addr: Some("definitely-not-a-host^^:0".into()),
                clients: Some(1),
                requests: Some(1),
                seed: None,
                chaos_net: None,
                out: None,
                shutdown: false,
            },
            &RunOptions::default(),
            &sink,
        );
        assert!(out.degraded);
        assert!(out.text.contains("cannot resolve"), "{}", out.text);
    }
}
