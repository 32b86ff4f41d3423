//! Command implementations behind the `gvc` binary.
//!
//! Kept as a library so the commands are unit-testable without
//! spawning processes: each command takes parsed arguments and a
//! writer, returns `Result<(), CliError>`, and the binary is a thin
//! argv dispatcher.
//!
//! ```text
//! gvc summary <log>                      descriptive stats of a usage log
//! gvc sessions <log> [--gap 60]          session grouping (Table I/III view)
//! gvc suitability <log> [--gap 60] [--setup 60] [--factor 10]
//!                                        the Table IV analysis
//! gvc generate <scenario> <out> [--scale 0.1] [--seed 42]
//!                                        synthesize a dataset (ncar|slac|anl|ornl)
//! gvc anonymize <log> <out> [--policy drop|pseudonym]
//! gvc simulate <out> [--seed 42] [--jobs 6] [--horizon 100000]
//!                                        run the instrumented simulation
//! gvc trace <profile|sessions|check> <trace.jsonl>
//!                                        offline span analysis of a trace
//! gvc perf <snapshot|diff|gate>          host-performance snapshots and the
//!                                        regression gate
//! gvc scenario <run|record|diff|list>    scenario corpus with golden-output
//!                                        regression gating
//! gvc timeline <report|csv|check>        views and SLO burn checks over a
//!                                        --timeline flight-recorder file
//! ```
//!
//! Every command also accepts the global observability flags
//! `--trace <path>` (stream structured JSONL events, starting with a
//! `run.manifest` record), `--metrics` (append the Prometheus-style
//! metric exposition to the output), `--metrics-out <path>` (write
//! that exposition to a file), `--perf` (append a host-performance
//! snapshot: per-phase wall-clock seconds and throughput, total
//! seconds, peak RSS), `--perf-out <path>` (write that snapshot to a
//! file that `gvc perf diff` reads), and
//! `--timeline <path>` (record the sim-time flight recorder's
//! windowed series and write them as JSON). See
//! `docs/observability.md` for the event schema, `docs/perf.md` for
//! the host-performance toolchain, `docs/trace-analysis.md` for the
//! span toolchain, and `docs/timeline.md` for the flight recorder and
//! SLO rule grammar.

pub mod args;
pub mod commands;
pub mod perf;
pub mod scenario;
pub mod timeline;

pub use args::{parse_flags, CliError, ParsedArgs};
pub use commands::{run_command, COMMANDS};
