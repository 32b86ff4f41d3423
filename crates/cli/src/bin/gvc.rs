//! The `gvc` command-line tool: GridFTP usage-log analysis and
//! synthetic dataset generation from the shell.

use gvc_cli::{parse_flags, run_command, COMMANDS};

fn usage() {
    eprintln!("gvc — GridFTP virtual-circuit study toolkit\n");
    eprintln!("commands:");
    for c in &COMMANDS {
        eprintln!("  {:<64} {}", c.usage, c.about);
    }
    eprintln!("\nglobal flags (any command):");
    eprintln!("  {:<64} write structured JSONL trace events", "--trace <path>");
    eprintln!("  {:<64} print the metric exposition after the command", "--metrics");
    eprintln!("  {:<64} write the metric exposition to a file", "--metrics-out <path>");
    eprintln!("  {:<64} print a host-performance snapshot (phases, RSS)", "--perf");
    eprintln!("  {:<64} write that snapshot to a file for `gvc perf diff`", "--perf-out <path>");
    eprintln!("  {:<64} record sim-time windowed series to a file", "--timeline <path>");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        usage();
        std::process::exit(if argv.is_empty() { 2 } else { 0 });
    }
    let parsed = match parse_flags(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if let Err(e) = run_command(&parsed, &mut lock) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
