//! The repro harness itself: every paper artifact renders from one
//! quick-scale scenario bundle, the renders carry the signals the
//! paper reports, and `repro all`'s output is byte-identical to the
//! committed `docs/repro_quick_output.txt`.

use gvc_bench::{run_experiment, run_experiments, Scale, Scenarios, EXPERIMENT_IDS};
use std::sync::OnceLock;

fn scenarios() -> &'static Scenarios {
    static S: OnceLock<Scenarios> = OnceLock::new();
    S.get_or_init(|| Scenarios::generate(Scale::Quick))
}

#[test]
fn all_experiments_render_nonempty() {
    let s = scenarios();
    for id in EXPERIMENT_IDS {
        let out = run_experiment(s, id).unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(out.lines().count() >= 3, "{id}:\n{out}");
    }
}

#[test]
fn quick_output_matches_the_committed_file() {
    // The parallel path `repro` prints.
    let actual: String = run_experiments(scenarios(), &EXPERIMENT_IDS)
        .into_iter()
        .zip(EXPERIMENT_IDS)
        .map(|(out, id)| out.unwrap_or_else(|| panic!("unknown id {id}")))
        .collect();
    let expected = include_str!("../docs/repro_quick_output.txt");
    if let Some(diff) = gvc_scenario::golden::line_diff(expected, &actual) {
        panic!(
            "`repro all` drifted from docs/repro_quick_output.txt; if the change is \
             intended, regenerate it with `cargo run --release -p gvc-bench --bin repro -- all`:\n{diff}"
        );
    }
}

#[test]
fn table3_session_counts_decrease_with_g() {
    let out = run_experiment(scenarios(), "table3").expect("renders");
    // Parse the NCAR rows back out and check monotonicity.
    let sessions: Vec<usize> = out
        .lines()
        .filter(|l| l.starts_with("NCAR-NICS"))
        .map(|l| {
            l.split_whitespace().nth(2).and_then(|v| v.parse().ok()).expect("session count column")
        })
        .collect();
    assert_eq!(sessions.len(), 3);
    assert!(sessions[0] >= sessions[1] && sessions[1] >= sessions[2], "{sessions:?}");
}

#[test]
fn table6_has_all_four_categories() {
    let out = run_experiment(scenarios(), "table6").expect("renders");
    for cat in ["mem-mem", "mem-disk", "disk-mem", "disk-disk"] {
        assert!(out.contains(cat), "missing {cat}:\n{out}");
    }
}

#[test]
fn fig1_draws_four_boxplots() {
    let out = run_experiment(scenarios(), "fig1").expect("renders");
    let boxes = out.lines().filter(|l| l.contains('#')).count();
    assert!(boxes >= 4, "expected 4 boxplot rows:\n{out}");
}

#[test]
fn table11_correlations_beat_table12() {
    let s = scenarios();
    let grab_all_row = |id: &str| -> Vec<f64> {
        let out = run_experiment(s, id).expect("renders");
        out.lines()
            .find(|l| l.starts_with("All"))
            .expect("All row")
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("corr value"))
            .collect()
    };
    let total = grab_all_row("table11");
    let other = grab_all_row("table12");
    assert_eq!(total.len(), 5);
    for (t, o) in total.iter().zip(&other) {
        assert!(t > &0.5, "total corr {t}");
        assert!(t > &o.abs(), "total {t} vs other {o}");
    }
}
