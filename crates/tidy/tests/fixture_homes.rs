//! Where each finding on the fixture corpus is enforced now.
//!
//! The table itself lives in `homes/mod.rs`; it must cover the
//! fixture directory exactly, so a new fixture without a row fails
//! here.

mod homes;

use homes::{assert_home, fixtures_dir, table, walk};
use std::collections::BTreeSet;

#[test]
fn every_fixture_has_a_row() {
    let mut on_disk = BTreeSet::new();
    walk(&fixtures_dir(), &mut on_disk);
    let mapped: BTreeSet<String> = table().iter().map(|f| f.file.to_string()).collect();
    assert_eq!(on_disk, mapped, "fixtures and the home table disagree");
}

#[test]
fn every_old_finding_has_a_home_that_holds() {
    let tables = table();
    let mut rows = 0;
    for fx in &tables {
        for (line, old, home) in &fx.findings {
            assert_home(fx, *line, old, home, &tables);
            rows += 1;
        }
    }
    assert_eq!(rows, 43, "the earlier engine reported 43 findings on the corpus");
}
