//! Remote-endpoint anonymization.
//!
//! The NERSC dataset the paper received had the remote IP address
//! anonymized "for privacy reasons", which made session grouping
//! impossible for those logs (§V). The anonymizer reproduces both
//! policies: [`AnonymizePolicy::Drop`] removes the remote entirely
//! (NERSC), while [`AnonymizePolicy::Pseudonym`] replaces each distinct
//! remote with a stable opaque label, preserving sessionizability
//! without revealing endpoints.

use crate::Dataset;
use std::collections::HashMap;
use std::sync::Arc;

/// How to anonymize the remote endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnonymizePolicy {
    /// Remove the remote field (the paper's NERSC logs).
    Drop,
    /// Replace each distinct remote with `peer-<n>` in first-seen
    /// order, keeping the pairing structure intact.
    Pseudonym,
}

/// Applies a policy to a dataset in place, reusing its records: the
/// anonymized dataset shares its names, each pseudonym one `Arc<str>`
/// for all the records of its remote.
pub fn anonymize(mut ds: Dataset, policy: AnonymizePolicy) -> Dataset {
    match policy {
        AnonymizePolicy::Drop => {
            for r in &mut ds.records {
                r.remote = None;
            }
        }
        AnonymizePolicy::Pseudonym => {
            let mut mapping: HashMap<Arc<str>, Arc<str>> = HashMap::new();
            let mut next = 0usize;
            for r in &mut ds.records {
                if let Some(remote) = r.remote.take() {
                    let pseudo = mapping.entry(remote).or_insert_with(|| {
                        next += 1;
                        format!("peer-{next}").into()
                    });
                    r.remote = Some(Arc::clone(pseudo));
                }
            }
        }
    }
    // A dataset built by `push` may be out of order; hand back start-time
    // order either way (a linear pass when already sorted).
    ds.sort();
    ds
}

/// Applies a policy to a copy of a dataset; see [`anonymize`].
pub fn anonymize_dataset(ds: &Dataset, policy: AnonymizePolicy) -> Dataset {
    anonymize(ds.clone(), policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TransferRecord, TransferType};

    fn ds() -> Dataset {
        Dataset::from_records(vec![
            TransferRecord::simple(TransferType::Store, 1, 0, 1, "s", Some("alpha")),
            TransferRecord::simple(TransferType::Store, 1, 1, 1, "s", Some("beta")),
            TransferRecord::simple(TransferType::Store, 1, 2, 1, "s", Some("alpha")),
            TransferRecord::simple(TransferType::Store, 1, 3, 1, "s", None),
        ])
    }

    #[test]
    fn drop_removes_all_remotes() {
        let a = anonymize_dataset(&ds(), AnonymizePolicy::Drop);
        assert!(a.records().iter().all(|r| r.remote.is_none()));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn pseudonyms_are_stable_per_remote() {
        let a = anonymize_dataset(&ds(), AnonymizePolicy::Pseudonym);
        let remotes: Vec<Option<&str>> = a.records().iter().map(|r| r.remote.as_deref()).collect();
        assert_eq!(remotes, vec![Some("peer-1"), Some("peer-2"), Some("peer-1"), None]);
    }

    #[test]
    fn pseudonyms_preserve_session_structure() {
        let orig = ds();
        let a = anonymize_dataset(&orig, AnonymizePolicy::Pseudonym);
        // Same grouping cardinality: records sharing a remote before
        // still share one after.
        let count = |d: &Dataset, remote: Option<&str>| {
            d.records().iter().filter(|r| r.remote.as_deref() == remote).count()
        };
        assert_eq!(count(&orig, Some("alpha")), count(&a, Some("peer-1")));
        assert_eq!(count(&orig, Some("beta")), count(&a, Some("peer-2")));
    }

    #[test]
    fn pushed_dataset_comes_back_in_start_order() {
        let mut pushed = Dataset::new();
        for r in ds().records().iter().rev() {
            pushed.push(r.clone());
        }
        let a = anonymize(pushed, AnonymizePolicy::Pseudonym);
        let starts: Vec<i64> = a.records().iter().map(|r| r.start_unix_us).collect();
        assert_eq!(starts, vec![0, 1, 2, 3]);
        // Pseudonyms follow the order the records were pushed in.
        let remotes: Vec<Option<&str>> = a.records().iter().map(|r| r.remote.as_deref()).collect();
        assert_eq!(remotes, vec![Some("peer-1"), Some("peer-2"), Some("peer-1"), None]);
    }

    #[test]
    fn non_remote_fields_untouched() {
        let a = anonymize_dataset(&ds(), AnonymizePolicy::Drop);
        for (orig, anon) in ds().records().iter().zip(a.records()) {
            assert_eq!(orig.size_bytes, anon.size_bytes);
            assert_eq!(orig.start_unix_us, anon.start_unix_us);
            assert_eq!(orig.server, anon.server);
        }
    }
}
