//! The Lan & Heidemann four-dimensional flow taxonomy.
//!
//! §III of the paper: "Lan and Heidemann classify flows on four
//! dimensions: size (bytes), duration, throughput, and burstiness, and
//! report that 68% of porcupine (high burstiness) flows in an analyzed
//! data set were also elephant (large sized) flows." The taxonomy
//! names one animal per heavy tail:
//!
//! | dimension | heavy | light |
//! |---|---|---|
//! | size | **elephant** | mouse |
//! | duration | **tortoise** | dragonfly |
//! | rate | **cheetah** | snail |
//! | burstiness | **porcupine** | stingray |
//!
//! Thresholds follow the original methodology: a flow is heavy on a
//! dimension when it exceeds `mean + k·σ` of that dimension over the
//! population (k = 3 in the original; configurable here because
//! synthetic populations are smaller).

/// One flow's four measured dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDims {
    /// Size, bytes.
    pub bytes: f64,
    /// Duration, seconds.
    pub duration_s: f64,
    /// Mean rate, bps.
    pub rate_bps: f64,
    /// Peak-to-mean ratio.
    pub burstiness: f64,
}

impl FlowDims {
    /// Builds dimensions from a fluid-simulator completion.
    pub fn from_completion(c: &gvc_net::FlowCompletion) -> FlowDims {
        FlowDims {
            bytes: c.bytes,
            duration_s: c.duration_s(),
            rate_bps: c.throughput_bps(),
            burstiness: c.burstiness(),
        }
    }
}

/// Heavy-tail membership of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowTags {
    /// Heavy in size.
    pub elephant: bool,
    /// Heavy in duration.
    pub tortoise: bool,
    /// Heavy in rate.
    pub cheetah: bool,
    /// Heavy in burstiness.
    pub porcupine: bool,
}

/// The classified population.
#[derive(Debug, Clone)]
pub struct TaxonomyReport {
    /// Per-flow tags, input order.
    pub tags: Vec<FlowTags>,
}

impl TaxonomyReport {
    fn count<F: Fn(&FlowTags) -> bool>(&self, f: F) -> usize {
        self.tags.iter().filter(|t| f(t)).count()
    }

    /// Number of elephants.
    pub fn elephants(&self) -> usize {
        self.count(|t| t.elephant)
    }

    /// Number of porcupines.
    pub fn porcupines(&self) -> usize {
        self.count(|t| t.porcupine)
    }

    /// Number of cheetahs.
    pub fn cheetahs(&self) -> usize {
        self.count(|t| t.cheetah)
    }

    /// Number of tortoises.
    pub fn tortoises(&self) -> usize {
        self.count(|t| t.tortoise)
    }

    /// The Lan & Heidemann headline: the fraction of porcupines that
    /// are also elephants (their data: 68 %). `None` without
    /// porcupines.
    pub fn porcupine_elephant_overlap(&self) -> Option<f64> {
        let p = self.porcupines();
        if p == 0 {
            return None;
        }
        Some(self.count(|t| t.porcupine && t.elephant) as f64 / p as f64)
    }
}

fn mean_sd(xs: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = xs.clone().count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = xs.clone().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let ss: f64 = xs.map(|x| (x - mean) * (x - mean)).sum();
    (mean, (ss / (n - 1) as f64).sqrt())
}

/// Classifies a population with `mean + k·σ` thresholds per dimension.
pub fn classify(flows: &[FlowDims], k: f64) -> TaxonomyReport {
    let thr = |get: fn(&FlowDims) -> f64| -> f64 {
        let (m, s) = mean_sd(flows.iter().map(get));
        m + k * s
    };
    let t_bytes = thr(|f| f.bytes);
    let t_dur = thr(|f| f.duration_s);
    let t_rate = thr(|f| f.rate_bps);
    let t_burst = thr(|f| f.burstiness);
    let tags = flows
        .iter()
        .map(|f| FlowTags {
            elephant: f.bytes > t_bytes,
            tortoise: f.duration_s > t_dur,
            cheetah: f.rate_bps > t_rate,
            porcupine: f.burstiness > t_burst,
        })
        .collect();
    TaxonomyReport { tags }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mouse() -> FlowDims {
        FlowDims { bytes: 1e6, duration_s: 1.0, rate_bps: 8e6, burstiness: 1.1 }
    }

    /// A population of mice plus one outlier per dimension.
    fn population() -> Vec<FlowDims> {
        let mut v = vec![mouse(); 40];
        v.push(FlowDims { bytes: 5e10, ..mouse() }); // elephant
        v.push(FlowDims { duration_s: 5_000.0, ..mouse() }); // tortoise
        v.push(FlowDims { rate_bps: 3e9, ..mouse() }); // cheetah
        v.push(FlowDims { burstiness: 40.0, ..mouse() }); // porcupine
        v
    }

    #[test]
    fn outliers_are_tagged_on_their_dimension_only() {
        let pop = population();
        let r = classify(&pop, 3.0);
        assert_eq!(r.elephants(), 1);
        assert_eq!(r.tortoises(), 1);
        assert_eq!(r.cheetahs(), 1);
        assert_eq!(r.porcupines(), 1);
        // The elephant outlier is not a cheetah etc.
        let elephant = r.tags.iter().find(|t| t.elephant).expect("tagged");
        assert!(!elephant.cheetah && !elephant.porcupine && !elephant.tortoise);
    }

    #[test]
    fn porcupine_elephant_overlap_detected() {
        let mut pop = vec![mouse(); 50];
        // Three flows both huge and bursty, one bursty-only.
        for _ in 0..3 {
            pop.push(FlowDims { bytes: 5e10, burstiness: 30.0, ..mouse() });
        }
        pop.push(FlowDims { burstiness: 30.0, ..mouse() });
        let r = classify(&pop, 3.0);
        assert_eq!(r.porcupines(), 4);
        let overlap = r.porcupine_elephant_overlap().expect("porcupines exist");
        assert!((overlap - 0.75).abs() < 1e-9);
    }

    #[test]
    fn homogeneous_population_has_no_heavy_tail() {
        let pop = vec![mouse(); 20];
        let r = classify(&pop, 3.0);
        assert_eq!(r.elephants() + r.tortoises() + r.cheetahs() + r.porcupines(), 0);
        assert!(r.porcupine_elephant_overlap().is_none());
    }

    #[test]
    fn empty_population() {
        let r = classify(&[], 3.0);
        assert!(r.tags.is_empty());
    }

    #[test]
    fn from_completion_maps_fields() {
        use gvc_engine::SimTime;
        use gvc_net::{FlowCompletion, FlowId};
        let c = FlowCompletion {
            id: FlowId(0),
            tag: 0,
            start: SimTime::from_secs(0),
            end: SimTime::from_secs(10),
            bytes: 1e9,
            peak_rate_bps: 1.6e9,
        };
        let d = FlowDims::from_completion(&c);
        assert_eq!(d.bytes, 1e9);
        assert!((d.duration_s - 10.0).abs() < 1e-12);
        assert!((d.rate_bps - 8e8).abs() < 1.0);
        assert!((d.burstiness - 2.0).abs() < 1e-9);
    }
}
