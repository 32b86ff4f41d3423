//! Scenario bundling: generate the four study datasets once, reuse
//! them across experiments.

use gvc_logs::Dataset;
use gvc_workload::nersc_anl::{self, NerscAnlConfig};
use gvc_workload::nersc_ornl::{self, NerscOrnlConfig, NerscOrnlOutput};
use gvc_workload::{ncar_nics, slac_bnl};

/// Generation scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast: small fractions of the paper's dataset sizes; suitable
    /// for CI and interactive runs (seconds).
    Quick,
    /// Paper-sized NCAR/ORNL/ANL datasets and a 10 % SLAC–BNL sample
    /// (the 1.02 M-transfer full set is dominated by its smallest
    /// files and the medians stabilize well before 100 k transfers).
    Full,
}

impl Scale {
    fn ncar(self) -> f64 {
        match self {
            Scale::Quick => 0.15,
            Scale::Full => 1.0,
        }
    }
    fn slac(self) -> f64 {
        match self {
            Scale::Quick => 0.01,
            Scale::Full => 0.10,
        }
    }
    fn ornl_transfers(self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Full => 145,
        }
    }
    fn anl(self) -> f64 {
        match self {
            Scale::Quick => 0.4,
            Scale::Full => 1.0,
        }
    }
}

/// The four generated datasets.
pub struct Scenarios {
    /// Which scale they were generated at.
    pub scale: Scale,
    /// NCAR–NICS usage log.
    pub ncar: Dataset,
    /// SLAC–BNL usage log.
    pub slac: Dataset,
    /// NERSC–ORNL log + SNMP counters.
    pub ornl: NerscOrnlOutput,
    /// NERSC–ANL usage log (tests + production).
    pub anl: Dataset,
}

impl Scenarios {
    /// Generates all four scenarios with fixed seeds on two lanes: one
    /// runs SLAC, the largest leg at full scale, and the other runs
    /// ORNL, NCAR and ANL in turn, which together take about as long.
    /// On a two-core host, four concurrent legs only slowed SLAC, the
    /// critical path (docs/perf.md, "Repro schedule").
    pub fn generate(scale: Scale) -> Scenarios {
        let (slac, (ornl, ncar, anl)) = std::thread::scope(|scope| {
            let rest = scope.spawn(|| {
                let ornl = nersc_ornl::generate(NerscOrnlConfig {
                    seed: 2010,
                    n_transfers: scale.ornl_transfers(),
                    background: 1.0,
                });
                let ncar = ncar_nics::generate(ncar_nics::NcarNicsConfig {
                    seed: 2009,
                    scale: scale.ncar(),
                });
                let anl = nersc_anl::generate(NerscAnlConfig {
                    seed: 2012,
                    scale: scale.anl(),
                    production_sessions_per_day: 60.0,
                    horizon_days: 50.0,
                });
                (ornl, ncar, anl)
            });
            let slac =
                slac_bnl::generate(slac_bnl::SlacBnlConfig { seed: 2012, scale: scale.slac() });
            (slac, rest.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        });
        Scenarios { scale, ncar, slac, ornl, anl }
    }

    /// The ANL test transfers (Table VI / Figs. 1, 7, 8 targets).
    pub fn anl_tests(&self) -> Dataset {
        nersc_anl::test_transfers(&self.anl)
    }

    /// The ANL mem-mem test subset (Fig. 8 targets).
    pub fn anl_mem_mem(&self) -> Dataset {
        nersc_anl::mem_mem_tests(&self.anl)
    }

    /// The NERSC server's full log (tests + production), the
    /// concurrency universe for Figs. 7–8.
    pub fn nersc_server_log(&self) -> Dataset {
        self.anl.filter(|r| &*r.server == "dtn01.nersc.gov")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenarios_generate_consistently() {
        let s = Scenarios::generate(Scale::Quick);
        assert!(s.ncar.len() > 100);
        assert!(s.slac.len() > 500);
        assert_eq!(s.ornl.log.len(), 60);
        assert!(!s.anl_tests().is_empty());
        assert!(s.anl_mem_mem().len() <= s.anl_tests().len());
        assert!(s.nersc_server_log().len() >= s.anl_tests().len());
        // Regenerating gives identical datasets.
        let s2 = Scenarios::generate(Scale::Quick);
        assert_eq!(s.ncar, s2.ncar);
        assert_eq!(s.slac, s2.slac);
    }
}
