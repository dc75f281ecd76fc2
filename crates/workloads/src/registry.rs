//! The Table II workload registry.
//!
//! Builds the paper's nine-workload suite with the paper's enlargement
//! presets, and provides lookup by the names the paper uses.

use crate::bfs::Bfs;
use crate::hotspot::Hotspot;
use crate::kmeans::KMeans;
use crate::lud::Lud;
use crate::nbody::NBody;
use crate::pathfinder::Pathfinder;
use crate::quasirandom::QuasirandomGen;
use crate::srad::Srad;
use crate::streamcluster::StreamCluster;
use crate::training::TrainingLoop;
use crate::traits::Workload;

/// The names of the Table II workloads, in the paper's order.
pub const TABLE2_NAMES: [&str; 9] = [
    "bfs",
    "lud",
    "nbody",
    "PF",
    "QG",
    "srad_v2",
    "hotspot",
    "kmeans",
    "streamcluster",
];

/// Builds a workload by its Table II name with the paper preset.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "bfs" => Box::new(Bfs::paper(seed)),
        "lud" => Box::new(Lud::paper(seed)),
        "nbody" => Box::new(NBody::paper(seed)),
        "PF" => Box::new(Pathfinder::paper(seed)),
        "QG" => Box::new(QuasirandomGen::paper(seed)),
        "srad_v2" => Box::new(Srad::paper(seed)),
        "hotspot" => Box::new(Hotspot::paper(seed)),
        "kmeans" => Box::new(KMeans::paper(seed)),
        "streamcluster" => Box::new(StreamCluster::paper(seed)),
        // Not a Table II row: the phase-cycling training workload used by
        // the `training` experiment and the contextual policies.
        "training" => Box::new(TrainingLoop::paper(seed)),
        _ => return None,
    })
}

/// Builds a workload by name with the fast test preset.
pub fn by_name_small(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "bfs" => Box::new(Bfs::small(seed)),
        "lud" => Box::new(Lud::small(seed)),
        "nbody" => Box::new(NBody::small(seed)),
        "PF" => Box::new(Pathfinder::small(seed)),
        "QG" => Box::new(QuasirandomGen::small(seed)),
        "srad_v2" => Box::new(Srad::small(seed)),
        "hotspot" => Box::new(Hotspot::small(seed)),
        "kmeans" => Box::new(KMeans::small(seed)),
        "streamcluster" => Box::new(StreamCluster::small(seed)),
        "training" => Box::new(TrainingLoop::small(seed)),
        _ => return None,
    })
}

/// The full Table II suite with paper presets.
pub fn all_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    TABLE2_NAMES
        .iter()
        .map(|n| by_name(n, seed).expect("registered name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::iteration_utilization;
    use crate::traits::{check_phase, UtilClass};
    use greengpu_hw::calib::geforce_8800_gtx;

    #[test]
    fn registry_has_all_nine_table2_rows() {
        let all = all_workloads(1);
        assert_eq!(all.len(), 9);
        let names: Vec<&str> = all.iter().map(|w| w.profile().name).collect();
        assert_eq!(names, TABLE2_NAMES.to_vec());
    }

    #[test]
    fn unknown_name_returns_none() {
        assert!(by_name("nonsense", 1).is_none());
        assert!(by_name_small("nonsense", 1).is_none());
    }

    #[test]
    fn every_paper_workload_has_valid_phases() {
        for w in all_workloads(1) {
            for iter in 0..2.min(w.iterations()) {
                for p in w.phases(iter) {
                    check_phase(&p);
                }
            }
        }
    }

    #[test]
    fn every_table2_class_is_reproduced() {
        // The headline Table II check: each workload's time-averaged
        // utilizations at peak clocks land in its class band (fluctuating
        // workloads are checked for variability in their own modules).
        let spec = geforce_8800_gtx();
        for w in all_workloads(1) {
            let prof = w.profile();
            if prof.core_class == UtilClass::Fluctuating {
                continue;
            }
            let (u_core, u_mem) = iteration_utilization(&w.phases(0), &spec, 576.0, 900.0);
            assert!(
                prof.core_class.contains(u_core),
                "{}: core util {u_core} not in {:?}",
                prof.name,
                prof.core_class
            );
            assert!(
                prof.mem_class.contains(u_mem),
                "{}: mem util {u_mem} not in {:?}",
                prof.name,
                prof.mem_class
            );
        }
    }

    #[test]
    fn division_support_matches_paper() {
        // The paper's division experiments use kmeans and hotspot;
        // independent-thread workloads (nbody, QG, SC, srad) also divide;
        // bfs/lud/PF have cross-chunk dependencies.
        let suite = all_workloads(1);
        let div: Vec<&str> = suite
            .iter()
            .filter(|w| w.profile().divisible)
            .map(|w| w.profile().name)
            .collect();
        for required in ["kmeans", "hotspot", "nbody", "QG", "streamcluster", "srad_v2"] {
            assert!(div.contains(&required), "{required} should be divisible");
        }
        for excluded in ["bfs", "lud", "PF"] {
            assert!(!div.contains(&excluded), "{excluded} should not be divisible");
        }
    }

    #[test]
    fn small_suite_executes_quickly_and_deterministically() {
        let small = || -> Vec<Box<dyn Workload>> {
            TABLE2_NAMES
                .iter()
                .map(|n| by_name_small(n, 9).expect("registered name"))
                .collect()
        };
        let (mut suite_a, mut suite_b) = (small(), small());
        for (a, b) in suite_a.iter_mut().zip(suite_b.iter_mut()) {
            let iters = a.iterations().min(2);
            for i in 0..iters {
                a.execute(i, 0.0);
                b.execute(i, 0.0);
            }
            assert_eq!(a.digest(), b.digest(), "{} not deterministic", a.profile().name);
        }
    }

    #[test]
    fn enlargements_echo_table2() {
        let all = all_workloads(1);
        let get = |n: &str| {
            all.iter()
                .find(|w| w.profile().name == n)
                .map(|w| w.profile().enlargement.clone())
                .unwrap()
        };
        assert!(get("bfs").contains("65536"));
        assert!(get("hotspot").contains("2048 by 2048"));
        assert!(get("kmeans").contains("988040"));
        assert!(get("streamcluster").contains("65536 points with 512 dimensions"));
    }
}
