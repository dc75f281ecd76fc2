//! Per-(workload, card) service profiles over the frequency-pair grid.
//!
//! The cluster tier schedules whole workload runs, so it needs each run's
//! wall time and utilization signature *as a function of the node's
//! frequency pair* — the same exhaustive pair enumeration the single-node
//! frequency oracle performs, evaluated through the engine's phase cost
//! model ([`greengpu_workloads::phase_gpu_timing`]). A profile is built
//! once per (workload, GPU spec): a fleet keeps one `ProfileTable` per
//! distinct GPU spec, shared by every node with that spec.

use crate::telemetry::NameTable;
use greengpu_hw::GpuSpec;
use greengpu_workloads::registry::by_name_small;
use greengpu_workloads::{phase_gpu_timing, GpuPhase};
use std::collections::BTreeMap;

/// Service time and utilization signature of one workload on one card,
/// tabulated over every (core, mem) frequency pair.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// Registry name.
    pub workload: String,
    n_core: usize,
    n_mem: usize,
    time_s: Vec<f64>,
    u_core: Vec<f64>,
    u_mem: Vec<f64>,
}

impl ServiceProfile {
    /// Profiles `name` (small preset, all work on the GPU) on `spec`.
    /// Returns `None` for unknown registry names.
    pub fn build(name: &str, seed: u64, spec: &GpuSpec) -> Option<ServiceProfile> {
        let wl = by_name_small(name, seed)?;
        // Every iteration's phases in run order, built once for all pairs.
        let phases: Vec<GpuPhase> = (0..wl.iterations()).flat_map(|k| wl.phases(k)).map(|p| p.gpu).collect();
        let n_core = spec.core_levels_mhz.len();
        let n_mem = spec.mem_levels_mhz.len();
        let mut time_s = Vec::with_capacity(n_core * n_mem);
        let mut u_core = Vec::with_capacity(n_core * n_mem);
        let mut u_mem = Vec::with_capacity(n_core * n_mem);
        for i in 0..n_core {
            for j in 0..n_mem {
                let (core_mhz, mem_mhz) = (spec.core_levels_mhz[i], spec.mem_levels_mhz[j]);
                let (mut total, mut uc, mut um) = (0.0f64, 0.0f64, 0.0f64);
                for phase in &phases {
                    let t = phase_gpu_timing(phase, spec, core_mhz, mem_mhz);
                    total += t.wall_s;
                    uc += t.u_core * t.wall_s;
                    um += t.u_mem * t.wall_s;
                }
                assert!(total > 0.0, "{name} has zero service time");
                time_s.push(total);
                u_core.push(uc / total);
                u_mem.push(um / total);
            }
        }
        Some(ServiceProfile {
            workload: name.to_string(),
            n_core,
            n_mem,
            time_s,
            u_core,
            u_mem,
        })
    }

    fn idx(&self, core: usize, mem: usize) -> usize {
        core * self.n_mem + mem
    }

    /// Full-run wall time at a frequency pair (size 1.0), seconds.
    pub fn time_s(&self, core: usize, mem: usize) -> f64 {
        self.time_s[self.idx(core, mem)]
    }

    /// Time-weighted mean core utilization at a pair.
    pub fn u_core(&self, core: usize, mem: usize) -> f64 {
        self.u_core[self.idx(core, mem)]
    }

    /// Time-weighted mean memory utilization at a pair.
    pub fn u_mem(&self, core: usize, mem: usize) -> f64 {
        self.u_mem[self.idx(core, mem)]
    }

    /// Wall time at peak clocks — the reference service time deadlines
    /// are scaled from.
    pub fn peak_time_s(&self) -> f64 {
        self.time_s(self.n_core - 1, self.n_mem - 1)
    }

    /// Estimated GPU energy of a full run at a pair (activity-aware),
    /// joules.
    pub fn energy_j(&self, spec: &GpuSpec, core: usize, mem: usize, size: f64) -> f64 {
        let power_w = spec.power_at_levels_w(core, mem, self.u_core(core, mem), self.u_mem(core, mem));
        self.time_s(core, mem) * size * power_w
    }

    /// Oracle-style estimate under a power cap: the (time, energy) of the
    /// minimum-energy pair whose modeled worst-case power fits `cap_w`,
    /// falling back to the lowest pair when nothing fits.
    pub fn best_under_cap(&self, spec: &GpuSpec, cap_w: f64, size: f64) -> (f64, f64) {
        let mut best: Option<(f64, f64)> = None;
        for i in 0..self.n_core {
            for j in 0..self.n_mem {
                if spec.power_at_levels_w(i, j, 1.0, 1.0) > cap_w {
                    continue;
                }
                let cand = (self.time_s(i, j) * size, self.energy_j(spec, i, j, size));
                if best.is_none_or(|b| cand.1 < b.1) {
                    best = Some(cand);
                }
            }
        }
        best.unwrap_or((self.time_s(0, 0) * size, self.energy_j(spec, 0, 0, size)))
    }
}

/// One GPU spec's service profiles for a workload mix, in sorted name
/// order. Nodes hold it behind an `Arc`, so a fleet keeps one table per
/// distinct spec instead of one per node.
#[derive(Debug)]
pub(crate) struct ProfileTable {
    /// Workload names interned in sorted order; ids index `profiles`.
    names: NameTable,
    /// Profiles in interned-id order: the per-window hot path resolves a
    /// job's profile by `u32` id, never by `String` key.
    profiles: Vec<ServiceProfile>,
}

impl ProfileTable {
    /// Profiles every workload of `mix` on `gpu`; an unknown name is an
    /// error naming it.
    pub(crate) fn build(mix: &[String], seed: u64, gpu: &GpuSpec) -> Result<Self, String> {
        let profiles: BTreeMap<String, ServiceProfile> = mix
            .iter()
            .map(|name| {
                ServiceProfile::build(name, seed, gpu)
                    .map(|p| (name.clone(), p))
                    .ok_or_else(|| format!("unknown workload {name:?} in mix"))
            })
            .collect::<Result<_, String>>()?;
        Ok(ProfileTable::from(profiles))
    }

    /// The interned id of a mix workload.
    pub(crate) fn id(&self, workload: &str) -> Option<u32> {
        self.names.get(workload)
    }

    /// The profile behind an interned id.
    pub(crate) fn by_id(&self, id: u32) -> Option<&ServiceProfile> {
        self.profiles.get(id as usize)
    }

    /// The profile of a mix workload.
    pub(crate) fn get(&self, workload: &str) -> Option<&ServiceProfile> {
        self.by_id(self.id(workload)?)
    }

    /// Every profile, in sorted name order.
    pub(crate) fn profiles(&self) -> &[ServiceProfile] {
        &self.profiles
    }
}

impl From<BTreeMap<String, ServiceProfile>> for ProfileTable {
    fn from(map: BTreeMap<String, ServiceProfile>) -> Self {
        let mut names = NameTable::new();
        let profiles = map
            .into_iter()
            .map(|(name, profile)| {
                names.intern(&name);
                profile
            })
            .collect();
        ProfileTable { names, profiles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greengpu_hw::calib::geforce_8800_gtx;

    #[test]
    fn unknown_workload_is_none() {
        assert!(ServiceProfile::build("nope", 1, &geforce_8800_gtx()).is_none());
    }

    #[test]
    fn peak_pair_is_fastest() {
        let spec = geforce_8800_gtx();
        let p = ServiceProfile::build("hotspot", 1, &spec).unwrap();
        let peak = p.peak_time_s();
        for i in 0..6 {
            for j in 0..6 {
                assert!(p.time_s(i, j) >= peak - 1e-12, "({i},{j}) beat the peak pair");
            }
        }
        assert!(p.time_s(0, 0) > peak, "lowest pair should be strictly slower");
    }

    #[test]
    fn utilizations_are_fractions() {
        let spec = geforce_8800_gtx();
        for name in ["hotspot", "kmeans"] {
            let p = ServiceProfile::build(name, 2, &spec).unwrap();
            for i in 0..6 {
                for j in 0..6 {
                    assert!((0.0..=1.0).contains(&p.u_core(i, j)));
                    assert!((0.0..=1.0).contains(&p.u_mem(i, j)));
                }
            }
        }
    }

    #[test]
    fn cap_constrains_the_oracle_estimate() {
        let spec = geforce_8800_gtx();
        let p = ServiceProfile::build("kmeans", 3, &spec).unwrap();
        let unconstrained = p.best_under_cap(&spec, f64::INFINITY, 1.0);
        let tight = p.best_under_cap(&spec, spec.power_at_levels_w(0, 0, 1.0, 1.0), 1.0);
        assert!(tight.0 >= unconstrained.0, "a tight cap cannot be faster");
    }
}
