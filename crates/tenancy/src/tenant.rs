//! Tenants and the merged fleet-wide arrival stream.

use crate::arrival::ArrivalProcess;
use crate::slo::SloClass;
use greengpu_sim::{Fnv64, Pcg32, SplitMix64};
use std::collections::BTreeMap;

// Child-stream selectors for per-arrival decoration.
const STREAM_MIX: u64 = 0x7E_0021;
const STREAM_SIZE: u64 = 0x7E_0022;
const STREAM_SLACK: u64 = 0x7E_0023;

/// One tenant: a named traffic source with its own arrival process,
/// workload mix, size distribution, and SLO class.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Stable tenant name (telemetry key and seed-derivation input).
    pub name: String,
    /// Traffic shape.
    pub arrival: ArrivalProcess,
    /// Workload mix as `(workload registry name, weight)`: a Table II
    /// name or `training`, any name the fleet can profile. Weights need
    /// not sum to 1.
    pub mix: Vec<(String, f64)>,
    /// Uniform size-multiplier range.
    pub size_range: (f64, f64),
    /// Service objective.
    pub slo: SloClass,
}

impl TenantConfig {
    /// Non-panicking configuration check naming the offending field.
    /// The mix and sizes follow [`validate_mix`], as the fleet's own
    /// arrival mix does.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name must not be empty".to_string());
        }
        self.arrival.try_validate()?;
        validate_mix(&self.mix, self.size_range)?;
        self.slo.try_validate()
    }
}

/// The rules every arrival stream's workload mix and sizes follow, a
/// tenant's and the fleet's anonymous stream alike: a non-empty mix of
/// names the fleet can profile (the workloads
/// [`greengpu_workloads::registry::by_name_small`] builds), each with a
/// finite weight above 0, and a `size_range` that passes
/// [`validate_range`].
pub fn validate_mix(mix: &[(String, f64)], size_range: (f64, f64)) -> Result<(), String> {
    if mix.is_empty() {
        return Err("mix must not be empty".to_string());
    }
    for (name, weight) in mix {
        if greengpu_workloads::registry::by_name_small(name, 0).is_none() {
            return Err(format!("mix names a workload the fleet cannot profile: {name:?}"));
        }
        if !(weight.is_finite() && *weight > 0.0) {
            return Err(format!("mix weight for {name:?} must be finite and > 0, got {weight}"));
        }
    }
    validate_range("size_range", size_range)
}

/// Checks a uniform multiplier range `(lo, hi)`: both finite and
/// `0 < lo <= hi`. The error names `field`.
pub fn validate_range(field: &str, (lo, hi): (f64, f64)) -> Result<(), String> {
    if lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo {
        Ok(())
    } else {
        Err(format!("{field} must satisfy 0 < lo <= hi, got ({lo}, {hi})"))
    }
}

/// One arrival produced by a tenant, before the fleet turns it into a
/// job: everything here is fleet-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantArrival {
    /// Index into the tenant list the stream was generated from.
    pub tenant: usize,
    /// Arrival instant, seconds.
    pub at_s: f64,
    /// Workload registry name (see [`TenantConfig::mix`]).
    pub workload: String,
    /// Service-time multiplier.
    pub size: f64,
    /// Deadline slack multiplier (latency-bound tenants only): the
    /// deadline is `at_s + reference_time · size · slack`.
    pub deadline_slack: Option<f64>,
}

/// The seed of one tenant's private stream family: derived from the
/// root seed and the tenant *name* (FNV-1a), so a tenant's schedule is
/// invariant under reordering, adding, or removing *other* tenants —
/// and trivially invariant under fleet size, which never enters.
pub fn tenant_stream_seed(root_seed: u64, name: &str) -> u64 {
    let mut h = Fnv64::new();
    for b in name.as_bytes() {
        h.push_byte(*b);
    }
    SplitMix64::new(root_seed ^ h.finish()).next_u64()
}

/// Generates every tenant's decorated arrivals inside `[0, horizon_s)`
/// and merges them into one stream ordered by `(time, tenant)`.
///
/// Each tenant draws from its own seed family
/// ([`tenant_stream_seed`]), so per-tenant sub-streams are independent
/// of each other; the merge is a deterministic sort. Invalid tenants
/// contribute nothing (fleet-level validation rejects them earlier).
pub fn generate_tenant_arrivals(seed: u64, tenants: &[TenantConfig], horizon_s: f64) -> Vec<TenantArrival> {
    let mut merged: Vec<TenantArrival> = Vec::new();
    for (idx, tenant) in tenants.iter().enumerate() {
        if tenant.try_validate().is_err() {
            continue;
        }
        let child = tenant_stream_seed(seed, &tenant.name);
        let instants = tenant.arrival.generate(child, horizon_s);
        let root = SplitMix64::new(child).next_u64();
        let mut r_mix = Pcg32::new(root, STREAM_MIX);
        let mut r_size = Pcg32::new(root, STREAM_SIZE);
        let mut r_slack = Pcg32::new(root, STREAM_SLACK);
        let total_weight: f64 = tenant.mix.iter().map(|(_, w)| w).sum();
        for at_s in instants {
            let mut pick = r_mix.next_f64() * total_weight;
            let mut name = tenant.mix[0].0.as_str();
            for (n, w) in &tenant.mix {
                name = n.as_str();
                pick -= w;
                if pick <= 0.0 {
                    break;
                }
            }
            let size = r_size.uniform(tenant.size_range.0, tenant.size_range.1);
            let deadline_slack = match &tenant.slo {
                SloClass::LatencyBound {
                    deadline_slack: (lo, hi),
                } => Some(r_slack.uniform(*lo, *hi)),
                _ => None,
            };
            merged.push(TenantArrival {
                tenant: idx,
                at_s,
                workload: name.to_string(),
                size,
                deadline_slack,
            });
        }
    }
    merged.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.tenant.cmp(&b.tenant)));
    merged
}

/// The union of all tenants' mix names, sorted — the workload set a
/// fleet must profile to serve this tenant population.
pub fn mix_union(tenants: &[TenantConfig]) -> Vec<String> {
    let mut names: BTreeMap<&str, ()> = BTreeMap::new();
    for t in tenants {
        for (n, _) in &t.mix {
            names.insert(n.as_str(), ());
        }
    }
    names.keys().map(|n| (*n).to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn three_tenants() -> Vec<TenantConfig> {
        vec![
            TenantConfig {
                name: "interactive".to_string(),
                arrival: ArrivalProcess::Diurnal {
                    base_rate_per_s: 0.4,
                    amplitude: 0.7,
                    period_s: 120.0,
                    phase_s: 0.0,
                },
                mix: vec![("hotspot".to_string(), 1.0)],
                size_range: (0.5, 1.5),
                slo: SloClass::LatencyBound {
                    deadline_slack: (2.0, 6.0),
                },
            },
            TenantConfig {
                name: "analytics".to_string(),
                arrival: ArrivalProcess::Bursty {
                    rate_on_per_s: 1.5,
                    rate_off_per_s: 0.05,
                    mean_on_s: 15.0,
                    mean_off_s: 45.0,
                    on_pareto_alpha: None,
                },
                mix: vec![("kmeans".to_string(), 1.0)],
                size_range: (0.5, 2.0),
                slo: SloClass::ThroughputBound {
                    target_completion_rate: 0.8,
                },
            },
            TenantConfig {
                name: "batch".to_string(),
                arrival: ArrivalProcess::Batch {
                    rate_per_s: 0.6,
                    start_s: 30.0,
                    end_s: 300.0,
                },
                mix: vec![("hotspot".to_string(), 1.0), ("kmeans".to_string(), 1.0)],
                size_range: (1.0, 2.0),
                slo: SloClass::BestEffort {
                    deferral_horizon_s: 90.0,
                },
            },
        ]
    }

    #[test]
    fn merged_stream_is_deterministic_and_ordered() {
        let tenants = three_tenants();
        let a = generate_tenant_arrivals(17, &tenants, 400.0);
        let b = generate_tenant_arrivals(17, &tenants, 400.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        let c = generate_tenant_arrivals(18, &tenants, 400.0);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn per_tenant_streams_are_independent_of_other_tenants() {
        let tenants = three_tenants();
        let full = generate_tenant_arrivals(17, &tenants, 400.0);
        // Drop tenant 1: tenants 0 and 2 must keep their exact streams
        // (only the tenant indices shift).
        let reduced_cfg = vec![tenants[0].clone(), tenants[2].clone()];
        let reduced = generate_tenant_arrivals(17, &reduced_cfg, 400.0);
        let strip = |xs: &[TenantArrival], keep: usize| -> Vec<(f64, String, f64, Option<f64>)> {
            xs.iter()
                .filter(|a| a.tenant == keep)
                .map(|a| (a.at_s, a.workload.clone(), a.size, a.deadline_slack))
                .collect()
        };
        assert_eq!(strip(&full, 0), strip(&reduced, 0), "tenant 0 shifted");
        assert_eq!(strip(&full, 2), strip(&reduced, 1), "tenant 2 shifted");
    }

    #[test]
    fn slo_decoration_follows_the_class() {
        let tenants = three_tenants();
        let stream = generate_tenant_arrivals(5, &tenants, 400.0);
        for a in &stream {
            match a.tenant {
                0 => {
                    let slack = a.deadline_slack.expect("latency-bound jobs carry slack");
                    assert!((2.0..=6.0).contains(&slack));
                }
                _ => assert!(a.deadline_slack.is_none()),
            }
        }
    }

    #[test]
    fn mix_union_covers_every_tenant() {
        assert_eq!(
            mix_union(&three_tenants()),
            vec!["hotspot".to_string(), "kmeans".to_string()]
        );
    }

    #[test]
    fn validation_names_the_offending_field() {
        let mut t = three_tenants().remove(0);
        t.mix = vec![("warpdrive".to_string(), 1.0)];
        assert!(t.try_validate().unwrap_err().contains("warpdrive"));
        let mut t = three_tenants().remove(0);
        t.size_range = (0.0, 1.0);
        assert!(t.try_validate().unwrap_err().contains("size_range"));
        let mut t = three_tenants().remove(0);
        t.size_range = (2.0, 1.0);
        assert!(t.try_validate().unwrap_err().contains("size_range"));
        let mut t = three_tenants().remove(0);
        t.mix.clear();
        assert_eq!(t.try_validate().unwrap_err(), "mix must not be empty");
        for weight in [0.0, f64::NAN] {
            let mut t = three_tenants().remove(0);
            t.mix[0].1 = weight;
            let err = t.try_validate().unwrap_err();
            assert!(err.starts_with("mix weight for"), "{weight}: {err}");
        }
        let mut t = three_tenants().remove(0);
        t.name = String::new();
        assert!(t.try_validate().unwrap_err().contains("name"));
    }
}
