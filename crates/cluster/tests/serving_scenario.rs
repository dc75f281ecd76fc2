//! Multi-tenant serving scenario: engine equivalence, the extended
//! conservation ledger under chaos, and serving-config validation.
//!
//! The serving layer must not weaken any existing guarantee: both
//! engines stay byte-identical on tenant workloads, and every admitted
//! job is still accounted for — now with the deferral queue as a fourth
//! ledger bucket.

use greengpu_cluster::{
    run_fleet, EngineKind, FleetConfig, FleetReport, JobSpec, Policy, Scheduler, ServingConfig, SloClass,
    TenantDispatcher,
};
use greengpu_hw::ChaosPlan;
use greengpu_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const SEED: u64 = 0x5E41;
const HORIZON_S: u64 = 300;

fn serving_fleet(seed: u64, carbon_aware: bool, chaos: bool) -> FleetConfig {
    let cfg = FleetConfig::homogeneous(4, 0.80, Policy::LeastLoaded, SimDuration::from_secs(HORIZON_S), seed);
    let mut serving = ServingConfig::reference_mix(seed, HORIZON_S as f64, cfg.reference_size_scale());
    serving.carbon_aware = carbon_aware;
    let cfg = cfg.with_serving(serving);
    if chaos {
        cfg.with_chaos(
            ChaosPlan::crashes_only(seed ^ 0xC4A05, 0.02, (2.0, 6.0))
                .with_thermal(0.005, (3.0, 8.0))
                .with_blackouts(0.005, (2.0, 5.0)),
        )
    } else {
        cfg
    }
}

/// Every observable output of a serving run, flattened to one string;
/// `{:?}` on `f64` prints shortest round-trip digits, so equal digests
/// mean bit-equal floats.
fn digest(report: &FleetReport) -> String {
    format!(
        "trace={trace}\nserving={serving}\ncompleted={completed:?}\nper_node={per_node:?}\n\
         dead_letter={dead_letter:?}\ntenants={tenants:?}\nadmitted_by={admitted_by:?}\n\
         rejected_by={rejected_by:?}\n\
         counters=({admitted},{rejected},{deadline_misses},{in_flight},{deferred},{released},{pending})\n\
         energy=({gpu:?},{total:?})",
        trace = report.trace.to_table("t").to_csv(),
        serving = report.serving_trace.to_table("s").to_csv(),
        completed = report.completed,
        per_node = report.per_node_completed,
        dead_letter = report.dead_letter,
        tenants = report.tenant_names,
        admitted_by = report.admitted_by_tenant,
        rejected_by = report.rejected_by_tenant,
        admitted = report.admitted,
        rejected = report.rejected,
        deadline_misses = report.deadline_misses,
        in_flight = report.in_flight_at_end,
        deferred = report.jobs_deferred,
        released = report.jobs_released,
        pending = report.deferred_pending_at_end,
        gpu = report.gpu_energy_j,
        total = report.total_energy_j,
    )
}

/// Acceptance: the serving scenario is byte-identical per seed across
/// EngineKind::{Serial, EventDriven} — including the new serving trace
/// and per-tenant counters.
#[test]
fn serving_scenario_is_engine_byte_identical() {
    for chaos in [false, true] {
        let base = serving_fleet(SEED, true, chaos);
        let oracle = digest(&run_fleet(&base.clone().with_engine(EngineKind::Serial)));
        let got = digest(&run_fleet(&base.with_engine(EngineKind::EventDriven)));
        assert_eq!(got, oracle, "event engine diverged (chaos={chaos})");
    }
}

/// The extended conservation ledger: every admitted job is completed,
/// dead-lettered, parked in the deferral queue, or still in flight —
/// even while chaos crashes nodes and loses jobs to the retry machinery.
#[test]
fn serving_conservation_holds_under_chaos() {
    for (seed, aware) in [(SEED, true), (SEED + 1, true), (SEED, false)] {
        let report = run_fleet(&serving_fleet(seed, aware, true));
        assert!(report.crashes > 0, "chaos plan must actually crash nodes");
        assert_eq!(
            report.admitted,
            report.completed.len() as u64
                + report.dead_letter.len() as u64
                + report.deferred_pending_at_end
                + report.in_flight_at_end,
            "ledger broke (seed {seed}, aware {aware}): admitted {} completed {} dead {} deferred {} in_flight {}",
            report.admitted,
            report.completed.len(),
            report.dead_letter.len(),
            report.deferred_pending_at_end,
            report.in_flight_at_end,
        );
        // The deferral queue's own ledger.
        assert_eq!(
            report.jobs_deferred,
            report.jobs_released + report.deferred_pending_at_end,
            "deferral ledger broke (seed {seed}, aware {aware})"
        );
    }
}

/// The carbon-aware dispatcher actually defers best-effort work, only
/// best-effort work, and the per-tenant admission tallies tile the
/// fleet total.
#[test]
fn carbon_aware_run_defers_best_effort_and_tenant_tallies_tile() {
    let report = run_fleet(&serving_fleet(SEED, true, false));
    assert_eq!(report.tenant_names, vec!["interactive", "analytics", "batch"]);
    assert!(report.jobs_deferred > 0, "dirty windows must defer batch work");
    assert_eq!(
        report.admitted_by_tenant.iter().sum::<u64>(),
        report.admitted,
        "per-tenant admitted must tile the total"
    );
    assert_eq!(
        report.rejected_by_tenant.iter().sum::<u64>(),
        report.rejected,
        "per-tenant rejected must tile the total"
    );
    // Only the best-effort tenant (index 2) may sit in the serving
    // trace's deferral queue: latency/throughput jobs never defer, so
    // with deferral active the latency tenant's jobs all carry
    // deadlines and complete or stay in flight.
    for rec in &report.completed {
        if rec.spec.tenant == 0 {
            assert!(rec.spec.deadline.is_some(), "latency-bound jobs carry deadlines");
        } else {
            assert!(rec.spec.deadline.is_none());
        }
        assert!(rec.gpu_energy_j > 0.0, "completed jobs accrue GPU energy");
    }
    // The blind twin shares tenants and seed but never defers.
    let blind = run_fleet(&serving_fleet(SEED, false, false));
    assert_eq!(blind.jobs_deferred, 0);
    assert_eq!(blind.serving_trace.rows.len(), report.serving_trace.rows.len());
}

/// `FleetConfig::try_validate` names the offending tenant and field
/// through the serving path.
#[test]
fn fleet_validation_names_serving_tenant_and_field() {
    let mut cfg = serving_fleet(SEED, true, false);
    if let Some(s) = cfg.serving.as_mut() {
        s.tenants[2].slo = SloClass::BestEffort {
            deferral_horizon_s: -1.0,
        };
    }
    let err = cfg.try_validate().expect_err("negative horizon must be refused");
    assert!(
        err.contains("serving") && err.contains("batch") && err.contains("deferral_horizon_s"),
        "{err}"
    );

    let mut cfg = serving_fleet(SEED, true, false);
    if let Some(s) = cfg.serving.as_mut() {
        s.tenants[0].mix = vec![("warpdrive".to_string(), 1.0)];
    }
    let err = cfg.try_validate().expect_err("unknown workload must be refused");
    assert!(err.contains("interactive") && err.contains("warpdrive"), "{err}");

    let mut cfg = serving_fleet(SEED, true, false);
    if let Some(s) = cfg.serving.as_mut() {
        s.green_quantile = f64::NAN;
    }
    let err = cfg.try_validate().expect_err("NaN quantile must be refused");
    assert!(err.contains("green_quantile"), "{err}");

    assert!(serving_fleet(SEED, true, false).try_validate().is_ok());
}

/// A serving tenant may name any workload the fleet can profile, as the
/// single-stream arrival mix may: `training` validates and runs with the
/// conservation ledger intact, and an unknown name is still refused,
/// naming the mix.
#[test]
fn tenant_mixes_take_every_workload_the_fleet_profiles() {
    let with_first_mix = |name: &str| {
        let mut cfg = serving_fleet(SEED, true, false);
        if let Some(s) = cfg.serving.as_mut() {
            s.tenants[0].mix = vec![(name.to_string(), 1.0)];
        }
        cfg
    };
    let cfg = with_first_mix("training");
    assert_eq!(cfg.try_validate(), Ok(()));
    let report = run_fleet(&cfg);
    assert!(
        report.completed.iter().any(|r| r.spec.workload == "training"),
        "the interactive tenant's training jobs must complete"
    );
    assert_eq!(
        report.admitted,
        report.completed.len() as u64
            + report.dead_letter.len() as u64
            + report.deferred_pending_at_end
            + report.in_flight_at_end
    );

    let err = with_first_mix("warpdrive")
        .try_validate()
        .expect_err("unknown workload must be refused");
    assert!(err.contains("mix") && err.contains("warpdrive"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No starvation: however dirty the grid, a best-effort job is in the
    /// admission queue no later than `arrival + deferral_horizon_s`.
    #[test]
    fn deferred_jobs_release_within_their_horizon(
        seed in any::<u64>(),
        arrive_s in 0.0f64..280.0,
        horizon_s in 1.0f64..150.0,
    ) {
        let mut serving = ServingConfig::reference_mix(seed, 300.0, 1.0);
        serving.tenants[2].slo = SloClass::BestEffort { deferral_horizon_s: horizon_s };
        let mut d = TenantDispatcher::from_serving(&serving);
        let mut s = Scheduler::new(Policy::RoundRobin, 1024);
        let arrive = SimTime::ZERO + SimDuration::from_secs_f64(arrive_s);
        d.on_arrival(
            JobSpec {
                id: 0,
                workload: "hotspot".to_string(),
                arrival: arrive,
                size: 1.0,
                deadline: None,
                tenant: 2,
            },
            &mut s,
            arrive,
        );
        // Whether it dispatched immediately (green window) or deferred,
        // by the horizon it must be queued — and admitted exactly once.
        d.release_due(&mut s, arrive + SimDuration::from_secs_f64(horizon_s));
        prop_assert_eq!(s.depth(), 1);
        prop_assert_eq!(s.admitted(), 1);
        prop_assert_eq!(d.pending_len(), 0);
        prop_assert_eq!(d.jobs_deferred(), d.jobs_released());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full serving ledger holds for arbitrary seeds, with and
    /// without carbon awareness, while chaos crashes nodes.
    #[test]
    fn serving_ledger_holds_for_arbitrary_seeds(seed in any::<u64>(), aware in any::<bool>()) {
        let report = run_fleet(&serving_fleet(seed, aware, true));
        prop_assert_eq!(
            report.admitted,
            report.completed.len() as u64
                + report.dead_letter.len() as u64
                + report.deferred_pending_at_end
                + report.in_flight_at_end
        );
        prop_assert_eq!(
            report.jobs_deferred,
            report.jobs_released + report.deferred_pending_at_end
        );
        if !aware {
            prop_assert_eq!(report.jobs_deferred, 0);
        }
        prop_assert_eq!(report.admitted_by_tenant.iter().sum::<u64>(), report.admitted);
        prop_assert_eq!(report.rejected_by_tenant.iter().sum::<u64>(), report.rejected);
    }
}
