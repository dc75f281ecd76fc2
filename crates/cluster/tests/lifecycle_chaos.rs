//! Failure-lifecycle acceptance tests: same-interval cap reclamation,
//! job conservation under crashes, warm-beats-cold restart regret,
//! breaker cycling, and byte determinism of chaotic runs — plus pins for
//! the fleet-config validation satellites.

use greengpu_cluster::job::JobSpec;
use greengpu_cluster::power::mw;
use greengpu_cluster::{
    run_fleet, BreakerState, CircuitBreaker, FleetConfig, LifecycleParams, Node, NodeConfig, NodeState, Policy,
};
use greengpu_hw::ChaosPlan;
use greengpu_sim::{SimDuration, SimTime};

const SEED: u64 = 11;

fn chaotic_fleet(checkpoint: Option<u64>, seconds: u64) -> FleetConfig {
    let lifecycle = match checkpoint {
        None => LifecycleParams::default().cold_restarts(),
        Some(k) => LifecycleParams::default().with_checkpoint_period(k),
    };
    FleetConfig::homogeneous(4, 0.80, Policy::LeastLoaded, SimDuration::from_secs(seconds), SEED)
        .with_chaos(
            ChaosPlan::crashes_only(SEED ^ 0xC4A05, 0.03, (2.0, 6.0))
                .with_thermal(0.005, (3.0, 8.0))
                .with_blackouts(0.005, (2.0, 5.0)),
        )
        .with_lifecycle(lifecycle)
}

/// Acceptance: a crashed node's milliwatts are reclaimed the very
/// interval its crash lands — the first re-apportionment caps it at 0.
#[test]
fn crashed_nodes_cap_is_reclaimed_within_one_interval() {
    let r = run_fleet(&chaotic_fleet(Some(10), 120));
    assert!(r.crashes >= 3, "chaos must actually crash nodes, got {}", r.crashes);
    assert_eq!(r.crash_records.len() as u64, r.crashes);
    for rec in &r.crash_records {
        assert!(
            rec.cap_before_mw > 0,
            "node {} held no budget before its crash at {} s",
            rec.node,
            rec.at_s
        );
        assert_eq!(
            rec.cap_after_mw,
            Some(0),
            "node {}'s cap was not reclaimed at the first tick after its crash at {} s",
            rec.node,
            rec.at_s
        );
    }
}

/// Acceptance: crashes lose jobs to the retry queue, never silently.
/// Every admitted job is completed, dead-lettered, or still in flight.
#[test]
fn jobs_are_conserved_through_crashes() {
    for checkpoint in [None, Some(5)] {
        let r = run_fleet(&chaotic_fleet(checkpoint, 120));
        assert!(r.jobs_lost > 0, "crashes must interrupt some jobs");
        assert_eq!(
            r.admitted,
            r.completed.len() as u64 + r.dead_letter.len() as u64 + r.in_flight_at_end,
            "conservation: admitted != completed + dead-lettered + in-flight"
        );
        assert!(
            r.jobs_retried <= r.jobs_lost * u64::from(LifecycleParams::default().max_retries),
            "retries must respect the per-job budget"
        );
        assert!(
            !r.completed.is_empty(),
            "the fleet must still make progress under chaos"
        );
    }
}

/// Acceptance: a warm restart re-reaches the pre-crash argmax pair in
/// strictly fewer control intervals than a cold restart. Two identical
/// nodes, identically driven; only one checkpoints before the crash.
#[test]
fn warm_restart_recovers_strictly_faster_than_cold() {
    let mk = || {
        let mut n = Node::new(0, &NodeConfig::default_node(), &["kmeans".to_string()], 1);
        n.set_lifecycle(1.0, 1);
        n
    };
    let job = |id: u64| JobSpec {
        id,
        workload: "kmeans".to_string(),
        arrival: SimTime::ZERO,
        size: 50.0,
        deadline: None,
        tenant: 0,
    };
    let mut warm = mk();
    let mut cold = mk();
    let cap = mw(0.8 * warm.platform().gpu().spec().peak_power_w());

    // Identical warm-up: 30 capped one-second intervals of kmeans.
    let mut t = SimTime::ZERO;
    for node in [&mut warm, &mut cold] {
        node.dispatch(job(0), t);
    }
    for k in 1..=30u64 {
        let next = SimTime::from_secs(k);
        for node in [&mut warm, &mut cold] {
            node.advance(t, next);
            node.control_tick(next, cap);
        }
        t = next;
    }
    let target = warm.controller().desired_pair();
    assert_eq!(
        target,
        cold.controller().desired_pair(),
        "identical drive, identical argmax"
    );

    // Only one node checkpoints; both crash and restart identically.
    warm.take_checkpoint();
    for node in [&mut warm, &mut cold] {
        node.crash(t, 2.0);
    }
    while warm.state() != NodeState::Up || cold.state() != NodeState::Up {
        t += SimDuration::from_secs_f64(1.0);
        for node in [&mut warm, &mut cold] {
            node.lifecycle_tick(t);
        }
    }
    assert_eq!(warm.warm_restarts(), 1);
    assert_eq!(cold.cold_restarts(), 1);

    // Identical post-restart drive until both learners re-reach the
    // pre-crash argmax (or the horizon runs out for the cold one).
    for node in [&mut warm, &mut cold] {
        node.dispatch(job(1), t);
    }
    for _ in 0..60u64 {
        let next = t + SimDuration::from_secs_f64(1.0);
        for node in [&mut warm, &mut cold] {
            node.lifecycle_tick(next);
            node.advance(t, next);
            node.control_tick(next, cap);
        }
        t = next;
        if !warm.recoveries().is_empty() && !cold.recoveries().is_empty() {
            break;
        }
    }
    let w = warm.recoveries().first().expect("warm node must recover").intervals;
    match cold.recoveries().first() {
        Some(rec) => assert!(
            w < rec.intervals,
            "warm restart must recover strictly faster: warm {} vs cold {}",
            w,
            rec.intervals
        ),
        // Not recovering inside the horizon is also strictly slower.
        None => assert!(w < 60, "warm restart must recover inside the horizon"),
    }
}

/// A node restarts from the checkpoint it recorded exactly as a twin
/// restarts from that checkpoint's text installed verbatim: recording
/// and printing later is invisible to the learner.
#[test]
fn a_recorded_checkpoint_restores_as_its_text() {
    use greengpu::{Exp3Params, PolicySpec};
    let job = |id: u64| JobSpec {
        id,
        workload: "kmeans".to_string(),
        arrival: SimTime::ZERO,
        size: 50.0,
        deadline: None,
        tenant: 0,
    };
    for spec in [PolicySpec::default(), PolicySpec::Exp3(Exp3Params::default())] {
        let mk = || {
            let cfg = NodeConfig::default_node().with_freq_policy(spec.clone());
            let mut n = Node::new(0, &cfg, &["kmeans".to_string()], 1);
            n.set_lifecycle(1.0, 1);
            n
        };
        let (mut recorded, mut loaded) = (mk(), mk());
        let cap = mw(0.8 * recorded.platform().gpu().spec().peak_power_w());
        let mut t = SimTime::ZERO;
        for node in [&mut recorded, &mut loaded] {
            node.dispatch(job(0), t);
        }
        for k in 1..=30u64 {
            let next = SimTime::from_secs(k);
            for node in [&mut recorded, &mut loaded] {
                node.advance(t, next);
                node.control_tick(next, cap);
            }
            t = next;
        }
        recorded.take_checkpoint();
        let text = recorded.checkpoint_data().expect("a checkpoint was taken");
        loaded.load_checkpoint(text);
        for node in [&mut recorded, &mut loaded] {
            node.crash(t, 2.0);
        }
        while recorded.state() != NodeState::Up || loaded.state() != NodeState::Up {
            t += SimDuration::from_secs_f64(1.0);
            for node in [&mut recorded, &mut loaded] {
                node.lifecycle_tick(t);
            }
        }
        for node in [&mut recorded, &mut loaded] {
            node.dispatch(job(1), t);
        }
        for _ in 0..40u64 {
            let next = t + SimDuration::from_secs_f64(1.0);
            for node in [&mut recorded, &mut loaded] {
                node.lifecycle_tick(next);
                node.advance(t, next);
                node.control_tick(next, cap);
            }
            t = next;
            assert_eq!(
                recorded.controller().desired_pair(),
                loaded.controller().desired_pair(),
                "{} at {t:?}",
                spec.kind()
            );
        }
        assert_eq!(
            (recorded.warm_restarts(), loaded.warm_restarts()),
            (1, 1),
            "{}",
            spec.kind()
        );
        assert_eq!(recorded.recoveries(), loaded.recoveries(), "{}", spec.kind());
        for node in [&mut recorded, &mut loaded] {
            node.take_checkpoint();
        }
        assert_eq!(recorded.checkpoint_data(), loaded.checkpoint_data(), "{}", spec.kind());
    }
}

/// Acceptance: same seed, same config ⇒ byte-identical trace CSVs, even
/// under chaos; a different seed moves the failures.
#[test]
fn chaotic_runs_are_byte_deterministic() {
    let a = run_fleet(&chaotic_fleet(Some(10), 60));
    let b = run_fleet(&chaotic_fleet(Some(10), 60));
    assert_eq!(
        a.trace.to_table("t").to_csv(),
        b.trace.to_table("t").to_csv(),
        "same seed must reproduce the chaotic trace bytes"
    );
    assert_eq!(a.crash_records, b.crash_records);
    assert_eq!(a.recoveries, b.recoveries);

    let mut other = chaotic_fleet(Some(10), 60);
    other.seed ^= 0xDEAD;
    other.chaos = other.chaos.map(|mut p| {
        p.seed ^= 0xDEAD;
        p
    });
    let c = run_fleet(&other);
    assert_ne!(
        a.trace.to_table("t").to_csv(),
        c.trace.to_table("t").to_csv(),
        "a different seed must actually change the run"
    );
}

/// The scheduler's breaker opens on a crash, blocks dispatch while dark,
/// half-opens after the cooldown, and closes again on success — visible
/// in the fleet telemetry and counters.
#[test]
fn breakers_cycle_open_and_closed_around_crashes() {
    let r = run_fleet(&chaotic_fleet(Some(10), 120));
    assert_eq!(
        r.breaker_trips, r.crashes,
        "every crash trips its node's breaker exactly once"
    );
    assert!(
        r.trace.rows.iter().any(|row| row.open_breakers > 0),
        "some interval must show an open breaker"
    );
    assert!(
        r.trace.rows.last().map(|row| row.open_breakers) == Some(0)
            || r.trace.rows.iter().rev().take(5).any(|row| row.open_breakers == 0),
        "breakers must close again once nodes return"
    );
    assert!(
        r.trace.rows.iter().any(|row| row.up_nodes < 4),
        "some interval must show a node out of service"
    );
}

/// Unit walk of the breaker FSM against virtual time (the pure half of
/// the cycling assertion above).
#[test]
fn breaker_walks_the_full_cycle() {
    let mut b = CircuitBreaker::new(2.0, 3);
    assert_eq!(b.state(), BreakerState::Closed);
    b.record_failure(SimTime::from_secs(10));
    assert_eq!(b.state(), BreakerState::Open);
    b.tick(SimTime::from_secs(12));
    assert_eq!(b.state(), BreakerState::HalfOpen);
    b.record_success();
    assert_eq!(b.state(), BreakerState::Closed);
}

/// Satellite pin: the fleet config refuses zero nodes and non-positive
/// budgets with field-naming errors (and `run_fleet` would panic on
/// them, not mis-run).
#[test]
fn fleet_config_rejects_zero_nodes_and_bad_budgets() {
    let good = FleetConfig::homogeneous(2, 0.8, Policy::RoundRobin, SimDuration::from_secs(10), 1);
    assert!(good.try_validate().is_ok());

    let mut no_nodes = good.clone();
    no_nodes.nodes.clear();
    let err = no_nodes.try_validate().expect_err("empty fleet must be refused");
    assert!(err.contains("nodes"), "{err}");

    for bad_budget in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        let mut cfg = good.clone();
        cfg.budget_w = bad_budget;
        let err = cfg.try_validate().expect_err("bad budget must be refused");
        assert!(err.contains("budget_w"), "{err}");
    }
}

/// Satellite pin: chaos and lifecycle parameters are validated through
/// the same field-naming path.
#[test]
fn fleet_config_validates_chaos_and_lifecycle() {
    let good = FleetConfig::homogeneous(2, 0.8, Policy::RoundRobin, SimDuration::from_secs(10), 1);

    let mut bad_chaos = good.clone();
    bad_chaos.chaos = Some(ChaosPlan::crashes_only(1, -0.5, (2.0, 6.0)));
    let err = bad_chaos
        .try_validate()
        .expect_err("negative crash rate must be refused");
    assert!(err.contains("chaos") && err.contains("crash_rate_per_s"), "{err}");

    let mut bad_lifecycle = good;
    bad_lifecycle.lifecycle.checkpoint_period = Some(0);
    let err = bad_lifecycle
        .try_validate()
        .expect_err("zero checkpoint period must be refused");
    assert!(err.contains("lifecycle") && err.contains("checkpoint_period"), "{err}");
}
