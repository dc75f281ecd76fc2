//! Golden functional digests: every Table II workload's full functional
//! run, pinned bit for bit.
//!
//! The in-module tests compare each kernel with a reference built from the
//! same generated inputs, so a generator that drew its inputs in another
//! order would still pass them. These constants pin the inputs too: each
//! run executes every iteration at CPU share 0.3 (0.0 for non-divisible
//! workloads), and the final `digest()` must match to the bit. After a
//! `reset()` the rerun must repeat every iteration's result as well, since
//! a converged run can reach the same final digest from a stale start.

use greengpu_workloads::registry::{by_name, by_name_small};
use greengpu_workloads::Workload;

/// The repro's default seed.
const SEED: u64 = 20_120_910;

/// `digest().to_bits()` after a full run, small presets.
const SMALL: [(&str, u64); 9] = [
    ("bfs", 0x40b5_f100_0000_0000),
    ("lud", 0x40c6_9e61_a46f_ff1d),
    ("nbody", 0x400c_ecb7_0f4c_d6a7),
    ("PF", 0x408e_7000_0000_0000),
    ("QG", 0x40bf_fe00_0000_0000),
    ("srad_v2", 0x40f0_8e5e_f394_e1f1),
    ("hotspot", 0x40f6_816c_d257_3fbb),
    ("kmeans", 0x40c4_b8e7_589f_9439),
    ("streamcluster", 0x40ea_8437_d9cf_d8cf),
];

/// `digest().to_bits()` after a full run, paper presets.
const PAPER: [(&str, u64); 2] = [("kmeans", 0x4129_9add_4426_38fc), ("bfs", 0x412c_29ca_0000_0000)];

/// Executes every iteration; returns the bits of each `execute` result,
/// then of the final digest.
fn full_run_bits(wl: &mut dyn Workload) -> Vec<u64> {
    let share = if wl.profile().divisible { 0.3 } else { 0.0 };
    let mut bits: Vec<u64> = (0..wl.iterations()).map(|k| wl.execute(k, share).to_bits()).collect();
    bits.push(wl.digest().to_bits());
    bits
}

fn check(mut wl: Box<dyn Workload>, want: u64, preset: &str) {
    let name = wl.profile().name;
    let first = full_run_bits(wl.as_mut());
    let got = first[first.len() - 1];
    assert_eq!(got, want, "{name} ({preset}): digest bits {got:#018x}");
    wl.reset();
    assert_eq!(
        full_run_bits(wl.as_mut()),
        first,
        "{name} ({preset}): the run after reset differs"
    );
}

#[test]
fn small_preset_digests_are_pinned() {
    for (name, want) in SMALL {
        check(by_name_small(name, SEED).expect("registered"), want, "small");
    }
}

#[test]
fn paper_preset_digests_are_pinned() {
    for (name, want) in PAPER {
        check(by_name(name, SEED).expect("registered"), want, "paper");
    }
}
