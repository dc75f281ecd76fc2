//! Host-speed calibration: a fixed kernel timed next to the workload, so
//! that a host-wide slowdown can be divided out of the reported times.
//!
//! The benchmark runs on shared hosts whose speed for cache-resident,
//! branchy code moves by tens of percent over minutes while co-tenants
//! come and go. The kernel below is code of that kind (a small
//! event-driven simulation over 2.5 MiB of node state, with a heap, a
//! hash map of short lists and float formatting) and belongs to
//! the benchmark, not to the library, so no change to the repository's
//! crates changes its cost. An invocation times passes of it between its
//! set-ups and runs; [`factor`] turns the median pass of a phase into the
//! share by which the host was slower or faster than [`NOMINAL_S`] during
//! it.

use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// Nominal seconds of one [`pass`]: a round figure near what a pass takes
/// on the 2-vCPU Xeon guest whose figures `perfbench/README.md` records,
/// in its faster phases. Calibrated times read as seconds on a host on
/// which a pass takes exactly this long.
pub const NOMINAL_S: f64 = 0.1;

/// A fixed-key hasher, so that the kernel's work does not depend on a
/// random hash seed.
type Fixed = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// xorshift64: the kernel's deterministic input stream.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One calibration pass: about [`NOMINAL_S`] of fixed work. Returns a
/// checksum of the work so that none of it can be optimised away.
pub fn pass() -> u64 {
    branchy_nodes(100)
}

/// A node of [`branchy_nodes`].
#[derive(Clone, Copy)]
struct Small {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    load: u32,
    state: u8,
}

/// 65 536 small nodes (2.5 MiB) stepped through a four-state machine for
/// `ticks` ticks, with a heap of events drained into a hash map of short
/// lists.
fn branchy_nodes(ticks: usize) -> u64 {
    let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15);
    let mut nodes: Vec<Small> = (0..65_536)
        .map(|i| Small {
            a: f64::from(i),
            b: 1.0,
            c: 0.5,
            d: 0.0,
            load: 0,
            state: 0,
        })
        .collect();
    let mut heap = BinaryHeap::new();
    let mut lists: HashMap<u64, Vec<u32>, Fixed> = HashMap::default();
    let mut acc = 0.0f64;
    let mut text = String::new();
    for tick in 0..ticks {
        for (i, n) in (0u32..).zip(nodes.iter_mut()) {
            let r = rng.next();
            if r & 7 == 0 {
                n.state = (n.state + 1) % 4;
            }
            match n.state {
                0 => n.a = n.a * 0.99 + (r >> 40) as f64 * 1e-9,
                1 => {
                    n.b = (n.b + n.a).sqrt();
                    n.load += 1;
                }
                2 => n.c = n.c * 0.5 + n.b * 0.25,
                _ => {
                    n.d += n.c - n.a * 1e-3;
                    n.load = n.load.saturating_sub(1);
                }
            }
            if r & 63 == 1 {
                heap.push((r >> 20, i));
            }
            acc += n.d;
        }
        for _ in 0..heap.len() / 2 {
            if let Some((key, i)) = heap.pop() {
                let list = lists.entry(key & 4095).or_default();
                list.push(i);
                if list.len() > 8 {
                    list.clear();
                }
            }
        }
        if tick % 10 == 0 {
            lists.retain(|key, _| key & 1 == 0);
        }
        text.clear();
        let _ = write!(text, "{acc:.3}{tick}");
        acc += text.len() as f64;
    }
    black_box((acc.to_bits(), lists.len(), heap.len())).0
}

/// The calibration factor for a median pass of `pass_s` seconds:
/// [`NOMINAL_S`] over it. Multiplying a host time measured in the same
/// phase by it gives the time on the nominal host.
pub fn factor(pass_s: f64) -> f64 {
    NOMINAL_S / pass_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_deterministic() {
        assert_eq!(branchy_nodes(2), branchy_nodes(2));
    }

    #[test]
    fn the_factor_divides_the_nominal_time_by_the_median_pass() {
        assert_eq!(factor(NOMINAL_S), 1.0);
        // A host twice as slow as nominal halves the unit's time.
        assert_eq!(factor(2.0 * NOMINAL_S), 0.5);
    }
}
