//! Host-speed normalisation of wall times.
//!
//! The benchmark shares a virtual machine's CPU with other tenants, and
//! the speed it gets moves by ±15% over tens of seconds: one run of a
//! workload sees one speed, the next run another, while the operations
//! inside a run agree within a few percent. So every timed operation is
//! bracketed by a fixed reference loop, the benchmark's own code and not
//! the program's, run on the same CPU (the benchmark is pinned to one),
//! and its wall time is scaled by `REF_NOMINAL_MS` ÷ the mean of the two
//! reference times around it. A timing then reads as on a host where the
//! reference takes [`REF_NOMINAL_MS`]; a slower program reads slower, a
//! busier host does not.

use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time on the nominal host, in ms.
pub const REF_NOMINAL_MS: f64 = 1.0;
/// Rounds of the reference loop: about 1 ms on a 2-vCPU x86-64 host.
const REF_ROUNDS: usize = 10_000;

/// Wall time of one run of the reference loop, in ms: 512 × 512-bit
/// schoolbook multiplications folded back to 512 bits, the same mix of
/// 64-bit multiplies and carries as the program's bignum arithmetic.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut a: [u64; 8] = [0x9E37_79B9_7F4A_7C15, 3, 5, 7, 11, 13, 17, 19];
    let b: [u64; 8] = [
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
        23,
        29,
        31,
        37,
        41,
        43,
    ];
    for _ in 0..REF_ROUNDS {
        let mut r = [0u64; 16];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(r[i + j]) + carry;
                r[i + j] = t as u64;
                carry = t >> 64;
            }
            r[i + 8] = carry as u64;
        }
        for i in 0..8 {
            a[i] = r[i] ^ r[i + 8].rotate_left(7);
        }
        a = black_box(a);
    }
    black_box(a);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Reference times taken between timed operations.
#[derive(Debug)]
pub struct HostClock {
    last: f64,
    /// Every reference time taken, in ms.
    pub refs: Vec<f64>,
}

impl HostClock {
    /// Takes the reference time that opens the first interval.
    pub fn start() -> Self {
        let last = reference_ms();
        HostClock {
            last,
            refs: vec![last],
        }
    }

    /// Closes the interval since the last call: takes a new reference
    /// time and returns the factor that scales the interval's wall times
    /// to the nominal host.
    pub fn scale(&mut self) -> f64 {
        let now = reference_ms();
        let factor = 2.0 * REF_NOMINAL_MS / (self.last + now);
        self.last = now;
        self.refs.push(now);
        factor
    }
}
