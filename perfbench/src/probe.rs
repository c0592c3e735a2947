//! The host-speed probe: a fixed piece of work of the benchmark's own,
//! run between ops, whose time says how fast the host is right now.
//!
//! The sandbox is a few cores of a shared host. Its speed moves by
//! 15–20 % for seconds to minutes at a time as neighbours come and go,
//! and it moves much the same way for every kind of code: over ten
//! minutes of `train-hdc-inproc` the per-second slowdown of a step and
//! that of the probe correlate at 0.89, and dividing one by the other
//! cuts the spread of 15-second medians from 6.3 % to 1.1 %. So host
//! times are reported at the reference speed: wall time divided by the
//! slowdown the probe saw next to it.

use std::time::Instant;

use crate::stats::median;

/// Bytes the chain part walks; they stay in the second-level cache.
const CHAIN_BYTES: usize = 512 * 1024;

/// What the chain part must compute, whatever the host's speed.
const CHAIN_CHECK: u32 = 0xD122_22C2;

/// Side of the dense part's square matrices (three of them, 108 KiB)
/// and how often it multiplies them per pass.
const DENSE_SIDE: usize = 96;
const DENSE_REPS: usize = 16;

/// Seconds the two parts of a pass take at the reference speed: their
/// fastest deciles on the 2.1 GHz Xeon sandbox the benchmark was defined
/// on, with nothing else running. A host time reported by the benchmark
/// is what the work would take on a host on which they take this long.
pub const REFERENCE_CHAIN_S: f64 = 1.265e-3;
pub const REFERENCE_DENSE_S: f64 = 1.130e-3;

/// The probe's fixed work, in two parts, because a busy neighbour slows
/// two kinds of code differently. The chain part is a byte-at-a-time
/// table CRC-32 over a fixed buffer: a serial dependency chain through
/// first-level cache loads that no compiler vectorises; it follows the
/// core's clock. The dense part is a small `f32` matrix product the
/// compiler vectorises; it keeps the core's ports busy, so it also
/// feels a neighbour on the sibling hardware thread. No library change
/// touches either.
pub struct Probe {
    table: [u32; 256],
    bytes: Vec<u8>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    /// The last element of the product, computed once the slow way.
    dense_check: f32,
}

impl Probe {
    pub fn new() -> Probe {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let bytes = (0..CHAIN_BYTES).map(|i| (i * 31 % 251) as u8).collect();
        let n = DENSE_SIDE;
        let a: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 * 0.125).collect();
        let b: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 * 0.25).collect();
        // In the order the dense part adds them up.
        let mut dense_check = 0.0f32;
        for _ in 0..DENSE_REPS {
            for k in 0..n {
                dense_check += a[(n - 1) * n + k] * b[k * n + n - 1];
            }
        }
        Probe {
            table,
            bytes,
            a,
            b,
            c: vec![0.0; n * n],
            dense_check,
        }
    }

    fn chain(&self) -> u32 {
        let mut crc = !0u32;
        for &b in &self.bytes {
            crc = self.table[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn dense(&mut self) -> f32 {
        let n = DENSE_SIDE;
        self.c.fill(0.0);
        for _ in 0..DENSE_REPS {
            for i in 0..n {
                let c_row = &mut self.c[i * n..(i + 1) * n];
                for k in 0..n {
                    let a_ik = self.a[i * n + k];
                    let b_row = &self.b[k * n..(k + 1) * n];
                    for (c, b) in c_row.iter_mut().zip(b_row) {
                        *c += a_ik * b;
                    }
                }
            }
        }
        self.c[n * n - 1]
    }

    /// One pass: how many times slower than the reference the host ran
    /// each part.
    pub fn sample(&mut self) -> Pass {
        let t = Instant::now();
        let crc = std::hint::black_box(self.chain());
        let chain_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let last = std::hint::black_box(self.dense());
        let dense_s = t.elapsed().as_secs_f64();
        assert_eq!(
            crc, CHAIN_CHECK,
            "the probe's chain part computed something else"
        );
        assert_eq!(
            last.to_bits(),
            self.dense_check.to_bits(),
            "the probe's dense part computed something else"
        );
        Pass {
            chain: chain_s / REFERENCE_CHAIN_S,
            dense: dense_s / REFERENCE_DENSE_S,
        }
    }
}

/// The slowdown of each part of one probe pass against its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    pub chain: f64,
    pub dense: f64,
}

/// How many times slower than on the reference host a workload ran
/// while these passes were taken (`1.0` without passes): the medians of
/// the two parts, the dense one weighted by the workload's
/// `sibling_share` — how much of a busy sibling hardware thread the
/// workload feels, relative to the dense part.
pub fn slowdown(passes: &[Pass], sibling_share: f64) -> f64 {
    if passes.is_empty() {
        return 1.0;
    }
    let part = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<f64>>());
    (1.0 - sibling_share) * part(|p| p.chain) + sibling_share * part(|p| p.dense)
}

/// Consecutive ops that share one slowdown estimate: about half a
/// second of host time, long enough for the median of their probe
/// passes to be steady and short enough to follow the host (the slow
/// stretches of `netsim-sweep` last five to ten ops).
pub const BLOCK_OPS: usize = 8;

/// The op times of a run at the reference speed, without the stretches
/// in which something else held the host.
///
/// Ops are taken in blocks of [`BLOCK_OPS`]. Every op of a block is
/// divided by the block's [`slowdown`]; then the blocks are ranked by
/// their mean and the quieter half is kept, whole, so the spread of the
/// ops inside a block (the program's own tail) stays. Interference only
/// ever adds time, so the blocks that took the least are the ones
/// closest to the program's own cost.
pub fn quiet_ops(op_s: &[f64], passes: &[Pass], sibling_share: f64) -> Vec<f64> {
    let mut blocks: Vec<Vec<f64>> = op_s
        .chunks(BLOCK_OPS)
        .zip(passes.chunks(BLOCK_OPS))
        .map(|(ops, block)| {
            let slow = slowdown(block, sibling_share);
            ops.iter().map(|s| s / slow).collect()
        })
        .collect();
    let mean = |block: &Vec<f64>| block.iter().sum::<f64>() / block.len() as f64;
    blocks.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    blocks.truncate(blocks.len().div_ceil(2));
    blocks.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_repeats_its_work() {
        let mut probe = Probe::new();
        assert_eq!(probe.chain(), CHAIN_CHECK);
        assert_eq!(probe.dense().to_bits(), probe.dense_check.to_bits());
        assert!(probe.dense_check > 0.0);
        let pass = probe.sample();
        assert!(pass.chain > 0.0 && pass.dense > 0.0);
    }

    #[test]
    fn a_slow_host_cancels_out_and_a_disturbed_block_is_dropped() {
        let at = |chain: f64, dense: f64| vec![Pass { chain, dense }; BLOCK_OPS];
        // Four blocks of a 10 ms op that feels a busy sibling a quarter
        // as much as the dense part: at the reference speed; on a host
        // 20 % slower; with the sibling busy; and with a neighbour the
        // probe does not see.
        let mut op_s = vec![0.010; BLOCK_OPS];
        let mut passes = at(1.0, 1.0);
        op_s.extend(vec![0.012; BLOCK_OPS]);
        passes.extend(at(1.2, 1.2));
        op_s.extend(vec![0.0115; BLOCK_OPS]);
        passes.extend(at(1.0, 1.6));
        op_s.extend(vec![0.015; BLOCK_OPS]);
        passes.extend(at(1.0, 1.0));

        let kept = quiet_ops(&op_s, &passes, 0.25);
        // Three blocks come out at 10 ms; the one something else added
        // time to is dropped, and so is one of the three.
        assert_eq!(kept.len(), 2 * BLOCK_OPS);
        assert!(kept.iter().all(|s| (s - 0.010).abs() < 1e-9));

        assert_eq!(slowdown(&[], 0.5), 1.0);
        let three = [
            Pass {
                chain: 1.1,
                dense: 2.0,
            },
            Pass {
                chain: 1.5,
                dense: 1.0,
            },
            Pass {
                chain: 1.2,
                dense: 1.4,
            },
        ];
        assert!((slowdown(&three, 0.0) - 1.2).abs() < 1e-12);
        assert!((slowdown(&three, 1.0) - 1.4).abs() < 1e-12);
        assert!((slowdown(&three, 0.5) - 1.3).abs() < 1e-12);
        // A short run is one block, kept.
        assert_eq!(quiet_ops(&[0.010; 5], &at(1.0, 1.0)[..5], 0.5).len(), 5);
    }
}
