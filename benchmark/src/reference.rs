//! The reference kernel: a fixed piece of work in the benchmark's own
//! files, timed before every pass, that says how fast the host is
//! running right now.
//!
//! The shared host's clock is not constant. Over minutes every timing
//! here, first deciles included, drifts by 10-25% with what the
//! neighbours do, the whole machine at once. The kernel drifts with
//! them: over twelve runs `sim_big`'s pass time spread 9.8% of its
//! median, the kernel's time 9.7%, their ratio 3.5% (`train_fit`: 6.8%,
//! 8.5%, 1.6%). So timings are reported at a nominal host speed, the
//! one at which the kernel takes `NOMINAL_S`: measured time x
//! `NOMINAL_S` / the kernel's time in the same run.
//!
//! What the kernel does not follow is the other disturbance, a
//! neighbour slowing one hardware thread by 1.3-1.8x for seconds at a
//! time (it barely slows the kernel's dependent chain of operations):
//! that one is met by two callers and first deciles, see `runner`.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the host this was written on, at the fastest
/// of the speeds it showed. Only a scale: it makes reported
/// milliseconds read like that host's milliseconds.
pub const NOMINAL_S: f64 = 2.7e-3;

const STEPS: usize = 1_000_000;
/// 256 KiB: resident in the second-level cache.
const WORDS: usize = 1 << 15;

pub struct Reference {
    buf: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            buf: vec![1; WORDS],
        }
    }

    /// Seconds one run of the kernel takes: a xorshift chain that picks
    /// a word, folds it into a float, and rewrites it on a data-dependent
    /// branch. Integer, floating-point, load, store and branch units all
    /// take part, and nothing of the library under test does.
    pub fn time(&mut self) -> f64 {
        let mask = self.buf.len() - 1;
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.buf[i];
            acc = acc * 0.999 + (v & 0xFFFF) as f64;
            self.buf[i] = if v & 1 == 0 { v.wrapping_add(x) } else { v ^ x };
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_milliseconds_and_repeats() {
        let mut r = Reference::new();
        let times: Vec<f64> = (0..5).map(|_| r.time()).collect();
        assert!(times.iter().all(|&t| t > 1e-5 && t < 1.0), "{times:?}");
    }
}
