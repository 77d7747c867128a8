//! Seeded input generation and the open-loop request schedule.
//!
//! Every input the benchmark feeds the program comes from here, as a pure
//! function of the `--seed` argument.

use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so one seed can
    /// feed several independent inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s` (inverse CDF by binary
/// search), with ranks scattered over the key space by a seeded odd
/// multiplier so the hot keys differ per seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    mul: u64,
    add: u64,
}

impl Zipf {
    /// A sampler over `n` keys (`n` a power of two, so the multiplier
    /// permutes the key space).
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        assert!(n.is_power_of_two(), "zipf key space must be a power of two");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, mul: rng.next_u64() | 1, add: rng.next_u64() }
    }

    /// One key.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64;
        let mask = self.cdf.len() as u64 - 1;
        (rank.wrapping_mul(self.mul).wrapping_add(self.add) & mask) as u32
    }
}

/// `len` Zipf keys over `n` slots.
pub fn zipf_keys(rng: &mut Rng, n: usize, s: f64, len: usize) -> Vec<u32> {
    let z = Zipf::new(n, s, rng);
    (0..len).map(|_| z.sample(rng)).collect()
}

/// Time source for the open-loop generator, so tests can inject stalls.
pub trait Clock {
    /// The current instant.
    fn now(&mut self) -> Instant;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&mut self, t: Instant);
}

/// The wall clock.
#[derive(Debug, Default)]
pub struct Wall;

impl Clock for Wall {
    fn now(&mut self) -> Instant {
        Instant::now()
    }
    fn sleep_until(&mut self, t: Instant) {
        let now = Instant::now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One open-loop request's timing, all relative to its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// Request index in the schedule.
    pub index: u64,
    /// When the schedule said to send it.
    pub due: Instant,
    /// How late the generator actually sent it.
    pub late: Duration,
    /// Due time to reply.
    pub latency: Duration,
}

/// A fixed-rate schedule: request `i` is due at `start + i·period`. The
/// generator sends each request at its due time or, when it is behind
/// (the previous reply came late), at once — latency is always measured
/// from the due time, so a stall is charged to every request it delays.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Due time of request 0.
    pub start: Instant,
    /// Interval between due times.
    pub period: Duration,
}

impl OpenLoop {
    /// Due time of request `i`.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }

    /// Issues requests `indices` in order until `end`, calling `send(i)`
    /// for each (it returns once the reply is in). Requests due at or after
    /// `end` are not sent.
    pub fn run<C: Clock>(
        &self,
        clock: &mut C,
        indices: impl Iterator<Item = u64>,
        end: Instant,
        mut send: impl FnMut(u64, &mut C),
    ) -> Vec<Sent> {
        let mut out = Vec::new();
        for index in indices {
            let due = self.due(index);
            if due >= end {
                break;
            }
            clock.sleep_until(due);
            let sent_at = clock.now();
            send(index, clock);
            let done = clock.now();
            out.push(Sent {
                index,
                due,
                late: sent_at.saturating_duration_since(due),
                latency: done.saturating_duration_since(due),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let a = zipf_keys(&mut Rng::new(7, 1), 1 << 12, 1.0, 5000);
        let b = zipf_keys(&mut Rng::new(7, 1), 1 << 12, 1.0, 5000);
        let c = zipf_keys(&mut Rng::new(8, 1), 1 << 12, 1.0, 5000);
        let d = zipf_keys(&mut Rng::new(7, 2), 1 << 12, 1.0, 5000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.iter().all(|&k| k < 1 << 12));
    }

    #[test]
    fn zipf_is_skewed() {
        let keys = zipf_keys(&mut Rng::new(3, 0), 1 << 10, 1.0, 100_000);
        let mut counts = vec![0u32; 1 << 10];
        for k in keys {
            counts[k as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 1 of a 1024-key s=1 Zipf carries ~13% of the mass.
        assert!(counts[0] > 10_000 && counts[0] < 16_000, "{}", counts[0]);
        assert!(counts[0] > 50 * counts[500]);
    }

    /// A simulated clock: sleeping jumps time forward; each send takes
    /// 1 ms except one injected stall.
    struct Fake {
        now: Instant,
    }

    impl Clock for Fake {
        fn now(&mut self) -> Instant {
            self.now
        }
        fn sleep_until(&mut self, t: Instant) {
            self.now = self.now.max(t);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let schedule = OpenLoop { start, period: ms(10) };
        let mut clock = Fake { now: start };
        let sent = schedule.run(&mut clock, 0.., start + ms(100), |i, c: &mut Fake| {
            c.now += if i == 2 { ms(35) } else { ms(1) };
        });
        assert_eq!(sent.len(), 10);
        let lat: Vec<u128> = sent.iter().map(|s| s.latency.as_millis()).collect();
        let late: Vec<u128> = sent.iter().map(|s| s.late.as_millis()).collect();
        // Request 2 stalls until t=55: requests 3..5 were due at 30, 40,
        // 50 and go out back to back, each charged its wait.
        assert_eq!(lat, vec![1, 1, 35, 26, 17, 8, 1, 1, 1, 1]);
        assert_eq!(late, vec![0, 0, 0, 25, 16, 7, 0, 0, 0, 0]);
    }
}
