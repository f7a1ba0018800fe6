//! The seeded open-loop schedule of `serve-mix`: arrival times and the
//! design of every job, a pure function of the workload seed.

/// Mean arrival rate (jobs per second of schedule).
pub const RATE: f64 = 4.0;
/// Fewest jobs a run schedules: p90 needs ten samples beyond it.
pub const MIN_JOBS: usize = 180;
/// Generator seeds of the hot set: the designs placed during set-up, which
/// two thirds of the jobs repeat (reusing their trained policy). The hot
/// set is pinned, like the place-* instances, so that the cost of the
/// repeated jobs does not change with the workload seed.
pub const HOT_SET: [u64; 3] = [1, 2, 3];

/// SplitMix64: a tiny, well-mixed generator (Steele et al., 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// One scheduled job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Scheduled send time, seconds after the schedule starts.
    pub at_s: f64,
    /// Generator seed of the job's design.
    pub design_seed: u64,
    /// Index into [`HOT_SET`] when the job repeats a set-up design (and so
    /// should reuse its trained policy).
    pub repeat_of: Option<usize>,
}

/// A whole run's schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub jobs: Vec<Job>,
    /// Schedule length in seconds.
    pub length_s: f64,
}

impl Schedule {
    /// Open-loop arrivals at [`RATE`] over `seconds` (stretched to hold at
    /// least [`MIN_JOBS`]): the schedule is cut into one slot per job and
    /// each job arrives at a uniformly random point of its slot. Unlike
    /// Poisson arrivals, whose bursts made the tail latency a function of
    /// how bursty a seed's schedule happened to be, this keeps the rate and
    /// bounds the burst size, so the queue stays short. Two
    /// thirds of the jobs (rounded down) repeat a hot-set design, at
    /// shuffled positions; the rest each get a design seed of their own.
    /// With half repeats the median would sit in the gap between the fast
    /// repeated jobs and the slow unique ones, where it is ill-conditioned.
    pub fn new(seed: u64, seconds: f64) -> Schedule {
        let n = MIN_JOBS.max((RATE * seconds).round() as usize);
        let length_s = n as f64 / RATE;
        let mut rng = SplitMix64::new(seed);
        // Unique design seeds stay clear of the hot set and well inside
        // JSON's exact-integer range.
        let mut next_unique = (rng.next_u64() >> 24) + 1000;
        let slot = length_s / n as f64;
        let times: Vec<f64> = (0..n).map(|i| (i as f64 + rng.next_f64()) * slot).collect();
        let mut repeat: Vec<bool> = (0..n).map(|i| i < n * 2 / 3).collect();
        for i in (1..n).rev() {
            repeat.swap(i, rng.below(i + 1));
        }
        let jobs = times
            .into_iter()
            .zip(repeat)
            .map(|(at_s, rep)| {
                if rep {
                    let k = rng.below(HOT_SET.len());
                    Job {
                        at_s,
                        design_seed: HOT_SET[k],
                        repeat_of: Some(k),
                    }
                } else {
                    next_unique += 1;
                    Job {
                        at_s,
                        design_seed: next_unique - 1,
                        repeat_of: None,
                    }
                }
            })
            .collect();
        Schedule { jobs, length_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(Schedule::new(7, 25.0), Schedule::new(7, 25.0));
        assert_ne!(Schedule::new(7, 25.0), Schedule::new(8, 25.0));
    }

    #[test]
    fn schedule_holds_enough_jobs_in_order() {
        for seed in 0..20 {
            let s = Schedule::new(seed, 25.0);
            assert!(s.jobs.len() >= MIN_JOBS);
            assert!((s.length_s - s.jobs.len() as f64 / RATE).abs() < 1e-9);
            // One arrival per slot: ordered, inside the schedule, and never
            // more than two within one slot's length.
            let slot = s.length_s / s.jobs.len() as f64;
            for (i, j) in s.jobs.iter().enumerate() {
                assert!(j.at_s >= i as f64 * slot && j.at_s < (i + 1) as f64 * slot);
            }
        }
        assert_eq!(Schedule::new(1, 100.0).jobs.len(), (RATE * 100.0) as usize);
    }

    #[test]
    fn two_thirds_repeat_the_hot_set_and_the_rest_are_unique() {
        let s = Schedule::new(3, 25.0);
        let repeats: Vec<&Job> = s.jobs.iter().filter(|j| j.repeat_of.is_some()).collect();
        assert_eq!(repeats.len(), s.jobs.len() * 2 / 3);
        for j in &repeats {
            assert_eq!(j.design_seed, HOT_SET[j.repeat_of.unwrap()]);
        }
        let unique: BTreeSet<u64> = s
            .jobs
            .iter()
            .filter(|j| j.repeat_of.is_none())
            .map(|j| j.design_seed)
            .collect();
        assert_eq!(unique.len(), s.jobs.len() - repeats.len());
        assert!(HOT_SET.iter().all(|w| !unique.contains(w)));
        // Every hot-set design is repeated at least once.
        for k in 0..HOT_SET.len() {
            assert!(repeats.iter().any(|j| j.repeat_of == Some(k)));
        }
    }

    #[test]
    fn splitmix_is_reproducible_and_uniform_enough() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<f64> = (0..10_000).map(|_| a.next_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert_eq!(xs[0].to_bits(), b.next_f64().to_bits());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
        assert!((0..1000).all(|_| a.below(3) < 3));
    }
}
