//! Seeded workloads: the initial dataset, the operation stream and the
//! plaintext oracle every search result is checked against.
//!
//! Everything here is a pure function of `(workload, seed)`: the same seed
//! yields the same records and the same operations in both the untraced
//! and the traced run.

use slicer_core::Query;

/// Untimed searches before the measured window.
pub const WARMUP_OPS: usize = 2;
/// Records per ingest operation.
pub const INGEST_BATCH: usize = 8;
/// Ingests appended after the measured window on the search-only
/// workloads, so every workload reports the ingest metrics.
pub const PROBE_INGESTS: usize = 20;
/// Threshold strata of the order (`lt` / `gt`) queries.
const STRATA: u64 = 16;
/// Escrowed fee attached to every search.
pub const PAYMENT: u128 = 1_000;

/// What a workload's measured window sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Alternating `lt` / `gt` with stratified uniform thresholds.
    Range,
    /// Equality on stored values drawn Zipf(1.0).
    Point,
    /// One ingest of [`INGEST_BATCH`] records, then one `eq` search on a
    /// Zipf(1.0) value and two `lt` / `gt` searches as in `Range`. (With
    /// one order search per `eq`, the search median would fall in the gap
    /// between the cheap `eq` and the costlier order searches, and swing
    /// with every run.)
    Mixed,
}

impl Mix {
    /// Operations in one full cycle of the mix's stratified thresholds.
    fn cycle(self) -> usize {
        match self {
            Mix::Range => 2 * STRATA as usize,
            Mix::Point => 1,
            // Two order queries per four operations.
            Mix::Mixed => 4 * STRATA as usize,
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub bits: u8,
    pub records: usize,
    pub mix: Mix,
    /// Measured-window operations per second of `--seconds`: about the
    /// rate `slicerd` sustains on this workload on the nominal host,
    /// so that the window takes about `--seconds` there.
    pub ops_per_s: f64,
}

impl Workload {
    /// Operations in the measured window of a run of `seconds`. The count
    /// is fixed by `seconds` alone, never by how fast the program runs,
    /// so every run of a seed measures the same operations on the same
    /// state; it is a whole number of threshold cycles.
    pub fn window_ops(&self, seconds: u64) -> usize {
        let cycle = self.mix.cycle();
        let cycles = (self.ops_per_s * seconds as f64 / cycle as f64).round();
        cycles.max(1.0) as usize * cycle
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "range-8b-10k",
        bits: 8,
        records: 10_000,
        mix: Mix::Range,
        ops_per_s: 10.5,
    },
    Workload {
        name: "point-16b-hot",
        bits: 16,
        records: 1_000,
        mix: Mix::Point,
        ops_per_s: 4.0,
    },
    Workload {
        name: "ingest-mix",
        bits: 8,
        records: 2_000,
        mix: Mix::Mixed,
        ops_per_s: 14.0,
    },
    Workload {
        name: "point-8b-10k",
        bits: 8,
        records: 10_000,
        mix: Mix::Point,
        ops_per_s: 40.0,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(1.0) over a seeded ranking of `values`.
#[derive(Debug)]
struct Zipf {
    ranked: Vec<u64>,
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(mut values: Vec<u64>, rng: &mut SplitMix) -> Self {
        rng.shuffle(&mut values);
        let mut total = 0.0;
        let cdf = (1..=values.len())
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect::<Vec<_>>();
        let cdf = cdf.iter().map(|c| c / total).collect();
        Zipf {
            ranked: values,
            cdf,
        }
    }

    fn sample(&self, rng: &mut SplitMix) -> u64 {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c <= u);
        self.ranked[i.min(self.ranked.len() - 1)]
    }
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    Search(Query),
    Ingest(Vec<(u64, u64)>),
}

/// The initial dataset: `(record id, value)` with ids `1..=records`.
///
/// Values are uniform and stratified: record `i` draws uniformly from the
/// `i`-th of `records` equal slices of the domain, and the values are then
/// shuffled over the ids. With more records than values every value is
/// stored ⌊records/domain⌋ or ⌈records/domain⌉ times, so result sizes,
/// and with them latency and gas, do not drift from seed to seed.
pub fn dataset(w: &Workload, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = SplitMix::new(seed, 1);
    let domain = 1u128 << w.bits;
    let n = w.records as u128;
    let mut values: Vec<u64> = (0..n)
        .map(|i| ((i * domain + u128::from(rng.below(domain as u64))) / n) as u64)
        .collect();
    rng.shuffle(&mut values);
    (1..).zip(values).collect()
}

/// Key-derivation seed of the deployment under test.
pub fn deploy_seed(seed: u64) -> u64 {
    SplitMix::new(seed, 2).next_u64()
}

/// Fresh records with uniform values and never-used ids.
#[derive(Debug)]
struct Batcher {
    rng: SplitMix,
    domain: u64,
    next_id: u64,
}

impl Batcher {
    fn batch(&mut self) -> Op {
        let batch = (0..INGEST_BATCH)
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                (id, self.rng.below(self.domain))
            })
            .collect();
        Op::Ingest(batch)
    }
}

/// The endless, seeded operation stream of a workload's measured window;
/// a run takes [`Workload::window_ops`] of it.
#[derive(Debug)]
pub struct OpStream {
    mix: Mix,
    rng: SplitMix,
    zipf: Zipf,
    ingests: Batcher,
    strata: Vec<u64>,
    orders: u64,
    step: u64,
}

impl OpStream {
    pub fn new(w: &Workload, seed: u64, data: &[(u64, u64)]) -> Self {
        let mut rng = SplitMix::new(seed, 3);
        let domain = 1u64 << w.bits;
        let values: Vec<u64> = match w.mix {
            // Hot keys come from the values actually stored.
            Mix::Point => {
                let mut v: Vec<u64> = data.iter().map(|&(_, v)| v).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            Mix::Range | Mix::Mixed => (0..domain).collect(),
        };
        let zipf = Zipf::new(values, &mut rng);
        OpStream {
            mix: w.mix,
            rng,
            zipf,
            ingests: Batcher {
                rng: SplitMix::new(seed, 4),
                domain,
                next_id: data.len() as u64 + 1,
            },
            strata: Vec::new(),
            orders: 0,
            step: 0,
        }
    }

    /// The next `lt` / `gt` query. Thresholds are stratified: each cycle
    /// of `2 * STRATA` order queries draws, in a seeded order, one `lt` and
    /// one `gt` threshold uniformly from each equal slice of the domain, so
    /// every window sees the same spread of result sizes whatever the
    /// seed. Neither direction is ever provably empty.
    fn order_query(&mut self) -> Query {
        let i = self.orders % (2 * STRATA);
        if i == 0 {
            self.strata = (0..2 * STRATA).collect();
            self.rng.shuffle(&mut self.strata);
        }
        self.orders += 1;
        let cell = self.strata[i as usize];
        // t is uniform in the stratum's share of 0..domain-1.
        let span = self.ingests.domain - 1;
        let t = ((cell % STRATA) * span + self.rng.below(span)) / STRATA;
        if cell < STRATA {
            Query::less_than(t + 1)
        } else {
            Query::greater_than(t)
        }
    }

    /// Searches run before the measured window, to warm the daemon up.
    /// They come from a generator of their own, so the window still
    /// starts at the beginning of a threshold cycle.
    pub fn warmup(&self, seed: u64) -> Vec<Op> {
        let mut rng = SplitMix::new(seed, 6);
        let top = self.ingests.domain - 1;
        (0..WARMUP_OPS)
            .map(|i| {
                Op::Search(match self.mix {
                    Mix::Point => Query::equal(self.zipf.sample(&mut rng)),
                    Mix::Range | Mix::Mixed if i % 2 == 0 => Query::less_than(rng.below(top) + 1),
                    Mix::Range | Mix::Mixed => Query::greater_than(rng.below(top)),
                })
            })
            .collect()
    }

    /// Ingests appended after the measured window on the search-only
    /// workloads, so that every workload reports the ingest metrics. They
    /// take ids after every id the window can have used.
    pub fn probe(&self, seed: u64) -> Vec<Op> {
        if self.mix == Mix::Mixed {
            return Vec::new();
        }
        let mut probe = Batcher {
            rng: SplitMix::new(seed, 5),
            domain: self.ingests.domain,
            next_id: self.ingests.next_id,
        };
        (0..PROBE_INGESTS).map(|_| probe.batch()).collect()
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = match self.mix {
            Mix::Range => Op::Search(self.order_query()),
            Mix::Point => Op::Search(Query::equal(self.zipf.sample(&mut self.rng))),
            Mix::Mixed => match self.step % 4 {
                0 => self.ingests.batch(),
                1 => Op::Search(Query::equal(self.zipf.sample(&mut self.rng))),
                _ => Op::Search(self.order_query()),
            },
        };
        self.step += 1;
        Some(op)
    }
}

/// Plaintext oracle: every live record, bucketed by value.
#[derive(Debug)]
pub struct Oracle {
    by_value: Vec<Vec<u64>>,
    live: u64,
}

impl Oracle {
    pub fn new(w: &Workload, data: &[(u64, u64)]) -> Self {
        let mut o = Oracle {
            by_value: vec![Vec::new(); 1usize << w.bits],
            live: 0,
        };
        o.insert(data);
        o
    }

    pub fn insert(&mut self, records: &[(u64, u64)]) {
        for &(id, v) in records {
            self.by_value[v as usize].push(id);
        }
        self.live += records.len() as u64;
    }

    pub fn live(&self) -> u64 {
        self.live
    }

    /// Sorted record ids a correct search must return.
    pub fn expect(&self, q: &Query) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .by_value
            .iter()
            .enumerate()
            .filter(|(v, _)| q.matches(*v as u64))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }
}
