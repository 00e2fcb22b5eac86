//! The benchmark's own load generator: seeded SplitMix64, a precomputed
//! Zipf CDF, and one deterministic op stream per workload.
//!
//! The program under test only ever sees the generated requests; the seed
//! is an argument of the benchmark. Same seed and stream index ⇒ the same
//! requests, byte for byte (see the tests).

use knactor_apps::retail::sample_order;
use knactor_net::proto::Request;
use knactor_store::PutItem;
use knactor_types::{ObjectKey, StoreId};
use serde_json::json;

pub const KV_STORE: &str = "kv/state";
pub const KV_KEYS: usize = 1024;
pub const BATCH: usize = 16;
/// Every `MOTION_EVERY`-th home-telemetry op is a motion record — the flow
/// probe. 1 in 5 gives the 20 flows/s of the issue at the frozen 100 ops/s.
pub const MOTION_EVERY: u64 = 5;

/// The four workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvWire,
    KvDurable,
    RetailOrders,
    HomeTelemetry,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvWire,
        Workload::KvDurable,
        Workload::RetailOrders,
        Workload::HomeTelemetry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvWire => "kv-wire",
            Workload::KvDurable => "kv-durable",
            Workload::RetailOrders => "retail-orders",
            Workload::HomeTelemetry => "home-telemetry",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop rate of the `paced` phase, ops/s. Frozen at ≤ 40% of the
    /// `sat` capacity measured when the benchmark was defined (README).
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::KvWire => 8000.0,
            Workload::KvDurable => 800.0,
            Workload::RetailOrders => 40.0,
            Workload::HomeTelemetry => 100.0,
        }
    }

    /// On retail-orders the unit of work is the whole order flow: a closed
    /// loop slot stays taken until the order is complete.
    pub fn unit_is_flow(self) -> bool {
        self == Workload::RetailOrders
    }

    /// Requests (or flows) in flight per connection in the `sat` phase:
    /// 2 × 8 requests, or 2 × 4 = 8 order flows.
    pub fn sat_window(self) -> usize {
        if self.unit_is_flow() {
            4
        } else {
            8
        }
    }
}

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf over ranks `0..n` with exponent `theta`, sampled by binary search
/// in a precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Theoretical probability of `rank`.
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// What the oracle must remember about an op once it is acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub enum Digest {
    None,
    /// `(key rank, seq)` of every item written to the kv store.
    Writes(Vec<(u32, u64)>),
    Order {
        id: u64,
        eur: bool,
    },
    /// Lamp energy records: their kWh sum, in hundredths, and their number.
    Energy {
        centi_kwh: u64,
        records: u64,
    },
    Motion(u64),
}

#[derive(Debug, Clone)]
pub struct Op {
    pub request: Request,
    /// Flow id, when this op starts a flow the benchmark's watcher follows.
    pub flow: Option<u64>,
    pub digest: Digest,
}

pub fn kv_key(rank: usize) -> ObjectKey {
    ObjectKey::new(format!("k{rank:04}").as_str())
}

pub fn order_key(id: u64) -> ObjectKey {
    ObjectKey::new(format!("order-{id}").as_str())
}

/// One deterministic op stream. Streams of one run differ in `stream`
/// (one per generator task); ids they hand out never collide.
pub struct OpGen {
    workload: Workload,
    rng: SplitMix64,
    zipf: Zipf,
    /// Next id: stream index in the top bits, a counter below.
    next_id: u64,
    issued: u64,
    pad: String,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64, stream: u64) -> OpGen {
        let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let pad = match workload {
            Workload::KvWire => 64,
            Workload::KvDurable => 256,
            Workload::RetailOrders => 0,
            Workload::HomeTelemetry => 32,
        };
        OpGen {
            workload,
            rng: SplitMix64::new(mix.next_u64()),
            zipf: Zipf::new(KV_KEYS, 0.99),
            next_id: (stream << 40) + 1,
            issued: 0,
            pad: "x".repeat(pad),
        }
    }

    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn rank(&mut self) -> usize {
        let u = self.rng.unit();
        self.zipf.sample(u)
    }

    fn kv_patch(&mut self) -> (u32, u64, serde_json::Value) {
        let (rank, seq) = (self.rank(), self.id());
        (rank as u32, seq, json!({"seq": seq, "pad": self.pad}))
    }

    fn lamp_record(&mut self) -> (u64, serde_json::Value) {
        let centi = self.rng.below(500);
        // Hundredths of a kWh are exact in the oracle; the store sums f64.
        (
            centi,
            json!({"kind": "load", "kwh": centi as f64 / 100.0, "pad": self.pad}),
        )
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let draw = self.rng.unit();
        match self.workload {
            Workload::KvWire | Workload::KvDurable => self.next_kv(draw),
            Workload::RetailOrders => {
                let id = self.id();
                let cost = 20.0 + self.rng.below(2000) as f64;
                let eur = self.rng.below(4) == 0;
                let mut value = sample_order(cost);
                if eur {
                    let order = value.get_mut("order").and_then(|o| o.as_object_mut());
                    order
                        .expect("sample_order has an order object")
                        .insert("currency", json!("EUR"));
                }
                Op {
                    request: Request::Create {
                        store: StoreId::new("checkout/state"),
                        key: order_key(id),
                        value,
                    },
                    flow: Some(id),
                    digest: Digest::Order { id, eur },
                }
            }
            Workload::HomeTelemetry => self.next_home(draw),
        }
    }

    fn next_kv(&mut self, draw: f64) -> Op {
        let store = StoreId::new(KV_STORE);
        let durable = self.workload == Workload::KvDurable;
        // kv-wire: 70% get / 20% patch / 10% batch_get(16).
        // kv-durable: 80% patch / 20% batch_put(16).
        let (get_share, patch_share) = if durable { (0.0, 0.8) } else { (0.7, 0.9) };
        if draw < get_share {
            Op {
                request: Request::Get {
                    store,
                    key: kv_key(self.rank()),
                },
                flow: None,
                digest: Digest::None,
            }
        } else if draw < patch_share {
            let (rank, seq, patch) = self.kv_patch();
            Op {
                request: Request::Patch {
                    store,
                    key: kv_key(rank as usize),
                    patch,
                    upsert: true,
                },
                flow: Some(seq),
                digest: Digest::Writes(vec![(rank, seq)]),
            }
        } else if durable {
            let writes: Vec<_> = (0..BATCH).map(|_| self.kv_patch()).collect();
            Op {
                flow: writes.last().map(|w| w.1),
                digest: Digest::Writes(writes.iter().map(|w| (w.0, w.1)).collect()),
                request: Request::BatchPut {
                    store,
                    items: writes
                        .into_iter()
                        .map(|(rank, _, value)| PutItem {
                            key: kv_key(rank as usize),
                            value,
                            upsert: true,
                        })
                        .collect(),
                },
            }
        } else {
            Op {
                request: Request::BatchGet {
                    store,
                    keys: (0..BATCH).map(|_| kv_key(self.rank())).collect(),
                },
                flow: None,
                digest: Digest::None,
            }
        }
    }

    fn next_home(&mut self, draw: f64) -> Op {
        if self.issued.is_multiple_of(MOTION_EVERY) {
            let id = self.id();
            return Op {
                request: Request::LogAppend {
                    store: StoreId::new("motion/telemetry"),
                    fields: json!({"triggered": id.is_multiple_of(2), "probe": id}),
                },
                flow: Some(id),
                digest: Digest::Motion(id),
            };
        }
        let lamp = StoreId::new("lamp/telemetry");
        // 30% get config / 50% log_append / 20% log_append_batch(16).
        if draw < 0.3 {
            let dev = ["house", "lamp", "motion"][self.rng.below(3) as usize];
            Op {
                request: Request::Get {
                    store: StoreId::new(format!("{dev}/config")),
                    key: ObjectKey::new("state"),
                },
                flow: None,
                digest: Digest::None,
            }
        } else if draw < 0.8 {
            let (centi_kwh, fields) = self.lamp_record();
            Op {
                request: Request::LogAppend {
                    store: lamp,
                    fields,
                },
                flow: None,
                digest: Digest::Energy {
                    centi_kwh,
                    records: 1,
                },
            }
        } else {
            let records: Vec<_> = (0..BATCH).map(|_| self.lamp_record()).collect();
            Op {
                digest: Digest::Energy {
                    centi_kwh: records.iter().map(|r| r.0).sum(),
                    records: BATCH as u64,
                },
                request: Request::LogAppendBatch {
                    store: lamp,
                    batch: records.into_iter().map(|r| r.1).collect(),
                },
                flow: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_net::proto;

    fn bytes(workload: Workload, seed: u64, stream: u64, n: usize) -> Vec<u8> {
        let mut gen = OpGen::new(workload, seed, stream);
        let mut out = Vec::new();
        for _ in 0..n {
            out.extend(proto::encode(&gen.next_op().request).unwrap());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_ops() {
        for w in Workload::ALL {
            assert_eq!(bytes(w, 7, 0, 500), bytes(w, 7, 0, 500), "{}", w.name());
            assert_ne!(bytes(w, 7, 0, 500), bytes(w, 8, 0, 500), "{}", w.name());
            assert_ne!(bytes(w, 7, 0, 500), bytes(w, 7, 1, 500), "{}", w.name());
        }
    }

    #[test]
    fn zipf_mass_matches_theory() {
        let zipf = Zipf::new(KV_KEYS, 0.99);
        let total: f64 = (0..KV_KEYS).map(|r| zipf.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let mut rng = SplitMix64::new(42);
        let n = 400_000;
        let mut hits = vec![0u32; KV_KEYS];
        for _ in 0..n {
            hits[zipf.sample(rng.unit())] += 1;
        }
        for rank in [0, 1, 2, 9, 99] {
            let seen = hits[rank] as f64 / n as f64;
            let want = zipf.mass(rank);
            assert!(
                (seen - want).abs() < 0.1 * want + 0.0005,
                "rank {rank}: saw {seen}, theory {want}"
            );
        }
        // θ=0.99 over 1024 keys: the hottest key draws about 13% of picks.
        assert!((zipf.mass(0) - 0.133).abs() < 0.01, "{}", zipf.mass(0));
    }

    #[test]
    fn mixes_follow_the_issue() {
        let share = |w: Workload, pred: fn(&Request) -> bool| {
            let mut gen = OpGen::new(w, 3, 0);
            (0..20_000).filter(|_| pred(&gen.next_op().request)).count() as f64 / 20_000.0
        };
        let near = |got: f64, want: f64| (got - want).abs() < 0.02;
        assert!(near(
            share(Workload::KvWire, |r| matches!(r, Request::Get { .. })),
            0.7
        ));
        assert!(near(
            share(Workload::KvWire, |r| matches!(r, Request::Patch { .. })),
            0.2
        ));
        assert!(near(
            share(Workload::KvDurable, |r| matches!(
                r,
                Request::BatchPut { .. }
            )),
            0.2
        ));
        assert!(near(
            share(Workload::HomeTelemetry, |r| matches!(
                r,
                Request::LogAppendBatch { .. }
            )),
            0.2 * 0.8
        ));
        assert!(near(
            share(
                Workload::HomeTelemetry,
                |r| matches!(r, Request::LogAppend { store, .. } if store.as_str() == "motion/telemetry")
            ),
            0.2
        ));
    }
}
